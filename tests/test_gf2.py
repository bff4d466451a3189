"""GF(2) helpers: the big-endian bit-string <-> integer codec (gf2.pack
and gf2.unpack), the bit check gf2.as_bits and row reduction gf2.rref."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noisystorage import gf2
from noisystorage.codes import QidCode, identity_code

from reference import reference_pack, reference_rref, reference_unpack


@pytest.mark.parametrize("width", range(63))
def test_pack_inverts_unpack(width):
    rng = np.random.default_rng(width)
    top = 1 << width
    values = np.array([0, top - 1, top // 2, top // 3]
                      + rng.integers(0, top, 20).tolist(), dtype=np.int64)
    bits = gf2.unpack(values, width)
    assert bits.shape == (values.size, width)
    assert bits.dtype == np.uint8
    assert gf2.pack(bits).dtype == np.int64
    assert np.array_equal(gf2.pack(bits), values)


@pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 3)])
def test_unpack_zero_width_keeps_the_value_shape(shape):
    values = np.zeros(shape, dtype=np.int64)
    assert gf2.unpack(values, 0).shape == shape + (0,)
    assert np.array_equal(gf2.pack(gf2.unpack(values, 0)), values)
    assert gf2.unpack(0, 0).shape == (0,)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 63))
def test_codec_matches_per_bit_loops(data, width):
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1),
                                min_size=1, max_size=8))
    bits = gf2.unpack(np.array(values, dtype=np.int64), width)
    assert bits.tolist() == [reference_unpack(v, width) for v in values]
    assert gf2.pack(bits).tolist() == [reference_pack(row) for row in bits]
    assert gf2.pack(bits[:, np.newaxis, :]).tolist() == [[v] for v in values]


@settings(max_examples=300, deadline=None)
@given(st.integers(-(1 << 200), 1 << 200), st.integers(0, 150))
@example(0, 0)
@example(-1, 70)
@example((1 << 64) + 5, 66)
def test_unpack_of_a_python_int_matches_per_bit_loop(value, width):
    bits = gf2.unpack(value, width)
    assert bits.dtype == np.uint8
    assert bits.tolist() == reference_unpack(value, width)
    if -(1 << 63) <= value < 1 << 63 and width <= 64:
        # the int64 path agrees, negative values included
        assert gf2.unpack(np.int64(value), width).tolist() == bits.tolist()


HEX_DIGITS = "0123456789abcdefABCDEF"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "0x", "0X", "-", "-0x"]),
       st.text(HEX_DIGITS, min_size=1, max_size=120),
       st.integers(0, 600))
@example("", "0", 0)
@example("", "ffff", 0)
@example("-", "1", 67)
@example("0x", "1" + "0" * 100, 13)
def test_hex_to_bits_matches_per_bit_loop(prefix, digits, length):
    text = prefix + digits
    got = gf2.unpack(int(text, 16), length)
    want = np.array(reference_unpack(int(text, 16), length), dtype=np.uint8)
    assert got.dtype == want.dtype
    assert got.shape == want.shape == (length,)
    assert np.array_equal(got, want)


def test_password_bits_are_exact_beyond_int64():
    k = 65
    qc = QidCode(code=identity_code(k), m=(1 << 64) + 7)
    for w in (1, 2, (1 << 63) + 1, (1 << 63) + 12345, (1 << 64) + 7):
        bits = qc.password_bits(w)
        assert bits.dtype == np.uint8
        assert bits.tolist() == reference_unpack(w - 1, k)
    assert reference_pack(qc.password_bits((1 << 63) + 12345)) \
        == (1 << 63) + 12344


@pytest.mark.parametrize("entries", [[-1, 0], [np.nan, 1], [0.5, 1, 0, 1],
                                     [1.5], [2], [0, 1, 1e-300],
                                     np.array([0, 2], dtype=np.uint8)])
def test_as_bits_rejects_entries_that_are_not_bits(entries):
    # the cast used to truncate 0.5 to 0, raise OverflowError for -1 and
    # warn about NaN; every non-bit is now the bit ValueError, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"entries must be bits \(0 or 1\)"):
            gf2.as_bits(entries)


def test_as_bits_keeps_exact_bits_of_any_type():
    bits = np.array([1, 0, 1], dtype=np.uint8)
    assert gf2.as_bits(bits) is bits  # uint8 input is checked, not copied
    for entries in ([1, 0, 1], [1.0, -0.0, 1.0], [True, False, True],
                    np.array([1, 0, 1], dtype=np.int64)):
        got = gf2.as_bits(entries)
        assert got.dtype == np.uint8
        assert got.tolist() == [1, 0, 1]
    assert gf2.as_bits([]).dtype == np.uint8


@settings(max_examples=500, deadline=None)
@given(hnp.arrays(np.uint8, st.tuples(st.integers(0, 11), st.integers(1, 15)),
                  elements=st.integers(0, 1)))
@example(np.array([[1, 0, 1, 1]], dtype=np.uint8))  # a single row
@example(np.array([[0], [1], [1]], dtype=np.uint8))  # a single column
@example(np.zeros((4, 4), dtype=np.uint8))
@example(np.ones((5, 3), dtype=np.uint8))
def test_rref_equals_the_per_row_loop(mat):
    red, pivots = gf2.rref(mat)
    want, want_pivots = reference_rref(mat)
    assert pivots == want_pivots
    assert red.dtype == want.dtype and red.shape == want.shape
    assert red.tobytes() == want.tobytes()
    assert gf2.rank(mat) == len(want_pivots)
