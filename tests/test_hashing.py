import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisystorage import gf2, hashing
from noisystorage.distributions import JointDistribution
from noisystorage.entropy import min_entropy
from noisystorage.hashing import (
    FFT_MIN_CELLS,
    ToeplitzHash,
    collision_bound,
    hash_apply,
    hash_apply_many,
    pa_distance,
    random_hash,
)
from noisystorage.protocols import _json_value

from reference import (all_hashes, int_bits, oracle_collision_bound,
                       oracle_hash_apply_many, oracle_toeplitz_matrix,
                       reference_binned_outputs, reference_collision_bound,
                       reference_bit_rows, reference_hash_apply,
                       reference_pa_distance, reference_stacked_binned_outputs)


def kernel_matrix(h):
    """T read off the kernel: column j is the hash of the j-th unit vector."""
    return hash_apply_many(h, np.eye(h.n, dtype=np.uint8)).T


def all_inputs(k):
    return np.array([int_bits(v, k) for v in range(2 ** k)],
                    dtype=np.uint8).reshape(2 ** k, k)


def test_zero_seed_maps_everything_to_zero():
    h = ToeplitzHash(n=5, ell=3, seed=(0,) * 7)
    for v in range(2 ** 5):
        assert not hash_apply(h, int_bits(v, 5)).any()


def test_pinned_two_by_one_example():
    h = ToeplitzHash(n=2, ell=1, seed=(1, 0))
    # the matrix is [1, 0]: the hash returns the first input bit
    assert hash_apply(h, [0, 0]).tolist() == [0]
    assert hash_apply(h, [0, 1]).tolist() == [0]
    assert hash_apply(h, [1, 0]).tolist() == [1]
    assert hash_apply(h, [1, 1]).tolist() == [1]


def test_matrix_has_constant_diagonals():
    rng = np.random.default_rng(79)
    h = random_hash(6, 4, rng)
    m = kernel_matrix(h)
    for i in range(1, 4):
        for j in range(1, 6):
            assert m[i, j] == m[i - 1, j - 1]


def test_matrix_equals_literal_matrix():
    for n in range(1, 6):
        for ell in range(1, n + 1):
            for h in all_hashes(n, ell):
                m = kernel_matrix(h)
                assert m.dtype == np.uint8
                assert np.array_equal(
                    m, oracle_toeplitz_matrix(h.seed, n, ell))


def test_kernels_match_literal_matrix_exhaustively():
    # every seed for n <= 5, ell <= 3; every input of every length 0..n
    for n in range(1, 6):
        for ell in range(1, min(n, 3) + 1):
            offsets = [None] + list(itertools.product((0, 1), repeat=ell))
            for h in all_hashes(n, ell):
                t = oracle_toeplitz_matrix(h.seed, n, ell).astype(int)
                for k in range(n + 1):
                    xs = all_inputs(k)
                    plain = (xs @ t[:, :k].T) % 2
                    for x, want in zip(xs, plain):
                        assert hash_apply(h, x).tolist() == want.tolist()
                    for offset in offsets:
                        g = ToeplitzHash(n=n, ell=ell, seed=h.seed,
                                         offset=offset)
                        want = plain ^ np.array(offset or (0,) * ell)
                        got = hash_apply_many(g, xs)
                        assert got.dtype == np.uint8
                        assert got.shape == (2 ** k, ell)
                        assert np.array_equal(got, want)


@st.composite
def hash_cases(draw):
    n = draw(st.integers(1, 300))
    ell = draw(st.integers(1, n))
    bits = st.integers(0, 1)
    seed = draw(st.lists(bits, min_size=n + ell - 1, max_size=n + ell - 1))
    offset = draw(st.none() | st.lists(bits, min_size=ell, max_size=ell))
    k = draw(st.integers(0, n))
    rows = draw(st.lists(st.lists(bits, min_size=k, max_size=k),
                         min_size=1, max_size=3))
    return n, ell, seed, offset, rows


@settings(max_examples=40, deadline=None)
@given(hash_cases())
def test_kernels_match_literal_matrix_property(case):
    n, ell, seed, offset, rows = case
    h = ToeplitzHash(n=n, ell=ell, seed=seed, offset=offset)
    want = oracle_hash_apply_many(seed, offset, n, ell, rows)
    assert [hash_apply(h, x).tolist() for x in rows] == want
    many = hash_apply_many(h, np.array(rows, dtype=np.uint8).reshape(
        len(rows), -1))
    assert many.tolist() == want


@st.composite
def stack_cases(draw):
    """Hashes of one ell and various n, some affine, each with an input of
    any length up to its n (empty ones included), and whether the stack
    takes the FFT path at any size."""
    ell = draw(st.integers(1, 40))
    bits = st.integers(0, 1)
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(ell, 120))
        seed = draw(st.lists(bits, min_size=n + ell - 1, max_size=n + ell - 1))
        offset = draw(st.none() | st.lists(bits, min_size=ell, max_size=ell))
        x = draw(st.lists(bits, max_size=n))
        pairs.append((n, seed, offset, x))
    return ell, pairs, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(stack_cases())
@example((3, [(4, [1] * 6, None, []), (3, [0, 1, 1, 0, 1], [0, 1, 1], [1, 1]),
              (9, [1, 0] * 5 + [1], None, [1, 0, 1, 1, 0, 0, 1, 0, 1])],
          True))
def test_stacked_kernel_matches_literal_matrix_pair_by_pair(case):
    ell, drawn, fft = case
    pairs = tuple((ToeplitzHash(n=n, ell=ell, seed=seed, offset=offset),
                   np.array(x, dtype=np.uint8))
                  for n, seed, offset, x in drawn)
    want = [oracle_hash_apply_many(seed, offset, n, ell, [x])[0]
            for n, seed, offset, x in drawn]
    with pytest.MonkeyPatch.context() as patch:
        # one cell puts every stack with a nonempty input on the FFT path
        patch.setattr(hashing, "FFT_MIN_CELLS", 1 if fft else FFT_MIN_CELLS)
        got = hashing._hash_stack(pairs)
    assert got.dtype == np.uint8 and got.shape == (len(pairs), ell)
    assert got.tolist() == want
    assert [reference_hash_apply(h, x).tolist() for h, x in pairs] == want


# (n, ell, k) one below, exactly at and well above the FFT crossover, each
# with the input shorter than n and as long as n.  Each case runs alone
# and in a stack of STACK pairs, whose cells are STACK * ell * k, and the
# last two straddle the constant in the stack only.
STACK = 4
CROSSOVER_CASES = [
    (300, 255, 257), (257, 255, 257),
    (300, 256, 256), (256, 256, 256),
    (2048, 512, 1500), (2048, 1024, 2048),
    (300, 129, 127), (128, 128, 128),
]


def test_crossover_cases_straddle_the_constant():
    for count in (1, STACK):
        cells = sorted({count * ell * k for _, ell, k in CROSSOVER_CASES})
        below = [c for c in cells if c < FFT_MIN_CELLS]
        assert below[-1] >= FFT_MIN_CELLS - count
        assert FFT_MIN_CELLS in cells
        assert cells[-1] >= 16 * FFT_MIN_CELLS


@pytest.mark.parametrize("n, ell, k", CROSSOVER_CASES)
def test_kernels_match_literal_matrix_across_fft_crossover(n, ell, k,
                                                           monkeypatch):
    rng = np.random.default_rng(n * ell + k)
    seed = rng.integers(0, 2, n + ell - 1).tolist()
    offset = rng.integers(0, 2, ell).tolist()
    x = rng.integers(0, 2, k, dtype=np.uint8)
    transforms = []

    def counted(*args):
        transforms.append(1)
        return np.fft.rfft(*args)

    monkeypatch.setattr(hashing, "rfft", counted)
    for off in (None, offset):
        h = ToeplitzHash(n=n, ell=ell, seed=seed, offset=off)
        want = oracle_hash_apply_many(seed, off, n, ell, [x])
        transforms.clear()
        assert [hash_apply(h, x).tolist()] == want
        # a single input is convolved at ell * k cells, as before stacking
        assert bool(transforms) == (ell * k >= FFT_MIN_CELLS)
        transforms.clear()
        assert hash_apply_many(h, x[np.newaxis, :]).tolist() == want
        assert not transforms
    # a stack of the plain and the affine hash over inputs of k, k // 2
    # and 0 bits, padded to the longest: one rfft per side of the product
    plain = ToeplitzHash(n=n, ell=ell, seed=seed)
    affine = ToeplitzHash(n=n, ell=ell, seed=seed, offset=offset)
    pairs = ((plain, x), (affine, x[:k // 2]), (plain, x[:0]), (affine, x))
    assert len(pairs) == STACK
    transforms.clear()
    got = hashing._hash_stack(pairs)
    assert transforms == ([1, 1] if STACK * ell * k >= FFT_MIN_CELLS else [])
    assert got.tolist() == [
        oracle_hash_apply_many(seed, h.offset, n, ell, [row])[0]
        for h, row in pairs]


def test_fft_rounding_guard_falls_back_to_matrix_product(monkeypatch):
    # every convolution sum shifted by 0.6: rounded, it would flip each bit
    n, ell, k = 2048, 1024, 2048
    rng = np.random.default_rng(131)
    seed = rng.integers(0, 2, n + ell - 1).tolist()
    offset = rng.integers(0, 2, ell).tolist()
    x = rng.integers(0, 2, k, dtype=np.uint8)
    shifted = []

    def off_by_0_6(*args):
        shifted.append(1)
        return np.fft.irfft(*args) + 0.6

    monkeypatch.setattr(hashing, "irfft", off_by_0_6)
    for off in (None, offset):
        h = ToeplitzHash(n=n, ell=ell, seed=seed, offset=off)
        shifted.clear()
        assert [hash_apply(h, x).tolist()] == oracle_hash_apply_many(
            seed, off, n, ell, [x])
        assert shifted
    # a stack falls back as a whole, each pair on its own product
    other = ToeplitzHash(n=k // 2, ell=ell, seed=seed[:k // 2 + ell - 1],
                         offset=offset)
    pairs = ((h, x), (other, x[:k // 2]), (h, x[:0]))
    shifted.clear()
    got = hashing._hash_stack(pairs)
    assert shifted == [1]
    assert got.tolist() == [
        oracle_hash_apply_many(g.seed.tolist(), g.offset, g.n, ell, [row])[0]
        for g, row in pairs]


def test_hash_memory_is_linear_in_n():
    # a materialised 50,000 x 100,000 matrix would take 5 GB as uint8
    rng = np.random.default_rng(127)
    x = rng.integers(0, 2, 1000, dtype=np.uint8)
    tracemalloc.start()
    try:
        h = random_hash(100_000, 50_000, rng)
        out = hash_apply(h, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (50_000,)
    assert peak < 16 * 2 ** 20


def test_linearity():
    rng = np.random.default_rng(83)
    for _ in range(50):
        h = random_hash(8, 3, rng)
        x = rng.integers(0, 2, 8, dtype=np.uint8)
        y = rng.integers(0, 2, 8, dtype=np.uint8)
        lhs = hash_apply(h, x ^ y)
        rhs = hash_apply(h, x) ^ hash_apply(h, y)
        assert np.array_equal(lhs, rhs)


def test_short_inputs_zero_padded_right():
    rng = np.random.default_rng(89)
    h = random_hash(6, 2, rng)
    x = np.array([1, 0, 1], dtype=np.uint8)
    padded = np.array([1, 0, 1, 0, 0, 0], dtype=np.uint8)
    assert np.array_equal(hash_apply(h, x), hash_apply(h, padded))
    with pytest.raises(ValueError):
        hash_apply(h, np.ones(7, dtype=np.uint8))


def test_hash_inputs_must_be_bits():
    # the uint8 cast used to hash [0.5, 1, 0, 1] as 0101
    h = random_hash(4, 2, np.random.default_rng(89))
    with pytest.raises(ValueError, match="entries must be bits"):
        hash_apply(h, [0.5, 1, 0, 1])
    with pytest.raises(ValueError, match="entries must be bits"):
        hash_apply_many(h, [[0, 1, 1, 0], [1, 1, 0, -1]])


def test_hash_seed_and_offset_must_be_bits():
    # _frozen_bits cast to uint8 before the check, storing seed 0101
    with pytest.raises(ValueError, match="entries must be bits"):
        ToeplitzHash(n=3, ell=2, seed=[0.5, 1, 0.9, 1])
    with pytest.raises(ValueError, match="entries must be bits"):
        ToeplitzHash(n=3, ell=2, seed=[0, 1, 1, 1], offset=[1, 1.5])


def test_hash_apply_many_matches_single():
    rng = np.random.default_rng(97)
    h = random_hash(7, 3, rng)
    xs = rng.integers(0, 2, (20, 7), dtype=np.uint8)
    many = hash_apply_many(h, xs)
    for row, x in zip(many, xs):
        assert np.array_equal(row, hash_apply(h, x))


def test_offset_makes_affine_family():
    rng = np.random.default_rng(101)
    h = random_hash(6, 3, rng, affine=True)
    assert h.offset is not None
    plain = ToeplitzHash(n=6, ell=3, seed=h.seed)
    x = rng.integers(0, 2, 6, dtype=np.uint8)
    assert np.array_equal(hash_apply(h, x),
                          hash_apply(plain, x) ^ np.array(h.offset))


def test_seed_hex_roundtrip():
    rng = np.random.default_rng(103)
    h = random_hash(9, 4, rng, affine=True)
    assert np.array_equal(gf2.unpack(int(h.seed_hex(), 16), 9 + 4 - 1), h.seed)
    assert np.array_equal(gf2.unpack(int(h.offset_hex(), 16), 4), h.offset)
    assert hashing.bits_to_hex([1, 0, 0, 1]) == "9"


def test_hash_keeps_read_only_bits():
    seed = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    h = ToeplitzHash(n=3, ell=3, seed=seed, offset=(0, 1, 1))
    seed[0] = 0  # the hash keeps its own copy
    assert h.seed.tolist() == [1, 0, 1, 1, 0]
    assert h.seed.dtype == h.offset.dtype == np.uint8
    for bits in (h.seed, h.offset):
        with pytest.raises(ValueError):
            bits[0] = 0


@pytest.mark.parametrize("affine", [False, True])
def test_drawn_hash_has_int_sizes_and_read_only_bits(affine):
    # random_hash builds its hash without the constructor's second check
    # and copy; it must keep what the constructor would
    h = random_hash(np.int64(9), np.uint8(4), np.random.default_rng(7),
                    affine=affine)
    assert type(h.n) is int and type(h.ell) is int
    assert h.seed.shape == (12,) and (h.offset is not None) == affine
    for arr in [h.seed] + ([h.offset] if affine else []):
        assert arr.dtype == np.uint8 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    built = ToeplitzHash(n=9, ell=4, seed=h.seed, offset=h.offset)
    assert _json_value("f", built) == _json_value("f", h)


def test_hash_stores_only_its_seed_and_offset():
    # the product kernel builds its float view of the seed on each call
    assert [f.name for f in dataclasses.fields(ToeplitzHash)] == [
        "n", "ell", "seed", "offset"]


def test_hashes_compare_by_identity_and_serialize_by_seed():
    h = ToeplitzHash(n=3, ell=3, seed=(1, 0, 1, 1, 0), offset=(0, 1, 1))
    same = ToeplitzHash(n=3, ell=3, seed=(1, 0, 1, 1, 0),
                        offset=np.array([0, 1, 1]))
    # no value equality: transcripts compare a hash by its JSON form
    assert h == h and same != h
    assert len({h, same}) == 2
    assert _json_value("f", same) == _json_value("f", h)
    others = [ToeplitzHash(n=3, ell=3, seed=(1, 0, 1, 1, 0)),
              ToeplitzHash(n=3, ell=3, seed=(1, 0, 1, 1, 0), offset=(1, 1, 1)),
              ToeplitzHash(n=3, ell=3, seed=(1, 0, 1, 1, 1), offset=(0, 1, 1)),
              ToeplitzHash(n=4, ell=2, seed=(1, 0, 1, 1, 0))]
    assert all(_json_value("f", other) != _json_value("f", h)
               for other in others)


@pytest.mark.parametrize("n,ell", [(1, 1), (9, 4), (4096, 1024)])
def test_seed_hex_matches_bit_by_bit_hex(n, ell):
    rng = np.random.default_rng(n + ell)
    h = random_hash(n, ell, rng, affine=True)
    seed_bits = "".join(str(b) for b in h.seed.tolist())
    offset_bits = "".join(str(b) for b in h.offset.tolist())
    assert h.seed_hex() == "%0*x" % (-(-len(seed_bits) // 4),
                                     int(seed_bits, 2))
    assert h.offset_hex() == "%0*x" % (-(-ell // 4), int(offset_bits, 2))


def test_collision_bound_examples():
    assert collision_bound(2, 1) == pytest.approx(0.5)
    assert collision_bound(3, 2) == pytest.approx(0.25)


def test_collision_bound_matches_literal_enumeration():
    for n, ell in ((2, 1), (3, 1), (3, 2), (4, 2)):
        assert collision_bound(n, ell) == pytest.approx(
            oracle_collision_bound(n, ell))


def test_two_universality_exhaustive_small():
    for n in range(1, 7):
        for ell in range(1, min(n, 3) + 1):
            assert collision_bound(n, ell) <= 2.0 ** -ell + 1e-15


def test_collision_bound_caps():
    with pytest.raises(ValueError):
        collision_bound(9, 2)
    with pytest.raises(ValueError):
        collision_bound(8, 5)


def test_collision_bound_equals_the_per_difference_loop():
    pairs = [(n, ell) for n in range(1, hashing.COLLISION_MAX_N + 1)
             for ell in range(1, min(n, hashing.COLLISION_MAX_ELL) + 1)]
    assert len(pairs) == 26
    for n, ell in pairs:
        got = collision_bound(n, ell)
        assert got == reference_collision_bound(n, ell)
        assert type(got) is float


@st.composite
def low_rank_stacks(draw):
    """A (D, ell, m) stack of products mix @ basis over GF(2), with a basis
    of at most ell rows, so that rows are often dependent or zero."""
    count, ell, m = (draw(st.integers(1, 5)), draw(st.integers(1, 5)),
                     draw(st.integers(1, 8)))
    r = draw(st.integers(0, ell))

    def bits(*shape):
        flat = draw(st.lists(st.integers(0, 1), min_size=math.prod(shape),
                             max_size=math.prod(shape)))
        return np.array(flat, dtype=np.int64).reshape(shape)

    return (bits(count, ell, r) @ bits(count, r, m) % 2).astype(np.uint8)


@settings(max_examples=80, deadline=None)
@given(low_rank_stacks())
@example(np.zeros((1, 3, 2), dtype=np.uint8))
@example(np.array([[[1, 1, 0], [0, 1, 1], [1, 0, 1]]], dtype=np.uint8))
def test_left_null_counts_read_the_rank_of_every_map(maps):
    ell = maps.shape[1]
    want = [2 ** (ell - gf2.rank(a)) for a in maps]
    assert hashing._left_null_counts(maps).tolist() == want


def test_uniform_output_for_fixed_nonzero_input():
    # over a uniform seed, the image of any fixed nonzero input is uniform
    for n, ell in ((3, 2), (4, 2)):
        for x in range(1, 2 ** n):
            counts = np.zeros(2 ** ell)
            for h in all_hashes(n, ell):
                out = hash_apply(h, int_bits(x, n))
                counts[int(out @ (1 << np.arange(ell - 1, -1, -1)))] += 1
            assert counts.min() == counts.max()


def test_pa_distance_uniform_input():
    n_bits = 6
    d = JointDistribution([("X", 2 ** n_bits)], np.full(2 ** n_bits, 2.0 ** -n_bits))
    rng = np.random.default_rng(107)
    distances, bound = pa_distance(d, ell=1, sample_count=50, rng=rng)
    empirical = distances.mean()
    assert bound == pytest.approx(2.0 ** (-(n_bits - 1) / 2.0 - 1.0))
    assert empirical <= bound + 1e-12


def test_pa_distance_known_input_vacuous_bound():
    # side information determines X exactly: no guarantee regime
    probs = np.zeros((4, 4))
    np.fill_diagonal(probs, 0.25)
    d = JointDistribution([("X", 4), ("E", 4)], probs)
    rng = np.random.default_rng(109)
    distances, bound = pa_distance(d, ell=1, sample_count=20, rng=rng)
    empirical = distances.mean()
    assert bound >= 0.5
    assert empirical <= bound


def test_pa_distance_random_tables_never_beat_bound():
    # smoke version; the 1e3-trial sweep runs in the acceptance suite
    rng = np.random.default_rng(113)
    for _ in range(50):
        probs = rng.random((8, 3)) + 1e-3
        probs /= probs.sum()
        d = JointDistribution([("X", 8), ("E", 3)], probs)
        ell = int(rng.integers(1, 4))
        distances, bound = pa_distance(d, ell=ell, sample_count=8, rng=rng)
        empirical = distances.mean()
        assert empirical <= bound + 1e-9


@pytest.mark.parametrize("side_sizes", [(), (3,), (2, 3)])
def test_pa_distances_match_the_per_sample_loop(side_sizes):
    rng = np.random.default_rng(127)
    for _ in range(30):
        n_bits = int(rng.integers(1, 7))
        ell = int(rng.integers(1, n_bits + 1))
        samples = int(rng.choice([1, 5, 16]))
        sizes = (2 ** n_bits,) + side_sizes
        probs = rng.random(sizes)
        probs /= probs.sum()
        names = ["X"] + ["E%d" % i for i in range(len(side_sizes))]
        d = JointDistribution(list(zip(names, sizes)), probs)
        seed = int(rng.integers(2 ** 32))
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        distances, bound = pa_distance(d, ell, samples, mine)
        want = reference_pa_distance(d, ell, samples, theirs)
        assert distances.shape == (samples,)
        assert np.abs(distances - want).max() <= 1e-15
        assert mine.bit_generator.state == theirs.bit_generator.state
        assert bound == 2.0 ** (-0.5 * (min_entropy(d, "X", names[1:]) - ell)
                                - 1.0)


@pytest.mark.parametrize("chunk_cells", [1, 50, 300])
def test_pa_distances_match_the_loop_in_any_stack(monkeypatch, chunk_cells):
    # stacks of one sample, of a few, and of uneven sizes give the same
    # bytes as one stack, and draw the same hashes as the per-sample loop
    rng = np.random.default_rng(131)
    for _ in range(25):
        n_bits = int(rng.integers(1, 6))
        ell = int(rng.integers(1, n_bits + 1))
        samples = int(rng.choice([1, 5, 16, 17]))
        sizes = (2 ** n_bits,) + tuple(
            int(v) for v in rng.integers(1, 4, int(rng.integers(0, 3))))
        probs = rng.random(sizes)
        probs /= probs.sum()
        names = ["X"] + ["E%d" % i for i in range(len(sizes) - 1)]
        d = JointDistribution(list(zip(names, sizes)), probs)
        seed = int(rng.integers(2 ** 32))
        whole, _ = pa_distance(d, ell, samples, np.random.default_rng(seed))
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        with monkeypatch.context() as patch:
            patch.setattr(hashing, "_PA_CHUNK_CELLS", chunk_cells)
            stacked, _ = pa_distance(d, ell, samples, mine)
        want = reference_pa_distance(d, ell, samples, theirs)
        assert stacked.tobytes() == whole.tobytes()
        assert np.abs(stacked - want).max() <= 1e-15
        assert mine.bit_generator.state == theirs.bit_generator.state


def test_pa_distance_memory_does_not_grow_with_samples():
    # a 2^16-cell table: each stack holds one sample, and from the
    # second on a stack is made while the last one's arrays still exist
    d = JointDistribution([("X", 2 ** 12), ("E", 16)],
                          np.full(2 ** 16, 2.0 ** -16))
    peaks = []
    for samples in (2, 64):
        tracemalloc.start()
        try:
            pa_distance(d, 4, samples, np.random.default_rng(0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 ** 12


def test_pa_distance_validation():
    d = JointDistribution([("X", 6)], np.full(6, 1 / 6))
    with pytest.raises(ValueError):
        pa_distance(d, ell=1, sample_count=5, rng=np.random.default_rng(0))


@pytest.mark.parametrize("sample_count", [True, np.int64(3), np.uint8(2)])
def test_pa_distance_takes_an_integral_sample_count(sample_count):
    d = JointDistribution([("X", 4)], np.full(4, 0.25))
    distances, _ = pa_distance(d, 1, sample_count, np.random.default_rng(0))
    assert distances.shape == (int(sample_count),)


@st.composite
def binning_cases(draw):
    """Hashes of one ell over k-bit inputs, N input columns and weights
    that are one table broadcast over the hashes with one cell per side
    value (as in pa_distance), or per hash with a per-hash side array or
    side 0 (as in the leakage estimator)."""
    count = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    n = k + draw(st.integers(0, 2))
    ell = draw(st.integers(1, n))
    seeds = draw(st.lists(st.lists(st.integers(0, 1), min_size=n + ell - 1,
                                   max_size=n + ell - 1),
                          min_size=count, max_size=count))
    size = draw(st.integers(1, 9))
    inputs = np.array(draw(st.lists(st.integers(0, 2 ** k - 1),
                                    min_size=size, max_size=size)))
    n_side = draw(st.integers(1, 3))
    per_hash = draw(st.booleans())
    shape = (count, size, 1) if per_hash else (size, n_side)
    weights = np.array(draw(st.lists(
        st.floats(-1e3, 1e3),
        min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    if not per_hash:
        weights = np.broadcast_to(weights, (count,) + shape)
        side = np.arange(n_side)
    elif n_side == 1:
        side = 0
    else:
        side = np.array(draw(st.lists(
            st.integers(0, n_side - 1), min_size=count * size,
            max_size=count * size))).reshape(count, size, 1)
    hashes = [ToeplitzHash(n=n, ell=ell, seed=seed) for seed in seeds]
    return hashes, gf2.unpack(inputs, k).T, weights, side, n_side


SINGLE_HASH_FULL_LENGTH = (
    [ToeplitzHash(n=3, ell=3, seed=[1, 0, 1, 1, 0])],
    gf2.unpack(np.array([5]), 3).T, np.array([[[0.25]]]),
    np.array([[[2]]]), 3)


@settings(max_examples=60, deadline=None)
@given(binning_cases())
@example(SINGLE_HASH_FULL_LENGTH)
def test_binned_outputs_match_the_per_hash_reference(case):
    hashes, inputs, *rest = case
    # the kernel reads each seed cut to the k input bits, and ell from them
    seeds = np.array([h.seed[:h.ell + inputs.shape[0] - 1] for h in hashes])
    got = hashing._binned_outputs(seeds, inputs, *rest)
    want = reference_binned_outputs(*case)
    assert got.shape == want.shape
    assert (got == want).all()
    # the gathered rows sum in the order the per-hash _columns rows did
    assert got.tobytes() == reference_stacked_binned_outputs(*case).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.random.PCG64, np.random.Philox]),
       st.integers(0, 2 ** 64 - 1), st.integers(1, 40), st.integers(1, 20))
# a width off whole 32-bit words: one unpadded (count, width) draw differs
@example(np.random.PCG64, 0, 5, 3)
def test_bit_rows_equal_one_draw_per_row(bit_generator, seed, width, count):
    def draw(bit_rows):
        rng = np.random.Generator(bit_generator(seed))
        # a scalar draw leaves half of a 64-bit word in the generator's
        # buffer, which the rows must take up as the loop did
        before = (rng.integers(7), rng.random())
        rows = bit_rows(rng, count, width)
        after = (rng.integers(7), rng.random())
        return rows, before + after, rng.bit_generator.state

    rows, scalars, state = draw(hashing._bit_rows)
    want_rows, want_scalars, want_state = draw(reference_bit_rows)
    assert rows.dtype == np.uint8 and rows.shape == (count, width)
    assert (rows == want_rows).all()
    assert scalars == want_scalars
    np.testing.assert_equal(state, want_state)
