import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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


def all_hashes(n, ell):
    for seed in itertools.product((0, 1), repeat=n + ell - 1):
        yield ToeplitzHash(n=n, ell=ell, seed=seed)


def int_bits(v, n):
    return np.array([(v >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


def literal_matrix(seed, n, ell):
    """T[i, j] = seed[ell - 1 + j - i], cell by cell."""
    return np.array([[seed[ell - 1 + j - i] for j in range(n)]
                     for i in range(ell)], dtype=np.uint8)


def literal_hashes(seed, offset, n, ell, rows):
    """Each zero-padded row times the literal matrix, plus the offset."""
    t = literal_matrix(seed, n, ell).astype(np.int64)
    padded = np.zeros((len(rows), n), dtype=np.int64)
    for r, x in enumerate(rows):
        padded[r, :len(x)] = x
    out = (padded @ t.T) % 2
    if offset is not None:
        out ^= np.array(offset)
    return out.tolist()


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
                assert np.array_equal(m, literal_matrix(h.seed, n, ell))


def test_kernels_match_literal_matrix_exhaustively():
    # every seed for n <= 5, ell <= 3; every input of every length 0..n
    for n in range(1, 6):
        for ell in range(1, min(n, 3) + 1):
            offsets = [None] + list(itertools.product((0, 1), repeat=ell))
            for h in all_hashes(n, ell):
                t = literal_matrix(h.seed, n, ell).astype(int)
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
    want = literal_hashes(seed, offset, n, ell, rows)
    assert [hash_apply(h, x).tolist() for x in rows] == want
    many = hash_apply_many(h, np.array(rows, dtype=np.uint8).reshape(
        len(rows), -1))
    assert many.tolist() == want


# (n, ell, k) one below, exactly at and well above the FFT crossover, each
# with the input shorter than n and as long as n
CROSSOVER_CASES = [
    (300, 255, 257), (257, 255, 257),
    (300, 256, 256), (256, 256, 256),
    (2048, 512, 1500), (2048, 1024, 2048),
]


def test_crossover_cases_straddle_the_constant():
    products = sorted({ell * k for _, ell, k in CROSSOVER_CASES})
    assert products[:2] == [FFT_MIN_CELLS - 1, FFT_MIN_CELLS]
    assert products[-1] >= 16 * FFT_MIN_CELLS


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
        want = literal_hashes(seed, off, n, ell, [x])
        transforms.clear()
        assert [hash_apply(h, x).tolist()] == want
        # only a single input at or above the crossover is convolved
        assert bool(transforms) == (ell * k >= FFT_MIN_CELLS)
        transforms.clear()
        assert hash_apply_many(h, x[np.newaxis, :]).tolist() == want
        assert not transforms


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
        assert [hash_apply(h, x).tolist()] == literal_hashes(
            seed, off, n, ell, [x])
        assert shifted


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


def brute_collision(n, ell):
    worst = 0.0
    hashes = list(all_hashes(n, ell))
    for x in range(2 ** n):
        for y in range(x + 1, 2 ** n):
            hits = sum(
                np.array_equal(hash_apply(h, int_bits(x, n)),
                               hash_apply(h, int_bits(y, n)))
                for h in hashes)
            worst = max(worst, hits / len(hashes))
    return worst


def test_collision_bound_matches_literal_enumeration():
    for n, ell in ((2, 1), (3, 1), (3, 2), (4, 2)):
        assert collision_bound(n, ell) == pytest.approx(brute_collision(n, ell))


def test_two_universality_exhaustive_small():
    for n in range(1, 7):
        for ell in range(1, min(n, 3) + 1):
            assert collision_bound(n, ell) <= 2.0 ** -ell + 1e-15


def test_collision_bound_caps():
    with pytest.raises(ValueError):
        collision_bound(9, 2)
    with pytest.raises(ValueError):
        collision_bound(8, 5)


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


def reference_pa_distances(dist, ell, sample_count, rng):
    """The per-sample loop pa_distance replaced: each hash's output table
    filled value by value, its distance written out."""
    x_register, *side = dist.names
    n_bits = dist.size_of(x_register).bit_length() - 1
    table = dist.grouped([x_register], side)
    xs = gf2.unpack(np.arange(2 ** n_bits), n_bits)
    side_mass = table.sum(axis=0)
    distances = []
    for _ in range(sample_count):
        h = random_hash(n_bits, ell, rng)
        out_codes = gf2.pack(hash_apply_many(h, xs))
        weights = np.zeros((2 ** ell, table.shape[1]))
        for code in range(2 ** ell):
            weights[code] = table[out_codes == code].sum(axis=0)
        distances.append(0.5 * np.abs(
            weights - side_mass[np.newaxis, :] / 2 ** ell).sum())
    return np.array(distances)


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
        want = reference_pa_distances(d, ell, samples, theirs)
        assert distances.shape == (samples,)
        assert np.abs(distances - want).max() <= 1e-15
        assert mine.bit_generator.state == theirs.bit_generator.state
        assert bound == 2.0 ** (-0.5 * (min_entropy(d, "X", names[1:]) - ell)
                                - 1.0)


def test_pa_distance_validation():
    d = JointDistribution([("X", 6)], np.full(6, 1 / 6))
    with pytest.raises(ValueError):
        pa_distance(d, ell=1, sample_count=5, rng=np.random.default_rng(0))
