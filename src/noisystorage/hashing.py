"""Two-universal hashing over GF(2) via seeded Toeplitz matrices.

A seed of ``n + ell - 1`` bits defines the diagonals of an ``ell x n``
matrix ``T`` with ``T[i, j] = seed[ell - 1 + j - i]``; hashing is the
matrix-vector product over GF(2).  Inputs shorter than ``n`` bits are
zero-padded on the right.  An optional ``ell``-bit offset turns the family
into an affine one, which is strongly two-universal (needed where hash
values of correlated inputs must look jointly fresh).

``T`` is never materialised: a hash keeps only its seed and offset, each
a read-only uint8 array, so it costs O(n) memory.  On each call the
product kernel views a float64 copy of the seed through strides (row
``i`` starts at ``seed[ell - 1 - i]`` and steps back one element per
row).

One private kernel computes the product for a stack of (hash, input)
pairs that share one ``ell``; ``hash_apply`` is its one-pair case and each
protocol runner hashes a whole transfer in one call.  A stack with fewer
than ``FFT_MIN_CELLS`` products ``N * ell * k`` (N pairs, ``k`` the longest
input) runs one float64 matrix product against the view per pair.  A
larger stack runs one real FFT convolution of the stacked seeds with the
stacked reversed inputs, in O(N (ell + k) log(ell + k)) time: one ``rfft``
of each stack and one ``irfft``.  Its sums are integers of at most ``k``;
when any of them lands 0.25 or more from an integer, the stack falls back
to the matrix products, so both paths give the same bits.  Batches of
inputs under one hash (``hash_apply_many``) take one matrix product.

Seeds are drawn a stack at a time: ``pa_distance``'s samples, a
transfer's two hashes and ``codes.random_code``'s generators each come
from one generator call of rows padded to whole 32-bit words, which
yields the bits, and leaves the generator state, of one call per row.
"""

from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from . import gf2
from .bounds import _require_integer
from .entropy import _uniform_distance, min_entropy

# exhaustive-regime caps for collision_bound
COLLISION_MAX_N = 8
COLLISION_MAX_ELL = 4

# stacks with at least this many N x ell x k products take the FFT
FFT_MIN_CELLS = 2 ** 16
# cells of pa_distance's largest stacked arrays per stack of samples
_PA_CHUNK_CELLS = 2 ** 16


def _check_sizes(n, ell):
    """``(n, ell)`` as Python ints; rejects a non-integer n or ell, or an
    ell outside [1, n]."""
    n, ell = _require_integer("n", n), _require_integer("ell", ell)
    if not 1 <= ell <= n:
        raise ValueError("need 1 <= ell <= n")
    return n, ell


def _frozen_bits(bits):
    """A read-only uint8 copy of a 0/1 sequence."""
    arr = gf2.as_bits(np.array(bits))
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ToeplitzHash:
    """One member of the family: int sizes, read-only uint8 seed and offset."""

    n: int
    ell: int
    seed: np.ndarray
    offset: np.ndarray | None = None

    def __post_init__(self):
        n, ell = _check_sizes(self.n, self.ell)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ell", ell)
        seed = _frozen_bits(self.seed)
        if seed.shape != (self.n + self.ell - 1,):
            raise ValueError("seed must have exactly n + ell - 1 bits")
        object.__setattr__(self, "seed", seed)
        if self.offset is not None:
            off = _frozen_bits(self.offset)
            if off.shape != (self.ell,):
                raise ValueError("offset must have exactly ell bits")
            object.__setattr__(self, "offset", off)

    def seed_hex(self):
        """Seed as hex, most-significant bit = first diagonal element."""
        return bits_to_hex(self.seed)

    def offset_hex(self):
        return None if self.offset is None else bits_to_hex(self.offset)


def bits_to_hex(bits):
    """Big-endian hex of a bit string, ceil(len/4) digits ("0" when empty)."""
    bits = gf2.as_bits(bits)
    width = (len(bits) + 3) // 4
    padded = np.concatenate([np.zeros(-len(bits) % 8, np.uint8), bits])
    digits = np.packbits(padded).tobytes().hex()
    return digits[len(digits) - width:] or "0"


def _bit_rows(rng, count, width):
    """``count`` rows of ``width`` uniform bits from one generator call:
    the (count, width) uint8 bits, and the generator state, that ``count``
    calls ``rng.integers(0, 2, width, dtype=np.uint8)`` would leave.

    Such a call takes one byte per bit from 32-bit words, never rejects,
    and drops the unused bytes of its last word when it ends.  Padding
    each row to whole words drops the same bytes, so the rows are the
    leading ``width`` columns of one (count, 4 * ceil(width / 4)) draw.
    """
    padded = -(-width // 4) * 4
    return rng.integers(0, 2, (count, padded), dtype=np.uint8)[:, :width]


def _frozen_hash(n, ell, seed, offset=None):
    """A hash frozen in place from checked int sizes and freshly drawn
    uint8 bits: unlike ``ToeplitzHash(...)``, nothing is checked or copied
    a second time."""
    for bits in (seed, offset):
        if bits is not None:
            bits.flags.writeable = False
    h = object.__new__(ToeplitzHash)
    vars(h).update(n=n, ell=ell, seed=seed, offset=offset)
    return h


def random_hash(n, ell, rng, affine=False):
    """Draw a uniformly random hash from the family: its seed, then its
    offset when ``affine``, each in one generator call."""
    n, ell = _check_sizes(n, ell)
    seed = rng.integers(0, 2, size=n + ell - 1, dtype=np.uint8)
    offset = rng.integers(0, 2, size=ell, dtype=np.uint8) if affine else None
    return _frozen_hash(n, ell, seed, offset)


def _columns(h, k):
    """T's first k columns as float64 rows: a strided view over a float
    copy of the seed, row i starting at seed[ell - 1 - i]."""
    diag = h.seed[:h.ell + k - 1].astype(np.float64)
    step = diag.itemsize
    return np.ndarray((h.ell, k), dtype=np.float64, buffer=diag,
                      offset=(h.ell - 1) * step, strides=(-step, step))


def _hash_stack(pairs):
    """T x (+ offset) over GF(2) for each (hash, x) pair, as an (N, ell)
    uint8 array; the hashes share one ell and each x is a 1-D bit input no
    longer than its hash's n.

    A zero-padded input meets only the first k = x.size columns of T, so
    the padding is never built.  With N * ell * k >= FFT_MIN_CELLS (k the
    longest input) the stack is one FFT convolution: (T x)_i is entry
    ell + k - 2 - i of the linear convolution of seed[:ell + k - 1] with x
    zero-padded on the right to k bits and reversed, and a cyclic
    transform of at least ell + k - 1 points leaves those entries free of
    wrap-around.  A seed shorter than ell + k - 1 (a hash of smaller n) is
    zero-padded too, since the positions it lacks meet only padding.
    Below the crossover, or when an FFT sum lands 0.25 or more from an
    integer, each pair is one float64 product with :func:`_columns`,
    whose sums count at most n ones and are exact.
    """
    ell = pairs[0][0].ell
    k = max(x.size for _, x in pairs)
    sums = None
    if len(pairs) * ell * k >= FFT_MIN_CELLS:
        seeds = np.zeros((len(pairs), ell + k - 1), dtype=np.uint8)
        flipped = np.zeros((len(pairs), k), dtype=np.uint8)
        for row, (h, x) in enumerate(pairs):
            seed = h.seed[:ell + k - 1]
            seeds[row, :seed.size] = seed
            flipped[row, k - x.size:] = x[::-1]
        size = 1 << (ell + k - 2).bit_length()
        spec = rfft(seeds, size)
        spec *= rfft(flipped, size)
        fft_sums = irfft(spec, size)[:, k - 1:ell + k - 1][:, ::-1]
        sums = np.rint(fft_sums)
        if np.abs(fft_sums - sums).max() >= 0.25:
            sums = None
    if sums is None:
        sums = np.empty((len(pairs), ell))
        for row, (h, x) in enumerate(pairs):
            sums[row] = x @ _columns(h, x.size).T
    out = (sums.astype(np.int64) & 1).astype(np.uint8)
    for row, (h, _) in enumerate(pairs):
        if h.offset is not None:
            out[row] ^= h.offset
    return out


def hash_apply(h, x):
    """Hash a bit string of length <= n down to ell bits."""
    x = gf2.as_bits(x)
    if x.ndim != 1:
        raise ValueError("input must be a 1-D bit string")
    if x.size > h.n:
        raise ValueError("input longer than the hash input size %d" % h.n)
    return _hash_stack(((h, x),))[0]


def hash_apply_many(h, xs):
    """Hash every row of an (N, <=n) bit matrix at once, by one float64
    product with :func:`_columns`."""
    xs = gf2.as_bits(xs)
    if xs.ndim != 2:
        raise ValueError("expected a 2-D bit matrix")
    if xs.shape[1] > h.n:
        raise ValueError("inputs longer than the hash input size")
    sums = xs @ _columns(h, xs.shape[1]).T
    if h.offset is not None:
        sums += h.offset
    return (sums % 2).astype(np.uint8)


def _left_null_counts(maps):
    """The number of c in {0,1}^ell with c @ A = 0 over GF(2), for each
    matrix A of a (D, ell, m) stack: 2^(ell - rank A).  Every c meets every
    A in one stacked product."""
    ell = maps.shape[1]
    coeffs = gf2.unpack(np.arange(2 ** ell), ell)
    products = (coeffs @ maps) & 1  # (D, 2^ell, m); uint8 wraps keep parity
    return (~products.any(axis=2)).sum(axis=1)


def collision_bound(n, ell):
    """Exact worst-case pair collision probability over the seed space.

    By linearity a pair (x, y) collides exactly when T kills d = x XOR y,
    and T_seed @ d = A_d @ seed, where row i of A_d is d from column
    ell - 1 - i on.  So the colliding seeds of the worst pair are a
    fraction 2^-rank of all seeds, with the lowest rank over the stack of
    every nonzero d's A_d.  The result never exceeds 2^-ell.
    """
    n, ell = _check_sizes(n, ell)
    if n > COLLISION_MAX_N or ell > COLLISION_MAX_ELL:
        raise ValueError("exhaustive regime is n <= %d, ell <= %d"
                         % (COLLISION_MAX_N, COLLISION_MAX_ELL))
    diffs = gf2.unpack(np.arange(1, 2 ** n), n)
    maps = np.zeros((len(diffs), ell, n + ell - 1), dtype=np.uint8)
    for i in range(ell):
        maps[:, i, ell - 1 - i:ell - 1 - i + n] = diffs
    return float(_left_null_counts(maps).max()) / 2 ** ell


def _binned_outputs(seeds, inputs, weights, side, n_side):
    """``weights`` summed by (hash, output value, side value) for a stack
    of offset-free hashes of one ell, as a (hashes, 2^ell, n_side) stack.

    ``seeds`` is the (hashes, ell + k - 1) matrix of the hashes' seeds cut
    to the k input bits, so it fixes ell, and ``inputs`` is a (k, N) bit
    matrix, one input per column.  ``side`` broadcasts against the (hash,
    input, 1) grid, and ``weights`` has the shape of the result; one
    ``np.bincount`` adds its cells to their bins in row-major order, so a
    bin sums its inputs in column order.
    """
    count, (k, size) = len(seeds), inputs.shape
    ell = seeds.shape[1] - k + 1
    # row i of each T starts at seed[ell - 1 - i], as in _columns
    diagonals = np.arange(ell - 1, -1, -1)[:, np.newaxis] + np.arange(k)
    rows = seeds[:, diagonals].astype(np.float64)
    sums = rows.reshape(count * ell, k) @ inputs
    parity = sums.astype(np.int64).reshape(count, ell, size) & 1
    codes = gf2.pack(parity.transpose(0, 2, 1))  # (count, N)
    bins = ((np.arange(count)[:, np.newaxis] << ell) + codes) * n_side
    bins = bins[..., np.newaxis] + side
    return np.bincount(bins.ravel(), weights=weights.ravel(),
                       minlength=(count << ell) * n_side
                       ).reshape(count, 2 ** ell, n_side)


def pa_distance(dist, ell, sample_count, rng):
    """Exact hash-output distances of sampled hashes, and their guarantee.

    The first register is hashed and must have a power-of-two alphabet;
    all other registers are classical side information.  Returns
    ``(distances, bound)``: the exact non-uniformity of the output given
    the side information for each of ``sample_count`` uniformly drawn
    hashes, and the guarantee 2^(-(H_min(X | side) - ell)/2 - 1) on
    their average over the whole family, not on any one hash.

    Each stack of hash seeds is drawn in one :func:`_bit_rows` call, with
    the bits that one :func:`random_hash` call per sample would draw, then
    binned by one :func:`_binned_outputs` call and scored by one
    :func:`_uniform_distance` call.  A stack holds as many samples as keep
    its (samples, ell, 2^n) sums and (samples, 2^n, |side|) bins within
    ``_PA_CHUNK_CELLS`` cells, and at least one, so memory does not grow
    with ``sample_count``.  The ``verify pa`` suite's 16 samples make one
    stack.
    """
    ell = _require_integer("ell", ell)
    sample_count = _require_integer("sample_count", sample_count)
    if sample_count < 1:
        raise ValueError("need at least one sample")
    x_register, *side = dist.names
    size = dist.size_of(x_register)
    n_bits = size.bit_length() - 1
    if 2 ** n_bits != size:
        raise ValueError("register %r needs a power-of-two alphabet"
                         % x_register)
    if not 1 <= ell <= n_bits:
        raise ValueError("need 1 <= ell <= input bits")

    table = dist.grouped([x_register], side)  # (2^n_bits, |side|)
    n_side = table.shape[1]
    xs = gf2.unpack(np.arange(size), n_bits).T  # every input, as columns
    chunk = max(1, _PA_CHUNK_CELLS // (size * max(ell, n_side)))
    distances = np.empty(sample_count)
    for start in range(0, sample_count, chunk):
        count = min(chunk, sample_count - start)
        seeds = _bit_rows(rng, count, n_bits + ell - 1)
        cells = np.broadcast_to(table, (count,) + table.shape)
        distances[start:start + count] = _uniform_distance(_binned_outputs(
            seeds, xs, cells, np.arange(n_side), n_side))

    h_min = min_entropy(dist, x_register, side)
    return distances, 2.0 ** (-0.5 * (h_min - ell) - 1.0)
