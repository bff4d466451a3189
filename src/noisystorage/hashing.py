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

Two kernels compute the product.  Batches, and single inputs with fewer
than ``FFT_MIN_CELLS`` products ``ell * k`` (``k`` the input length), run
one float64 matrix product against the view.  A larger single input runs
one real FFT convolution of the seed with the reversed input, in
O((ell + k) log(ell + k)) time.  Its sums are integers of at most ``k``;
when any of them lands 0.25 or more from an integer, the call falls back
to the matrix product, so both kernels give the same bits.
"""

from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from . import gf2
from .entropy import _uniform_distance, min_entropy

# exhaustive-regime caps for collision_bound
COLLISION_MAX_N = 8
COLLISION_MAX_ELL = 4

# single inputs with at least this many ell x k products take the FFT kernel
FFT_MIN_CELLS = 2 ** 16


def _frozen_bits(bits):
    """A read-only uint8 copy of a 0/1 sequence."""
    arr = gf2.as_bits(np.array(bits, dtype=np.uint8))
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ToeplitzHash:
    """One member of the family; seed and offset are read-only uint8 arrays."""

    n: int
    ell: int
    seed: np.ndarray
    offset: np.ndarray | None = None

    def __post_init__(self):
        if not 1 <= self.ell <= self.n:
            raise ValueError("need 1 <= ell <= n")
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


def random_hash(n, ell, rng, affine=False):
    """Draw a uniformly random hash from the family."""
    seed = rng.integers(0, 2, size=n + ell - 1, dtype=np.uint8)
    offset = rng.integers(0, 2, size=ell, dtype=np.uint8) if affine else None
    return ToeplitzHash(n=n, ell=ell, seed=seed, offset=offset)


def _columns(h, k):
    """T's first k columns as float64 rows: a strided view over a float
    copy of the seed, row i starting at seed[ell - 1 - i]."""
    diag = h.seed[:h.ell + k - 1].astype(np.float64)
    step = diag.itemsize
    return np.ndarray((h.ell, k), dtype=np.float64, buffer=diag,
                      offset=(h.ell - 1) * step, strides=(-step, step))


def _convolve(h, x):
    """T @ x over the integers for one input x of k bits, by one real FFT.

    (T x)_i = sum_j seed[ell - 1 + j - i] x_j is entry ell + k - 2 - i of
    the linear convolution of seed[:ell + k - 1] with x reversed.  A cyclic
    transform of at least ell + k - 1 points leaves those entries free of
    wrap-around.  Returns None when a sum lands 0.25 or more from an
    integer.
    """
    k = x.size
    size = 1 << (h.ell + k - 2).bit_length()
    spec = rfft(h.seed[:h.ell + k - 1], size) * rfft(x[::-1], size)
    sums = irfft(spec, size)[k - 1:h.ell + k - 1][::-1]
    out = np.rint(sums)
    if np.abs(sums - out).max() >= 0.25:
        return None
    return out


def _apply(h, xs):
    """T @ x (+ offset) over GF(2) for one input x or each row of a matrix.

    ``xs`` is a 1-D input or an (N, <=n) bit matrix.  A zero-padded input
    meets only the first k = xs.shape[-1] columns of T, so the padding is
    never built.  A 1-D input with ell * k >= FFT_MIN_CELLS is convolved
    with the seed by FFT; everything else, and an FFT result that fails its
    rounding check, is one float64 product with :func:`_columns`.  The
    product's sums count at most n ones and are exact.
    """
    k = xs.shape[-1]
    out = None
    if xs.ndim == 1 and h.ell * k >= FFT_MIN_CELLS:
        out = _convolve(h, xs)
    if out is None:
        out = xs @ _columns(h, k).T
    if h.offset is not None:
        out += h.offset
    return (out % 2).astype(np.uint8)


def hash_apply(h, x):
    """Hash a bit string of length <= n down to ell bits."""
    x = gf2.as_bits(x)
    if x.ndim != 1:
        raise ValueError("input must be a 1-D bit string")
    if x.size > h.n:
        raise ValueError("input longer than the hash input size %d" % h.n)
    return _apply(h, x)


def hash_apply_many(h, xs):
    """Hash every row of an (N, <=n) bit matrix at once."""
    xs = gf2.as_bits(xs)
    if xs.ndim != 2:
        raise ValueError("expected a 2-D bit matrix")
    if xs.shape[1] > h.n:
        raise ValueError("inputs longer than the hash input size")
    return _apply(h, xs)


def _difference_map(n, ell, diff):
    """Matrix A with A @ seed = T_seed @ diff, over all seeds: row i is
    diff from column ell - 1 - i on, as T[i, j] = seed[ell - 1 + j - i]."""
    a = np.zeros((ell, n + ell - 1), dtype=np.uint8)
    for i in range(ell):
        a[i, ell - 1 - i:ell - 1 - i + n] = diff
    return a


def collision_bound(n, ell):
    """Exact worst-case pair collision probability over the seed space.

    By linearity a pair (x, y) collides exactly when the matrix kills
    x XOR y, so the worst pair is the nonzero difference whose seed-to-
    output map has the lowest rank; the count of colliding seeds is read
    off that rank.  The result never exceeds 2^-ell.
    """
    if n > COLLISION_MAX_N or ell > COLLISION_MAX_ELL:
        raise ValueError("exhaustive regime is n <= %d, ell <= %d"
                         % (COLLISION_MAX_N, COLLISION_MAX_ELL))
    if not 1 <= ell <= n:
        raise ValueError("need 1 <= ell <= n")
    worst = 0.0
    for diff in gf2.unpack(np.arange(1, 2 ** n), n):
        a = _difference_map(n, ell, diff)
        worst = max(worst, 2.0 ** (-gf2.rank(a)))
    return worst


def pa_distance(dist, ell, sample_count, rng):
    """Exact hash-output distances of sampled hashes, and their guarantee.

    The first register is hashed and must have a power-of-two alphabet;
    all other registers are classical side information.  Returns
    ``(distances, bound)``: the exact non-uniformity of the output given
    the side information for each of ``sample_count`` uniformly drawn
    hashes, and the guarantee 2^(-(H_min(X | side) - ell)/2 - 1) on
    their average over the whole family, not on any one hash.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    x_register, *side = dist.names
    size = dist.size_of(x_register)
    n_bits = int(size).bit_length() - 1
    if 2 ** n_bits != size:
        raise ValueError("register %r needs a power-of-two alphabet"
                         % x_register)
    if not 1 <= ell <= n_bits:
        raise ValueError("need 1 <= ell <= input bits")

    table = dist.grouped([x_register], side)  # (2^n_bits, |side|)
    xs = gf2.unpack(np.arange(size), n_bits)
    distances = np.empty(sample_count)
    for i in range(sample_count):
        codes = gf2.pack(hash_apply_many(random_hash(n_bits, ell, rng), xs))
        grouped = np.zeros((2 ** ell, table.shape[1]))
        np.add.at(grouped, codes, table)  # each output value's table rows
        distances[i] = _uniform_distance(grouped)

    h_min = min_entropy(dist, x_register, side)
    return distances, 2.0 ** (-0.5 * (h_min - ell) - 1.0)
