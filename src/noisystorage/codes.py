"""Binary linear codes: encoding, syndromes, exact distances, decoding.

Desk-scale codes only: minimum distances are certified by brute force
(dimension capped at 20) and syndrome decoding uses an exact coset-leader
table (redundancy capped at 20 bits), over one word or a stack of them.
The catalog covers repetition, Hamming [7,4], its extended [8,4]
variant, and deterministic random codes, which is enough to drive the
protocol machinery at test scale.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .bounds import PreconditionError, _require_integer, binary_entropy
from .hashing import _bit_rows

MIN_DISTANCE_MAX_K = 20
# a coset table of 2^20 rows took 2.0 s and an 87 MB tracemalloc peak for
# repetition_code(21) on a shared 2-CPU VM; at 24 it took 55 s and 1.5 GB
COSET_TABLE_MAX_REDUNDANCY = 20
RANDOM_CODE_TRIES = 200
# codewords, and codeword cells, one product of _min_weight holds across
# its generators
_WEIGHT_CHUNK_WORDS = 1 << 14
_WEIGHT_CHUNK_CELLS = 1 << 20


@dataclass
class LinearCode:
    """An [n, k] code; full rank is read off a nullspace of n - k rows."""

    generator: np.ndarray
    parity: np.ndarray = None
    _min_distance: int = field(default=None, repr=False)
    # read-only (2^(n-k), n) leader table, built by coset_leaders
    _coset_leaders: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        g = gf2.as_bits(self.generator)
        if g.ndim != 2:
            raise ValueError("generator must be a k x n bit matrix")
        null = gf2.nullspace(g)
        if null.shape[0] != g.shape[1] - g.shape[0]:
            raise ValueError("generator rows must be linearly independent")
        self.generator = g
        self.parity = null if self.parity is None else gf2.as_bits(self.parity)
        if self.parity.shape != (self.n - self.k, self.n):
            raise ValueError("parity matrix must be (n-k) x n")
        if gf2.matmul(self.parity, g.T).any():
            raise ValueError("parity rows must annihilate the generator")

    @property
    def n(self):
        return self.generator.shape[1]

    @property
    def k(self):
        return self.generator.shape[0]

    @property
    def min_distance(self):
        if self._min_distance is None:
            self._min_distance = min_distance(self)
        return self._min_distance


def encode(code, message):
    """message (k bits) -> codeword (n bits) over GF(2), for one message
    or a stack (last axis k bits) in one product."""
    message = gf2.as_bits(message)
    if message.shape[-1:] != (code.k,):
        raise ValueError("message must have exactly k = %d bits" % code.k)
    return gf2.matmul(message, code.generator).astype(np.uint8)


def syndrome(code, word):
    """parity @ word for one word or a stack (last axis n bits); zero
    exactly for codewords."""
    word = gf2.as_bits(word)
    if word.shape[-1:] != (code.n,):
        raise ValueError("word must have exactly n = %d bits" % code.n)
    return gf2.matmul(word, code.parity.T).astype(np.uint8)


def min_distance(code):
    """Exact minimum weight over nonzero codewords (k <= 20), by _min_weight."""
    return int(_min_weight(code.generator))


def _min_weight(generators):
    """Least weight of a nonzero row combination, 0 iff the rows are
    dependent (k <= 20): a scalar for one (k, n) generator, an array for
    a (tries, k, n) stack.

    Each product encodes a chunk of messages under every generator at
    once, with the generators' rows laid side by side; its float32 sums
    count at most k ones, so they are exact.  A chunk holds
    min(2^14, 2^20 // n) // tries messages, at least one, so a product
    holds at most 2^14 codewords and 2^20 cells whenever tries <= 2^14
    and n <= 2^20 // tries; at n <= 64 that is 2^14 // tries messages.
    """
    generators = gf2.as_bits(generators)
    *lead, k, n = generators.shape
    if k > MIN_DISTANCE_MAX_K:
        raise ValueError("brute-force distance limited to k <= %d"
                         % MIN_DISTANCE_MAX_K)
    stack = generators.reshape(-1, k, n)
    tries = len(stack)
    rows = stack.transpose(1, 0, 2).reshape(k, tries * n).astype(np.float32)
    ones = np.ones(n, dtype=np.float32)
    best = np.full(tries, n, dtype=np.float32)
    chunk = max(1, min(_WEIGHT_CHUNK_WORDS, _WEIGHT_CHUNK_CELLS // n)
                // tries)
    for start in range(1, 2 ** k, chunk):
        msgs = gf2.unpack(np.arange(start, min(start + chunk, 2 ** k)), k)
        words = (msgs.astype(np.float32) @ rows).astype(np.uint8) & 1
        weights = words.reshape(-1, tries, n).astype(np.float32) @ ones
        np.minimum(best, weights.min(axis=0), out=best)
    return best.astype(np.int64).reshape(lead)[()]


def coset_leaders(code):
    """Read-only (2^(n-k), n) table: row s is the minimum-weight error
    pattern whose syndrome :func:`gf2.pack` reads as s.  Cached on the code.

    Ties within a weight go to the lexicographically smallest pattern,
    i.e. the numerically smallest when the bits are read as a binary
    number.  Position tuples in reverse lexicographic order are exactly
    the patterns of one weight in ascending numeric order, at any n, so
    each syndrome keeps the first pattern of its lowest weight.  A
    pattern's syndrome is the XOR of the packed parity columns at its
    positions, so a weight costs its position array, not a bit matrix.
    """
    if code._coset_leaders is not None:
        return code._coset_leaders
    redundancy = code.n - code.k
    if redundancy > COSET_TABLE_MAX_REDUNDANCY:
        raise ValueError("coset table limited to n - k <= %d"
                         % COSET_TABLE_MAX_REDUNDANCY)
    table = np.zeros((1 << redundancy, code.n), dtype=np.uint8)
    found = np.zeros(1 << redundancy, dtype=bool)
    found[0] = True  # the zero pattern leads the codewords' coset
    columns = gf2.pack(code.parity.T)  # the syndrome of each single bit
    for weight in range(1, code.n + 1):
        if found.all():
            break
        positions = np.fromiter(itertools.combinations(range(code.n), weight),
                                dtype=(np.intp, weight),
                                count=math.comb(code.n, weight))[::-1]
        keys, first = np.unique(
            np.bitwise_xor.reduce(columns[positions], axis=1),
            return_index=True)
        new = ~found[keys]
        table[keys[new, np.newaxis], positions[first[new]]] = 1
        found[keys] = True
    table.flags.writeable = False
    code._coset_leaders = table
    return table


def syndrome_decode(code, received, syndrome_target):
    """Closest word to ``received`` whose syndrome equals the target.

    Coset-leader correction: any error of weight up to (d-1)/2 from a
    word with the target syndrome is undone; heavier errors may
    miscorrect, as for any code.  A stack of words takes a matching
    stack of targets.
    """
    received = gf2.as_bits(received)
    if received.shape[-1:] != (code.n,):
        raise ValueError("received word must have n = %d bits" % code.n)
    target = gf2.as_bits(syndrome_target)
    if target.shape != received.shape[:-1] + (code.n - code.k,):
        raise ValueError("syndrome must have n - k = %d bits per word"
                         % (code.n - code.k))
    diff = syndrome(code, received) ^ target
    return received ^ coset_leaders(code)[gf2.pack(diff)]


# --- catalog -----------------------------------------------------------------


def repetition_code(n):
    n = _require_integer("repetition length n", n)
    if n < 1:
        raise ValueError("repetition length must be >= 1")
    return LinearCode(generator=np.ones((1, n), dtype=np.uint8))


def hamming_7_4():
    p = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
    return LinearCode(generator=np.concatenate([np.eye(4, dtype=np.uint8), p],
                                               axis=1))


def extended_hamming_8_4():
    base = hamming_7_4().generator
    overall = base.sum(axis=1, keepdims=True) % 2
    return LinearCode(generator=np.concatenate([base, overall], axis=1).astype(
        np.uint8))


def identity_code(n):
    n = _require_integer("n", n)
    if n < 1:
        raise ValueError("need k = n >= 1, got %d" % n)
    return LinearCode(generator=np.eye(n, dtype=np.uint8))


def random_code(n, k, seed=0):
    """Best of ``RANDOM_CODE_TRIES`` random generators, distance exact.

    The generators are drawn in one :func:`hashing._bit_rows` call, with
    the bits that one ``(k, n)`` draw per try would take, then scored by
    one :func:`_min_weight` over their (tries, k, n) stack.  A draw's
    minimum weight is 0 exactly when its rows are dependent, so it is the
    rank check too.  Only the first draw of the greatest weight becomes a
    code.  A ``seed`` that numpy's ``default_rng`` refuses raises
    :class:`PreconditionError` naming it.
    """
    n, k = _require_integer("n", n), _require_integer("k", k)
    if k < 1:
        raise ValueError("need k >= 1, got %d" % k)
    if k > n:
        raise ValueError("need k <= n")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise PreconditionError(
            "seed must be a SeedSequence, None or a nonnegative integer, "
            "got %r" % (seed,)) from None
    tries = _bit_rows(rng, RANDOM_CODE_TRIES, k * n).reshape(-1, k, n)
    weights = _min_weight(tries)
    best = int(np.argmax(weights))  # argmax takes the first maximum
    if weights[best] == 0:
        raise RuntimeError("no full-rank generator found")
    return LinearCode(generator=tries[best].copy(),
                      _min_distance=int(weights[best]))


# --- password encoding --------------------------------------------------------


@dataclass
class QidCode:
    """A code whose codewords, read over {+, x}, index the password set.

    Passwords are 1-based: w in {1..m} maps to the binary expansion of
    w - 1, encoded and then interpreted as a basis string with + for 0
    and x for 1.
    """

    code: LinearCode
    m: int

    def password_bits(self, w):
        if not (isinstance(w, numbers.Integral) and 1 <= w <= self.m):
            raise ValueError("password must be an integer in 1..%d" % self.m)
        return gf2.unpack(w - 1, self.code.k)

    def password_bases(self, w):
        """Codeword of password w as a 0/1 basis mask (0 = +, 1 = x)."""
        return encode(self.code, self.password_bits(w))


def qid_code(m, n):
    """A deterministic [n, ceil(log2 m)] code for an m-password set.

    The code's ``min_distance`` is exact.
    """
    m, n = _require_integer("m", m), _require_integer("n", n)
    if m < 2:
        raise ValueError("need at least 2 passwords")
    k = math.ceil(math.log2(m))
    if k > n:
        raise ValueError("n = %d too short for %d passwords" % (n, m))
    if k == 1:
        code = repetition_code(n)
    elif (n, k) == (7, 4):
        code = hamming_7_4()
    elif (n, k) == (8, 4):
        code = extended_hamming_8_4()
    elif n == k:
        code = identity_code(n)
    else:
        code = random_code(n, k, seed=(m * 1009 + n))
    return QidCode(code=code, m=m)


def syndrome_budget_ok(code, p_err):
    """Whether the code's redundancy fits the error-correction budget.

    Correcting a bit-error rate ``p_err`` on a block of ``n`` bits is
    budgeted at ``1.2 * h(p_err) * n`` syndrome bits, as the robust
    transfer length bound assumes.
    """
    return code.n - code.k <= 1.2 * binary_entropy(p_err) * code.n
