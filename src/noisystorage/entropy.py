"""Exact classical min-entropy primitives.

Everything here treats side information as classical registers of a
:class:`~noisystorage.distributions.JointDistribution`.  Guessing
probability, (smooth) min-entropy, non-uniformity, and the two randomized
index-selection constructions that split joint min-entropy between
substrings are all computed exactly in double precision; entropies are in
bits (log base 2).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution, SubDistribution

# exhaustive-search caps for the channel-decoding oracle
PSUCC_MAX_SYMBOLS = 8
PSUCC_MAX_BITS = 3


def _names(arg):
    if arg is None:
        return []
    if isinstance(arg, str):
        return [arg]
    return list(arg)


def guessing_probability(dist, target, given=()):
    """Best probability of guessing ``target`` from the ``given`` registers.

    Classically this is sum_y max_x P(x, y): for every value y of the side
    information the guesser names the most likely x.  Registers outside
    ``target`` and ``given`` are marginalized out.
    """
    table = dist.grouped(_names(target), _names(given))
    return float(table.max(axis=0).sum())


def _smoothed_columns(table, eps):
    """Optimally remove up to ``eps`` mass to minimize the sum of column maxima.

    Returns (per-column ceilings, objective value).  Lowering a column's
    maximum by dt costs k*dt where k entries currently sit at the maximum,
    so the cheapest moves are taken first: all segments where a single
    entry is cut, then two-way ties, and so on.  The result equals the
    linear-program optimum over all dominated tables with deficit <= eps.
    """
    n_rows, n_cols = table.shape
    sorted_cols = np.sort(table, axis=0)[::-1, :]  # descending per column
    ceilings = sorted_cols[0, :].copy()
    segments = []  # (unit cost, column, gain capacity)
    for j in range(n_cols):
        col = sorted_cols[:, j]
        for tier in range(n_rows):
            nxt = col[tier + 1] if tier + 1 < n_rows else 0.0
            width = float(col[tier] - nxt)
            if width > 0.0:
                segments.append((tier + 1, j, width))
    segments.sort(key=lambda s: (s[0], s[1]))
    budget = float(eps)
    for cost, j, width in segments:
        if budget <= 0.0:
            break
        gain = min(width, budget / cost)
        ceilings[j] -= gain
        budget -= gain * cost
    return ceilings, float(ceilings.sum())


def min_entropy(dist, target, given=(), eps=0.0):
    """(Smooth) min-entropy of ``target`` given the ``given`` registers, in bits.

    With ``eps == 0`` this is -log2 of the guessing probability.  With
    ``eps > 0`` the table may first be smoothed: up to ``eps`` probability
    mass is removed (entrywise, never below zero) so as to minimize the
    resulting guessing weight, and -log2 of that optimum is returned.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must satisfy 0 <= eps < 1")
    table = dist.grouped(_names(target), _names(given))
    if eps == 0.0:
        return -float(np.log2(table.max(axis=0).sum()))
    if eps >= table.sum():
        raise ValueError("eps must be smaller than the total mass")
    _, value = _smoothed_columns(table, eps)
    return -float(np.log2(value))


def smooth_sub_distribution(dist, target, given=(), eps=0.0):
    """Materialize the optimally smoothed table behind :func:`min_entropy`.

    Returns a :class:`SubDistribution` over the (target, given) marginal:
    entries above the per-column ceiling are cut down to it, removing at
    most ``eps`` total mass.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must satisfy 0 <= eps < 1")
    target = _names(target)
    given = _names(given)
    table = dist.grouped(target, given)
    ceilings, _ = _smoothed_columns(table, eps)
    q = np.minimum(table, ceilings[np.newaxis, :])
    registers = [dist.registers[a] for a in dist.axes(target + given)]
    return SubDistribution(
        registers=registers,
        probs=q.reshape([size for _, size in registers]),
        mass=float(q.sum()),
    )


def _uniform_distance(tables):
    """1/2 sum_{x,y} |P(x,y) - P(y)/|X|| of each table in a stack, with x
    on axis -2, y on axis -1 and P(y) the table's own column mass."""
    n_x = tables.shape[-2]
    col_mass = tables.sum(axis=-2, keepdims=True)
    return 0.5 * np.abs(tables - col_mass / n_x).sum(axis=(-2, -1))


def nonuniformity(dist, target, given=()):
    """Statistical distance of ``target`` from uniform-and-independent.

    d(X|Y) = 1/2 sum_y P(y) sum_x |P(x|y) - 1/|X||, which is
    :func:`_uniform_distance` of the (target, given) table.  Zero exactly
    when ``target`` is uniform and independent of the conditioning
    registers.
    """
    return float(_uniform_distance(dist.grouped(_names(target),
                                                _names(given))))


@dataclass
class SplitResult:
    """Outcome of a randomized index-selection split.

    ``augmented`` carries the input table extended with the new selection
    register; ``achieved`` is the exact min-entropy of the selected
    substring given the selection register and the side information.
    """

    augmented: JointDistribution
    achieved: float


def _select_first_large(dist, alpha, parts, given):
    """First-large-index selection shared by both splits.

    Returns (V per cell, achieved): V is the first index j < m-1 whose
    substring has P(X_j | Z) >= 2^(-alpha/2), else m-1; ``achieved`` is
    -log2 of (1/(m-1)) sum_z sum_j sum_{i != j} max_xi P(Xi=xi, V=j, Z=z).
    """
    m = len(parts)
    if m < 2:
        raise ValueError("need at least two substrings to split")
    expected = {*parts, *given}
    if set(dist.names) != expected or len(expected) != m + len(given):
        raise ValueError("distribution must consist of exactly the substrings "
                         "and the side-information registers")
    if not alpha >= 0:  # also rejects NaN
        raise ValueError("alpha must be nonnegative")

    threshold = 2.0 ** (-alpha / 2.0)
    v_cells = np.full(dist.sizes, m - 1, dtype=np.int64)
    # the last index is the fallback; walking down, the first large j wins
    for j in range(m - 2, -1, -1):
        keep = dist.axes([parts[j], *given])
        drop = tuple(a for a in range(dist.probs.ndim) if a not in keep)
        joint = dist.probs.sum(axis=drop, keepdims=True)  # P(X_j, Z)
        col = joint.sum(axis=keep[0], keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(col > 0.0, joint / col, 0.0)
        v_cells[np.broadcast_to(cond >= threshold, v_cells.shape)] = j

    # stacked[j] keeps the cells where V = j
    stacked = np.where(np.equal.outer(np.arange(m), v_cells), dist.probs, 0.0)
    best = [dist._group(stacked, [part], given).max(axis=-2) for part in parts]
    total = 0.0
    for j, i in itertools.permutations(range(m), 2):  # j-major; order sets bits
        total += best[i][j].sum()
    p = total / (m - 1)
    achieved = -float(np.log2(p)) if p > 0 else float("inf")
    return v_cells, achieved


def split_binary(dist, alpha, x0="X0", x1="X1", given=()):
    """Augment (X0, X1; Z) with a bit D so that X_D stays hard to guess.

    D is a deterministic function of (X0, Z): it is 0 exactly when
    P(X0|Z) < 2^(-alpha/2) (strict; ties select D = 1).  Whenever the
    joint table satisfies H_min(X0 X1 | Z) >= alpha, the reported
    ``achieved`` = H_min(X_D | D Z) is at least alpha/2 - 1.

    This is :func:`split_multi` with m = 2 and D = 1 - V.
    """
    v_cells, achieved = _select_first_large(dist, alpha, [x0, x1],
                                            _names(given))
    augmented = dist.with_register("D", 2, 1 - v_cells)
    return SplitResult(augmented=augmented, achieved=achieved)


def split_multi(dist, alpha, parts, given=()):
    """Augment (X1..Xm; Z) with a first-large-index register V.

    V picks the first index j whose substring has conditional probability
    at least 2^(-alpha/2) given Z (checking j = 1..m-1), and is m when no
    such index exists.  ``achieved`` is the exact min-entropy of X_W given
    (V, W, Z) conditioned on V != W, for W uniform over {1..m} and
    independent of everything else.  When every pair satisfies
    H_min(X_i X_j | Z) >= alpha this is at least alpha/2 - log2(m) - 1.

    V's register values are 0-based: value v stands for index v+1.
    """
    parts = _names(parts)
    v_cells, achieved = _select_first_large(dist, alpha, parts, _names(given))
    augmented = dist.with_register("V", len(parts), v_cells)
    return SplitResult(augmented=augmented, achieved=achieved)


def psucc_classical(channel, k):
    """Exact best probability of sending k uniform bits through a channel.

    ``channel[o, x]`` is the probability of output o on input x (columns
    are probability vectors).  Maximizes average decoding success over all
    encodings of the 2^k messages into inputs, with maximum-likelihood
    decoding.  Messages sharing an input are never advantageous, so the
    search reduces to input subsets of size min(2^k, #inputs); every
    subset is scored exactly.

    Only instances small enough for exhaustive search are accepted
    (inputs, outputs <= 8 and k <= 3).
    """
    channel = np.asarray(channel, dtype=float)
    if channel.ndim != 2:
        raise ValueError("channel must be a 2-D stochastic matrix")
    n_out, n_in = channel.shape
    if np.any(channel < 0) or np.any(np.abs(channel.sum(axis=0) - 1.0) > 1e-9):
        raise ValueError("channel columns must be probability vectors")
    if n_in > PSUCC_MAX_SYMBOLS or n_out > PSUCC_MAX_SYMBOLS:
        raise ValueError("channel larger than the %d-symbol exhaustive cap"
                         % PSUCC_MAX_SYMBOLS)
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > PSUCC_MAX_BITS:
        raise ValueError("k larger than the %d-bit exhaustive cap" % PSUCC_MAX_BITS)

    n_msgs = 2 ** k
    support = min(n_msgs, n_in)
    best = 0.0
    for subset in itertools.combinations(range(n_in), support):
        score = channel[:, subset].max(axis=1).sum()
        if score > best:
            best = score
    return float(best / n_msgs)
