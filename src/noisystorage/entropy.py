"""Exact classical min-entropy primitives.

Everything here treats side information as classical registers of a
:class:`~noisystorage.distributions.JointDistribution`.  (Smooth)
min-entropy, the distance from uniform, and the two randomized
index-selection constructions that split joint min-entropy between
substrings are all computed exactly in double precision; entropies are in
bits (log base 2).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _require_float, _require_integer
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


def _smoothed_columns(table, eps):
    """Optimally remove up to ``eps`` mass to minimize the sum of column maxima.

    Returns (per-column ceilings, objective value).  Lowering a column's
    maximum by dt costs k*dt where k entries currently sit at the maximum,
    so the cheapest moves are taken first.  Tier t of a column, from its
    (t+1)-th largest entry down to the next (or to 0), costs t + 1 per
    unit, so reading the descending-sorted table tier by tier, columns left
    to right, takes the segments in order of cost, ties by column.  The
    result equals the linear-program optimum over all dominated tables
    with deficit <= eps.
    """
    n_rows, n_cols = table.shape
    sorted_cols = np.sort(table, axis=0)[::-1, :]  # descending per column
    ceilings = sorted_cols[0, :].copy()
    levels = sorted_cols.tolist() + [[0.0] * n_cols]
    budget = float(eps)
    for tier in range(n_rows):
        cost = tier + 1
        for j, (top, nxt) in enumerate(zip(levels[tier], levels[cost])):
            width = top - nxt
            if width > 0.0:
                if budget <= 0.0:
                    return ceilings, float(ceilings.sum())
                gain = min(width, budget / cost)
                ceilings[j] -= gain
                budget -= gain * cost
    return ceilings, float(ceilings.sum())


def _smoothing_table(dist, target, given, eps):
    """The (target, given) table; eps must lie in [0, 1) and below its mass."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must satisfy 0 <= eps < 1")
    table = dist.grouped(_names(target), _names(given))
    if eps > 0.0 and eps >= table.sum():
        raise ValueError("eps must be smaller than the total mass")
    return table


def min_entropy(dist, target, given=(), eps=0.0):
    """(Smooth) min-entropy of ``target`` given the ``given`` registers, in bits.

    With ``eps == 0`` this is -log2 of the guessing probability.  With
    ``eps > 0`` the table may first be smoothed: up to ``eps`` probability
    mass is removed (entrywise, never below zero) so as to minimize the
    resulting guessing weight, and -log2 of that optimum is returned.
    The exact weight is at most 1, so a float weight past 1 (a sum 1 ulp
    high, where the target is a function of the given registers) reads
    as 0.0, never as a negative entropy; a weight of exactly 1 gives -0.0.
    """
    table = _smoothing_table(dist, target, given, eps)
    if eps == 0.0:
        weight = table.max(axis=0).sum()
    else:
        _, weight = _smoothed_columns(table, eps)
    return 0.0 if weight > 1.0 else -float(np.log2(weight))


def smooth_sub_distribution(dist, target, given=(), eps=0.0):
    """Materialize the optimally smoothed table behind :func:`min_entropy`.

    Returns a :class:`SubDistribution` over the (target, given) marginal:
    entries above the per-column ceiling are cut down to it, removing at
    most ``eps`` total mass.
    """
    table = _smoothing_table(dist, target, given, eps)
    ceilings, _ = _smoothed_columns(table, eps)
    q = np.minimum(table, ceilings[np.newaxis, :])
    axes = dist.axes(_names(target) + _names(given))
    registers = [dist.registers[a] for a in axes]
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
    if dist._axes.keys() != expected or len(expected) != m + len(given):
        raise ValueError("distribution must consist of exactly the substrings "
                         "and the side-information registers")
    if not alpha >= 0:  # also rejects NaN
        raise ValueError("alpha must be nonnegative")

    # from the Python float: an unsigned numpy alpha would wrap on negation
    threshold = 2.0 ** (-_require_float("alpha", alpha) / 2.0)
    probs = dist.probs
    part_axes = dist.axes(parts)
    v_cells = np.full(dist.sizes, m - 1, dtype=np.int64)
    # the last index is the fallback; walking down, the first large j wins.
    # The table holds only the parts and Z, so P(X_j, Z) sums out the
    # other parts.
    for j in range(m - 2, -1, -1):
        others = tuple(a for a in part_axes if a != part_axes[j])
        joint = np.add.reduce(probs, axis=others, keepdims=True)
        col = np.add.reduce(joint, axis=part_axes[j], keepdims=True)
        cond = np.divide(joint, col, out=np.zeros(joint.shape), where=col > 0.0)
        v_cells = np.where(cond >= threshold, j, v_cells)

    # stacked[j] keeps the cells where V = j; best[i, j, z] is
    # max_xi P(Xi=xi, V=j, Z=z)
    stacked = np.where(np.equal.outer(np.arange(m), v_cells), probs, 0.0)
    best = np.empty((m, m, math.prod(dist.size_of(g) for g in given)))
    for i, part in enumerate(parts):
        np.maximum.reduce(dist._group(stacked, [part], given), axis=-2,
                          out=best[i])
    sums = best.sum(axis=-1).tolist()
    total = 0.0
    for j, i in itertools.permutations(range(m), 2):  # j-major; order sets bits
        total += sums[i][j]
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
    k = _require_integer("k", k)
    channel = np.asarray(channel, dtype=float)
    if channel.ndim != 2:
        raise ValueError("channel must be a 2-D stochastic matrix")
    n_out, n_in = channel.shape
    if n_in == 0:
        raise ValueError("channel must have at least one input")
    if not ((channel >= 0).all()  # NaN fails both checks
            and (np.abs(channel.sum(axis=0) - 1.0) <= 1e-9).all()):
        raise ValueError("channel columns must be probability vectors")
    if n_in > PSUCC_MAX_SYMBOLS or n_out > PSUCC_MAX_SYMBOLS:
        raise ValueError("channel larger than the %d-symbol exhaustive cap"
                         % PSUCC_MAX_SYMBOLS)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > PSUCC_MAX_BITS:
        raise ValueError("k larger than the %d-bit exhaustive cap" % PSUCC_MAX_BITS)

    n_msgs = 2 ** k
    support = min(n_msgs, n_in)
    subsets = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(n_in), support)),
        dtype=np.intp).reshape(-1, support)
    # with at most 8 outputs, the axis-0 sum adds each subset's row maxima
    # in the order a 1-D sum would
    scores = channel[:, subsets].max(axis=2).sum(axis=0)
    return float(scores.max() / n_msgs)
