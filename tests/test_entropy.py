import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from noisystorage.distributions import JointDistribution
from noisystorage.entropy import (
    _uniform_distance,
    guessing_probability,
    min_entropy,
    nonuniformity,
    psucc_classical,
    smooth_sub_distribution,
)


def random_table(rng, sizes, names=None):
    names = names or [f"R{i}" for i in range(len(sizes))]
    probs = rng.random(sizes) + 1e-6
    probs /= probs.sum()
    return JointDistribution(list(zip(names, sizes)), probs)


def lp_smooth_guessing_weight(table, eps):
    """Independent LP oracle: min sum_y max_x q(x,y) over q <= p, deficit <= eps."""
    n_x, n_y = table.shape
    p = table.reshape(-1)
    n_q = p.size
    c = np.concatenate([np.zeros(n_q), np.ones(n_y)])
    rows = []
    rhs = []
    for x in range(n_x):
        for y in range(n_y):
            row = np.zeros(n_q + n_y)
            row[x * n_y + y] = 1.0
            row[n_q + y] = -1.0
            rows.append(row)
            rhs.append(0.0)
    keep = np.zeros(n_q + n_y)
    keep[:n_q] = -1.0
    rows.append(keep)
    rhs.append(-(p.sum() - eps))
    bounds = [(0.0, float(pi)) for pi in p] + [(0.0, None)] * n_y
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds,
                  method="highs")
    assert res.success
    return res.fun


def mixture_k4():
    """Two 4-bit halves: either X0 is forced to zero or X1 is, each with odds 1/2."""
    n = 16
    probs = np.zeros((n, n))
    probs[0, :] += 0.5 / n
    probs[:, 0] += 0.5 / n
    return JointDistribution([("X0", n), ("X1", n)], probs)


# --- guessing probability -------------------------------------------------


def test_guessing_uniform_pair():
    d = JointDistribution([("X", 4)], np.full(4, 0.25))
    assert guessing_probability(d, "X") == pytest.approx(0.25)


def test_guessing_perfect_copy():
    probs = np.eye(2) * 0.5
    d = JointDistribution([("X", 2), ("Y", 2)], probs)
    assert guessing_probability(d, "X", "Y") == pytest.approx(1.0)


def test_guessing_mixture_values():
    d = mixture_k4()
    assert guessing_probability(d, ["X0", "X1"]) == pytest.approx(2.0 ** -4)
    assert min_entropy(d, ["X0", "X1"]) == pytest.approx(4.0)
    assert guessing_probability(d, "X0") == pytest.approx(0.5 + 2.0 ** -5)


def test_guessing_marginalizes_other_registers():
    rng = np.random.default_rng(3)
    d = random_table(rng, (3, 4, 2), names=["X", "Y", "W"])
    expected = guessing_probability(d.marginal(["X", "Y"]), "X", "Y")
    assert guessing_probability(d, "X", "Y") == pytest.approx(expected)


def test_guessing_errors():
    d = JointDistribution([("X", 2), ("Y", 2)], np.full((2, 2), 0.25))
    with pytest.raises(KeyError):
        guessing_probability(d, "Q", "Y")
    with pytest.raises(ValueError):
        guessing_probability(d, "X", "X")


# --- smooth min-entropy ---------------------------------------------------


def test_min_entropy_uniform_bit():
    d = JointDistribution([("X", 2)], [0.5, 0.5])
    assert min_entropy(d, "X", eps=0.0) == pytest.approx(1.0)
    assert min_entropy(d, "X", eps=0.5) == pytest.approx(2.0)


def test_min_entropy_eps_zero_matches_guessing():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = random_table(rng, (4, 3))
        h = min_entropy(d, "R0", "R1", eps=0.0)
        assert h == pytest.approx(-np.log2(guessing_probability(d, "R0", "R1")))


def test_min_entropy_rejects_bad_eps():
    d = JointDistribution([("X", 2)], [0.5, 0.5])
    with pytest.raises(ValueError):
        min_entropy(d, "X", eps=1.0)
    with pytest.raises(ValueError):
        min_entropy(d, "X", eps=-0.1)


def test_min_entropy_nondecreasing_in_eps():
    rng = np.random.default_rng(11)
    for _ in range(30):
        d = random_table(rng, (5, 4))
        values = [min_entropy(d, "R0", "R1", eps=e) for e in (0.0, 0.05, 0.1, 0.3)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_waterfilling_equals_lp_small_batch():
    # full 1e3-trial comparison lives in the acceptance suite
    rng = np.random.default_rng(13)
    for _ in range(60):
        n_x = rng.integers(2, 9)
        n_y = rng.integers(1, 64 // n_x + 1)
        d = random_table(rng, (int(n_x), int(n_y)))
        eps = float(rng.choice([0.0, 0.01, 0.1, 0.5]))
        table = d.grouped(["R0"], ["R1"])
        got = 2.0 ** (-min_entropy(d, "R0", "R1", eps=eps))
        want = lp_smooth_guessing_weight(table, eps)
        assert got == pytest.approx(want, abs=1e-9)


def test_smooth_sub_distribution_invariants():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = random_table(rng, (4, 4))
        eps = 0.2
        q = smooth_sub_distribution(d, "R0", "R1", eps=eps)
        q.validate_against(d)
        assert q.mass >= 1.0 - eps - 1e-12
        weight = q.probs.reshape(4, 4).max(axis=0).sum()
        assert -np.log2(weight) == pytest.approx(min_entropy(d, "R0", "R1", eps=eps))


def test_chain_rule_random_tables():
    # H_min^eps(X | Y E) >= H_min^eps(X | E) - log2 |Y| on random tables
    rng = np.random.default_rng(19)
    for _ in range(10 ** 4):
        sizes = (int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                 int(rng.integers(2, 4)))
        d = random_table(rng, sizes, names=["X", "Y", "E"])
        for eps in (0.0, 0.01, 0.1):
            lhs = min_entropy(d, "X", ["Y", "E"], eps=eps)
            rhs = min_entropy(d, "X", "E", eps=eps) - np.log2(d.size_of("Y"))
            assert lhs >= rhs - 1e-9


# --- non-uniformity -------------------------------------------------------


def test_nonuniformity_uniform_independent_is_zero():
    d = JointDistribution([("X", 2), ("Y", 3)], np.full((2, 3), 1.0 / 6))
    assert nonuniformity(d, "X", "Y") == pytest.approx(0.0)


def test_nonuniformity_perfect_correlation():
    d = JointDistribution([("X", 2), ("Y", 2)], np.eye(2) * 0.5)
    assert nonuniformity(d, "X", "Y") == pytest.approx(0.5)


def test_nonuniformity_ignores_independent_register():
    rng = np.random.default_rng(23)
    base = random_table(rng, (3, 4), names=["X", "E"])
    extra = rng.random(2) + 0.1
    extra /= extra.sum()
    probs = np.einsum("xe,d->xed", base.probs, extra)
    joint = JointDistribution([("X", 3), ("E", 4), ("D", 2)], probs)
    with_d = nonuniformity(joint, "X", ["E", "D"])
    without = nonuniformity(base, "X", "E")
    assert with_d == pytest.approx(without, abs=1e-12)


def expanded_nonuniformity(table):
    """The distance as nonuniformity wrote it out for one 2-D table."""
    n_x = table.shape[0]
    col_mass = table.sum(axis=0)
    return float(0.5 * np.abs(table - col_mass[np.newaxis, :] / n_x).sum())


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3,
                                               max_side=6),
                  elements=st.floats(0.0, 1.0)))
def test_uniform_distance_matches_the_expanded_formula(stack):
    # one table by ==, and every table of a stack (x on axis -2)
    assert float(_uniform_distance(stack[0])) == expanded_nonuniformity(
        stack[0])
    got = _uniform_distance(stack)
    assert got.shape == stack.shape[:1]
    assert got.tolist() == [expanded_nonuniformity(t) for t in stack]
    if stack[0].sum() > 0.0:
        table = stack[0] / stack[0].sum()
        d = JointDistribution([("X", table.shape[0]), ("Y", table.shape[1])],
                              table)
        assert nonuniformity(d, "X", "Y") == expanded_nonuniformity(table)


def test_nonuniformity_triangle_inequality():
    # d is a statistical distance on X-marginal tables at fixed side info:
    # pairwise distances between conditionals obey the triangle inequality.
    rng = np.random.default_rng(29)
    for _ in range(50):
        a = rng.random(5)
        b = rng.random(5)
        c = rng.random(5)
        for v in (a, b, c):
            v /= v.sum()
        dab = 0.5 * np.abs(a - b).sum()
        dbc = 0.5 * np.abs(b - c).sum()
        dac = 0.5 * np.abs(a - c).sum()
        assert dac <= dab + dbc + 1e-12


# --- exhaustive channel-decoding oracle ------------------------------------


def brute_force_psucc(channel, k):
    """Literal enumeration over every encoder assignment and ML decoding."""
    channel = np.asarray(channel, dtype=float)
    n_out, n_in = channel.shape
    n_msgs = 2 ** k
    best = 0.0
    for assignment in itertools.product(range(n_in), repeat=n_msgs):
        cols = channel[:, list(assignment)]
        score = cols.max(axis=1).sum() / n_msgs
        best = max(best, score)
    return best


def test_psucc_identity_channel():
    assert psucc_classical(np.eye(2), 1) == pytest.approx(1.0)


def test_psucc_randomizing_channel():
    channel = np.full((2, 2), 0.5)
    assert psucc_classical(channel, 1) == pytest.approx(0.5)


def test_psucc_binary_symmetric():
    channel = np.array([[0.9, 0.1], [0.1, 0.9]])
    assert psucc_classical(channel, 1) == pytest.approx(0.9)


def test_psucc_matches_literal_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n_in = int(rng.integers(2, 4))
        n_out = int(rng.integers(2, 4))
        channel = rng.random((n_out, n_in)) + 0.05
        channel /= channel.sum(axis=0, keepdims=True)
        for k in (0, 1, 2):
            assert psucc_classical(channel, k) == pytest.approx(
                brute_force_psucc(channel, k))


def test_psucc_size_caps():
    with pytest.raises(ValueError):
        psucc_classical(np.eye(9), 1)
    with pytest.raises(ValueError):
        psucc_classical(np.eye(2), 4)
    with pytest.raises(ValueError):
        psucc_classical(np.array([[0.5, 0.2], [0.5, 0.2]]), 1)


def test_entropy_drop_through_channel_bounded_by_psucc():
    # data processed through a channel keeps at least
    # -log2 psucc(channel, floor(H_min(X))) bits of min-entropy
    rng = np.random.default_rng(37)
    for _ in range(40):
        n_x = int(rng.integers(2, 8))
        n_q = int(rng.integers(2, 6))
        n_o = int(rng.integers(2, 6))
        joint = rng.random((n_x, n_q)) + 1e-3
        joint /= joint.sum()
        channel = rng.random((n_o, n_q)) + 0.05
        channel /= channel.sum(axis=0, keepdims=True)
        out = joint @ channel.T  # P(x, o)
        d = JointDistribution([("X", n_x), ("O", n_o)], out)
        h_x = min_entropy(JointDistribution([("X", n_x)], joint.sum(axis=1)), "X")
        k = int(np.floor(h_x))
        lhs = min_entropy(d, "X", "O")
        rhs = -np.log2(psucc_classical(channel, k))
        assert lhs >= rhs - 1e-9
