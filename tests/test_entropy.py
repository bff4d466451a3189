import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noisystorage.distributions import JointDistribution, SubDistribution
from noisystorage.entropy import (
    _smoothed_columns,
    _uniform_distance,
    min_entropy,
    psucc_classical,
    smooth_sub_distribution,
)

from reference import (mixture_k4, oracle_psucc_classical,
                       oracle_smoothed_columns, reference_psucc_classical,
                       reference_smoothed_columns, reference_uniform_distance)


def random_table(rng, sizes, names=None):
    names = names or [f"R{i}" for i in range(len(sizes))]
    probs = rng.random(sizes) + 1e-6
    probs /= probs.sum()
    return JointDistribution(list(zip(names, sizes)), probs)


# --- guessing probability: 2^-min_entropy at eps = 0 ---------------------


def test_guessing_uniform_pair():
    d = JointDistribution([("X", 4)], np.full(4, 0.25))
    assert min_entropy(d, "X") == pytest.approx(2.0)


def test_guessing_perfect_copy():
    probs = np.eye(2) * 0.5
    d = JointDistribution([("X", 2), ("Y", 2)], probs)
    assert min_entropy(d, "X", "Y") == pytest.approx(0.0)


def test_guessing_mixture_values():
    d = mixture_k4()
    assert min_entropy(d, ["X0", "X1"]) == pytest.approx(4.0)
    assert 2.0 ** -min_entropy(d, "X0") == pytest.approx(0.5 + 2.0 ** -5)


def test_guessing_marginalizes_other_registers():
    rng = np.random.default_rng(3)
    d = random_table(rng, (3, 4, 2), names=["X", "Y", "W"])
    expected = min_entropy(d.marginal(["X", "Y"]), "X", "Y")
    assert min_entropy(d, "X", "Y") == pytest.approx(expected)


def test_guessing_errors():
    d = JointDistribution([("X", 2), ("Y", 2)], np.full((2, 2), 0.25))
    with pytest.raises(KeyError):
        min_entropy(d, "Q", "Y")
    with pytest.raises(ValueError):
        min_entropy(d, "X", "X")


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
        assert h == pytest.approx(-np.log2(d.probs.max(axis=0).sum()))


def test_min_entropy_rejects_bad_eps():
    d = JointDistribution([("X", 2)], [0.5, 0.5])
    with pytest.raises(ValueError):
        min_entropy(d, "X", eps=1.0)
    with pytest.raises(ValueError):
        min_entropy(d, "X", eps=-0.1)


# 1 - 5e-13 is within the 1e-12 normalization tolerance, so an eps in
# [0, 1) can reach the whole mass of this table
SHORT_BIT = JointDistribution([("X", 2)], np.array([0.5, 0.5]) * (1 - 5e-13))
SHORT_MASS = float(SHORT_BIT.probs.sum())


@pytest.mark.parametrize("eps", [SHORT_MASS,
                                 math.nextafter(0.9999999999995, 2.0)])
@pytest.mark.parametrize("smooth", [min_entropy, smooth_sub_distribution],
                         ids=["min_entropy", "smooth_sub_distribution"])
def test_smoothing_rejects_an_eps_as_large_as_the_mass(smooth, eps):
    assert SHORT_MASS <= eps < 1.0
    with pytest.raises(ValueError,
                       match="^eps must be smaller than the total mass$"):
        smooth(SHORT_BIT, "X", eps=eps)


def test_smoothing_admits_an_eps_just_below_the_mass():
    eps = math.nextafter(SHORT_MASS, 0.0)
    q = smooth_sub_distribution(SHORT_BIT, "X", eps=eps)
    assert q.mass > 0.0
    assert min_entropy(SHORT_BIT, "X", eps=eps) == -math.log2(q.probs.max())


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
        want = oracle_smoothed_columns(table, eps)
        assert got == pytest.approx(want, abs=1e-9)


# a few repeated values, so that tables hold ties and zeros
TIED_ENTRIES = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.25, 0.5])


@st.composite
def smoothing_cases(draw):
    entries = st.one_of(TIED_ENTRIES, st.floats(0.0, 1.0))
    table = draw(hnp.arrays(np.float64, hnp.array_shapes(
        min_dims=2, max_dims=2, min_side=1, max_side=8), elements=entries))
    if draw(st.booleans()):  # an all-zero column
        table[:, draw(st.integers(0, table.shape[1] - 1))] = 0.0
    mass = float(table.sum())
    eps = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 1.0).map(lambda f: f * mass),
        st.just(math.nextafter(mass, 0.0)),  # just below the table's mass
        st.sampled_from([1e-9, 0.01, 0.05, 0.1, 0.3, 0.6, 0.99])))
    return table, eps


@settings(max_examples=500, deadline=None)
@given(smoothing_cases())
@example((np.array([[0.3, 0.1, 0.0, 0.2]]), 0.25))  # a single row
@example((np.array([[0.3], [0.3], [0.1], [0.0]]), 0.5))  # a single column
@example((np.zeros((3, 2)), 0.0))
@example((np.array([[0.25, 0.25], [0.25, 0.25]]), 0.3))  # exact ties
@example((np.array([[0.5, 0.2], [0.2, 0.1]]), math.nextafter(1.0, 0.0)))
def test_tier_walk_equals_the_sorted_segment_list(case):
    table, eps = case
    ceilings, value = _smoothed_columns(table, eps)
    want_ceilings, want_value = reference_smoothed_columns(table, eps)
    assert value == want_value
    assert ceilings.dtype == want_ceilings.dtype
    assert ceilings.tobytes() == want_ceilings.tobytes()


def validate_against(q, parent, tol=1e-9):
    """Raise unless sub-distribution q sits entrywise between 0 and parent
    and its mass is its table's sum."""
    if q.probs.shape != parent.probs.shape:
        raise ValueError("shape mismatch with parent")
    if np.any(q.probs < -tol) or np.any(q.probs > parent.probs + tol):
        raise ValueError("sub-distribution not dominated by parent")
    if abs(q.probs.sum() - q.mass) > tol:
        raise ValueError("mass does not match table sum")


def test_sub_distribution_checker_rejects_bad_tables():
    d = JointDistribution([("X", 4)], np.full(4, 0.25))
    validate_against(SubDistribution(list(d.registers), d.probs * 0.5, 0.5), d)
    for probs, mass, message in ((d.probs * 2.0, 2.0, "not dominated"),
                                 (-d.probs, -1.0, "not dominated"),
                                 (d.probs * 0.5, 0.4, "mass"),
                                 (np.full(2, 0.25), 0.5, "shape")):
        bad = SubDistribution(list(d.registers), probs, mass)
        with pytest.raises(ValueError, match=message):
            validate_against(bad, d)


def test_smooth_sub_distribution_invariants():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = random_table(rng, (4, 4))
        eps = 0.2
        q = smooth_sub_distribution(d, "R0", "R1", eps=eps)
        validate_against(q, d)
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


# --- non-uniformity: _uniform_distance of the (target, given) table ------


def test_nonuniformity_uniform_independent_is_zero():
    d = JointDistribution([("X", 2), ("Y", 3)], np.full((2, 3), 1.0 / 6))
    assert _uniform_distance(d.grouped(["X"], ["Y"])) == pytest.approx(0.0)


def test_nonuniformity_perfect_correlation():
    d = JointDistribution([("X", 2), ("Y", 2)], np.eye(2) * 0.5)
    assert _uniform_distance(d.grouped(["X"], ["Y"])) == pytest.approx(0.5)


def test_nonuniformity_ignores_independent_register():
    rng = np.random.default_rng(23)
    base = random_table(rng, (3, 4), names=["X", "E"])
    extra = rng.random(2) + 0.1
    extra /= extra.sum()
    probs = np.einsum("xe,d->xed", base.probs, extra)
    joint = JointDistribution([("X", 3), ("E", 4), ("D", 2)], probs)
    with_d = _uniform_distance(joint.grouped(["X"], ["E", "D"]))
    without = _uniform_distance(base.grouped(["X"], ["E"]))
    assert with_d == pytest.approx(without, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3,
                                               max_side=6),
                  elements=st.floats(0.0, 1.0)))
def test_uniform_distance_matches_the_expanded_formula(stack):
    # one table by ==, and every table of a stack (x on axis -2)
    assert float(_uniform_distance(stack[0])) == reference_uniform_distance(
        stack[0])
    got = _uniform_distance(stack)
    assert got.shape == stack.shape[:1]
    assert got.tolist() == [reference_uniform_distance(t) for t in stack]


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


def test_psucc_equals_the_subset_loop():
    rng = np.random.default_rng(4100)
    for trial in range(1500):
        shape = tuple(int(v) for v in rng.integers(1, 9, 2))
        channel = rng.random(shape)
        if trial % 3 == 0:  # coarse values, so that subsets tie
            channel = np.round(4.0 * channel)
        channel += 1e-3
        channel /= channel.sum(axis=0, keepdims=True)
        for k in range(4):
            assert psucc_classical(channel, k) \
                == reference_psucc_classical(channel, k)


def test_psucc_rejects_a_channel_without_inputs():
    with pytest.raises(ValueError, match="at least one input"):
        psucc_classical(np.zeros((2, 0)), 1)


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
                oracle_psucc_classical(channel, k))


def test_psucc_size_caps():
    with pytest.raises(ValueError):
        psucc_classical(np.eye(9), 1)
    with pytest.raises(ValueError):
        psucc_classical(np.eye(2), 4)
    with pytest.raises(ValueError):
        psucc_classical(np.array([[0.5, 0.2], [0.5, 0.2]]), 1)


@pytest.mark.parametrize("channel", [[[math.nan, 0.5], [0.5, 0.5]],
                                     [[math.nan, 0.5], [math.nan, 0.5]]])
def test_psucc_rejects_a_nan_channel(channel):
    with pytest.raises(ValueError, match="must be probability vectors"):
        psucc_classical(channel, 1)


@pytest.mark.parametrize("k", [1.9, 1.0, math.nan, math.inf, "1", None,
                               np.float64(2.0)])
def test_psucc_rejects_a_non_integer_k(k):
    # checked before the size caps: this channel is past the symbol cap
    for channel in (np.eye(2), np.eye(9)):
        with pytest.raises(ValueError,
                           match="^k must be an integer, got %s$"
                           % re.escape(repr(k))):
            psucc_classical(channel, k)


@pytest.mark.parametrize("k, expected", [(True, 1.0), (np.int64(1), 1.0),
                                         (np.uint8(2), 0.5)])
def test_psucc_takes_integral_k(k, expected):
    assert psucc_classical(np.eye(2), k) == expected


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
