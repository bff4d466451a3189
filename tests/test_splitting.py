import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisystorage.checks import _random_table
from noisystorage.distributions import JointDistribution
from noisystorage.entropy import min_entropy, split_binary, split_multi

from reference import (mixture_k4, reference_select_first_large,
                       reference_with_register)


def test_split_binary_uniform_two_bits():
    d = JointDistribution([("X0", 2), ("X1", 2)], np.full((2, 2), 0.25))
    res = split_binary(d, alpha=2.0)
    assert res.achieved >= 0.0
    # threshold is 1/2 and P(x0) = 1/2 everywhere: never strictly below,
    # so the second half is always selected
    marg = res.augmented.marginal(["D"]).probs
    assert marg[0] == pytest.approx(0.0)
    assert marg[1] == pytest.approx(1.0)


def test_split_binary_mixture_guarantee():
    d = mixture_k4()
    res = split_binary(d, alpha=4.0)
    assert res.achieved >= 4.0 / 2.0 - 1.0 - 1e-12


def test_split_binary_preserves_marginal():
    rng = np.random.default_rng(41)
    d = _random_table(rng, (4, 3, 2), ["X0", "X1", "Z"])
    alpha = min_entropy(d, ["X0", "X1"], "Z")
    res = split_binary(d, alpha, given="Z")
    np.testing.assert_allclose(
        res.augmented.marginal(["X0", "X1", "Z"]).probs, d.probs, atol=1e-12)
    assert res.augmented.names == ["X0", "X1", "Z", "D"]
    assert res.augmented.size_of("D") == 2


def test_split_binary_selector_depends_only_on_x0_and_z():
    rng = np.random.default_rng(43)
    d = _random_table(rng, (3, 4, 2), ["X0", "X1", "Z"])
    res = split_binary(d, alpha=1.5, given="Z")
    aug = res.augmented.probs  # (x0, x1, z, d)
    for x0 in range(3):
        for z in range(2):
            cells = aug[x0, :, z, :]
            support = np.nonzero(cells.sum(axis=0))[0]
            assert len(support) <= 1  # deterministic given (x0, z)


def test_split_binary_randomized_guarantee():
    rng = np.random.default_rng(47)
    for _ in range(400):
        sizes = (int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                 int(rng.integers(1, 5)))
        d = _random_table(rng, sizes, ["X0", "X1", "Z"])
        alpha = min_entropy(d, ["X0", "X1"], "Z")
        res = split_binary(d, alpha, given="Z")
        assert res.achieved >= alpha / 2.0 - 1.0 - 1e-9


def test_split_binary_register_validation():
    d = JointDistribution([("A", 2), ("B", 2), ("C", 2)], np.full(8, 0.125))
    with pytest.raises(ValueError):
        split_binary(d, 1.0, x0="A", x1="B")  # leftover register C
    with pytest.raises(ValueError):
        split_binary(d, -1.0, x0="A", x1="B", given="C")


def test_split_multi_three_iid_strings():
    n = 8  # three 3-bit strings
    probs = np.full((n, n, n), 1.0 / n ** 3)
    d = JointDistribution([("X1", n), ("X2", n), ("X3", n)], probs)
    res = split_multi(d, alpha=6.0, parts=["X1", "X2", "X3"])
    bound = 6.0 / 2.0 - np.log2(3) - 1.0
    assert bound == pytest.approx(0.4150375, abs=1e-6)
    assert res.achieved >= bound - 1e-9
    assert res.augmented.size_of("V") == 3


def test_split_multi_degenerate_constants():
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = 1.0
    d = JointDistribution([("X1", 2), ("X2", 2), ("X3", 2)], probs)
    res = split_multi(d, alpha=0.0, parts=["X1", "X2", "X3"])
    bound = 0.0 - np.log2(3) - 1.0
    assert res.achieved >= bound


def test_split_multi_m2_and_binary_both_meet_their_bounds():
    rng = np.random.default_rng(53)
    for _ in range(100):
        sizes = (int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                 int(rng.integers(1, 4)))
        d = _random_table(rng, sizes, ["X0", "X1", "Z"])
        alpha = min_entropy(d, ["X0", "X1"], "Z")
        res_b = split_binary(d, alpha, given="Z")
        res_m = split_multi(d, alpha, parts=["X0", "X1"], given="Z")
        assert res_b.achieved >= alpha / 2.0 - 1.0 - 1e-9
        assert res_m.achieved >= alpha / 2.0 - np.log2(2) - 1.0 - 1e-9
        # split_binary is split_multi with m = 2 and D = 1 - V, exactly
        assert res_b.achieved == res_m.achieved
        assert np.array_equal(res_b.augmented.probs,
                              res_m.augmented.probs[..., ::-1])


def test_split_multi_randomized_guarantee():
    rng = np.random.default_rng(59)
    for m in (2, 3, 4):
        names = [f"X{i + 1}" for i in range(m)] + ["Z"]
        for _ in range(150):
            sizes = tuple(int(rng.integers(2, 5)) for _ in range(m)) + (
                int(rng.integers(1, 4)),)
            d = _random_table(rng, sizes, names)
            alpha = min(
                min_entropy(d, [names[i], names[j]], "Z")
                for i in range(m) for j in range(i + 1, m))
            res = split_multi(d, alpha, parts=names[:-1], given="Z")
            assert res.achieved >= alpha / 2.0 - np.log2(m) - 1.0 - 1e-9


def test_split_multi_needs_two_parts():
    d = JointDistribution([("X1", 2), ("Z", 2)], np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        split_multi(d, 1.0, parts=["X1"], given="Z")


# --- reference: selection through a flattened side-information index --------


def shuffled_split_table(rng, m, n_side, uniform, wide):
    """Parts and side registers in a shuffled table order.

    The side registers are listed to the split in a shuffled order too;
    with ``wide`` one random axis has 9 to 20 values.  The augmented table
    stays within the cell cap.
    """
    parts = [f"X{i}" for i in range(m)]
    sides = [f"Z{i}" for i in range(n_side)]
    names = list(rng.permutation(parts + sides))
    top = 5 if len(names) <= 4 else 4
    sizes = [int(rng.integers(1, top)) for _ in names]
    if wide:
        sizes[int(rng.integers(len(sizes)))] = int(rng.integers(9, 21))
    if uniform:
        d = JointDistribution(list(zip(names, sizes)),
                              np.full(sizes, 1.0 / np.prod(sizes)))
    else:
        d = _random_table(rng, tuple(sizes), names)
    return d, parts, [str(z) for z in rng.permutation(sides)]


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n_side", [0, 1, 2])
def test_splits_match_index_scatter_reference(m, n_side):
    rng = np.random.default_rng(6100 + 10 * m + n_side)
    for trial in range(80):
        uniform = trial % 4 == 0
        d, parts, given = shuffled_split_table(rng, m, n_side, uniform,
                                               wide=trial % 3 == 0)
        alphas = [0.0, 2.0 * math.log2(d.probs.size),
                  float(rng.uniform(0.0, 2.0 * math.log2(d.probs.size)))]
        if uniform:  # P(X_j | Z) = 1/|X_j| sits on the threshold
            alphas += [2.0 * math.log2(d.size_of(p)) for p in parts[:-1]]
        for alpha in alphas:
            v_cells, achieved = reference_select_first_large(d, alpha, parts,
                                                             given)
            res = split_multi(d, alpha, parts=parts, given=given)
            want = reference_with_register(d, "V", m, v_cells)
            assert res.achieved == achieved
            assert res.augmented.registers == want.registers
            assert res.augmented.probs.tobytes() == want.probs.tobytes()
            if m == 2:
                res = split_binary(d, alpha, x0=parts[0], x1=parts[1],
                                   given=given)
                want = reference_with_register(d, "D", 2, 1 - v_cells)
                assert res.achieved == achieved
                assert res.augmented.probs.tobytes() == want.probs.tobytes()


@st.composite
def function_of_z_tables(draw):
    """(X1, X2, Z) tables with one nonzero cell per Z column: X1 X2 is a
    function of Z, so H_min(X1 X2 | Z) is exactly 0, and the float sum of
    the column maxima can land an ulp above 1."""
    z = draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, 3), min_size=z, max_size=z))
    weights = draw(st.lists(st.floats(2.0 ** -10, 1.0), min_size=z,
                            max_size=z))
    probs = np.zeros((4, z))
    probs[cells, np.arange(z)] = weights
    probs /= probs.sum()
    return JointDistribution([("X1", 2), ("X2", 2), ("Z", z)],
                             probs.reshape(2, 2, z))


@settings(max_examples=300, deadline=None)
@given(function_of_z_tables(), st.sampled_from([0.0, 1e-9, 0.25]))
def test_min_entropy_of_a_function_of_z_is_not_negative(d, eps):
    alpha = min_entropy(d, ["X1", "X2"], "Z", eps=eps)
    assert alpha >= 0.0
    if eps == 0.0:
        assert alpha < 1e-12
        if d.probs.max(axis=(0, 1)).sum() == 1.0:
            # -log2(1.0), the bytes the unclamped value had
            assert math.copysign(1.0, alpha) == -1.0
        # the splits take H_min as their alpha
        split_multi(d, alpha, ["X1", "X2"], given="Z")
        split_binary(d, alpha, "X1", "X2", given="Z")
