
import numpy as np
import pytest

from noisystorage.distributions import (
    MAX_CELLS,
    JointDistribution,
)


def uniform(registers):
    sizes = [s for _, s in registers]
    n = int(np.prod(sizes))
    return JointDistribution(registers, np.full(n, 1.0 / n))


def test_valid_table_roundtrip():
    d = JointDistribution([("X", 2), ("Y", 3)], [0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
    assert d.sizes == (2, 3)
    again = JointDistribution(d.registers, d.probs.reshape(-1))
    assert again.registers == d.registers
    np.testing.assert_allclose(again.probs, d.probs)


def test_axis_reads_every_register_and_an_appended_one():
    d = uniform([("X", 2), ("Y", 3)])
    e = d.with_register("V", 2, np.zeros((2, 3), dtype=int))
    assert [d.axis(name) for name in ("X", "Y")] == [0, 1]
    assert [e.axis(name) for name in ("X", "Y", "V")] == [0, 1, 2]
    for table, name in ((d, "V"), (e, ["X"]), (e, 0)):
        with pytest.raises(KeyError, match="unknown register"):
            table.axis(name)


def test_rejects_bad_tables():
    with pytest.raises(ValueError):
        JointDistribution([("X", 2)], [0.7, 0.2])  # sums to 0.9
    with pytest.raises(ValueError):
        JointDistribution([("X", 2)], [1.2, -0.2])
    with pytest.raises(ValueError):
        JointDistribution([("X", 2), ("X", 2)], [0.25] * 4)
    with pytest.raises(ValueError):
        JointDistribution([("X", 2 ** 9), ("Y", 2 ** 9)], np.zeros(2 ** 18))


def test_clamp_gives_the_bytes_of_clip():
    # the tolerated negatives, -0.0 included, become +0.0 as np.clip
    # makes them
    probs = np.array([-0.0, -1e-13, -5e-324, 0.0, 5e-324, 0.5, 0.5])
    d = JointDistribution([("X", 7)], probs)
    assert d.probs.tobytes() == np.clip(probs, 0.0, None).tobytes()
    assert not np.signbit(d.probs).any()


@pytest.mark.parametrize("probs", [[np.nan, 1.0], [1.0, np.nan],
                                   [np.nan, np.nan]])
def test_rejects_nan_probabilities(probs):
    # a NaN compares False both ways, so each check must fail on it
    with pytest.raises(ValueError, match="must be nonnegative"):
        JointDistribution([("X", 2)], probs)


def test_unknown_register():
    d = uniform([("X", 2), ("Y", 2)])
    with pytest.raises(KeyError):
        d.axis("Z")


def test_marginal_orders_registers():
    probs = np.arange(1, 7, dtype=float)
    probs /= probs.sum()
    d = JointDistribution([("X", 2), ("Y", 3)], probs)
    m = d.marginal(["Y"])
    np.testing.assert_allclose(m.probs, d.probs.sum(axis=0))
    swapped = d.marginal(["Y", "X"])
    np.testing.assert_allclose(swapped.probs, d.probs.T)


def test_grouped_rejects_overlap():
    d = uniform([("X", 2), ("Y", 2)])
    with pytest.raises(ValueError):
        d.grouped(["X"], ["X"])


def test_with_register_is_deterministic_extension():
    d = uniform([("X", 2), ("Y", 2)])
    values = np.array([[0, 1], [1, 0]])
    e = d.with_register("P", 2, values)
    assert e.names == ["X", "Y", "P"]
    # mass lands only on the prescribed parity value
    for x in range(2):
        for y in range(2):
            assert e.probs[x, y, values[x, y]] == pytest.approx(0.25)
            assert e.probs[x, y, 1 - values[x, y]] == 0.0
    # marginal over the original registers is unchanged
    np.testing.assert_allclose(e.marginal(["X", "Y"]).probs, d.probs)


def test_with_register_rejects_non_integer_values():
    d = uniform([("X", 2), ("Y", 2)])
    for values in (np.full((2, 2), 0.5), np.ones((2, 2)),
                   np.ones((2, 2), dtype=bool)):
        with pytest.raises(ValueError, match="values must be integers"):
            d.with_register("P", 2, values)
    with pytest.raises(ValueError, match="out of range"):
        d.with_register("P", 2, np.full((2, 2), 2))
    with pytest.raises(ValueError, match="table shape"):
        d.with_register("P", 2, np.zeros(4, dtype=int))


def test_with_register_keeps_cell_cap():
    d = uniform([("X", 2 ** 8), ("Y", 2 ** 7)])  # half the cap
    zeros = np.zeros(d.sizes, dtype=int)
    assert d.with_register("P", 2, zeros).probs.size == MAX_CELLS
    with pytest.raises(ValueError, match="cell cap"):
        d.with_register("P", 3, zeros)
