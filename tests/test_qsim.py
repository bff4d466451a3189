import numpy as np
import pytest

from noisystorage.qsim import (
    bb84_prepare,
    born_probability,
    depolarize,
    helstrom,
    measure,
)

from reference import (reference_born_probability,
                       stored_bit_guess_probability)


def validate_state(rho, tol=1e-12):
    """Check Hermiticity, unit trace and positivity; returns the state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("state is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise ValueError("state trace must be 1")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ValueError("state has a negative eigenvalue")
    return rho


def test_prepared_states_are_valid_projectors():
    for bit in (0, 1):
        for basis in (0, 1):
            rho = bb84_prepare(bit, basis)
            validate_state(rho)
            assert np.trace(rho).real == pytest.approx(1.0)
            assert np.allclose(rho @ rho, rho)  # pure


def test_prepare_examples():
    assert np.allclose(bb84_prepare(0, 0), np.diag([1.0, 0.0]))
    assert np.allclose(bb84_prepare(0, 1), np.full((2, 2), 0.5))
    assert np.allclose(bb84_prepare(1, 1), np.array([[0.5, -0.5], [-0.5, 0.5]]))
    with pytest.raises(ValueError):
        bb84_prepare(2, 0)
    for basis in (2, 1.0, "+", "x", "z"):
        with pytest.raises(ValueError,
                           match="^basis must be an integer 0 or 1, got "):
            bb84_prepare(0, basis)
    # a 0-d array is an array: gf2.as_bits checks it
    assert np.array_equal(bb84_prepare(np.array(1), np.array(True)),
                          bb84_prepare(1, 1))
    # a float bit is refused as an array too, as the scalar 1.0 is
    for bit in (np.array([1.0, 0.0]), np.array(1.0), [1.0, 0.0]):
        with pytest.raises(ValueError, match="^bit must be 0 or 1$"):
            bb84_prepare(bit, 0)


def test_matched_basis_measurement_deterministic():
    rng = np.random.default_rng(131)
    for bit in (0, 1):
        for basis in (0, 1):
            rho = bb84_prepare(bit, basis)
            assert all(measure(rho, basis, rng) == bit for _ in range(20))


def test_mismatched_basis_uniform():
    rng = np.random.default_rng(137)
    rho = bb84_prepare(0, 0)
    assert born_probability(rho, 1, 0) == pytest.approx(0.5)
    samples = np.array([measure(rho, 1, rng) for _ in range(4000)])
    assert abs(samples.mean() - 0.5) < 4 * 0.5 / np.sqrt(4000)


def test_depolarize_endpoints():
    rho = bb84_prepare(1, 1)
    assert np.allclose(depolarize(rho, 1.0), rho)
    assert np.allclose(depolarize(rho, 0.0), 0.5 * np.eye(2))
    with pytest.raises(ValueError):
        depolarize(rho, 1.0001)


def test_depolarize_shrinks_eigenvalues_linearly():
    rho = bb84_prepare(0, 0)
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        out = validate_state(depolarize(rho, r))
        eig = np.sort(np.linalg.eigvalsh(out))
        assert eig[1] == pytest.approx(0.5 + r / 2.0)
        assert eig[0] == pytest.approx(0.5 - r / 2.0)


def test_depolarized_matched_measurement_probability():
    rng = np.random.default_rng(139)
    r = 0.4
    rho = depolarize(bb84_prepare(1, 0), r)
    assert born_probability(rho, 0, 1) == pytest.approx((1 + r) / 2)
    n = 10 ** 5
    hits = sum(measure(rho, 0, rng) for _ in range(n))
    sigma = np.sqrt(0.25 / n)
    assert abs(hits / n - (1 + r) / 2) < 4 * sigma


def test_helstrom_examples():
    rho0 = bb84_prepare(0, 0)
    rho1 = bb84_prepare(1, 0)
    assert helstrom(rho0, rho1, 0.5) == pytest.approx(1.0)
    assert helstrom(rho0, rho0, 0.3) == pytest.approx(0.7)
    plus = bb84_prepare(0, 1)
    # conjugate-basis states overlap 1/2: distinguishability (1+1/sqrt2)/2
    assert helstrom(rho0, plus, 0.5) == pytest.approx(0.5 * (1 + 1 / np.sqrt(2)))


def test_helstrom_never_below_prior_guess():
    rng = np.random.default_rng(149)
    for _ in range(30):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        tau = b @ b.conj().T
        tau /= np.trace(tau).real
        p0 = float(rng.uniform(0, 1))
        assert helstrom(rho, tau, p0) >= max(p0, 1 - p0) - 1e-12


def test_stored_bit_guess_probability_is_half_plus_half_r():
    for r in (0.0, 0.3, 0.77, 1.0):
        for basis in (0, 1):
            assert stored_bit_guess_probability(r, basis) == pytest.approx(
                (1 + r) / 2, abs=1e-12)


def test_validate_state_rejects_bad_matrices():
    with pytest.raises(ValueError):
        validate_state(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        validate_state(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValueError):
        validate_state(np.diag([1.5, -0.5]))  # negative eigenvalue


# retention grid for the stack tests, endpoints included
STACK_RS = np.concatenate([np.linspace(0.0, 1.0, 201), [0.3, 0.77]])


def four_states():
    """The four (bit, basis) states, indexed [bit, basis]."""
    return np.array([[bb84_prepare(b, t) for t in (0, 1)] for b in (0, 1)])


def test_stacked_prepare_equals_per_state_outer_products():
    # arrays of bits or bases gave one (4, 4) outer product of the
    # flattened vectors; each state is np.outer(v, v*) to the bit
    s = 1.0 / np.sqrt(2.0)
    vectors = {(0, 0): [1.0, 0.0], (1, 0): [0.0, 1.0], (0, 1): [s, s],
               (1, 1): [s, -s]}
    for (b, t), v in vectors.items():
        v = np.array(v, dtype=complex)
        assert bb84_prepare(b, t).tobytes() == np.outer(v, v.conj()).tobytes()
    bits, bases = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1], np.uint8)
    stack = bb84_prepare(bits, bases)
    assert stack.shape == (4, 2, 2)
    for k in range(4):
        assert np.array_equal(stack[k], bb84_prepare(bits[k], bases[k]))
    assert np.array_equal(bb84_prepare(1, bases),
                          [bb84_prepare(1, t) for t in bases])


def test_stacked_depolarize_equals_per_matrix_calls():
    states = four_states()
    for r in STACK_RS:
        stacked = depolarize(states, r)
        assert stacked.shape == (2, 2, 2, 2)
        for b in (0, 1):
            for t in (0, 1):
                assert np.array_equal(stacked[b, t],
                                      depolarize(states[b, t], r))


def test_stacked_born_probabilities_equal_one_state_rule():
    # every state measured in both bases; exact equality, because the
    # storing receiver's seeded guesses compare a draw against these values
    for r in STACK_RS:
        noisy = depolarize(four_states(), r).reshape(4, 2, 2)
        for basis in (0, 1):
            for outcome in (0, 1):
                stacked = born_probability(noisy, np.full(4, basis), outcome)
                for k in range(4):
                    one = born_probability(noisy[k], basis, outcome)
                    assert isinstance(one, float)
                    assert stacked[k] == one == reference_born_probability(
                        noisy[k], basis, outcome)


@pytest.mark.parametrize("bases", [
    np.array([-1, 0, 1]),  # -1 was read as the Hadamard basis
    np.array([0.7, 0.0, 1.0]),  # 0.7 was read as the computational one
    np.array([2, 0, 1]),  # IndexError
    np.array([0, 2, 1], dtype=np.uint8),
    [0, 1, np.nan],
])
def test_stacked_bases_must_be_bits(bases):
    states = depolarize(four_states(), 0.5).reshape(4, 2, 2)[:3]
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="basis must be 0 or 1"):
        born_probability(states, bases, 1)
    with pytest.raises(ValueError, match="basis must be 0 or 1"):
        measure(states, bases, rng)
    # nothing was drawn
    assert rng.random() == np.random.default_rng(5).random()


@pytest.mark.parametrize("outcome", [2, -1, 0.5, np.array([0, 2, 1])])
def test_outcome_must_be_a_bit(outcome):
    # 2 raised IndexError and -1 was read as outcome 1
    states = depolarize(four_states(), 0.5).reshape(4, 2, 2)[:3]
    for state, basis in ((states, np.array([0, 1, 1])), (states[0], 0)):
        with pytest.raises(ValueError,
                           match="^outcome must be (an integer )?0 or 1"):
            born_probability(state, basis, outcome)


def test_stacked_measure_draws_like_single_measurements():
    states = depolarize(four_states(), 0.6)
    x = np.random.default_rng(5).integers(0, 2, 300)
    theta = np.random.default_rng(6).integers(0, 2, 300)
    rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
    stacked = measure(states[x, theta], theta.astype(np.uint8), rng)
    singles = [measure(states[b, t], int(t), loop_rng)
               for b, t in zip(x, theta)]
    assert stacked.dtype == np.uint8
    assert stacked.tolist() == singles
    assert rng.random() == loop_rng.random()
