import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisystorage import bounds
from noisystorage.bounds import (
    InfeasibleStorageError,
    NoPositiveLengthError,
    OtParams,
    PreconditionError,
    QidParams,
    RobustParams,
    StorageModel,
    _impersonation,
    _ot,
    _qid,
    _robust,
    binary_entropy,
    depolarizing_capacity,
    dishonest_alice_error,
    feasible_region,
    format_value,
    impersonation_error,
    inv_binary_entropy,
    ot_epsilon,
    ot_length,
    qid_error,
    rate_curve,
    robust_ot_length,
    rows_to_csv,
    sigma,
    strong_converse_exponent,
)

from reference import (QID_GOOD, ROBUST_GOOD, oracle_impersonation_error,
                       oracle_ot_length, oracle_qid_error,
                       oracle_robust_ot_length,
                       oracle_strong_converse_exponent, qubit,
                       reference_inv_binary_entropy, reference_rate_curve,
                       reference_strong_converse_exponent)


# frozen from a 50-digit evaluation of the closed forms
EPS_0106_1E10 = 5.67541229689e-9
EPS_FIG15 = 5.00159325116e-9
SIGMA_QUARTER = 1.76110234484e-4
CAP_QUARTER_R = 0.57099651028
HINV_HALF = 0.110027864438




# --- elementary formulas -----------------------------------------------------


def test_binary_entropy_examples():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.49999, abs=1e-4)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_inv_binary_entropy_examples():
    assert inv_binary_entropy(1.0) == 0.5
    assert inv_binary_entropy(0.0) == 0.0
    assert inv_binary_entropy(0.5) == pytest.approx(HINV_HALF, abs=1e-9)
    with pytest.raises(ValueError):
        inv_binary_entropy(-0.01)


@settings(max_examples=300, deadline=None)
@given(y=st.floats(0.0, 1.0))
@example(y=0.0)
@example(y=5e-324)
@example(y=1e-300)
@example(y=0.5)
@example(y=1.0 - 2.0 ** -53)
@example(y=1.0)
def test_inv_binary_entropy_equals_the_200_step_bisection(y):
    # the bisection stops once lo and hi are adjacent floats; below about
    # y = 1e-43 it still runs all 200 steps without getting there
    assert (inv_binary_entropy(y).hex()
            == reference_inv_binary_entropy(y).hex())


def test_inv_binary_entropy_stops_once_the_bisection_stalls():
    with mock.patch.object(bounds, "_binary_entropy",
                           wraps=bounds._binary_entropy) as entropy:
        inv_binary_entropy(0.5)
    # 55 bisection steps and the final check; all 200 steps made 201 calls
    assert entropy.call_count <= 60


def test_inv_binary_entropy_roundtrip():
    for y in np.linspace(1e-6, 1.0, 97):
        p = inv_binary_entropy(float(y))
        assert binary_entropy(p) == pytest.approx(float(y), abs=1e-9)
        assert 0.0 < p <= 0.5


def test_sigma_examples():
    assert sigma(0.25) == pytest.approx(SIGMA_QUARTER, rel=1e-9)
    assert sigma(1e-9) < 1e-17  # vanishes towards zero
    grid = np.linspace(1e-4, 0.25, 300)
    vals = [sigma(float(d)) for d in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # increasing on (0, 1/4)
    with pytest.raises(ValueError):
        sigma(0.0)


def test_ot_epsilon_headline_operating_points():
    assert ot_epsilon(0.0106, 1e10) == pytest.approx(EPS_0106_1E10, rel=1e-9)
    assert ot_epsilon(0.000057588, 1e15) == pytest.approx(EPS_FIG15, rel=1e-9)
    assert ot_epsilon(0.000057588, 1e15) <= 1e-8
    # the 2x statement error sits just above the 1e-8 threshold at the
    # first operating point; both numbers are meaningful
    assert 2.0 * ot_epsilon(0.0106, 1e10) > 1e-8


def test_ot_epsilon_sigma_identity():
    rng = np.random.default_rng(61)
    for _ in range(50):
        delta = float(rng.uniform(1e-4, 0.2499))
        n = float(rng.uniform(10, 1e8)) * 4 / delta
        lhs = ot_epsilon(delta, n)
        rhs = 2.0 * 2.0 ** (-sigma(delta / 4.0) * n)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_transfer_value_matches_and_survives_underflow():
    t = _ot(OtParams(n=1e10, delta=0.0106, storage=qubit(0.1)))
    assert t.eps == ot_epsilon(0.0106, 1e10)
    assert t.value == pytest.approx(
        t.gamma * 1e10 / 2.0 - math.log2(1.0 / ot_epsilon(0.0106, 1e10)),
        rel=1e-12)
    # log2(1/eps) is taken in log space, so the bound outlives eps itself
    big = _ot(OtParams(n=1e15, delta=0.0106, storage=qubit(0.1)))
    assert math.isfinite(big.value) and big.ell > 0
    assert big.eps == 0.0  # underflows as a float


@pytest.mark.parametrize("evaluate", [
    lambda: _ot(OtParams(n=1e10, delta=0.0106, storage=qubit(0.1))),
    lambda: _robust(RobustParams(n=1e10, delta=0.005, storage=qubit(0.1),
                                 p1_sent=1.0, ph_noclick=0.6,
                                 pd_noclick=0.05, ph_err=0.01)),
    # delta and n are the same on every row of a curve
    lambda: rate_curve(1e10, 0.0106, 1.0, np.linspace(0.0, 0.9, 200)),
], ids=["ot", "robust", "curve"])
def test_transfer_bound_evaluates_the_eps_exponent_once(evaluate):
    with mock.patch.object(bounds, "_ot_eps_exponent",
                           wraps=bounds._ot_eps_exponent) as exponent:
        evaluate()
    assert exponent.call_count == 1


# --- capacity and exponent ----------------------------------------------------


def test_capacity_endpoints_exact():
    assert depolarizing_capacity(qubit(1.0)) == 1.0
    assert depolarizing_capacity(qubit(0.0)) == 0.0


def test_capacity_quarter_boundary():
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if depolarizing_capacity(qubit(mid)) < 0.25:
            lo = mid
        else:
            hi = mid
    assert lo == pytest.approx(CAP_QUARTER_R, abs=1e-6)
    assert abs(lo - 0.571) < 0.005


def test_capacity_monotone_in_r():
    caps = [depolarizing_capacity(qubit(r)) for r in np.linspace(0, 1, 101)]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_capacity_higher_dimensions():
    # d-dimensional endpoints: log2(d) when noiseless, 0 when useless
    for d in (3, 4, 8):
        assert depolarizing_capacity(StorageModel(r=1.0, dim=d)) == pytest.approx(
            math.log2(d))
        assert depolarizing_capacity(StorageModel(r=0.0, dim=d)) == pytest.approx(
            0.0, abs=1e-12)


def test_capacity_is_nonnegative_for_useless_storage():
    # the eigenvalue sum rounds to -2.2e-16 at r = 0 for 11 of these dims
    # (3, 11, 13, 28, ...), and to a few ulp above 0 for others (14, 24,
    # 29, 41, 54, 58, 61); the fully depolarizing channel carries nothing
    for d in range(2, 65):
        assert depolarizing_capacity(StorageModel(r=0.0, dim=d)) == 0.0


def test_gamma_zero_below_capacity_positive_above():
    for r in np.arange(0.0, 0.95, 0.1):
        st = qubit(float(r))
        cap = depolarizing_capacity(st)
        assert strong_converse_exponent(cap, st) == 0.0
        assert strong_converse_exponent(cap * 0.5, st) == 0.0
        assert strong_converse_exponent(cap + 1e-6, st) > 0.0


def test_gamma_useless_channel_is_rate():
    st = qubit(0.0)
    assert strong_converse_exponent(0.25, st) == pytest.approx(0.25, abs=1e-6)
    assert strong_converse_exponent(0.7, st) == pytest.approx(0.7, abs=1e-6)


def test_gamma_perfect_channel():
    st = qubit(1.0)
    assert strong_converse_exponent(0.5, st) == 0.0
    assert strong_converse_exponent(1.5, st) == pytest.approx(0.5)


def test_gamma_vanishes_towards_capacity():
    st = qubit(0.3)
    cap = depolarizing_capacity(st)
    vals = [strong_converse_exponent(cap + gap, st)
            for gap in (0.2, 0.1, 0.01, 1e-4, 1e-6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-9


def test_gamma_nondecreasing_in_rate():
    for r in (0.2, 0.6):
        st = qubit(r)
        grid = np.linspace(0.0, 1.2, 60)
        vals = [strong_converse_exponent(float(R), st) for R in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gamma_matches_reference_optimizer():
    rng = np.random.default_rng(67)
    for _ in range(40):
        r = float(rng.uniform(0.0, 0.99))
        R = float(rng.uniform(0.0, 1.2))
        got = strong_converse_exponent(R, qubit(r))
        want = oracle_strong_converse_exponent(R, r)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def _outcome(evaluate):
    try:
        return evaluate()
    except PreconditionError as exc:
        return "PreconditionError: %s" % exc


@st.composite
def gamma_grids(draw):
    """A rate R and a grid of storages, with R drawn near the capacity or
    near log2 d of one of them as often as not."""
    storages = draw(st.lists(st.builds(
        StorageModel,
        r=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        nu=st.just(1.0), dim=st.sampled_from([2, 3, 4, 8])), max_size=8))
    if storages and draw(st.booleans()):
        storage = draw(st.sampled_from(storages))
        if draw(st.booleans()):
            cap = depolarizing_capacity(storage)
            R = max(0.0, cap + draw(st.floats(-1e-3, 1e-3)))
        else:  # the scan's values flatten into a plateau of float noise
            R = math.log2(storage.dim) + draw(st.floats(-1e-9, 1e-9))
    else:
        R = draw(st.one_of(st.floats(0.0, 3.5), st.sampled_from(
            [0.0, 1e-12, 1.7e302, 1.9e302, math.inf])))
    return R, storages


@settings(max_examples=300, deadline=None)
@given(gamma_grids())
@example((0.3, []))  # an empty grid
@example((0.9, [StorageModel(r=0.4, dim=3), StorageModel(r=0.95, dim=3)]))
@example((0.2394, [qubit(1.0), qubit(0.0)]))  # lambda- = 0, and r = 0
@example((0.1, [qubit(0.5)]))  # below capacity: gamma = 0
# R <= capacity, where every score sits at or just below 0
@example((0.0, [qubit(0.5), StorageModel(r=0.0, dim=3),
                StorageModel(r=0.3, dim=8)]))
@example((1e-12, [qubit(0.0), StorageModel(r=0.0, dim=13),
                  StorageModel(r=0.0, dim=1000)]))
@example((depolarizing_capacity(qubit(0.5)), [qubit(0.5)]))
@example((depolarizing_capacity(StorageModel(r=1e-8, dim=3)),
          [StorageModel(r=1e-8, dim=3), StorageModel(r=0.0, dim=3)]))
@example((0.7, [qubit(0.0)]))  # the alpha -> infinity limit f_inf wins
@example((1.9e302, [qubit(0.3), qubit(0.1)]))  # overflow
# the rate_curve grid of the README's curve command
@example((0.2394, [qubit(r) for r in np.linspace(0.0, 0.9, 200)]))
# at log2 d the scan's values near its peak differ by an ulp, and the
# first index not below its successor is not the scan's maximum
@example((math.log2(3), [StorageModel(r=0.1875, dim=3)]))
# at tiny R the scan's values carry float noise of about 1e-16, and the
# maximum lies six indices left of the first index not below its successor
@example((9.542173897110405e-13, [qubit(0.0)]))
def test_gamma_grid_equals_the_scalar_scan(grid):
    R, storages = grid
    assert _outcome(lambda: [strong_converse_exponent(R, s)
                             for s in storages]) == _outcome(
        lambda: [reference_strong_converse_exponent(R, s) for s in storages])


def test_gamma_that_overflows_is_a_precondition():
    # the scan's s * (R - log2 d) overflows from R of about 1.8e302 on
    assert strong_converse_exponent(1.7e302, qubit(0.1)) == 1.7e302
    for R, st in ((1.9e302, qubit(0.1)), (math.inf, qubit(0.1)),
                  (math.inf, qubit(1.0))):
        with pytest.raises(PreconditionError,
                           match=r"rate R = .* at rate nu = 1 is not a finite"):
            strong_converse_exponent(R, st)


# --- parameter records ---------------------------------------------------------


def test_storage_model_validation():
    with pytest.raises(PreconditionError):
        StorageModel(r=1.2)
    with pytest.raises(PreconditionError):
        StorageModel(r=0.5, nu=0.0)
    with pytest.raises(PreconditionError):
        StorageModel(r=0.5, dim=1)


def test_storage_model_requires_an_integral_dimension():
    for dim in (2.5, 2.0, math.nan):
        with pytest.raises(PreconditionError, match="dim must be an integer"):
            StorageModel(r=0.5, dim=dim)
    # a bool is an integer, and fails the least dimension
    with pytest.raises(PreconditionError, match="at least 2"):
        StorageModel(r=0.5, dim=True)
    assert StorageModel(r=0.5, dim=np.int64(3)).dim == 3
    assert StorageModel(r=0.5, dim=np.uint8(2)).dim == 2
    assert StorageModel(r=0.5, dim=10 ** 300).dim == 10 ** 300


def test_ot_params_validation():
    with pytest.raises(PreconditionError):
        OtParams(n=1e6, delta=0.3, storage=qubit(0.1))
    with pytest.raises(PreconditionError):
        OtParams(n=10, delta=0.01, storage=qubit(0.1))  # n < 4/delta


def test_robust_params_validation():
    good = dict(n=1e8, delta=0.01, storage=qubit(0.1), p1_sent=0.9,
                ph_noclick=0.5, pd_noclick=0.05, ph_err=0.01)
    RobustParams(**good)
    with pytest.raises(PreconditionError):
        RobustParams(**{**good, "ph_err": 0.5})
    with pytest.raises(PreconditionError):
        RobustParams(**{**good, "p1_sent": 0.3})  # m1 <= 0
    with pytest.raises(PreconditionError):
        RobustParams(**{**good, "n": 100})  # m1 < 4/delta


def test_qid_params_validation():
    with pytest.raises(PreconditionError):
        QidParams(n=10, m=2048, delta=0.05, storage=qubit(0.1))  # log2 m >= n
    with pytest.raises(PreconditionError):
        QidParams(n=1e4, m=16, delta=0.05, storage=qubit(0.1), d_code=10)
    p = QidParams(n=1e6, m=16, delta=0.05, storage=qubit(0.1))
    assert 0.0 < p.mu <= 0.5
    assert binary_entropy(p.mu) == pytest.approx(1.0 - math.log2(16) / 1e6,
                                                 abs=1e-9)


def test_params_reject_values_without_a_finite_float():
    with pytest.raises(PreconditionError, match="dim has no finite float"):
        StorageModel(r=0.5, dim=10 ** 400)
    assert StorageModel(r=0.5, dim=10 ** 300).dim == 10 ** 300
    # 4/delta overflows to inf, which has no integer ceiling
    with pytest.raises(PreconditionError, match="n >= 4/delta"):
        OtParams(n=1e300, delta=1e-320, storage=qubit(0.1))
    with pytest.raises(PreconditionError, match="n >= 4/delta"):
        rate_curve(1e300, 1e-320, 1.0, [0.1])


def test_qid_params_reject_distance_above_code_length():
    kwargs = dict(n=1e4, m=16, delta=0.05, storage=qubit(0.1), ell=8)
    assert QidParams(**kwargs, d_code=10_000).d_code == 10_000
    with pytest.raises(PreconditionError,
                       match="d_code = 10001 exceeds the code length"):
        QidParams(**kwargs, d_code=10_001)


@pytest.mark.parametrize("field, value, message", [
    ("m", 2.5, "m must be an integer, got 2.5"),
    ("m", math.nan, "m must be an integer, got nan"),
    ("ell", 2.5, "ell must be an integer, got 2.5"),
    ("ell", math.nan, "ell must be an integer, got nan"),
    ("d_code", 3e8 + 0.5, "d_code must be an integer, got 300000000.5"),
    ("d_code", math.inf, "code distance d_code = inf exceeds the code "
                         "length n = 1e+09"),
])
def test_qid_params_reject_non_integer_counts(field, value, message):
    with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
        QidParams(**{**QID_GOOD, field: value})


@pytest.mark.parametrize("make, message", [
    (lambda: OtParams(n=math.nan, delta=0.3, storage=qubit(0.1)),
     "n must be finite, got nan"),
    (lambda: RobustParams(**{**ROBUST_GOOD, "n": math.nan, "ph_err": 0.7}),
     "n must be finite, got nan"),
    (lambda: RobustParams(**{**ROBUST_GOOD, "n": 0, "delta": 0.3}),
     "n must be positive, got 0"),
    (lambda: RobustParams(**{**ROBUST_GOOD, "delta": 0.3, "p1_sent": 1.5}),
     "delta must lie in (0, 1/4)"),
    (lambda: RobustParams(**{**ROBUST_GOOD, "ph_err": 0.7, "ell": 2.5}),
     "honest error rate must be below 1/2"),
    # m1 = 45 < 4/delta = 800
    (lambda: RobustParams(**{**ROBUST_GOOD, "n": 100, "ell": 2.5}),
     "ell must be an integer, got 2.5"),
    # m1 = 1.45 * 1.7e308 overflows; the n itself is finite
    (lambda: RobustParams(**{**ROBUST_GOOD, "n": 1.7e308, "p1_sent": 1.0,
                             "ph_noclick": 0.0, "pd_noclick": 0.45}),
     "m1 = (p1_sent - ph_noclick + pd_noclick) * n must be finite, got inf "
     "at n = 1.7e+308"),
    (lambda: QidParams(**{**QID_GOOD, "n": math.nan, "m": 1}),
     "n must be finite, got nan"),
    (lambda: QidParams(**{**QID_GOOD, "n": math.inf, "delta": 0.3}),
     "n must be finite, got inf"),
    (lambda: QidParams(**{**QID_GOOD, "m": 2.5, "delta": 0.3}),
     "m must be an integer, got 2.5"),
    (lambda: QidParams(**{**QID_GOOD, "delta": 0.3, "ell": 2.5}),
     "delta must lie in (0, 1/4)"),
], ids=["ot-n-delta", "robust-n-ph_err", "robust-n-delta",
        "robust-delta-p1_sent", "robust-ph_err-ell", "robust-ell-m1",
        "robust-m1-inf", "qid-n-m", "qid-n-delta", "qid-m-delta", "qid-delta-ell"])
def test_records_name_their_first_faulty_field(make, message):
    # fields in declaration order: n, then m (identification), then delta,
    # then the probabilities and ell, then m1
    with pytest.raises(PreconditionError, match="^%s$" % re.escape(message)):
        make()


@pytest.mark.parametrize("n", [0, -1, -1e10])
def test_robust_params_name_a_nonpositive_round_count(n):
    # m1 = (...) n <= 0 used to blame the three probabilities
    with pytest.raises(PreconditionError,
                       match="^n must be positive, got "):
        RobustParams(**{**ROBUST_GOOD, "n": n})


def test_bool_counts_and_lengths_are_integers():
    # a bool is a numbers.Integral, as for dim and qid_code, and a record
    # keeps it as its int
    assert (qid_error(QidParams(**{**QID_GOOD, "ell": True}))
            == qid_error(QidParams(**{**QID_GOOD, "ell": 1})))
    ell = RobustParams(**ROBUST_GOOD, ell=True).ell
    assert ell == 1 and type(ell) is int
    with pytest.raises(PreconditionError, match="two passwords"):
        QidParams(**{**QID_GOOD, "m": True})


def test_qid_record_matches_its_error_and_capacity():
    p = QidParams(n=1e9, m=16, delta=0.2, storage=qubit(0.1), ell=1000,
                  d_code=int(3e8))
    t = _qid(p)
    assert t.capacity == depolarizing_capacity(p.storage)
    assert t.error == qid_error(p) == min(1.0, 2.0 ** -t.e1 + 2.0 ** -t.e2)


# --- OT lengths -----------------------------------------------------------------


def test_ot_length_infeasible_perfect_storage():
    p = OtParams(n=1e10, delta=0.0106, storage=qubit(1.0))
    with pytest.raises(InfeasibleStorageError):
        ot_length(p)


def test_ot_length_useless_channel_rate():
    p = OtParams(n=1e10, delta=0.0106, storage=qubit(0.0))
    ell, eps = ot_length(p)
    assert eps == pytest.approx(EPS_0106_1E10, rel=1e-9)
    assert ell / 1e10 == pytest.approx((0.25 - 0.0106) / 2.0, abs=1e-6)


def test_ot_length_no_positive_length():
    # storage barely feasible: the exponent cannot pay the log(1/eps) cost
    p = OtParams(n=1e6, delta=0.2, storage=qubit(0.26))
    assert depolarizing_capacity(p.storage) < 0.25 - p.delta
    with pytest.raises(NoPositiveLengthError):
        ot_length(p)


def test_ot_length_monotone():
    lengths_r = []
    for r in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        ell, _ = ot_length(OtParams(n=1e10, delta=0.0106, storage=qubit(r)))
        lengths_r.append(ell)
    assert all(b < a for a, b in zip(lengths_r, lengths_r[1:]))
    lengths_n = [ot_length(OtParams(n=n, delta=0.0106, storage=qubit(0.2)))[0]
                 for n in (1e8, 1e9, 1e10)]
    assert all(b > a for a, b in zip(lengths_n, lengths_n[1:]))


def test_ot_length_cross_check():
    rng = np.random.default_rng(71)
    for _ in range(15):
        r = float(rng.uniform(0.0, 0.5))
        delta = float(rng.uniform(0.005, 0.05))
        n = float(rng.uniform(1e8, 1e11))
        st = qubit(r)
        if depolarizing_capacity(st) >= 0.25 - delta:
            continue
        value, eps = oracle_ot_length(n, delta, r, 1.0)
        if value <= 1:
            continue
        ell, got_eps = ot_length(OtParams(n=n, delta=delta, storage=st))
        assert got_eps == pytest.approx(eps, rel=1e-9)
        # ell is the floor of a value the two implementations agree on to
        # 1e-9 relative, so it can differ from floor(reference) by at most 1
        assert ell <= value + 1e-6
        assert value - ell < 1.0 + 1e-9 * abs(value)


def test_robust_ot_cross_check_and_examples():
    p = RobustParams(**ROBUST_GOOD)
    assert p.m1 == pytest.approx(0.45e10)
    assert p.m_total == pytest.approx(0.4e10)
    ell, eps = robust_ot_length(p)
    assert ell > 0
    assert ell == math.floor(oracle_robust_ot_length(p))
    assert eps == pytest.approx(ot_epsilon(0.005, p.m1), rel=1e-12)


def test_robust_weak_coherent_single_photon_fraction():
    # Poisson source with mean 1: single-photon probability e^(-1)
    p1 = math.exp(-1.0)
    assert p1 == pytest.approx(0.3679, abs=1e-4)
    p = RobustParams(n=1e10, delta=0.005, storage=qubit(0.05), p1_sent=p1,
                     ph_noclick=0.1, pd_noclick=0.1, ph_err=0.0)
    assert p.m1 == pytest.approx(p1 * 1e10)


def test_robust_zero_error_reduces_to_plain_shape():
    # with no bit errors the deduction vanishes and the bound matches the
    # plain calculator evaluated on m1 rounds
    st = qubit(0.1)
    p = RobustParams(n=1e10, delta=0.0106, storage=st, p1_sent=1.0,
                     ph_noclick=0.0, pd_noclick=0.0, ph_err=0.0)
    assert p.m1 == pytest.approx(1e10)
    ell_robust, eps_robust = robust_ot_length(p)
    ell_plain, eps_plain = ot_length(OtParams(n=1e10, delta=0.0106, storage=st))
    assert ell_robust == ell_plain
    assert eps_robust == pytest.approx(eps_plain, rel=1e-12)


def test_robust_ec_variants_differ():
    p = RobustParams(**ROBUST_GOOD)
    ell_rounds, _ = robust_ot_length(p, ec_variant="rounds")
    # the alternative charges the correction against (1 - ph_err) n bits,
    # which is more rounds here, hence a shorter (possibly negative) length
    with pytest.raises(NoPositiveLengthError):
        robust_ot_length(p, ec_variant="error-complement")
    with pytest.raises(ValueError):
        robust_ot_length(p, ec_variant="bogus")
    assert ell_rounds > 0


def test_robust_checks_ec_variant_before_feasibility():
    p = RobustParams(n=1e10, delta=0.01, storage=qubit(0.9), p1_sent=0.9,
                     ph_noclick=0.5, pd_noclick=0.05, ph_err=0.01)
    with pytest.raises(InfeasibleStorageError):
        robust_ot_length(p)
    with pytest.raises(ValueError, match="unknown ec_variant 'bogus'"):
        robust_ot_length(p, ec_variant="bogus")


def test_robust_infeasible():
    p = RobustParams(n=1e10, delta=0.01, storage=qubit(0.9), p1_sent=0.9,
                     ph_noclick=0.5, pd_noclick=0.05, ph_err=0.01)
    with pytest.raises(InfeasibleStorageError):
        robust_ot_length(p)


# --- identification -------------------------------------------------------------


def test_qid_error_cross_check():
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = float(rng.uniform(5e8, 2e9))
        m = int(rng.choice([4, 16, 64]))
        delta = float(rng.uniform(0.15, 0.24))
        d_code = int(rng.uniform(0.2, 0.8) * n)
        ell = int(rng.uniform(100, 5000))
        r = float(rng.uniform(0.0, 0.3))
        p = QidParams(n=n, m=m, delta=delta, storage=qubit(r), ell=ell,
                      d_code=d_code)
        want = oracle_qid_error(n, m, delta, ell, d_code, r, 1.0)
        got = qid_error(p)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_impersonation_cross_check():
    rng = np.random.default_rng(89)
    for _ in range(10):
        n = float(rng.uniform(5e7, 5e8))
        m = int(rng.choice([2, 8, 32]))
        delta = float(rng.uniform(0.15, 0.24))
        r = float(rng.uniform(0.0, 0.3))
        p = QidParams(n=n, m=m, delta=delta, storage=qubit(r))
        _, got = impersonation_error(p)
        want = oracle_impersonation_error(n, m, delta, r, 1.0)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_qid_error_decreasing_in_distance():
    st = qubit(0.1)
    distances = (int(2e8), int(3e8), int(5e8), int(8e8))
    records = [_qid(
        QidParams(n=1e9, m=16, delta=0.2, storage=st, ell=1000, d_code=d))
        for d in distances]
    assert all(b.e1 > a.e1 for a, b in zip(records, records[1:]))
    assert all(b.e2 > a.e2 for a, b in zip(records, records[1:]))
    errs = [qid_error(
        QidParams(n=1e9, m=16, delta=0.2, storage=st, ell=1000, d_code=d))
        for d in distances]
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-6


def test_qid_error_saturates_at_one():
    p = QidParams(n=1e4, m=16, delta=0.05, storage=qubit(0.0), ell=10 ** 9,
                  d_code=4000)
    assert qid_error(p) == 1.0


def test_qid_error_m_doubling_shifts_second_exponent():
    st = qubit(0.1)
    e2_m8, e2_m16 = (
        _qid(QidParams(n=1e9, m=m, delta=0.2, storage=st, ell=1000,
                       d_code=int(1e8))).e2
        for m in (8, 16))
    assert e2_m8 - e2_m16 == pytest.approx(1.0, abs=1e-9)


def test_qid_error_requires_ell():
    p = QidParams(n=1e9, m=16, delta=0.2, storage=qubit(0.1), d_code=int(1e8))
    with pytest.raises(PreconditionError):
        qid_error(p)


def test_qid_error_gv_fallback_checks_distance():
    # without an explicit code distance the achievable-distance default is
    # used, and the distance precondition still applies
    with pytest.raises(PreconditionError):
        qid_error(QidParams(n=300.0, m=16, delta=0.05, storage=qubit(0.1),
                            ell=8))


def test_impersonation_positive_exponents_at_scale():
    p = QidParams(n=1e8, m=2, delta=0.2, storage=qubit(0.1))
    t = _impersonation(p)
    assert t.ell > 0
    assert t.e1 > 0 and t.e2 > 0
    _, eps = impersonation_error(p)
    assert 0.0 < eps < 1.0


def test_impersonation_saturates_when_passwords_exhaust_rounds():
    p = QidParams(n=12.0, m=2 ** 11, delta=0.05, storage=qubit(0.1))
    assert p.mu < 0.02
    ell_choice, eps = impersonation_error(p)
    assert ell_choice == 0
    assert eps == pytest.approx(2.0)


def test_impersonation_infeasible():
    p = QidParams(n=1e8, m=2, delta=0.2, storage=qubit(0.9))
    with pytest.raises(InfeasibleStorageError):
        impersonation_error(p)


def test_impersonation_dishonest_alice_dominated():
    # with the exact (real-valued) hash length choice, the unbounded-user
    # error m^2/2^ell never exceeds the first combined term
    rng = np.random.default_rng(73)
    for _ in range(20):
        m = int(rng.choice([2, 4, 16, 256]))
        n = float(rng.uniform(1e7, 1e9))
        r = float(rng.uniform(0.0, 0.4))
        delta = float(rng.uniform(0.05, 0.24))
        p = QidParams(n=n, m=m, delta=delta, storage=qubit(r))
        st = p.storage
        gamma = strong_converse_exponent((0.25 - delta) / st.nu, st)
        if gamma <= 0:
            continue
        d = p.mu * n - 1.0
        ell_exact = gamma * st.nu * d / 3.0
        alice = 2.0 * math.log2(m) - ell_exact          # log2 of m^2/2^ell
        assert alice <= -_impersonation(p).e1 + 1e-9


# --- tables ----------------------------------------------------------------------


def test_feasible_region_flags():
    rows = feasible_region(101, 4)
    by_key = {(round(row["r"], 6), round(row["nu"], 6)): row for row in rows}
    assert by_key[(0.0, 1.0)]["feasible"] is True
    assert by_key[(1.0, 1.0)]["feasible"] is False
    # boundary at nu = 1 sits between consecutive r gridpoints around 0.571
    nu1 = [row for row in rows if row["nu"] == 1.0]
    flips = [(a["r"], b["r"]) for a, b in zip(nu1, nu1[1:])
             if a["feasible"] and not b["feasible"]]
    assert len(flips) == 1
    assert flips[0][0] < CAP_QUARTER_R < flips[0][1]
    with pytest.raises(ValueError):
        feasible_region(1, 5)


@pytest.mark.parametrize("r_max, nu_max, dim, product", [
    (1.0, 1e308, 2, "inf"), (0.0, 1e308, 2, "nan"),
    (1.0, 1e307, 10 ** 21, "inf"), (1.0, 5e-324, 2, "5e-324")])
def test_feasible_region_rejects_cells_that_overflow(r_max, nu_max, dim,
                                                     product):
    # nu_max * steps, or the top product capacity * nu, has no float value;
    # or the smallest nu step, nu_max / steps, rounds to 0
    with pytest.raises(PreconditionError,
                       match=r"top nu step .* capacity \* nu is %s" % product):
        feasible_region(2, 2, r_max=r_max, nu_max=nu_max, dim=dim)


def test_feasible_region_steps_the_checked_float_nu_max():
    # np.uint8(2) * 200 wrapped to 144, so the nu axis topped out at 0.72
    assert (feasible_region(2, 200, nu_max=np.uint8(2))
            == feasible_region(2, 200, nu_max=2.0))


def test_rate_curve_shape_and_limits():
    grid = np.linspace(0.0, 0.9, 200)
    rows = rate_curve(1e10, 0.0106, 1.0, grid)
    assert len(rows) == 200
    assert rows[0]["ot_rate"] == pytest.approx(0.1197, abs=1e-3)
    feasible = [row for row in rows if row["feasible"]]
    rates = [row["ot_rate"] for row in feasible]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    for row in rows:
        if not row["feasible"]:
            assert row["ell"] == 0
    with pytest.raises(PreconditionError, match="delta must lie in"):
        rate_curve(1e10, 0.26, 1.0, grid)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([100.0, 1e6, 1e10, 1e15]),
       delta=st.floats(0.001, 0.24), nu=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       r_grid=st.lists(st.floats(0.0, 1.0), max_size=12),
       dim=st.sampled_from([2, 3]))
@example(n=1e10, delta=0.0106, nu=1.0, r_grid=list(np.linspace(0, 0.9, 200)),
         dim=2)
def test_rate_curve_rows_equal_per_point_transfer_bounds(n, delta, nu, r_grid,
                                                         dim):
    try:
        want = reference_rate_curve(n, delta, nu, r_grid, dim)
    except PreconditionError as exc:  # n below 4/delta
        with pytest.raises(PreconditionError, match=re.escape(str(exc))):
            rate_curve(n, delta, nu, r_grid, dim)
        return
    assert rate_curve(n, delta, nu, r_grid, dim) == want


def test_capacity_guard_binds_where_gamma_is_positive():
    """At C * nu = R exactly, R / nu rounds above C and gamma is 2.2e-16.

    So gamma does not vanish wherever C * nu >= R, and the capacity guard
    in the transfer bound, not gamma alone, makes this point infeasible.
    """
    nu, delta = 0.012302602785296943, 0.2305008359240367
    storage = StorageModel(r=1.0, nu=nu, dim=3)
    rate = 0.25 - delta
    assert depolarizing_capacity(storage) * nu >= rate
    assert strong_converse_exponent(rate / nu, storage) > 0.0
    (row,) = rate_curve(100, delta, nu, [1.0], dim=3)
    assert row["ell"] == 0
    assert row["feasible"] is False
    with pytest.raises(InfeasibleStorageError):
        ot_length(OtParams(n=100, delta=delta, storage=storage))


def test_csv_formatting():
    rows = [{"r": 0.1234567890123456, "feasible": True, "ell": 7}]
    text = rows_to_csv(rows, ("r", "feasible", "ell"))
    assert text == "r,feasible,ell\n0.123456789012,true,7\n"
    assert format_value(False) == "false"
    assert format_value(1e-9) == "1e-09"


def test_dishonest_alice_error_formula():
    assert dishonest_alice_error(2, 40) == pytest.approx(2.0 ** -38)
    assert dishonest_alice_error(16, 4) == 1.0  # saturated
