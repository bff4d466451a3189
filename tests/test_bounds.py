import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from noisystorage import bounds
from noisystorage.bounds import (
    BoundsError,
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

QUBIT = lambda r, nu=1.0: StorageModel(r=r, nu=nu)

# frozen from a 50-digit evaluation of the closed forms
EPS_0106_1E10 = 5.67541229689e-9
EPS_FIG15 = 5.00159325116e-9
SIGMA_QUARTER = 1.76110234484e-4
CAP_QUARTER_R = 0.57099651028
HINV_HALF = 0.110027864438


# --- independent straight-line re-implementations ---------------------------


def gamma_reference(R, r, dim=2):
    """Strong-converse exponent via scipy on the raw objective."""
    lam_p = r + (1.0 - r) / dim
    lam_m = (1.0 - r) / dim

    def neg(alpha):
        if lam_m > 0:
            log_s = np.logaddexp2(alpha * math.log2(lam_p),
                                  math.log2(dim - 1) + alpha * math.log2(lam_m))
            bracket = R - math.log2(dim) + log_s / (1.0 - alpha)
        else:
            bracket = R - math.log2(dim)
        return -(alpha - 1.0) / alpha * bracket

    best = 0.0
    for lo, hi in ((1 + 1e-9, 2.0), (2.0, 100.0), (100.0, 1e6)):
        res = minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        best = max(best, -res.fun)
    # alpha -> infinity limit
    best = max(best, R - math.log2(dim) - math.log2(lam_p))
    return max(0.0, best)


def ot_length_reference(n, delta, r, nu):
    decay = ((delta / 4.0) ** 2
             / (32.0 * (2.0 + math.log2(4.0 / delta)) ** 2)) * n
    eps = 2.0 * math.exp(-decay)
    log2_inv_eps = decay / math.log(2.0) - 1.0
    gamma = gamma_reference((0.25 - delta) / nu, r)
    return gamma * nu * n / 2.0 - log2_inv_eps, eps


def robust_length_reference(params):
    m1 = (params.p1_sent - params.ph_noclick + params.pd_noclick) * params.n
    m = (1.0 - params.ph_noclick) * params.n
    eps = 2.0 * math.exp(
        -((params.delta / 4.0) ** 2
          / (32.0 * (2.0 + math.log2(4.0 / params.delta)) ** 2)) * m1)
    rate = (0.25 - params.delta) * m1 / params.n
    gamma = gamma_reference(rate / params.storage.nu, params.storage.r)
    h = binary_entropy(params.ph_err)
    return (gamma * params.storage.nu * params.n / 2.0
            - 1.2 * h * m / 2.0 - math.log2(1.0 / eps))


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
    t = _ot(OtParams(n=1e10, delta=0.0106, storage=QUBIT(0.1)))
    assert t.eps == ot_epsilon(0.0106, 1e10)
    assert t.value == pytest.approx(
        t.gamma * 1e10 / 2.0 - math.log2(1.0 / ot_epsilon(0.0106, 1e10)),
        rel=1e-12)
    # log2(1/eps) is taken in log space, so the bound outlives eps itself
    big = _ot(OtParams(n=1e15, delta=0.0106, storage=QUBIT(0.1)))
    assert math.isfinite(big.value) and big.ell > 0
    assert big.eps == 0.0  # underflows as a float


@pytest.mark.parametrize("evaluate", [
    lambda: _ot(OtParams(n=1e10, delta=0.0106, storage=QUBIT(0.1))),
    lambda: _robust(RobustParams(n=1e10, delta=0.005, storage=QUBIT(0.1),
                                 p1_sent=1.0, ph_noclick=0.6,
                                 pd_noclick=0.05, ph_err=0.01)),
], ids=["ot", "robust"])
def test_transfer_bound_evaluates_the_eps_exponent_once(evaluate):
    with mock.patch.object(bounds, "_ot_eps_exponent",
                           wraps=bounds._ot_eps_exponent) as exponent:
        evaluate()
    assert exponent.call_count == 1


# --- capacity and exponent ----------------------------------------------------


def test_capacity_endpoints_exact():
    assert depolarizing_capacity(QUBIT(1.0)) == 1.0
    assert depolarizing_capacity(QUBIT(0.0)) == 0.0


def test_capacity_quarter_boundary():
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if depolarizing_capacity(QUBIT(mid)) < 0.25:
            lo = mid
        else:
            hi = mid
    assert lo == pytest.approx(CAP_QUARTER_R, abs=1e-6)
    assert abs(lo - 0.571) < 0.005


def test_capacity_monotone_in_r():
    caps = [depolarizing_capacity(QUBIT(r)) for r in np.linspace(0, 1, 101)]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_capacity_higher_dimensions():
    # d-dimensional endpoints: log2(d) when noiseless, 0 when useless
    for d in (3, 4, 8):
        assert depolarizing_capacity(StorageModel(r=1.0, dim=d)) == pytest.approx(
            math.log2(d))
        assert depolarizing_capacity(StorageModel(r=0.0, dim=d)) == pytest.approx(
            0.0, abs=1e-12)


def test_gamma_zero_below_capacity_positive_above():
    for r in np.arange(0.0, 0.95, 0.1):
        st = QUBIT(float(r))
        cap = depolarizing_capacity(st)
        assert strong_converse_exponent(cap, st) == 0.0
        assert strong_converse_exponent(cap * 0.5, st) == 0.0
        assert strong_converse_exponent(cap + 1e-6, st) > 0.0


def test_gamma_useless_channel_is_rate():
    st = QUBIT(0.0)
    assert strong_converse_exponent(0.25, st) == pytest.approx(0.25, abs=1e-6)
    assert strong_converse_exponent(0.7, st) == pytest.approx(0.7, abs=1e-6)


def test_gamma_perfect_channel():
    st = QUBIT(1.0)
    assert strong_converse_exponent(0.5, st) == 0.0
    assert strong_converse_exponent(1.5, st) == pytest.approx(0.5)


def test_gamma_vanishes_towards_capacity():
    st = QUBIT(0.3)
    cap = depolarizing_capacity(st)
    vals = [strong_converse_exponent(cap + gap, st)
            for gap in (0.2, 0.1, 0.01, 1e-4, 1e-6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-9


def test_gamma_nondecreasing_in_rate():
    for r in (0.2, 0.6):
        st = QUBIT(r)
        grid = np.linspace(0.0, 1.2, 60)
        vals = [strong_converse_exponent(float(R), st) for R in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gamma_matches_reference_optimizer():
    rng = np.random.default_rng(67)
    for _ in range(40):
        r = float(rng.uniform(0.0, 0.99))
        R = float(rng.uniform(0.0, 1.2))
        got = strong_converse_exponent(R, QUBIT(r))
        want = gamma_reference(R, r)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_gamma_rejects_negative_rate():
    with pytest.raises(ValueError):
        strong_converse_exponent(-0.1, QUBIT(0.5))


def test_gamma_rejects_nan_rate():
    # every comparison with nan is false, so no scan point would beat 0
    with pytest.raises(PreconditionError, match="rate R must be nonnegative"):
        strong_converse_exponent(math.nan, QUBIT(0.5))


def test_gamma_that_overflows_is_a_precondition():
    # the scan's s * (R - log2 d) overflows from R of about 1.8e302 on
    assert strong_converse_exponent(1.7e302, QUBIT(0.1)) == 1.7e302
    for R, st in ((1.9e302, QUBIT(0.1)), (math.inf, QUBIT(0.1)),
                  (math.inf, QUBIT(1.0))):
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
        OtParams(n=1e6, delta=0.3, storage=QUBIT(0.1))
    with pytest.raises(PreconditionError):
        OtParams(n=10, delta=0.01, storage=QUBIT(0.1))  # n < 4/delta


def test_robust_params_validation():
    good = dict(n=1e8, delta=0.01, storage=QUBIT(0.1), p1_sent=0.9,
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
        QidParams(n=10, m=2048, delta=0.05, storage=QUBIT(0.1))  # log2 m >= n
    with pytest.raises(PreconditionError):
        QidParams(n=1e4, m=16, delta=0.05, storage=QUBIT(0.1), d_code=10)
    p = QidParams(n=1e6, m=16, delta=0.05, storage=QUBIT(0.1))
    assert 0.0 < p.mu <= 0.5
    assert binary_entropy(p.mu) == pytest.approx(1.0 - math.log2(16) / 1e6,
                                                 abs=1e-9)


def test_params_reject_values_without_a_finite_float():
    with pytest.raises(PreconditionError, match="dim has no finite float"):
        StorageModel(r=0.5, dim=10 ** 400)
    assert StorageModel(r=0.5, dim=10 ** 300).dim == 10 ** 300
    # 4/delta overflows to inf, which has no integer ceiling
    with pytest.raises(PreconditionError, match="n >= 4/delta"):
        OtParams(n=1e300, delta=1e-320, storage=QUBIT(0.1))
    with pytest.raises(PreconditionError, match="n >= 4/delta"):
        rate_curve(1e300, 1e-320, 1.0, [0.1])


def test_qid_params_reject_distance_above_code_length():
    kwargs = dict(n=1e4, m=16, delta=0.05, storage=QUBIT(0.1), ell=8)
    assert QidParams(**kwargs, d_code=10_000).d_code == 10_000
    with pytest.raises(PreconditionError,
                       match="d_code = 10001 exceeds the code length"):
        QidParams(**kwargs, d_code=10_001)


def test_qid_params_reject_nan_distance():
    # nan passes both distance comparisons; qid_error would return 1.0
    with pytest.raises(PreconditionError, match="d_code must be finite"):
        QidParams(n=1e4, m=16, delta=0.05, storage=QUBIT(0.1), ell=8,
                  d_code=math.nan)


HUGE = 10 ** 400  # 401 digits: no float value


@pytest.mark.parametrize("make, field", [
    (lambda: OtParams(n=HUGE, delta=0.0106, storage=QUBIT(0.1)), "n"),
    (lambda: OtParams(n=-HUGE, delta=0.0106, storage=QUBIT(0.1)), "n"),
    (lambda: RobustParams(n=HUGE, delta=0.005, storage=QUBIT(0.1),
                          p1_sent=1.0, ph_noclick=0.6, pd_noclick=0.05,
                          ph_err=0.01), "n"),
    (lambda: QidParams(n=HUGE, m=16, delta=0.2, storage=QUBIT(0.1)), "n"),
    (lambda: StorageModel(r=0.1, nu=HUGE), "nu"),
    (lambda: QidParams(n=1e9, m=16, delta=0.2, storage=QUBIT(0.1),
                       ell=HUGE), "ell"),
])
def test_records_reject_integers_without_a_float_value(make, field):
    with pytest.raises(PreconditionError,
                       match="^%s has no finite float value$" % field):
        make()


QID_GOOD = dict(n=1e9, m=16, delta=0.2, storage=QUBIT(0.1), ell=1000,
                d_code=int(3e8))


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


ROBUST_GOOD = dict(n=1e10, delta=0.005, storage=QUBIT(0.1), p1_sent=1.0,
                   ph_noclick=0.6, pd_noclick=0.05, ph_err=0.01)


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
def test_robust_params_reject_a_non_integer_length(value):
    with pytest.raises(PreconditionError,
                       match="^ell must be an integer, got "):
        RobustParams(**ROBUST_GOOD, ell=value)


@pytest.mark.parametrize("n", [0, -1, -1e10])
def test_robust_params_name_a_nonpositive_round_count(n):
    # m1 = (...) n <= 0 used to blame the three probabilities
    with pytest.raises(PreconditionError,
                       match="^round count n must be positive"):
        RobustParams(**{**ROBUST_GOOD, "n": n})


def test_bool_counts_and_lengths_are_integers():
    # a bool is a numbers.Integral, as for dim and qid_code
    assert (qid_error(QidParams(**{**QID_GOOD, "ell": True}))
            == qid_error(QidParams(**{**QID_GOOD, "ell": 1})))
    assert RobustParams(**ROBUST_GOOD, ell=True).ell is True
    with pytest.raises(PreconditionError, match="two passwords"):
        QidParams(**{**QID_GOOD, "m": True})


# Item 12's hostile pool: every record field draws from it.
HOSTILE = [math.nan, math.inf, -math.inf, 2.5, -1, 0, True, False,
           np.int64(1), np.int64(1000), np.uint8(2), HUGE, -HUGE]
# A diagnostic names a field by its symbol, or by the English name that
# the pinned messages use ("need at least two passwords").
FIELD_NAMES = {"r": ("r",), "nu": ("nu",),
               "dim": ("dim", "channel dimension"), "n": ("n",),
               "delta": ("delta",), "p1_sent": ("p1_sent",),
               "ph_noclick": ("ph_noclick",), "pd_noclick": ("pd_noclick",),
               "ph_err": ("ph_err", "honest error rate"), "ell": ("ell",),
               "m": ("m", "passwords"), "d_code": ("d_code", "code distance")}


def assert_checked_or_finite(make, evaluate, field):
    """``make()`` raises PreconditionError naming ``field``, or every number
    ``evaluate`` returns for the record is finite, or it raises BoundsError."""
    try:
        record = make()
    except PreconditionError as exc:
        assert any(re.search(r"(?<!\w)%s(?!\w)" % re.escape(name), str(exc))
                   for name in FIELD_NAMES[field]), (field, str(exc))
        return
    try:
        values = evaluate(record)
    except BoundsError:
        return
    for value in values:
        assert math.isfinite(value), (field, values)


def _transfer_numbers(t):
    return t.capacity, t.gamma, t.value, t.ell, t.eps


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(["r", "nu", "dim"]),
       value=st.sampled_from(HOSTILE))
def test_storage_model_fields_are_checked(field, value):
    base = dict(r=0.1, nu=1.0, dim=2)
    assert_checked_or_finite(
        lambda: StorageModel(**{**base, field: value}),
        lambda s: _transfer_numbers(_ot(OtParams(n=1e10, delta=0.0106,
                                                 storage=s))),
        field)


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(["n", "delta"]), value=st.sampled_from(HOSTILE))
def test_ot_params_fields_are_checked(field, value):
    base = dict(n=1e10, delta=0.0106, storage=QUBIT(0.1))
    assert_checked_or_finite(lambda: OtParams(**{**base, field: value}),
                             lambda p: _transfer_numbers(_ot(p)), field)


@settings(max_examples=250, deadline=None)
@given(field=st.sampled_from(["n", "delta", "p1_sent", "ph_noclick",
                              "pd_noclick", "ph_err", "ell"]),
       value=st.sampled_from(HOSTILE),
       ec_variant=st.sampled_from(["rounds", "error-complement"]))
def test_robust_params_fields_are_checked(field, value, ec_variant):
    assert_checked_or_finite(
        lambda: RobustParams(**{**ROBUST_GOOD, field: value}),
        lambda p: (p.m1, p.m_total) + _transfer_numbers(_robust(p,
                                                                ec_variant)),
        field)


@settings(max_examples=250, deadline=None)
@given(field=st.sampled_from(["n", "m", "delta", "ell", "d_code"]),
       value=st.sampled_from(HOSTILE))
def test_qid_params_fields_are_checked(field, value):
    assert_checked_or_finite(
        lambda: QidParams(**{**QID_GOOD, field: value}),
        lambda p: (p.mu, *_qid(p), *_impersonation(p)), field)


def test_qid_record_matches_its_error_and_capacity():
    p = QidParams(n=1e9, m=16, delta=0.2, storage=QUBIT(0.1), ell=1000,
                  d_code=int(3e8))
    t = _qid(p)
    assert t.capacity == depolarizing_capacity(p.storage)
    assert t.error == qid_error(p) == min(1.0, 2.0 ** -t.e1 + 2.0 ** -t.e2)


# --- OT lengths -----------------------------------------------------------------


def test_ot_length_infeasible_perfect_storage():
    p = OtParams(n=1e10, delta=0.0106, storage=QUBIT(1.0))
    with pytest.raises(InfeasibleStorageError):
        ot_length(p)


def test_ot_length_useless_channel_rate():
    p = OtParams(n=1e10, delta=0.0106, storage=QUBIT(0.0))
    ell, eps = ot_length(p)
    assert eps == pytest.approx(EPS_0106_1E10, rel=1e-9)
    assert ell / 1e10 == pytest.approx((0.25 - 0.0106) / 2.0, abs=1e-6)


def test_ot_length_no_positive_length():
    # storage barely feasible: the exponent cannot pay the log(1/eps) cost
    p = OtParams(n=1e6, delta=0.2, storage=QUBIT(0.26))
    assert depolarizing_capacity(p.storage) < 0.25 - p.delta
    with pytest.raises(NoPositiveLengthError):
        ot_length(p)


def test_ot_length_monotone():
    lengths_r = []
    for r in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        ell, _ = ot_length(OtParams(n=1e10, delta=0.0106, storage=QUBIT(r)))
        lengths_r.append(ell)
    assert all(b < a for a, b in zip(lengths_r, lengths_r[1:]))
    lengths_n = [ot_length(OtParams(n=n, delta=0.0106, storage=QUBIT(0.2)))[0]
                 for n in (1e8, 1e9, 1e10)]
    assert all(b > a for a, b in zip(lengths_n, lengths_n[1:]))


def test_ot_length_cross_check():
    rng = np.random.default_rng(71)
    for _ in range(15):
        r = float(rng.uniform(0.0, 0.5))
        delta = float(rng.uniform(0.005, 0.05))
        n = float(rng.uniform(1e8, 1e11))
        st = QUBIT(r)
        if depolarizing_capacity(st) >= 0.25 - delta:
            continue
        value, eps = ot_length_reference(n, delta, r, 1.0)
        if value <= 1:
            continue
        ell, got_eps = ot_length(OtParams(n=n, delta=delta, storage=st))
        assert got_eps == pytest.approx(eps, rel=1e-9)
        # ell is the floor of a value the two implementations agree on to
        # 1e-9 relative, so it can differ from floor(reference) by at most 1
        assert ell <= value + 1e-6
        assert value - ell < 1.0 + 1e-9 * abs(value)


def test_robust_ot_cross_check_and_examples():
    p = RobustParams(n=1e10, delta=0.005, storage=QUBIT(0.1), p1_sent=1.0,
                     ph_noclick=0.6, pd_noclick=0.05, ph_err=0.01)
    assert p.m1 == pytest.approx(0.45e10)
    assert p.m_total == pytest.approx(0.4e10)
    ell, eps = robust_ot_length(p)
    assert ell > 0
    assert ell == math.floor(robust_length_reference(p))
    assert eps == pytest.approx(ot_epsilon(0.005, p.m1), rel=1e-12)


def test_robust_weak_coherent_single_photon_fraction():
    # Poisson source with mean 1: single-photon probability e^(-1)
    p1 = math.exp(-1.0)
    assert p1 == pytest.approx(0.3679, abs=1e-4)
    p = RobustParams(n=1e10, delta=0.005, storage=QUBIT(0.05), p1_sent=p1,
                     ph_noclick=0.1, pd_noclick=0.1, ph_err=0.0)
    assert p.m1 == pytest.approx(p1 * 1e10)


def test_robust_zero_error_reduces_to_plain_shape():
    # with no bit errors the deduction vanishes and the bound matches the
    # plain calculator evaluated on m1 rounds
    st = QUBIT(0.1)
    p = RobustParams(n=1e10, delta=0.0106, storage=st, p1_sent=1.0,
                     ph_noclick=0.0, pd_noclick=0.0, ph_err=0.0)
    assert p.m1 == pytest.approx(1e10)
    ell_robust, eps_robust = robust_ot_length(p)
    ell_plain, eps_plain = ot_length(OtParams(n=1e10, delta=0.0106, storage=st))
    assert ell_robust == ell_plain
    assert eps_robust == pytest.approx(eps_plain, rel=1e-12)


def test_robust_ec_variants_differ():
    p = RobustParams(n=1e10, delta=0.005, storage=QUBIT(0.1), p1_sent=1.0,
                     ph_noclick=0.6, pd_noclick=0.05, ph_err=0.01)
    ell_rounds, _ = robust_ot_length(p, ec_variant="rounds")
    # the alternative charges the correction against (1 - ph_err) n bits,
    # which is more rounds here, hence a shorter (possibly negative) length
    with pytest.raises(NoPositiveLengthError):
        robust_ot_length(p, ec_variant="error-complement")
    with pytest.raises(ValueError):
        robust_ot_length(p, ec_variant="bogus")
    assert ell_rounds > 0


def test_robust_checks_ec_variant_before_feasibility():
    p = RobustParams(n=1e10, delta=0.01, storage=QUBIT(0.9), p1_sent=0.9,
                     ph_noclick=0.5, pd_noclick=0.05, ph_err=0.01)
    with pytest.raises(InfeasibleStorageError):
        robust_ot_length(p)
    with pytest.raises(ValueError, match="unknown ec_variant 'bogus'"):
        robust_ot_length(p, ec_variant="bogus")


def test_robust_infeasible():
    p = RobustParams(n=1e10, delta=0.01, storage=QUBIT(0.9), p1_sent=0.9,
                     ph_noclick=0.5, pd_noclick=0.05, ph_err=0.01)
    with pytest.raises(InfeasibleStorageError):
        robust_ot_length(p)


# --- identification -------------------------------------------------------------


def pow2_capped(e):
    if e >= 0.0:
        return 1.0
    return 0.0 if e < -1074 else 2.0 ** e


def qid_error_reference(n, m, delta, ell, d_code, r, nu):
    """Straight-line re-implementation of the identification error."""
    gamma = gamma_reference((0.25 - delta) * d_code / (nu * n), r)
    sig = (delta / 4.0) ** 2 * math.log2(math.e) / (
        32.0 * (2.0 - math.log2(delta / 4.0)) ** 2)
    t1 = pow2_capped(-0.5 * (gamma * nu * n - ell))
    t2 = pow2_capped(-(sig * d_code - math.log2(m) - 3.0))
    return min(1.0, t1 + t2)


def impersonation_reference(n, m, delta, r, nu):
    gamma = gamma_reference((0.25 - delta) / nu, r)
    lo, hi = 0.0, 0.5
    y = 1.0 - math.log2(m) / n
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    sig = (delta / 4.0) ** 2 * math.log2(math.e) / (
        32.0 * (2.0 - math.log2(delta / 4.0)) ** 2)
    t1 = pow2_capped(-(gamma * nu * mu * n - 6.0 * math.log2(m) - 1.0) / 3.0)
    t2 = pow2_capped(-(sig * mu * n - math.log2(m) - 4.0))
    return t1 + t2


def test_qid_error_cross_check():
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = float(rng.uniform(5e8, 2e9))
        m = int(rng.choice([4, 16, 64]))
        delta = float(rng.uniform(0.15, 0.24))
        d_code = int(rng.uniform(0.2, 0.8) * n)
        ell = int(rng.uniform(100, 5000))
        r = float(rng.uniform(0.0, 0.3))
        p = QidParams(n=n, m=m, delta=delta, storage=QUBIT(r), ell=ell,
                      d_code=d_code)
        want = qid_error_reference(n, m, delta, ell, d_code, r, 1.0)
        got = qid_error(p)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_impersonation_cross_check():
    rng = np.random.default_rng(89)
    for _ in range(10):
        n = float(rng.uniform(5e7, 5e8))
        m = int(rng.choice([2, 8, 32]))
        delta = float(rng.uniform(0.15, 0.24))
        r = float(rng.uniform(0.0, 0.3))
        p = QidParams(n=n, m=m, delta=delta, storage=QUBIT(r))
        _, got = impersonation_error(p)
        want = impersonation_reference(n, m, delta, r, 1.0)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_qid_error_decreasing_in_distance():
    st = QUBIT(0.1)
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
    p = QidParams(n=1e4, m=16, delta=0.05, storage=QUBIT(0.0), ell=10 ** 9,
                  d_code=4000)
    assert qid_error(p) == 1.0


def test_qid_error_m_doubling_shifts_second_exponent():
    st = QUBIT(0.1)
    e2_m8, e2_m16 = (
        _qid(QidParams(n=1e9, m=m, delta=0.2, storage=st, ell=1000,
                       d_code=int(1e8))).e2
        for m in (8, 16))
    assert e2_m8 - e2_m16 == pytest.approx(1.0, abs=1e-9)


def test_qid_error_requires_ell():
    p = QidParams(n=1e9, m=16, delta=0.2, storage=QUBIT(0.1), d_code=int(1e8))
    with pytest.raises(PreconditionError):
        qid_error(p)


def test_qid_error_gv_fallback_checks_distance():
    # without an explicit code distance the achievable-distance default is
    # used, and the distance precondition still applies
    with pytest.raises(PreconditionError):
        qid_error(QidParams(n=300.0, m=16, delta=0.05, storage=QUBIT(0.1),
                            ell=8))


def test_impersonation_positive_exponents_at_scale():
    p = QidParams(n=1e8, m=2, delta=0.2, storage=QUBIT(0.1))
    t = _impersonation(p)
    assert t.ell > 0
    assert t.e1 > 0 and t.e2 > 0
    _, eps = impersonation_error(p)
    assert 0.0 < eps < 1.0


def test_impersonation_saturates_when_passwords_exhaust_rounds():
    p = QidParams(n=12.0, m=2 ** 11, delta=0.05, storage=QUBIT(0.1))
    assert p.mu < 0.02
    ell_choice, eps = impersonation_error(p)
    assert ell_choice == 0
    assert eps == pytest.approx(2.0)


def test_impersonation_infeasible():
    p = QidParams(n=1e8, m=2, delta=0.2, storage=QUBIT(0.9))
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
        p = QidParams(n=n, m=m, delta=delta, storage=QUBIT(r))
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


def test_dishonest_alice_error_rejects_nan_password_count():
    with pytest.raises(PreconditionError, match="m must be at least 1"):
        dishonest_alice_error(math.nan, 5)


@pytest.mark.parametrize("ell", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "huge"])
def test_dishonest_alice_error_rejects_a_non_finite_length(ell):
    with pytest.raises(PreconditionError, match="^ell "):
        dishonest_alice_error(16, ell)


def test_dishonest_alice_error_rejects_a_negative_length():
    with pytest.raises(ValueError, match="^ell must be nonnegative$"):
        dishonest_alice_error(16, -1)
