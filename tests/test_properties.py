"""Property tests for the transfer-bound core and the parameter records."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisystorage.bounds import (
    GAMMA_NOISE_FLOOR,
    InfeasibleStorageError,
    NoPositiveLengthError,
    OtParams,
    PreconditionError,
    QidParams,
    RobustParams,
    StorageModel,
    depolarizing_capacity,
    ot_length,
    rate_curve,
    strong_converse_exponent,
)

PROPERTY = settings(max_examples=40, deadline=None)

deltas = st.floats(1e-4, 0.249)
retentions = st.floats(0.0, 1.0)
nus = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.05, 3.0))
log_ns = st.floats(3.0, 15.0)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


def _rounds(delta, log_n):
    """A round count of about 10**log_n that meets n >= 4/delta."""
    return max(float(math.ceil(4.0 / delta)), 10.0 ** log_n)


@PROPERTY
@given(deltas, nus, log_ns, st.lists(retentions, min_size=1, max_size=6))
def test_rate_curve_rows_agree_with_ot_length(delta, nu, log_n, r_grid):
    n = _rounds(delta, log_n)
    for row in rate_curve(n, delta, nu, r_grid):
        params = OtParams(n=n, delta=delta,
                          storage=StorageModel(r=row["r"], nu=nu))
        if row["feasible"]:
            assert ot_length(params) == (row["ell"], row["eps"])
        else:
            assert row["ell"] == 0
            with pytest.raises((InfeasibleStorageError,
                                NoPositiveLengthError)):
                ot_length(params)


@PROPERTY
@given(deltas, st.floats(0.0, 0.6), nus,
       st.lists(log_ns, min_size=2, max_size=5))
def test_ot_length_nondecreasing_in_n_where_positive(delta, r, nu, log_ns):
    storage = StorageModel(r=r, nu=nu)
    lengths = []
    for n in sorted(_rounds(delta, x) for x in log_ns):
        try:
            lengths.append(ot_length(OtParams(n=n, delta=delta,
                                              storage=storage))[0])
        except (InfeasibleStorageError, NoPositiveLengthError):
            lengths.append(0)
    for shorter, longer in zip(lengths, lengths[1:]):
        if shorter > 0:
            assert longer >= shorter


@PROPERTY
@given(non_finite, retentions, deltas)
def test_params_records_reject_non_finite_values(bad, r, delta):
    storage = StorageModel(r=r)
    with pytest.raises(PreconditionError, match="^nu must be finite"):
        StorageModel(r=r, nu=bad)
    with pytest.raises(PreconditionError, match="^n must be finite"):
        OtParams(n=bad, delta=delta, storage=storage)
    with pytest.raises(PreconditionError, match="^n must be finite"):
        RobustParams(n=bad, delta=delta, storage=storage, p1_sent=1.0,
                     ph_noclick=0.1, pd_noclick=0.0, ph_err=0.01)
    with pytest.raises(PreconditionError, match="^n must be finite"):
        QidParams(n=bad, m=16, delta=delta, storage=storage)


# Exact monotonicity fails at the ulp level: a sweep of near-equal pairs
# broke it by at most 4.4e-16.  The tolerance sits well above that and
# well below GAMMA_NOISE_FLOOR (1e-13), so a clipping fault still shows.
MONOTONE_TOL = 1e-14

rates = st.floats(0.0, 3.0)
# near-equal pairs, where float noise lives, and separated ones
gaps = st.one_of(st.floats(0.0, 1e-9), st.floats(0.0, 1.0))
dims = st.sampled_from([2, 3, 4])


@PROPERTY
@given(rates, gaps, retentions, dims)
def test_gamma_nondecreasing_in_rate(R, gap, r, dim):
    storage = StorageModel(r=r, dim=dim)
    assert (strong_converse_exponent(R + gap, storage)
            >= strong_converse_exponent(R, storage) - MONOTONE_TOL)


# gamma(R) is a Legendre transform of an objective concave in
# t = 1 - 1/alpha, so its slope in R is t* in [0, 1], gamma <= R, and
# gamma = 0 exactly when R <= C.  Two deviations are known and kept, since
# removing either changes pinned outputs:
# - gamma exceeds R by float noise: at r = 0, d = 2 and R = 0.2394 it reads
#   0.23940000000000006.  Over 100,000 draws at dims 2 to 4 the excess
#   peaked at 3.4 ulp of max(1, R).
GAMMA_EXCESS_ULPS = 8
# - GAMMA_NOISE_FLOOR clips exponents below 1e-13 to 0, so gamma reads 0
#   a little above capacity (up to R - C = 3e-7 at r = 0.8), and then
#   steps up from 0 to the floor.  gamma grows as (R - C)^2 there, so from
#   this gap on it is far above the floor.
CLIP_GAP = 1e-5


def _excess_tol(R):
    return GAMMA_EXCESS_ULPS * 2.0 ** -52 * max(1.0, R)


@PROPERTY
@given(rates, gaps, retentions, dims)
@example(R=0.5310047604879667, gap=1.2e-16, r=0.8, dim=2)  # the floor step
def test_gamma_grows_no_faster_than_rate(R, gap, r, dim):
    storage = StorageModel(r=r, dim=dim)
    low = strong_converse_exponent(R, storage)
    clip = GAMMA_NOISE_FLOOR if low == 0.0 else 0.0
    assert (strong_converse_exponent(R + gap, storage) - low
            <= gap + _excess_tol(R + gap) + clip)


@PROPERTY
@given(st.one_of(rates, st.floats(0.0, 1e-9)), retentions, dims)
@example(R=0.2394, r=0.0, dim=2)
def test_gamma_is_at_most_the_rate(R, r, dim):
    assert (strong_converse_exponent(R, StorageModel(r=r, dim=dim))
            <= R + _excess_tol(R))


@PROPERTY
@given(st.floats(0.0, 1.0), retentions, dims)
def test_gamma_vanishes_exactly_up_to_capacity(share, r, dim):
    storage = StorageModel(r=r, dim=dim)
    cap = depolarizing_capacity(storage)
    assert strong_converse_exponent(share * cap, storage) == 0.0
    assert strong_converse_exponent(cap, storage) == 0.0
    assert strong_converse_exponent(cap + CLIP_GAP, storage) > 0.0


# gamma is convex in R up to float noise and the floor.  Three values enter
# the chord test, so the midpoint's error and the mean of the ends' errors
# add: twice GAMMA_EXCESS_ULPS.  Over 60,000 draws at dims 2 to 1000 the
# excess peaked at 6.5 ulp of max(1, R3) where gamma(R1) > 0, and at 9.1 ulp
# for rates near 1e-12 at r = 0, d = 1000.  GAMMA_NOISE_FLOOR can zero a
# true gamma(R1) below 1e-13, which lowers the chord's midpoint by up to
# half the floor; with one GAMMA_EXCESS_ULPS on top of that, 2 of 60,000
# draws at r = 0 (dims 13 to 10^18) with R1 just under 1e-13 failed, by up
# to 3e-17 (d = 1000).
CONVEX_TOL_ULPS = 2 * GAMMA_EXCESS_ULPS


@st.composite
def convex_cases(draw):
    """A storage and two rates, each near its capacity or anywhere in
    [0, 2 log2 d + 1]."""
    storage = StorageModel(r=draw(retentions),
                           dim=draw(st.sampled_from([2, 3, 4, 13, 1000])))
    cap = depolarizing_capacity(storage)
    rate = st.one_of(
        st.floats(-1e-3, 1e-3).map(lambda x: max(0.0, cap + x)),
        st.floats(0.0, 2.0 * math.log2(storage.dim) + 1.0))
    R1, R3 = sorted((draw(rate), draw(rate)))
    return storage, R1, R3


@PROPERTY
@given(convex_cases())
# gamma(R) = R at r = 0; near R = 0 the chord's excess is 11 ulp of 1
@example((StorageModel(r=0.0, dim=1000), 0.0, 5.952134881720553e-10))
# R1 just under the floor, whose gamma the floor zeroes
@example((StorageModel(r=0.0, dim=1000), 9.817621751568068e-14,
          7.890920675255701e-13))
def test_gamma_is_convex_in_rate(case):
    storage, R1, R3 = case
    tol = (CONVEX_TOL_ULPS * 2.0 ** -52 * max(1.0, R3)
           + GAMMA_NOISE_FLOOR / 2.0)
    assert (strong_converse_exponent((R1 + R3) / 2.0, storage)
            <= (strong_converse_exponent(R1, storage)
                + strong_converse_exponent(R3, storage)) / 2.0 + tol)


@PROPERTY
@given(rates, retentions, gaps, dims)
def test_gamma_nonincreasing_in_retention(R, r, gap, dim):
    noisier = StorageModel(r=r, dim=dim)
    better = StorageModel(r=min(1.0, r + gap), dim=dim)
    assert (strong_converse_exponent(R, better)
            <= strong_converse_exponent(R, noisier) + MONOTONE_TOL)


@PROPERTY
@given(retentions, gaps, dims)
def test_capacity_nondecreasing_in_retention(r, gap, dim):
    noisier = StorageModel(r=r, dim=dim)
    better = StorageModel(r=min(1.0, r + gap), dim=dim)
    assert (depolarizing_capacity(better)
            >= depolarizing_capacity(noisier) - MONOTONE_TOL)
