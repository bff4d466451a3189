"""Property tests for the transfer-bound core and the parameter records."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisystorage.bounds import (
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
