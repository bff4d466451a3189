"""The public library's input contract: one table, swept with bad values.

Each row of ``ROWS`` names a public callable, one of its scalar
parameters, the parameter's kind and a valid call.  The sweep puts each of
``VALUES`` in that parameter's place, under a 2 s alarm, and the call must
end in one of two ways:

- a result, for a value that the kind and the row's range admit.  The
  result goes through ``json.dumps`` (a transcript through ``to_json()``),
  a numpy scalar gives the same bytes as its Python value ``v.item()``, a
  bool the same bytes as ``int(v)``, and for the kinds that are no integer
  kinds an integer the same bytes as ``float(v)``;
- a ``ValueError`` (``PreconditionError`` is one) or ``BoundsError`` whose
  message names the parameter, with any generator passed in left
  untouched.  For a real parameter (a kind that is no integer kind) the
  non-numbers ``"3"``, ``"0.5"`` and ``None`` must end in a ``TypeError``
  "<name> must be a number, got <value>" and +-10**400 in "<name> has no
  finite float value", and a record returns the field as it keeps it, so
  the same-bytes rule asks for a Python float.  For an integer kind a
  ``TypeError`` is allowed for the non-numbers only.  Where a row gives the name its integer check
  reports (``checked``), a value the kind refuses must end in "<checked>
  must be an integer, got <value>" ("an integer 0 or 1" for a bit), a
  ``TypeError`` included.  Where it gives the name its finiteness check
  reports (``finite``), nan and +-inf must end in "<finite> must be
  finite, got <value>".

A row lists the calls that end otherwise, each with its reason.  The
records' ``storage`` field is no scalar, and its tests follow the sweep.
"""

import dataclasses
import json
import math
import numbers
import re
import signal
from typing import NamedTuple

import numpy as np
import pytest

import noisystorage
from noisystorage import (
    JointDistribution,
    OtParams,
    QidParams,
    RobustParams,
    StorageModel,
    StoreAllBob,
    ToeplitzHash,
    bb84_prepare,
    binary_entropy,
    collision_bound,
    depolarize,
    estimate_leakage,
    feasible_region,
    helstrom,
    impersonation_error,
    inv_binary_entropy,
    measure,
    min_entropy,
    ot_epsilon,
    ot_length,
    pa_distance,
    psucc_classical,
    qid_code,
    qid_error,
    rate_curve,
    robust_ot_length,
    run_qid,
    run_robust_rot,
    run_rot,
    sigma,
    smooth_sub_distribution,
    split_binary,
    split_multi,
    strong_converse_exponent,
)
from noisystorage.bounds import (BoundsError, PreconditionError,
                                 _impersonation, _ot, _qid, _robust,
                                 dishonest_alice_error)
from noisystorage.codes import identity_code, random_code, repetition_code
from noisystorage.hashing import random_hash
from noisystorage.protocols import (
    LEAKAGE_MAX_TRIALS,
    honest_index_sets,
    make_rng,
)
from noisystorage.qsim import born_probability

from reference import QID_GOOD, ROBUST_GOOD, generator_state, qubit

# the adversarial values, by the id each sweep case prints
VALUES = {
    "2.5": 2.5, "2.0": 2.0, "-1": -1, "0": 0, "True": True,
    "int64(3)": np.int64(3), "float64(2.0)": np.float64(2.0),
    "nan": math.nan, "inf": math.inf, "'3'": "3", "None": None,
    "10**30": 10 ** 30, "-0.0": -0.0, "1e300": 1e300, "-inf": -math.inf,
    "10**400": 10 ** 400, "-10**400": -10 ** 400, "uint8(2)": np.uint8(2),
    "False": False, "'0.5'": "0.5",
}
NON_NUMBERS = ("'3'", "None", "'0.5'")
NON_FINITE = ("nan", "inf", "-inf")
NO_FLOAT = ("10**400", "-10**400")


def _real(v):
    # nan is the one real unequal to itself; math.isnan(10**400) overflows
    return isinstance(v, numbers.Real) and v == v


# The values of each kind that may end in a result; a row narrows them to
# its range.  Every kind is swept over all of VALUES.
KINDS = {
    "count": lambda v: isinstance(v, numbers.Integral),
    "optional count": lambda v: v is None or isinstance(v, numbers.Integral),
    "real": _real,
    "probability": lambda v: _real(v) and 0 <= v <= 1,
    "bit": lambda v: isinstance(v, numbers.Integral) and v in (0, 1),
    "seed": lambda v: v is None or (isinstance(v, numbers.Integral)
                                     and v >= 0),
}
INTEGER_KINDS = ("count", "optional count", "bit", "seed")


class Row(NamedTuple):
    callable: str
    param: str
    kind: str
    valid: object
    call: object  # call(v, rng): the valid call with v as the parameter
    within: object = None  # the row's range, for the values its kind admits
    aliases: tuple = ()  # other words a diagnostic may name the parameter by
    # a value the kind refuses ends in "<checked> must be an integer, got
    # v", or "... an integer 0 or 1, got v" for a bit
    checked: str = None
    # nan and +-inf end in its finiteness diagnostic
    finite: str = None
    pinned: dict = {}  # value id -> the regexp its diagnostic matches
    unnamed: dict = {}  # value id -> why its ValueError need not name it


NUMPY_SIZE = ("sizes an array: numpy's own 'Maximum allowed dimension "
              "exceeded' ValueError, raised before anything is drawn")
HUGE_SIZES = dict.fromkeys(("10**30", "10**400"), NUMPY_SIZE)

OT = dict(n=1e10, delta=0.0106, storage=qubit(0.1))
SIMULATED = dict(n=512, delta=0.02, storage=StorageModel(r=0.2), p1_sent=1.0,
                 ph_noclick=0.0, pd_noclick=0.0, ph_err=0.0, ell=8)
UNIFORM4 = JointDistribution([("X", 4)], np.full(4, 0.25))
PAIR = JointDistribution([("X0", 2), ("X1", 2)], np.full(4, 0.25))
QCODE = qid_code(16, 8)
STATE = bb84_prepare(0, 1)


def _margin(v):
    return 0 < v < 0.25


def _positive(v):
    return 0 < v < math.inf


def _one_hot(size, extra=0):
    """``size + extra`` entries, the first 1.0, where ``size`` is a small
    count, else one: the call's own size check rejects the size first."""
    small = isinstance(size, numbers.Integral) and 1 <= size <= 64
    return np.eye(1, int(size) + extra if small else 1).ravel()


def _evaluated(evaluate, record):
    """``evaluate(record)``, or the name of the ``BoundsError`` it raised:
    a bound may admit no guarantee for a record that its checks admit."""
    try:
        return evaluate(record)
    except BoundsError as exc:
        return type(exc).__name__


def _record_rows(make, evaluations, base, kinds, **extra):
    """One row per record field: the record built from ``base`` with the
    value in the field's place, the field as the record keeps it, and each
    of ``evaluations`` of the record."""
    def call(field, v):
        record = make(**{**base, field: v})
        return (getattr(record, field),
                [_evaluated(evaluate, record) for evaluate in evaluations])
    return [Row(make.__name__, field, kind, base[field],
                lambda v, rng, field=field: call(field, v),
                **extra.get(field, {}))
            for field, kind in kinds]


def _robust_run(rng, c=0, eps_target=1e-3, **fields):
    return run_robust_rot(RobustParams(**{**SIMULATED, **fields}),
                          repetition_code(3), c, rng=rng,
                          eps_target=eps_target)


ROWS = [
    # --- bounds ---
    *_record_rows(StorageModel,
                  [lambda s: _ot(OtParams(**{**OT, "storage": s}))],
                  dict(r=0.1, nu=1.0, dim=2),
                  [("r", "probability"), ("nu", "real"), ("dim", "count")],
                  nu=dict(within=_positive, finite="nu"),
                  dim=dict(within=lambda v: v >= 2,
                           aliases=("channel dimension",),
                           checked="channel dimension dim",
                           pinned={"True": "^channel dimension must be at "
                                           "least 2$"})),
    *_record_rows(OtParams, [_ot], OT, [("n", "real"), ("delta", "real")],
                  n=dict(within=lambda v: 400 <= v < math.inf, finite="n"),
                  delta=dict(within=_margin)),
    *_record_rows(RobustParams,
                  [lambda p: (p.m1, p.m_total),
                   lambda p: _robust(p, "rounds"),
                   lambda p: _robust(p, "error-complement")],
                  {**ROBUST_GOOD, "ell": None},
                  [("n", "real"), ("delta", "real"),
                   ("p1_sent", "probability"), ("ph_noclick", "probability"),
                   ("pd_noclick", "probability"), ("ph_err", "probability"),
                   ("ell", "optional count")],
                  n=dict(within=_positive, finite="n"),
                  delta=dict(within=_margin),
                  ph_err=dict(aliases=("honest error rate",)),
                  ell=dict(checked="ell")),
    *_record_rows(QidParams, [lambda p: p.mu, _qid, _impersonation],
                  QID_GOOD,
                  [("n", "real"), ("m", "count"), ("delta", "real"),
                   ("ell", "optional count"), ("d_code", "optional count")],
                  n=dict(within=_positive, finite="n"),
                  m=dict(within=lambda v: v >= 2, aliases=("passwords",),
                         checked="m"),
                  delta=dict(within=_margin),
                  ell=dict(within=lambda v: v >= 1, checked="ell",
                           pinned={"10**400": "^ell has no finite float "
                                              "value$"}),
                  # nan passes both distance comparisons, and qid_error
                  # would return 1.0
                  d_code=dict(aliases=("code distance",),
                              pinned={"nan": "^d_code must be finite"})),
    Row("binary_entropy", "p", "probability", 0.3,
        lambda v, rng: binary_entropy(v)),
    Row("inv_binary_entropy", "y", "probability", 0.3,
        lambda v, rng: inv_binary_entropy(v)),
    Row("sigma", "delta", "real", 0.1, lambda v, rng: sigma(v),
        within=lambda v: 0 < v < 1),
    Row("ot_epsilon", "delta", "real", 0.0106,
        lambda v, rng: ot_epsilon(v, 1e10), within=_margin),
    Row("ot_epsilon", "n", "real", 1e10, lambda v, rng: ot_epsilon(0.0106, v),
        within=lambda v: 1 <= v < math.inf, finite="n"),
    Row("strong_converse_exponent", "R", "real", 0.3,
        lambda v, rng: strong_converse_exponent(v, qubit(0.1)),
        within=lambda v: 0 <= v < math.inf,
        # every comparison with nan is false, so no scan point beats 0
        pinned={"nan": "^rate R must be nonnegative, got nan$"}),
    Row("rate_curve", "n", "real", 1e10,
        lambda v, rng: rate_curve(v, 0.0106, 1.0, [0.1]),
        within=lambda v: 400 <= v < math.inf, finite="n"),
    Row("rate_curve", "delta", "real", 0.0106,
        lambda v, rng: rate_curve(1e10, v, 1.0, [0.1]),
        within=_margin),
    Row("rate_curve", "nu", "real", 1.0,
        lambda v, rng: rate_curve(1e10, 0.0106, v, [0.1]),
        within=_positive),
    Row("rate_curve", "r_grid", "probability", 0.1,
        lambda v, rng: rate_curve(1e10, 0.0106, 1.0, [v]), aliases=("r",)),
    Row("rate_curve", "dim", "count", 2,
        lambda v, rng: rate_curve(1e10, 0.0106, 1.0, [0.1], dim=v),
        within=lambda v: v >= 2, aliases=("channel dimension",),
        checked="channel dimension dim"),
    Row("feasible_region", "r_steps", "count", 3,
        lambda v, rng: feasible_region(v, 2), within=lambda v: v >= 2,
        aliases=("steps",), checked="r_steps"),
    Row("feasible_region", "nu_steps", "count", 2,
        lambda v, rng: feasible_region(3, v), within=lambda v: v >= 2,
        aliases=("steps",), checked="nu_steps"),
    Row("feasible_region", "r_max", "probability", 1.0,
        lambda v, rng: feasible_region(3, 2, r_max=v), aliases=("r",)),
    Row("feasible_region", "nu_max", "real", 1.0,
        lambda v, rng: feasible_region(3, 2, nu_max=v),
        within=_positive, aliases=("nu",)),
    Row("feasible_region", "dim", "count", 2,
        lambda v, rng: feasible_region(3, 2, dim=v), within=lambda v: v >= 2,
        aliases=("channel dimension",), checked="channel dimension dim"),
    Row("dishonest_alice_error", "m", "real", 16,
        lambda v, rng: dishonest_alice_error(v, 40), within=lambda v: v >= 1,
        pinned={"nan": "^m must be at least 1, got nan$"}),
    Row("dishonest_alice_error", "ell", "real", 40,
        lambda v, rng: dishonest_alice_error(16, v),
        within=lambda v: 0 <= v < math.inf, finite="ell",
        pinned={"-1": "^ell must be nonnegative, got -1$"}),
    # --- code catalog ---
    Row("repetition_code", "n", "count", 3,
        lambda v, rng: repetition_code(v), within=lambda v: v >= 1,
        aliases=("repetition length",), checked="repetition length n",
        unnamed=HUGE_SIZES),
    Row("identity_code", "n", "count", 3, lambda v, rng: identity_code(v),
        within=lambda v: v >= 1, checked="n", unnamed=HUGE_SIZES),
    Row("random_code", "n", "count", 6, lambda v, rng: random_code(v, 3),
        within=lambda v: v >= 3, checked="n", unnamed=HUGE_SIZES),
    Row("random_code", "k", "count", 3, lambda v, rng: random_code(6, v),
        within=lambda v: 1 <= v <= 6, checked="k"),
    Row("random_code", "seed", "seed", 0,
        lambda v, rng: random_code(6, 3, seed=v)),
    Row("qid_code", "m", "count", 16, lambda v, rng: qid_code(v, 8),
        within=lambda v: v >= 2, aliases=("passwords",), checked="m"),
    Row("qid_code", "n", "count", 8, lambda v, rng: qid_code(16, v).code,
        within=lambda v: v >= 4, checked="n",
        unnamed=HUGE_SIZES),
    Row("QidCode.password_bits", "w", "count", 3,
        lambda v, rng: QCODE.password_bits(v), within=lambda v: 1 <= v <= 16,
        aliases=("password",)),
    # --- tables and entropies ---
    Row("JointDistribution", "registers", "count", 3,
        lambda v, rng: JointDistribution([("X", v)], _one_hot(v)),
        within=lambda v: v >= 1, aliases=("register sizes", "cells"),
        checked="register size"),
    Row("JointDistribution.with_register", "size", "count", 3,
        lambda v, rng: UNIFORM4.with_register("V", v, np.zeros(4, int)),
        within=lambda v: v >= 1, aliases=("cells",), checked="register size"),
    Row("min_entropy", "eps", "probability", 0.1,
        lambda v, rng: min_entropy(UNIFORM4, "X", eps=v),
        within=lambda v: v < 1),
    Row("smooth_sub_distribution", "eps", "probability", 0.1,
        lambda v, rng: smooth_sub_distribution(UNIFORM4, "X", eps=v),
        within=lambda v: v < 1),
    Row("split_binary", "alpha", "real", 2.0,
        lambda v, rng: split_binary(PAIR, v), within=lambda v: v >= 0,
        pinned={"nan": "^alpha must be nonnegative, got nan$"}),
    Row("split_multi", "alpha", "real", 2.0,
        lambda v, rng: split_multi(PAIR, v, ["X0", "X1"]),
        within=lambda v: v >= 0,
        pinned={"nan": "^alpha must be nonnegative, got nan$"}),
    Row("psucc_classical", "k", "count", 1,
        lambda v, rng: psucc_classical(np.eye(2), v),
        within=lambda v: 0 <= v <= 3, checked="k"),
    # --- hashing ---
    Row("ToeplitzHash", "n", "count", 4,
        lambda v, rng: ToeplitzHash(n=v, ell=1, seed=_one_hot(v)),
        within=lambda v: v >= 1, checked="n"),
    Row("ToeplitzHash", "ell", "count", 2,
        lambda v, rng: ToeplitzHash(n=4, ell=v, seed=_one_hot(v, 3)),
        within=lambda v: 1 <= v <= 4, checked="ell"),
    Row("random_hash", "n", "count", 4, lambda v, rng: random_hash(v, 1, rng),
        within=lambda v: v >= 1, checked="n", unnamed=HUGE_SIZES),
    Row("random_hash", "ell", "count", 2,
        lambda v, rng: random_hash(4, v, rng, affine=True),
        within=lambda v: 1 <= v <= 4, checked="ell"),
    Row("collision_bound", "n", "count", 4,
        lambda v, rng: collision_bound(v, 1), within=lambda v: 1 <= v <= 8,
        checked="n"),
    Row("collision_bound", "ell", "count", 2,
        lambda v, rng: collision_bound(4, v), within=lambda v: 1 <= v <= 4,
        checked="ell"),
    Row("pa_distance", "ell", "count", 1,
        lambda v, rng: pa_distance(UNIFORM4, v, 2, rng),
        within=lambda v: 1 <= v <= 2, checked="ell"),
    Row("pa_distance", "sample_count", "count", 2,
        lambda v, rng: pa_distance(UNIFORM4, 1, v, rng),
        within=lambda v: v >= 1, aliases=("sample",),
        checked="sample_count", unnamed=HUGE_SIZES),
    # --- protocols ---
    Row("make_rng", "rng", "seed", 7,
        lambda v, rng: make_rng(v).integers(0, 2 ** 32, 4)),
    Row("run_rot", "n", "count", 16, lambda v, rng: run_rot(v, 1, 0, rng=rng),
        within=lambda v: v >= 1, checked="n", unnamed=HUGE_SIZES),
    Row("run_rot", "ell", "count", 4,
        lambda v, rng: run_rot(16, v, 0, rng=rng),
        within=lambda v: 1 <= v <= 16, checked="ell"),
    Row("run_rot", "c", "bit", 1, lambda v, rng: run_rot(16, 4, v, rng=rng),
        checked="choice bit c"),
    Row("run_rot", "rng", "seed", 7, lambda v, rng: run_rot(16, 4, 0, rng=v)),
    Row("StoreAllBob", "storage_r", "probability", 0.3,
        lambda v, rng: run_rot(16, 4, 0, bob=StoreAllBob(v), rng=rng),
        aliases=("r",)),
    Row("honest_index_sets", "c", "bit", 1,
        lambda v, rng: honest_index_sets([0, 1, 1, 0], [0, 0, 0, 0], v),
        checked="choice bit c"),
    Row("run_robust_rot", "n", "real", 512,
        lambda v, rng: _robust_run(rng, n=v),
        within=lambda v: 200 <= v < math.inf and v == int(v),
        unnamed={"10**30": NUMPY_SIZE, "1e300": NUMPY_SIZE}),
    Row("run_robust_rot", "ell", "optional count", 8,
        lambda v, rng: _robust_run(rng, ell=v),
        within=lambda v: v is not None and 1 <= v <= 512, checked="ell"),
    Row("run_robust_rot", "c", "bit", 1,
        lambda v, rng: _robust_run(rng, c=v), checked="choice bit c"),
    Row("run_robust_rot", "rng", "seed", 7,
        lambda v, rng: _robust_run(v)),
    Row("run_robust_rot", "eps_target", "real", 1e-3,
        lambda v, rng: _robust_run(rng, eps_target=v),
        within=lambda v: 0 < v <= 1),
    Row("run_qid", "w_alice", "count", 3,
        lambda v, rng: run_qid(v, 3, QCODE, 4, rng=rng),
        within=lambda v: 1 <= v <= 16, aliases=("password",)),
    Row("run_qid", "w_bob", "count", 3,
        lambda v, rng: run_qid(3, v, QCODE, 4, rng=rng),
        within=lambda v: 1 <= v <= 16, aliases=("password",)),
    Row("run_qid", "ell", "count", 4,
        lambda v, rng: run_qid(3, 3, QCODE, v, rng=rng),
        within=lambda v: 1 <= v <= 8, checked="ell"),
    Row("run_qid", "rng", "seed", 7,
        lambda v, rng: run_qid(3, 3, QCODE, 4, rng=v)),
    Row("estimate_leakage", "n", "count", 4,
        lambda v, rng: estimate_leakage(v, 1, 0.3, 2, rng=rng),
        within=lambda v: 1 <= v <= 24, checked="n"),
    Row("estimate_leakage", "ell", "count", 1,
        lambda v, rng: estimate_leakage(4, v, 0.3, 2, rng=rng),
        within=lambda v: 1 <= v <= 4, checked="ell"),
    Row("estimate_leakage", "r", "probability", 0.3,
        lambda v, rng: estimate_leakage(4, 1, v, 2, rng=rng)),
    Row("estimate_leakage", "trials", "count", 2,
        lambda v, rng: estimate_leakage(4, 1, 0.3, v, rng=rng),
        within=lambda v: 1 <= v <= LEAKAGE_MAX_TRIALS, aliases=("trial",),
        checked="trials",
        pinned={"10**30": "^trials = 10{30} exceeds the cap of %d at n = 4 "
                          "and ell = 1$" % LEAKAGE_MAX_TRIALS}),
    Row("estimate_leakage", "rng", "seed", 7,
        lambda v, rng: estimate_leakage(4, 1, 0.3, 2, rng=v)),
    Row("estimate_leakage", "delta", "real", 0.01,
        lambda v, rng: estimate_leakage(4, 1, 0.3, 2, rng=rng, delta=v),
        within=_margin),
    # --- qsim ---
    Row("bb84_prepare", "bit", "bit", 1, lambda v, rng: bb84_prepare(v, 0),
        checked="bit"),
    Row("bb84_prepare", "basis", "bit", 1, lambda v, rng: bb84_prepare(0, v),
        checked="basis"),
    Row("born_probability", "basis", "bit", 1,
        lambda v, rng: born_probability(STATE, v, 0), checked="basis"),
    Row("born_probability", "outcome", "bit", 1,
        lambda v, rng: born_probability(STATE, 0, v), checked="outcome"),
    Row("measure", "basis", "bit", 1, lambda v, rng: measure(STATE, v, rng),
        checked="basis"),
    Row("depolarize", "r", "probability", 0.3,
        lambda v, rng: depolarize(STATE, v)),
    Row("helstrom", "p0", "probability", 0.3,
        lambda v, rng: helstrom(STATE, bb84_prepare(1, 1), v),
        aliases=("prior",)),
]

# the exported callables without a row of their own, and why
UNSWEPT = {
    "InfeasibleStorageError": "an exception class",
    "NoPositiveLengthError": "an exception class",
    "OptimizationError": "an exception class",
    "PreconditionError": "an exception class",
    "depolarizing_capacity": "takes a StorageModel: its rows evaluate _ot, "
                             "whose capacity it is",
    "ot_length": "returns _ot's ell and eps: the OtParams rows evaluate _ot",
    "robust_ot_length": "returns _robust's ell and eps: the RobustParams "
                        "rows evaluate _robust under both ec_variants",
    "qid_error": "returns _qid's error: the QidParams rows evaluate _qid",
    "impersonation_error": "returns _impersonation's ell and error: the "
                           "QidParams rows evaluate _impersonation",
    "LinearCode": "takes GF(2) matrices only",
    "SubDistribution": "takes a table and its mass only",
    "SplitResult": "the record that split_binary and split_multi return",
    "hash_apply": "takes a ToeplitzHash and a bit array only",
}

CASES = [(row, value_id) for row in ROWS
         for value_id in ("valid", *VALUES)]


class _Alarm(Exception):
    pass


def _ring(signum, frame):
    raise _Alarm


def _plain(out):
    """``out`` as data for ``json.dumps``: arrays as lists, complex numbers
    as pairs, records by their fields and transcripts by ``to_json()``."""
    if hasattr(out, "to_json"):
        return json.loads(out.to_json())
    if dataclasses.is_dataclass(out):
        return {f.name: _plain(getattr(out, f.name))
                for f in dataclasses.fields(out)}
    if isinstance(out, JointDistribution):
        return _plain((out.registers, out.probs))
    if isinstance(out, np.ndarray):
        return _plain(out.tolist())
    if isinstance(out, dict):
        return {key: _plain(value) for key, value in out.items()}
    if isinstance(out, (list, tuple)):
        return [_plain(value) for value in out]
    if type(out) is complex:
        return [out.real, out.imag]
    return out


def _outcome(row, value):
    """The call's result as JSON text, or the exception it raised and
    whether the generator passed in moved."""
    rng = np.random.Generator(np.random.Philox(7))
    state = generator_state(rng)
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.alarm(2)
    try:
        out = row.call(value, rng)
    except _Alarm:
        pytest.fail("%s(%s=%r) ran past the 2 s alarm"
                    % (row.callable, row.param, value))
    except Exception as exc:  # the contract sorts it below
        return exc, generator_state(rng) != state
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return json.dumps(_plain(out), allow_nan=False), False


def _twins(row, value):
    """The values that must give the same bytes as ``value``: a numpy
    scalar's Python value, a bool's int and, for a kind that is no integer
    kind, an integer's float."""
    if isinstance(value, np.generic):
        yield value.item()
    if type(value) is bool:
        yield int(value)
    if (row.kind not in INTEGER_KINDS and isinstance(value, numbers.Integral)
            and abs(value) < 2 ** 1024):
        yield float(value)


def _admits(row, value):
    return KINDS[row.kind](value) and (
        row.within is None or value is None or row.within(value))


@pytest.mark.parametrize(
    "row, value_id", CASES,
    ids=["%s-%s-%s" % (row.callable, row.param, value_id)
         for row, value_id in CASES])
def test_input_contract(row, value_id):
    value = row.valid if value_id == "valid" else VALUES[value_id]
    result, moved = _outcome(row, value)
    for twin in _twins(row, value):
        # the same bytes as its twin, or a rejection of both
        plain, _ = _outcome(row, twin)
        assert (result == plain if isinstance(result, str)
                else not isinstance(plain, str)), (result, plain, twin)
    if isinstance(result, str):
        assert _admits(row, value), "admitted %s=%r" % (row.param, value)
        return
    assert value_id != "valid", "the valid call raised %r" % (result,)
    assert not moved, "the generator moved before %r" % (result,)
    pins = [row.pinned[value_id]] if value_id in row.pinned else []
    if row.checked and not KINDS[row.kind](value):
        pins.append("^%s must be an integer%s, got %s$"
                    % (re.escape(row.checked),
                       " 0 or 1" if row.kind == "bit" else "",
                       re.escape(repr(value))))
    if row.finite and value_id in NON_FINITE:
        pins.append("^%s must be finite, got %s$"
                    % (re.escape(row.finite), value_id))
    names = [name for name in (row.param, row.checked, *row.aliases) if name]
    named = r"(?<!\w)(?:%s)" % "|".join(map(re.escape, names))
    if row.kind not in INTEGER_KINDS and value_id in NON_NUMBERS:
        assert isinstance(result, TypeError), repr(result)
        pins.append("%s must be a number, got %s$"
                    % (named, re.escape(repr(value))))
    elif (isinstance(result, TypeError) and value_id in NON_NUMBERS
          and not pins):
        return
    else:
        assert isinstance(result, (ValueError, BoundsError)), repr(result)
    if row.kind not in INTEGER_KINDS and value_id in NO_FLOAT:
        pins.append("%s has no finite float value$" % named)
    if value_id in row.unnamed:
        return
    message = str(result)
    assert re.search(named + r"(?!\w)", message), message
    for pin in pins:
        assert re.search(pin, message), message


def test_every_exported_callable_has_a_row():
    exported = {name for name, value in vars(noisystorage).items()
                if callable(value) and not name.startswith("_")}
    swept = {row.callable.split(".")[0] for row in ROWS}
    assert exported - swept == set(UNSWEPT)


# each record, a valid call, and the bound calculators that read its storage
STORAGE_RECORDS = [(OtParams, OT, [ot_length]),
                   (RobustParams, ROBUST_GOOD, [robust_ot_length]),
                   (QidParams, QID_GOOD, [qid_error, impersonation_error])]


@pytest.mark.parametrize("make, base, calculators", STORAGE_RECORDS,
                         ids=[make.__name__ for make, _, _ in STORAGE_RECORDS])
@pytest.mark.parametrize("storage", [0.3, "0.3", {"r": 0.3}],
                         ids=["0.3", "'0.3'", "dict"])
def test_records_refuse_a_storage_that_is_no_storage_model(make, base,
                                                           calculators,
                                                           storage):
    with pytest.raises(TypeError, match="^storage must be a StorageModel or "
                                        "None, got %s$"
                                        % re.escape(repr(storage))):
        make(**{**base, "storage": storage})


@pytest.mark.parametrize("make, base, calculators", STORAGE_RECORDS,
                         ids=[make.__name__ for make, _, _ in STORAGE_RECORDS])
def test_bounds_refuse_a_record_without_storage(make, base, calculators):
    # None is the sentinel of the records that rate_curve and simulate
    # robust build, whose storage nothing reads
    record = make(**{**base, "storage": None})
    assert record.storage is None
    for bound in calculators:
        with pytest.raises(PreconditionError,
                           match="^storage must be a StorageModel, got None$"):
            bound(record)
