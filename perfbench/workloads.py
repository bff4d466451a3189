"""The benchmark's workloads: seeded op generators and per-op checks.

An op is one call into the package's public API.  Each workload turns
``(seed, index)`` into an op deterministically, so the same seed always
gives the same inputs.  Op kinds follow a fixed cycle, which keeps the mix
(and so the percentiles) the same from run to run; the inputs inside each
kind are drawn fresh for every op.

Every op is called through its module attribute (``cli.dispatch``,
``protocols.run_rot``, ...) at call time, so the traced run's wrappers see
it.  ``Op.check`` returns a description of the broken invariant, or None;
``Op.output`` returns the bytes that the golden digests cover.
"""

import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from noisystorage import bounds, checks, cli, codes, protocols

DEFAULT_SEED = 0
WARMUP_INDEX = 2 ** 40  # seeds the warm-up op; no timed op reaches it


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    output: Callable[[object], bytes]


def op_rng(seed, index):
    return np.random.default_rng([seed, index])


def _int_seed(rng):
    return int(rng.integers(2 ** 32))


def _json_bytes(obj):
    return json.dumps(obj, sort_keys=True).encode()


# --- bounds-cli --------------------------------------------------------------
#
# Expected outcomes are decided by construction, from closed forms the
# benchmark computes itself: a point drawn for exit 0 sits well inside the
# feasible region, one drawn for exit 2 has storage capacity far above the
# 1/4 - delta budget, one drawn for exit 1 breaks a documented precondition.


def qubit_capacity(r):
    """Classical capacity of the qubit depolarizing channel, retention r."""
    c = 1.0
    for p in ((1.0 + r) / 2.0, (1.0 - r) / 2.0):
        if p > 0.0:
            c += p * math.log2(p)
    return c


def _f(x):
    return "%.6g" % x


def _n(rng, lo=6.0, hi=15.0):
    return float("%.6g" % 10.0 ** rng.uniform(lo, hi))


def _feasible_storage(rng, nus, cap_max=0.2):
    """(r, nu) with capacity * nu <= cap_max, so 1/4 - delta keeps a margin."""
    while True:
        r = rng.uniform(0.0, 0.6)
        nu = float(rng.choice(nus))
        if qubit_capacity(r) * nu <= cap_max:
            return r, nu


def _infeasible_storage(rng):
    """(r, nu) with capacity * nu >= 0.53, above any 1/4 - delta."""
    return rng.uniform(0.8, 1.0), float(rng.choice([1.0, 2.0]))


def _ot_args(rng, outcome):
    if outcome == 0:
        r, nu = _feasible_storage(rng, [0.25, 0.5, 1.0, 2.0])
        delta = rng.uniform(0.001, 0.6 * (0.25 - qubit_capacity(r) * nu))
        n = _n(rng)
    elif outcome == 2:
        r, nu = _infeasible_storage(rng)
        delta, n = rng.uniform(0.001, 0.24), _n(rng)
    else:
        r, nu = rng.uniform(0.0, 1.0), 1.0
        delta, n = rng.uniform(0.001, 0.24), _n(rng)
        broken = rng.integers(3)
        if broken == 0:
            delta = rng.uniform(0.25, 0.6)
        elif broken == 1:
            r = rng.uniform(1.01, 2.0)
        else:
            n = float(math.floor(rng.uniform(0.1, 0.9) * 4.0 / delta))
    argv = ["bounds", "ot", "--n", _f(n), "--delta", _f(delta),
            "--r", _f(r), "--nu", _f(nu)]
    if rng.random() < 0.3:
        argv += ["--threshold", _f(10.0 ** rng.uniform(-12, -3))]
    return argv


def _robust_args(rng, outcome):
    p1 = rng.uniform(0.95, 1.0)
    noclick = rng.uniform(0.1, 0.4)
    dark = rng.uniform(0.0, 0.05)
    err = rng.uniform(0.001, 0.006)
    n = _n(rng, 8.0, 15.0)
    if outcome == 0:
        # the error-correction charge 0.6 h(ph_err) (1 - ph_noclick) n
        # leaves a positive length only for storage close to useless
        r, nu = rng.uniform(0.0, 0.08), float(rng.choice([0.5, 1.0]))
        delta = rng.uniform(0.001, 0.05)
    elif outcome == 2:
        r, nu = _infeasible_storage(rng)
        delta = rng.uniform(0.001, 0.05)
    else:
        r, nu = rng.uniform(0.0, 0.3), 1.0
        delta = rng.uniform(0.001, 0.05)
        broken = rng.integers(3)
        if broken == 0:
            err = rng.uniform(0.5, 0.9)
        elif broken == 1:
            p1 = rng.uniform(0.2, 0.5)
            noclick = rng.uniform(p1 + dark + 0.01, 1.0)
        else:
            delta = rng.uniform(0.25, 0.6)
    argv = ["bounds", "robust", "--n", _f(n), "--delta", _f(delta),
            "--r", _f(r), "--nu", _f(nu), "--p1-sent", _f(p1),
            "--ph-noclick", _f(noclick), "--pd-noclick", _f(dark),
            "--ph-err", _f(err)]
    if rng.random() < 0.3:
        argv += ["--threshold", _f(10.0 ** rng.uniform(-12, -3))]
    return argv


PASSWORD_COUNTS = [2, 16, 1024, 2 ** 20]


def _qid_args(rng, outcome):
    n = _n(rng)
    m = int(rng.choice(PASSWORD_COUNTS))
    delta = rng.uniform(0.01, 0.24)
    r, nu = rng.uniform(0.0, 1.0), float(rng.choice([0.5, 1.0, 2.0]))
    ell = int(10.0 ** rng.uniform(1, 4))
    need = (4.0 + 4.0 * math.log2(m)) / delta
    d_code = None
    if outcome == 0:
        if rng.random() < 0.5:
            d_code = int(rng.uniform(1.1, 5.0) * need)
    else:
        d_code = max(1, int(rng.uniform(0.1, 0.9) * need))
    argv = ["bounds", "qid", "--n", _f(n), "--m", str(m), "--delta",
            _f(delta), "--ell", str(ell), "--r", _f(r), "--nu", _f(nu)]
    if d_code is not None:
        argv += ["--d-code", str(d_code)]
    return argv


def _impersonation_args(rng, outcome):
    n = _n(rng)
    m = int(rng.choice(PASSWORD_COUNTS[:3]))
    delta = rng.uniform(0.01, 0.24)
    if outcome == 0:
        r, nu = _feasible_storage(rng, [0.5, 1.0, 2.0])
    elif outcome == 2:
        r, nu = _infeasible_storage(rng)
    else:
        r, nu = rng.uniform(0.0, 0.5), 1.0
        if rng.random() < 0.5:
            m = 1
        else:
            delta = rng.uniform(0.25, 0.6)
    return ["bounds", "impersonation", "--n", _f(n), "--m", str(m),
            "--delta", _f(delta), "--r", _f(r), "--nu", _f(nu)]


# subcommand -> (argv generator, outcome weights for exit codes 0, 1, 2)
POINT_KINDS = {
    "ot": (_ot_args, (0.7, 0.15, 0.15)),
    "robust": (_robust_args, (0.7, 0.15, 0.15)),
    "qid": (_qid_args, (0.8, 0.2, 0.0)),
    "impersonation": (_impersonation_args, (0.7, 0.15, 0.15)),
}

# Each point key must be present in exit-0 output; ell must be a positive
# integer where the command reports a transfer length.
POINT_KEYS = {
    "ot": ("gamma", "capacity", "ell", "ot_rate", "eps", "two_eps"),
    "robust": ("m1", "m_total", "capacity", "ell", "ot_rate", "eps",
               "two_eps"),
    "qid": ("mu", "capacity", "error"),
    "impersonation": ("mu", "capacity", "ell", "error",
                      "dishonest_user_error"),
}


def _curve_args(rng, fmt):
    delta = rng.uniform(0.001, 0.24)
    return ["curve", "--n", _f(_n(rng)), "--delta", _f(delta),
            "--nu", _f(rng.choice([0.25, 0.5, 1.0, 2.0])),
            "--r-min", _f(rng.uniform(0.0, 0.3)),
            "--r-max", _f(rng.uniform(0.6, 1.0)),
            "--steps", "200", "--format", fmt]


def _region_args(rng, fmt):
    return ["region", "--steps", "100",
            "--r-max", _f(rng.uniform(0.5, 1.0)),
            "--nu-max", _f(rng.uniform(0.5, 2.0)), "--format", fmt]


TABLE_ROWS = {"curve": 200, "region": 100 * 100}


def _dispatch(argv):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.dispatch(argv)
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _cli_bytes(result):
    code, out, err = result
    return b"%d\0%s\0%s" % (code, out.encode(), err.encode())


def _parse_point(text, fmt):
    if fmt == "json":
        return json.loads(text)
    pairs = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return {k: (v if v in ("true", "false") else float(v))
            for k, v in pairs.items()}


def _check_point(sub, argv, expected, result):
    code, out, err = result
    if code != expected:
        return "exit %d, expected %d: %s" % (code, expected, err.strip())
    if expected != 0:
        prefix = "error: " if expected == 1 else "infeasible: "
        if out or not err.startswith(prefix):
            return "exit %d without a %r diagnostic" % (code, prefix)
        return None
    if err:
        return "stderr on success: %s" % err.strip()
    values = _parse_point(out, "json" if "json" in argv else "text")
    missing = [k for k in POINT_KEYS[sub] if k not in values]
    if missing:
        return "missing keys %s" % missing
    r = float(argv[argv.index("--r") + 1])
    if abs(values["capacity"] - qubit_capacity(r)) > 1e-9:
        return "capacity %r != %r" % (values["capacity"], qubit_capacity(r))
    if sub in ("ot", "robust") and not (values["ell"] >= 1
                                        and 0.0 <= values["eps"] <= 2.0):
        return "ell %r, eps %r" % (values["ell"], values["eps"])
    if sub == "qid" and not 0.0 <= values["error"] <= 1.0:
        return "error outside [0, 1]"
    return None


def _check_table(command, fmt, result):
    code, out, err = result
    if code != 0 or err:
        return "exit %d: %s" % (code, err.strip())
    rows = TABLE_ROWS[command]
    header = (bounds.RATE_CURVE_HEADER if command == "curve"
              else bounds.FEASIBLE_REGION_HEADER)
    if fmt == "json":
        table = json.loads(out)
        if len(table) != rows or list(table[0]) != list(header):
            return "json table shape"
    else:
        lines = out.splitlines()
        if len(lines) != rows + 1 or lines[0] != ",".join(header):
            return "csv table shape"
    return None


# 46 point queries, then the four tables: 8% of ops, so that op_p99_ms
# falls in the middle of the slowest table class
BOUNDS_CLI_CYCLE = [list(POINT_KINDS)[i % 4] for i in range(46)] + [
    "curve:csv", "curve:json", "region:csv", "region:json"]


def bounds_cli_op(state, seed, index, kind):
    rng = op_rng(seed, index)
    if ":" in kind:
        command, fmt = kind.split(":")
        make = _curve_args if command == "curve" else _region_args
        argv = make(rng, fmt)
        return Op(kind, lambda: _dispatch(argv),
                  lambda res: _check_table(command, fmt, res), _cli_bytes)
    make, weights = POINT_KINDS[kind]
    expected = int(rng.choice(3, p=weights))
    argv = make(rng, expected)
    if rng.random() < 0.3:
        argv += ["--format", "json"]
    return Op(kind, lambda: _dispatch(argv),
              lambda res: _check_point(kind, argv, expected, res), _cli_bytes)


# --- verify ------------------------------------------------------------------

# suite -> (trials per op, checks the report must count for that many trials)
SUITE_TRIALS = {
    "codes": (None, lambda t: 6 * 42 + 1),
    "split": (32, lambda t: t + 3 * (t // 4)),
    "pa": (8, lambda t: t),
    "lemma4": (8, lambda t: 4 * t),
    "hashing": (16, lambda t: 15 + t),
}
# verify_codes takes no trial count and costs about two split or pa ops,
# so it runs once per cycle and the table-handling suites carry the time
VERIFY_CYCLE = ["codes", "split", "pa", "lemma4", "split", "pa", "hashing",
                "split", "pa", "lemma4"]


def _check_suite(name, trials, report):
    want = SUITE_TRIALS[name][1](trials)
    if report["suite"] != name or report["checks"] != want:
        return "report %r, expected %d checks" % (report, want)
    if report["violations"] != 0:
        return "%d violations" % report["violations"]
    return None


def verify_op(state, seed, index, kind):
    rng = op_rng(seed, index)
    suite = getattr(checks, "verify_" + kind)
    trials = SUITE_TRIALS[kind][0]
    kwargs = {"seed": _int_seed(rng)}
    if trials is not None:
        kwargs["trials"] = trials
    return Op(kind, lambda: suite(**kwargs),
              lambda rep: _check_suite(kind, trials, rep), _json_bytes)


# --- simulate and large-n ----------------------------------------------------


def _robust_params(n, ell):
    return bounds.RobustParams(
        n=n, delta=0.02, storage=bounds.StorageModel(r=0.2), p1_sent=1.0,
        ph_noclick=0.3, pd_noclick=0.0, ph_err=0.01, ell=ell)


def _transcript_bytes(t):
    return t.to_json().encode()


def _check_rot(t):
    target = t.s0 if t.c == 0 else t.s1
    if not t.i_c_empty and not np.array_equal(t.y, target):
        return "honest receiver output differs from the chosen string"
    return None


def _check_robust(t):
    if t.abort:
        return None
    target = t.s0 if t.c == 0 else t.s1
    if t.decode_ok and not np.array_equal(t.y, target):
        return "decoding succeeded but the output differs"
    return None


def _check_qid(equal):
    def check(t):
        if equal and not t.accept:
            return "equal passwords rejected"
        return None
    return check


def _check_leakage(r, pool):
    def check(rep):
        if abs(rep["helstrom_rate"] - (1.0 + r) / 2.0) > 1e-12:
            return "helstrom_rate %r != (1+r)/2" % rep["helstrom_rate"]
        if rep["empirical_nonuniformity"] > rep["statement_bound"]:
            return "non-uniformity above the statement bound"
        trials, total, _ = pool.get(r, (0, 0.0, None))
        pool[r] = (trials + rep["trials"],
                   total + rep["trials"] * rep["empirical_nonuniformity"],
                   rep["pa_bound"])
        return None
    return check


def leakage_pooled(state):
    """The hashing bound holds for the mean over the hash family, so it is
    checked on every trial of the run pooled per r.  With 4 trials an op's
    own mean may exceed it: at r = 0 one all-zero hash seed among the
    trials (probability 2^-8 per hash) already does.  One (name, problem
    or None) pair per r."""
    checks = []
    for r, (trials, total, bound) in sorted(state["leakage"].items()):
        problem = None
        if total / trials > bound:
            problem = ("pooled non-uniformity %.6g above the hashing bound "
                       "%.6g" % (total / trials, bound))
        checks.append(("leakage r=%g" % r, problem))
    return checks


LEAKAGE_TRIALS = 4


def simulate_setup():
    code = codes.repetition_code(3)
    codes.coset_leaders(code)
    return {"qid_code": codes.qid_code(16, 8), "rep3": code,
            "robust512": _robust_params(512, 8), "leakage": {}}


def simulate_op(state, seed, index, kind):
    rng = op_rng(seed, index)
    s = _int_seed(rng)
    c = int(rng.integers(2))
    if kind == "rot":
        call = lambda: protocols.run_rot(16, 4, c, rng=s)
        return Op(kind, call, _check_rot, _transcript_bytes)
    if kind.startswith("qid"):
        equal = kind == "qid:equal"
        w_a = int(rng.integers(1, 17))
        w_b = w_a if equal else int((w_a + rng.integers(1, 16) - 1) % 16 + 1)
        qc = state["qid_code"]
        call = lambda: protocols.run_qid(w_a, w_b, qc, 8, rng=s)
        return Op(kind, call, _check_qid(equal), _transcript_bytes)
    if kind == "robust":
        params, code = state["robust512"], state["rep3"]
        call = lambda: protocols.run_robust_rot(params, code, c, rng=s)
        return Op(kind, call, _check_robust, _transcript_bytes)
    r = float(kind.split(":")[1])
    call = lambda: protocols.estimate_leakage(16, 1, r, LEAKAGE_TRIALS, rng=s)
    return Op(kind, call, _check_leakage(r, state["leakage"]), _json_bytes)


LARGE_SIZES = (1024, 2048, 4096)


def large_n_setup():
    code = codes.repetition_code(3)
    codes.coset_leaders(code)
    state = {"rep3": code}
    for n in LARGE_SIZES:
        state["robust%d" % n] = _robust_params(n, n // 8)
    return state


def large_n_cycle():
    # the same number of simulated rounds at every size: 4 ops at n=1024,
    # 2 at 2048 and 1 at 4096 per kind, interleaved
    order = [1024, 2048, 1024, 4096, 1024, 2048, 1024]
    return ["%s:%d" % (k, n) for n in order for k in ("rot", "robust")]


def large_n_op(state, seed, index, kind):
    rng = op_rng(seed, index)
    s = _int_seed(rng)
    c = int(rng.integers(2))
    runner, n = kind.split(":")
    n = int(n)
    if runner == "rot":
        call = lambda: protocols.run_rot(n, n // 4, c, rng=s)
        return Op(kind, call, _check_rot, _transcript_bytes)
    params, code = state["robust%d" % n], state["rep3"]
    call = lambda: protocols.run_robust_rot(params, code, c, rng=s)
    return Op(kind, call, _check_robust, _transcript_bytes)


# --- registry ----------------------------------------------------------------


@dataclass
class Workload:
    name: str
    cycle: list
    make_op: Callable
    setup: Callable[[], dict]
    sizes: dict        # the stated input sizes, recorded with every result
    bypass: tuple      # prefixes of traced layers predicted to see no calls
    # run-wide checks: one (name, problem or None) pair each
    pooled: Callable[[dict], list] = lambda state: []

    def op(self, state, seed, index, kind=None):
        kind = kind or self.cycle[index % len(self.cycle)]
        return self.make_op(state, seed, index, kind)


GAMMA = "bounds.strong_converse_exponent"

WORKLOADS = {w.name: w for w in [
    Workload(
        "bounds-cli", BOUNDS_CLI_CYCLE, bounds_cli_op, dict,
        {"op": "cli.dispatch(argv), stdout/stderr captured",
         "points": "bounds ot|robust|qid|impersonation, n in [1e6, 1e15], "
                   "delta in (0, 1/4), r in [0, 1]; about 16% end in "
                   "exit 1 and 11% in exit 2",
         "tables": "curve --steps 200 and region --steps 100, csv and "
                   "json: 4 of every 50 ops"},
        ("entropy.", "hashing.", "qsim.", "protocols.")),
    Workload(
        "verify", VERIFY_CYCLE, verify_op, dict,
        {"op": "checks.verify_<suite>(seed, trials)",
         "trials": {k: v[0] for k, v in SUITE_TRIALS.items()}},
        (GAMMA, "qsim.", "protocols.")),
    Workload(
        "simulate",
        ["leak:0.3", "rot", "qid:equal", "robust", "leak:0", "qid:differ",
         "leak:1"],
        simulate_op, simulate_setup,
        {"run_rot": "n=16, ell=4, honest",
         "run_qid": "m=16, code n=8, ell=8, equal and differing passwords",
         "run_robust_rot": "n=512, ell=8, repetition-3, ph_noclick=0.3, "
                           "ph_err=0.01",
         "estimate_leakage": "n=16, ell=1, r in {0, 0.3, 1}, trials=%d"
                             % LEAKAGE_TRIALS},
        (GAMMA,), leakage_pooled),
    Workload(
        "large-n", large_n_cycle(), large_n_op, large_n_setup,
        {"run_rot": "n in {1024, 2048, 4096}, ell=n/4, honest",
         "run_robust_rot": "n in {1024, 2048, 4096}, ell=n/8, "
                           "repetition-3, ph_noclick=0.3, ph_err=0.01",
         "mix": "ops per cycle n=1024:2048:4096 = 4:2:1 per runner"},
        (GAMMA, "qsim.")),
]}


def run_op(op):
    """Call the op untimed and return (output bytes, problem or None)."""
    result = op.call()
    return op.output(result), op.check(result)
