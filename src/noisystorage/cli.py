"""Command-line front end: bound calculators, tables, simulations, checks.

Exit codes: 0 success, 1 invalid parameters, 2 infeasible bound (the
storage carries too much information, or no positive string length
remains), 3 internal numeric failure or a failed verification suite.
Round counts and code distances accept scientific notation (``--n 1e10``,
``--d-code 3e8``); bound commands are formula-only, simulation commands
run at desk scale.
"""

import argparse
import bisect
import functools
import json
import math
import sys

import numpy as np

from .bounds import (
    FEASIBLE_REGION_HEADER,
    RATE_CURVE_HEADER,
    BoundsError,
    OptimizationError,
    OtParams,
    PreconditionError,
    QidParams,
    RobustParams,
    StorageModel,
    _impersonation,
    _ot,
    _qid,
    _robust,
    _region_axes,
    dishonest_alice_error,
    format_value,
    rate_curve,
)
from .checks import SUITES
from .codes import qid_code, repetition_code
from .protocols import run_qid, run_robust_rot, run_rot


# Curve steps the CLI accepts: each runs one gamma optimization (about
# 0.024 ms with Python 3.11 on a shared 2-CPU VM, most of it the scalar
# golden section) and is one dict from rate_curve; each curve row and each
# region row (at most bounds.REGION_MAX_ROWS) is one formatted line (about
# 120 and 55 bytes of CSV, or 300 and 150 of JSON), held until the output
# text is joined.
CURVE_MAX_STEPS = 10_000

# Run sizes the simulate and verify commands accept.  A run's memory grows
# with its rounds (--n, or --code-n for qid, whose code keeps a parity matrix
# of about code-n squared bits), and time with the rounds of all trials.
# The robust coset table holds 2^(code-block - 1) leaders, and the qid code
# search certifies up to 200 codes over all 2^ceil(log2 m) messages.
SIMULATE_MAX_N = 100_000
QID_MAX_CODE_N = 1_024
ROBUST_MAX_CODE_BLOCK = 17
QID_MAX_PASSWORDS = 256
SIMULATE_MAX_ROUNDS = 10_000_000
VERIFY_MAX_TRIALS = 100_000

class Parser(argparse.ArgumentParser):
    """Options must be spelled in full: no prefix abbreviations."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise PreconditionError(message)


def _integer(text):
    """Parse an integer, also in scientific notation (``3e8``)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
        if value.is_integer():  # False for inf and nan
            return int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def _finite(text):
    """Parse a float that is neither infinite nor nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid float value: %r" % text) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite, got %r" % text)
    return value


def _integer_at_least(minimum, what):
    """A parser type for an integer option of at least ``minimum``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid int value: %r" % text) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "%s must be at least %d, got %d" % (what, minimum, value))
        return value
    return parse


_trial_count = _integer_at_least(1, "trial count")
_seed = _integer_at_least(0, "seed")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(pairs, fmt, out_path):
    if fmt == "json":
        text = json.dumps(dict(pairs), indent=2, allow_nan=False) + "\n"
    else:
        text = "".join("%s = %s\n" % (k, format_value(v))
                       for k, v in pairs)
    _emit(text, out_path)


def _at_most(cap, what, value, shown=None):
    """Reject a size ``value`` above ``cap``; ``shown`` is its text if set."""
    if value > cap:
        raise PreconditionError("at most %d %s, got %s" % (
            cap, what, value if shown is None else shown))


def _add_storage_args(p):
    p.add_argument("--r", type=float, required=True,
                   help="storage retention in [0, 1]")
    p.add_argument("--nu", type=float, default=1.0, help="storage rate")
    p.add_argument("--dim", type=int, default=2, help="channel dimension")


def _add_output_args(p, default_fmt="text", choices=("text", "json")):
    p.add_argument("--format", choices=choices, default=default_fmt)
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _add_run_args(p):
    p.add_argument("--trials", type=_trial_count, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="output file (default stdout)")


def build_parser():
    parser = Parser(prog="noisystorage", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="security-bound calculators")
    bounds.set_defaults(handler=_cmd_bounds)
    bsub = bounds.add_subparsers(dest="bound", required=True)

    b_ot = bsub.add_parser("ot", help="plain oblivious-transfer length")
    b_ot.add_argument("--n", type=float, required=True)
    b_ot.add_argument("--delta", type=float, required=True)
    b_ot.add_argument("--threshold", type=_finite, default=None,
                      help="acceptable error; compared against eps (the "
                           "2*eps statement verdict is shown alongside)")
    _add_storage_args(b_ot)
    _add_output_args(b_ot)

    b_rob = bsub.add_parser("robust", help="lossy/noisy oblivious transfer")
    b_rob.add_argument("--n", type=float, required=True)
    b_rob.add_argument("--delta", type=float, required=True)
    b_rob.add_argument("--threshold", type=_finite, default=None,
                       help="acceptable error; compared against eps")
    b_rob.add_argument("--p1-sent", type=float, required=True)
    b_rob.add_argument("--ph-noclick", type=float, required=True)
    b_rob.add_argument("--pd-noclick", type=float, required=True)
    b_rob.add_argument("--ph-err", type=float, required=True)
    b_rob.add_argument("--ec-variant", choices=("rounds", "error-complement"),
                       default="rounds")
    _add_storage_args(b_rob)
    _add_output_args(b_rob)

    b_qid = bsub.add_parser("qid", help="identification error")
    b_qid.add_argument("--n", type=float, required=True)
    b_qid.add_argument("--m", type=int, required=True)
    b_qid.add_argument("--delta", type=float, required=True)
    b_qid.add_argument("--ell", type=int, required=True)
    b_qid.add_argument("--d-code", type=_integer, default=None)
    _add_storage_args(b_qid)
    _add_output_args(b_qid)

    b_imp = bsub.add_parser("impersonation",
                            help="two-sided identification error")
    b_imp.add_argument("--n", type=float, required=True)
    b_imp.add_argument("--m", type=int, required=True)
    b_imp.add_argument("--delta", type=float, required=True)
    _add_storage_args(b_imp)
    _add_output_args(b_imp)

    curve = sub.add_parser("curve", help="transfer rate over a retention grid")
    curve.set_defaults(handler=_cmd_curve)
    curve.add_argument("--n", type=float, required=True)
    curve.add_argument("--delta", type=float, required=True)
    curve.add_argument("--nu", type=float, default=1.0)
    curve.add_argument("--dim", type=int, default=2)
    curve.add_argument("--r-min", type=_finite, default=0.0)
    curve.add_argument("--r-max", type=_finite, default=0.9)
    curve.add_argument("--steps", type=int, default=200)
    _add_output_args(curve, default_fmt="csv", choices=("csv", "json"))

    region = sub.add_parser("region", help="feasible (r, nu) region table")
    region.set_defaults(handler=_cmd_region)
    region.add_argument("--steps", type=int, default=100)
    region.add_argument("--r-steps", type=int, default=None)
    region.add_argument("--nu-steps", type=int, default=None)
    region.add_argument("--r-max", type=float, default=1.0)
    region.add_argument("--nu-max", type=float, default=1.0)
    region.add_argument("--dim", type=int, default=2)
    _add_output_args(region, default_fmt="csv", choices=("csv", "json"))

    sim = sub.add_parser("simulate", help="desk-scale protocol runs")
    sim.set_defaults(handler=_cmd_simulate)
    ssub = sim.add_subparsers(dest="protocol", required=True)

    s_rot = ssub.add_parser("rot", help="randomized oblivious transfer")
    s_rot.add_argument("--n", type=int, default=16)
    s_rot.add_argument("--ell", type=int, default=4)
    s_rot.add_argument("--choice", type=int, choices=(0, 1), default=0)
    _add_run_args(s_rot)

    s_rob = ssub.add_parser("robust", help="robust oblivious transfer")
    s_rob.add_argument("--n", type=int, default=512)
    s_rob.add_argument("--ell", type=int, default=8)
    s_rob.add_argument("--choice", type=int, choices=(0, 1), default=0)
    s_rob.add_argument("--delta", type=float, default=0.02)
    s_rob.add_argument("--p1-sent", type=float, default=1.0)
    s_rob.add_argument("--ph-noclick", type=float, default=0.1)
    s_rob.add_argument("--pd-noclick", type=float, default=0.0)
    s_rob.add_argument("--ph-err", type=float, default=0.01)
    s_rob.add_argument("--eps-target", type=_finite, default=1e-3)
    s_rob.add_argument("--code-block", type=int, default=3,
                       help="repetition block length for error correction")
    _add_run_args(s_rob)

    s_qid = ssub.add_parser("qid", help="password identification")
    s_qid.add_argument("--m", type=int, default=16)
    s_qid.add_argument("--code-n", type=int, default=8)
    s_qid.add_argument("--ell", type=int, default=8)
    s_qid.add_argument("--w-alice", type=int, default=1)
    s_qid.add_argument("--w-bob", type=int, default=1)
    _add_run_args(s_qid)

    verify = sub.add_parser("verify", help="randomized verification suites")
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument("suite", choices=sorted(SUITES))
    verify.add_argument("--trials", type=_trial_count, default=None)
    verify.add_argument("--seed", type=_seed, default=7)

    return parser


@functools.cache
def _parser():
    """The parser every dispatch shares, built on the first one.

    Reuse is safe because parsing keeps no state between calls:
    ``Parser.error`` raises instead of exiting, and no default is mutable.
    """
    return build_parser()


def _transfer_pairs(args, t):
    pairs = [("ell", t.ell), ("ot_rate", t.ell / args.n),
             ("eps", t.eps), ("two_eps", 2.0 * t.eps)]
    if args.threshold is None:
        return pairs
    return pairs + [
        ("threshold", args.threshold),
        ("eps_within_threshold", t.eps <= args.threshold),
        ("two_eps_within_threshold", 2.0 * t.eps <= args.threshold)]


def _cmd_bounds(args):
    storage = StorageModel(r=args.r, nu=args.nu, dim=args.dim)
    if args.bound == "ot":
        t = _ot(OtParams(n=args.n, delta=args.delta, storage=storage))
        pairs = [("gamma", t.gamma),
                 ("capacity", t.capacity)] + _transfer_pairs(args, t)
    elif args.bound == "robust":
        params = RobustParams(n=args.n, delta=args.delta, storage=storage,
                              p1_sent=args.p1_sent,
                              ph_noclick=args.ph_noclick,
                              pd_noclick=args.pd_noclick, ph_err=args.ph_err)
        t = _robust(params, args.ec_variant)
        pairs = [("m1", params.m1), ("m_total", params.m_total),
                 ("capacity", t.capacity)] + _transfer_pairs(args, t)
    elif args.bound == "qid":
        params = QidParams(n=args.n, m=args.m, delta=args.delta,
                           storage=storage, ell=args.ell, d_code=args.d_code)
        t = _qid(params)
        pairs = [("mu", params.mu), ("capacity", t.capacity),
                 ("error", t.error)]
    else:
        params = QidParams(n=args.n, m=args.m, delta=args.delta,
                           storage=storage)
        t = _impersonation(params)
        pairs = [("mu", params.mu), ("capacity", t.capacity),
                 ("ell", t.ell), ("error", t.error),
                 ("dishonest_user_error", dishonest_alice_error(args.m, t.ell))]
    _report(pairs, args.format, args.out)
    return 0


def _write_table(header, specs, lines, args):
    """Write a table as CSV, or as the bytes of json.dumps(rows, indent=2)
    for rows that hold ``header``'s keys in order.

    ``specs`` gives each column's ``%`` spec, None for a float, which CSV
    writes as "%.12g" (format_value's text) and JSON as "%r".
    ``lines(template, real)`` yields each row's text, ``template % values``
    or made from it, with ``real`` the float spec for values written ahead
    as ``%s`` text.

    No value is checked for being finite: _region_axes rejects grids with a
    non-finite cell, and every rate_curve value is finite once OtParams,
    StorageModel and _finite_exponent accept its inputs.
    """
    if args.format == "json":
        real, head, sep, tail = "%r", "[\n  ", ",\n  ", "\n]\n"
        template = "{\n    %s\n  }" % ",\n    ".join(
            "%s: %s" % (json.dumps(h), spec or real)
            for h, spec in zip(header, specs))
    else:
        real, sep, tail = "%.12g", "\n", "\n"
        head = ",".join(header) + "\n"
        template = ",".join(spec or real for spec in specs)
    body = sep.join(lines(template, real))
    if not body:
        # no rows: json.dumps writes "[]", and CSV only the header
        head, tail = ("[]\n", "") if args.format == "json" else (head, "")
    # "".join copies the joined lines once, where head + body + tail copies
    # them twice; in a long-lived process the extra copy fragments the heap
    # and leaves about 1 MB more resident
    _emit("".join((head, body, tail)), args.out)
    return 0


def _cmd_curve(args):
    if args.steps < 2:
        raise PreconditionError("need at least 2 grid steps")
    _at_most(CURVE_MAX_STEPS, "grid steps", args.steps)
    grid = np.linspace(args.r_min, args.r_max, args.steps)
    rows = rate_curve(args.n, args.delta, args.nu, grid, dim=args.dim)

    def lines(template, real):
        # every value but ell (an int) and feasible is a float, since
        # argparse makes --n and --nu floats and rate_curve writes float(r)
        for row in rows:
            *values, feasible = row.values()
            yield template % (*values, ("false", "true")[feasible])

    specs = [{"ell": "%d", "feasible": "%s"}.get(h)
             for h in RATE_CURVE_HEADER]
    return _write_table(RATE_CURVE_HEADER, specs, lines, args)


def _cmd_region(args):
    r_steps = args.steps if args.r_steps is None else args.r_steps
    nu_steps = args.steps if args.nu_steps is None else args.nu_steps
    nus, r_caps = _region_axes(r_steps, nu_steps, args.r_max, args.nu_max,
                               args.dim)

    def lines(template, real):
        # each nu text and each flag is written into a cell template once
        # per table, so that a cell is one % with the r and capacity texts
        # and the product.  Rounded products never decrease along nu (the
        # capacity is >= 0), so each r step's feasible cells come first
        feasible, infeasible = (
            [template % ("%s", real % nu, "%s", real, flag) for nu in nus]
            for flag in ("true", "false"))
        for r, cap in r_caps:
            r_text, cap_text = real % r, real % cap
            # the first infeasible cell: product >= 1/4
            first = bisect.bisect_left(nus, 0.25, key=cap.__mul__)
            for nu, cell in zip(nus, feasible[:first] + infeasible[first:]):
                yield cell % (r_text, cap_text, cap * nu)

    return _write_table(FEASIBLE_REGION_HEADER, ("%s",) * 5, lines, args)


def _run_trials(args, config, run, tallies):
    """Run ``run(seed)`` once per trial and emit the JSON report.

    Each trial gets its own ``SeedSequence`` spawned from ``--seed``,
    which the runner turns into its generator (:func:`protocols.make_rng`).
    ``run`` returns the trial's transcript and updates ``tallies``, the
    report entries that follow ``trials`` and ``seed``.
    """
    first = None
    for ts in np.random.SeedSequence(args.seed).spawn(args.trials):
        t = run(ts)
        first = first or t.to_json()
    report = {**config, "trials": args.trials, "seed": args.seed, **tallies,
              "first_transcript": json.loads(first)}
    _report(report.items(), "json", args.out)


def _cmd_simulate(args):
    if args.protocol == "qid":
        rounds, cap, option = args.code_n, QID_MAX_CODE_N, "--code-n"
        config = {"protocol": "qid", "m": args.m, "code_n": args.code_n,
                  "ell": args.ell, "w_alice": args.w_alice,
                  "w_bob": args.w_bob}
    else:
        rounds, cap, option = args.n, SIMULATE_MAX_N, "--n"
        config = {"protocol": args.protocol, "n": args.n, "ell": args.ell,
                  "choice": args.choice}
    _at_most(cap, "rounds per run (%s)" % option, rounds)
    _at_most(SIMULATE_MAX_ROUNDS, "simulated rounds (--trials x %s)" % option,
             args.trials * rounds, "%d x %d" % (args.trials, rounds))
    if args.protocol == "rot":
        tallies = {"failures": 0, "empty_choice_sets": 0}

        def run(rng):
            t = run_rot(args.n, args.ell, args.choice, rng=rng)
            target = t.s0 if args.choice == 0 else t.s1
            tallies["failures"] += not np.array_equal(t.y, target)
            tallies["empty_choice_sets"] += t.i_c_empty
            return t
    elif args.protocol == "robust":
        params = RobustParams(
            n=args.n, delta=args.delta, storage=None,
            p1_sent=args.p1_sent, ph_noclick=args.ph_noclick,
            pd_noclick=args.pd_noclick, ph_err=args.ph_err, ell=args.ell)
        _at_most(ROBUST_MAX_CODE_BLOCK,
                 "positions per code block (--code-block)", args.code_block)
        code = repetition_code(args.code_block)
        tallies = {"eps_target": args.eps_target, "aborts": 0,
                   "decode_failures": 0, "syndrome_budget_ok": None}

        def run(rng):
            t = run_robust_rot(params, code, args.choice, rng=rng,
                               eps_target=args.eps_target)
            tallies["aborts"] += t.abort
            if not t.abort:
                tallies["decode_failures"] += not t.decode_ok
                tallies["syndrome_budget_ok"] = t.budget_ok
            return t
    else:
        _at_most(QID_MAX_PASSWORDS, "passwords (--m)", args.m)
        qc = qid_code(args.m, args.code_n)
        tallies = {"accepts": 0}

        def run(rng):
            t = run_qid(args.w_alice, args.w_bob, qc, args.ell, rng=rng)
            tallies["accepts"] += t.accept
            return t
    _run_trials(args, config, run, tallies)
    if tallies.get("syndrome_budget_ok") is False:
        sys.stderr.write(
            "warning: the correction code spends more syndrome bits than "
            "the 1.2 h(ph_err) n budget assumed by the length bound\n")
    return 0


def _cmd_verify(args):
    suite = SUITES[args.suite]
    kwargs = {"seed": args.seed}
    if args.trials is not None:
        if args.suite == "codes":
            raise PreconditionError("the codes suite takes no trial count "
                                    "(--trials)")
        _at_most(VERIFY_MAX_TRIALS, "verification trials", args.trials)
        kwargs["trials"] = args.trials
    report = suite(**kwargs)
    line = "%s: %d checks, %d violations\n" % (
        report["suite"], report["checks"], report["violations"])
    sys.stdout.write(line)
    return 0 if report["violations"] == 0 else 3


def dispatch(argv):
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except BoundsError as exc:
        sys.stderr.write("infeasible: %s\n" % exc)
        return 2
    except (OptimizationError, ArithmeticError) as exc:
        sys.stderr.write("numeric failure: %s\n" % exc)
        return 3


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
