import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import tracemalloc
import types
import warnings
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noisystorage import bounds, checks, cli, codes, entropy, hashing
from noisystorage.cli import dispatch
from reference import reference_verify_codes
from test_readme import BUDGET_WARNING

OT_ARGS = ("bounds", "ot", "--n", "1e10", "--delta", "0.0106", "--r", "0.1")
ROBUST_ARGS = ("bounds", "robust", "--n", "1e10", "--delta", "0.005",
               "--r", "0.1", "--p1-sent", "1.0", "--ph-noclick", "0.6",
               "--pd-noclick", "0.05", "--ph-err", "0.01")
QID_ARGS = ("bounds", "qid", "--n", "1e9", "--m", "16", "--delta", "0.2",
            "--ell", "1000", "--r", "0.1")
IMPERSONATION_ARGS = ("bounds", "impersonation", "--n", "1e8", "--m", "2",
                      "--delta", "0.2", "--r", "0.1")
CURVE_ARGS = ("curve", "--n", "1e10", "--delta", "0.0106")
# an integer of 401 digits, which has no float value
HUGE_INT = "1" + "0" * 400


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_ot_prints_both_errors(capsys):
    code, out, _ = run_cli(capsys, "bounds", "ot", "--n", "1e10",
                           "--delta", "0.0106", "--nu", "1", "--r", "0.1")
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["eps"]) == pytest.approx(5.675412297e-9, rel=1e-6)
    assert float(values["two_eps"]) == pytest.approx(1.135082459e-8, rel=1e-6)
    assert float(values["ell"]) > 0
    assert set(values) == {"gamma", "capacity", "ell", "ot_rate", "eps",
                           "two_eps"}


def test_bounds_ot_threshold_verdicts(capsys):
    code, out, _ = run_cli(capsys, "bounds", "ot", "--n", "1e10",
                           "--delta", "0.0106", "--r", "0.1",
                           "--threshold", "1e-8")
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    # the one-sided error meets the threshold, the 2x statement error
    # does not; both verdicts are visible
    assert values["eps_within_threshold"] == "true"
    assert values["two_eps_within_threshold"] == "false"


def test_bounds_ot_json_format(capsys):
    code, out, _ = run_cli(capsys, "bounds", "ot", "--n", "1e10",
                           "--delta", "0.0106", "--r", "0.0",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ot_rate"] == pytest.approx(0.1197, abs=1e-3)


def test_bounds_ot_infeasible_exit_2(capsys):
    code, _, err = run_cli(capsys, "bounds", "ot", "--n", "1e10",
                           "--delta", "0.0106", "--r", "1.0")
    assert code == 2
    assert "infeasible" in err


def test_bounds_ot_invalid_parameter_exit_1(capsys):
    code, _, err = run_cli(capsys, "bounds", "ot", "--n", "1e10",
                           "--delta", "0.3", "--r", "0.1")
    assert code == 1
    assert "delta" in err
    code, _, err = run_cli(capsys, "bounds", "ot", "--n", "10",
                           "--delta", "0.01", "--r", "0.1")
    assert code == 1
    assert "4/delta" in err


def test_bounds_ot_unknown_flag_exit_1(capsys):
    code, _, err = run_cli(capsys, "bounds", "ot", "--bogus", "1")
    assert code == 1


def test_bounds_robust(capsys):
    code, out, _ = run_cli(capsys, "bounds", "robust", "--n", "1e10",
                           "--delta", "0.005", "--r", "0.1",
                           "--p1-sent", "1.0", "--ph-noclick", "0.6",
                           "--pd-noclick", "0.05", "--ph-err", "0.01")
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["m1"]) == pytest.approx(4.5e9)
    assert float(values["ell"]) > 0


def test_bounds_qid_and_impersonation(capsys):
    outs = []
    for d_code in ("300000000", "3e8"):
        code, out, _ = run_cli(capsys, "bounds", "qid", "--n", "1e9", "--m",
                               "16", "--delta", "0.2", "--ell", "1000",
                               "--d-code", d_code, "--r", "0.1")
        assert code == 0
        assert "error = " in out
        outs.append(out)
    assert outs[1] == outs[0]
    code, out, _ = run_cli(capsys, "bounds", "impersonation", "--n", "1e8",
                           "--m", "2", "--delta", "0.2", "--r", "0.1")
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert 0.0 < float(values["error"]) < 1.0
    assert float(values["dishonest_user_error"]) <= float(values["error"])


def test_region_csv_boundary(capsys, tmp_path):
    out_file = tmp_path / "region.csv"
    code, _, _ = run_cli(capsys, "region", "--steps", "100",
                         "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert rows[0].keys() == {"r", "nu", "capacity", "product", "feasible"}
    nu1 = [row for row in rows if float(row["nu"]) == 1.0]
    flips = [(float(a["r"]), float(b["r"])) for a, b in zip(nu1, nu1[1:])
             if a["feasible"] == "true" and b["feasible"] == "false"]
    assert len(flips) == 1
    assert flips[0][0] < 0.571 < flips[0][1] + 0.02


def test_curve_csv_schema_and_rate(capsys, tmp_path):
    out_file = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "curve", "--n", "1e10", "--delta", "0.0106",
                         "--nu", "1", "--steps", "50", "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert list(rows[0].keys()) == ["r", "nu", "n", "delta", "gamma",
                                    "capacity", "ell", "ot_rate", "eps",
                                    "two_eps", "feasible"]
    assert float(rows[0]["ot_rate"]) == pytest.approx(0.1197, abs=1e-3)
    feasible_rates = [float(r["ot_rate"]) for r in rows
                      if r["feasible"] == "true"]
    assert all(b < a for a, b in zip(feasible_rates, feasible_rates[1:]))


def test_curve_rejects_delta_out_of_range(capsys, tmp_path):
    out_file = tmp_path / "empty.csv"
    for delta in ("0.3", "0.25", "0", "-0.1"):
        code, out, err = run_cli(capsys, "curve", "--n", "1e10", "--delta",
                                 delta, "--steps", "10", "--out",
                                 str(out_file))
        assert code == 1
        assert "delta must lie in (0, 1/4)" in err
        assert out == ""
        assert not out_file.exists()


def test_outputs_byte_identical_for_same_seed(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "simulate", "rot", "--n", "12",
                             "--ell", "3", "--trials", "20", "--seed", "9",
                             "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rot_reports_zero_failures(capsys):
    code, out, _ = run_cli(capsys, "simulate", "rot", "--n", "16", "--ell",
                           "4", "--trials", "50", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    assert report["first_transcript"]["n"] == 16


def test_simulate_robust(capsys):
    code, out, err = run_cli(capsys, "simulate", "robust", "--n", "256",
                             "--delta", "0.02", "--ph-noclick", "0.05",
                             "--ph-err", "0.01", "--trials", "30",
                             "--seed", "4")
    assert code == 0
    report = json.loads(out)
    assert report["aborts"] <= 2
    assert report["decode_failures"] <= 3
    # a 1/3-rate repetition code overspends the syndrome budget at 1%
    # errors; that is allowed but must be called out
    assert report["syndrome_budget_ok"] is False
    assert err == BUDGET_WARNING


@pytest.mark.parametrize("protocol", ["rot", "robust", "qid"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_simulate_rejects_nonpositive_trials(capsys, protocol, trials):
    code, out, err = run_cli(capsys, "simulate", protocol, "--trials", trials)
    assert code == 1
    assert "trial count must be at least 1" in err
    assert "Traceback" not in err
    assert out == ""


def test_simulate_qid(capsys):
    code, out, _ = run_cli(capsys, "simulate", "qid", "--m", "16",
                           "--code-n", "8", "--ell", "8", "--w-alice", "3",
                           "--w-bob", "3", "--trials", "40", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["accepts"] == 40
    code, out, _ = run_cli(capsys, "simulate", "qid", "--m", "16",
                           "--code-n", "8", "--ell", "8", "--w-alice", "3",
                           "--w-bob", "7", "--trials", "40", "--seed", "5")
    assert json.loads(out)["accepts"] <= 1


def test_simulate_qid_random_code_digest(capsys):
    # no catalog code has 12 bits for 8 passwords, so qid_code reaches
    # random_code, whose 200 generators come from one padded draw
    code, out, err = run_cli(capsys, "simulate", "qid", "--m", "8",
                             "--code-n", "12", "--ell", "8", "--w-alice", "3",
                             "--w-bob", "5", "--seed", "7")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4d79e05fe298129bc909742a7008ad90d60493ed9d6506dbdde9d7381cc21167")


def test_verify_suites_pass(capsys):
    for suite, trials in (("split", "300"), ("hashing", "50"),
                          ("pa", "60"), ("lemma4", "40")):
        code, out, _ = run_cli(capsys, "verify", suite, "--trials", trials,
                               "--seed", "7")
        assert code == 0, suite
        assert "0 violations" in out
    code, out, _ = run_cli(capsys, "verify", "codes")
    assert code == 0
    assert "0 violations" in out


def test_verify_split_admits_a_guessing_weight_past_one(capsys):
    # the 8th m = 2 table's guessing weight sums to 1 + 1 ulp; before the
    # clamp its H_min(X1 X2 | Z) read -3.2e-16 and split_multi raised
    # "alpha must be nonnegative"
    code, out, err = run_cli(capsys, "verify", "split", "--seed", "668426143",
                             "--trials", "32")
    assert (code, out, err) == (0, "split: 56 checks, 0 violations\n", "")


def test_verify_codes_catches_a_wrong_distance(capsys):
    # the distance check has its own oracle, so an enumeration that is off
    # by one fails the suite instead of agreeing with itself
    minimum = codes._min_weight
    with mock.patch.object(codes, "_min_weight",
                           lambda generator: minimum(generator) - 1):
        report = checks.verify_codes()
        code, out, _ = run_cli(capsys, "verify", "codes")
    assert report["checks"] == 253
    assert report["violations"] > 0
    assert code == 3
    assert "0 violations" not in out


def _no_correction(code, received, target):
    """A decoder that corrects nothing: a word passes iff it had no error."""
    return received


def test_verify_codes_outcomes_equal_the_per_word_loop(monkeypatch):
    # the correct decoder passes every word; one that corrects nothing
    # fails exactly the words drawn with errors, so the lists also pin
    # which word got which draw
    for seed in range(50):
        outcomes = list(checks.verify_codes.__wrapped__(seed))
        assert outcomes == reference_verify_codes(seed)
        assert len(outcomes) == 253 and all(outcomes)
    monkeypatch.setattr(checks, "syndrome_decode", _no_correction)
    for seed in range(50):
        outcomes = list(checks.verify_codes.__wrapped__(seed))
        assert outcomes == reference_verify_codes(seed, _no_correction)
        assert 0 < outcomes.count(False) < 240


def test_verify_codes_counts_one_miscorrected_word_once(monkeypatch):
    # one wrong word in one stack is one violation, not one per stack
    decode, stacks = codes.syndrome_decode, []

    def one_wrong(code, received, target):
        fixed = decode(code, received, target)
        if not stacks:
            fixed[17, 0] ^= 1
        stacks.append(fixed.shape)
        return fixed

    monkeypatch.setattr(checks, "syndrome_decode", one_wrong)
    with mock.patch.object(checks, "encode", wraps=codes.encode) as encode, \
            mock.patch.object(checks, "syndrome",
                              wraps=codes.syndrome) as syndrome:
        report = checks.verify_codes()
    assert report == {"suite": "codes", "checks": 253, "violations": 1}
    assert [shape[0] for shape in stacks] == [40] * 6
    assert encode.call_count == syndrome.call_count == 6


def test_verify_unknown_suite_exit_1(capsys):
    code, _, _ = run_cli(capsys, "verify", "nonsense")
    assert code == 1


def test_verify_rejects_vacuous_trial_counts(capsys):
    for trials in ("0", "-1"):
        code, out, err = run_cli(capsys, "verify", "split", "--trials", trials)
        assert code == 1
        assert "trial count must be at least 1" in err
        assert out == ""
    code, out, err = run_cli(capsys, "verify", "codes", "--trials", "5")
    assert code == 1
    assert "codes suite takes no trial count" in err
    assert out == ""


def _achieved(value):
    return lambda *args, **kwargs: types.SimpleNamespace(achieved=value)


# suite, --trials, the checks module name stubbed, the stub's value and the
# report line: every check that reads the stub fails
FORCED_FAILURES = [
    ("split", "4", "split_binary", _achieved(-math.inf),
     "split: 7 checks, 4 violations\n"),
    ("hashing", "2", "collision_bound", lambda n, ell: 1.0,
     "hashing: 17 checks, 15 violations\n"),
    ("pa", "2", "pa_distance", lambda *args, **kwargs: (1.0, 0.0),
     "pa: 2 checks, 2 violations\n"),
    ("lemma4", "2", "psucc_classical", lambda channel, k: 2.0 ** -1000,
     "lemma4: 8 checks, 8 violations\n"),
    ("codes", None, "min_distance", lambda code: -1,
     "codes: 253 checks, 6 violations\n"),
]
# the same checks fed NaN: no guarantee holds, so each NaN is a violation
FORCED_NANS = [
    ("split", "4", "split_binary", _achieved(math.nan),
     "split: 7 checks, 4 violations\n"),
    ("hashing", "2", "collision_bound", lambda n, ell: math.nan,
     "hashing: 17 checks, 15 violations\n"),
    ("pa", "2", "pa_distance", lambda *args, **kwargs: (math.nan, 0.5),
     "pa: 2 checks, 2 violations\n"),
    ("lemma4", "2", "psucc_classical", lambda channel, k: math.nan,
     "lemma4: 8 checks, 8 violations\n"),
]


@pytest.mark.parametrize("suite, trials, name, stub, line",
                         FORCED_FAILURES + FORCED_NANS,
                         ids=[case[0] for case in FORCED_FAILURES]
                         + [case[0] + "-nan" for case in FORCED_NANS])
def test_verify_counts_failed_checks(capsys, monkeypatch, suite, trials,
                                     name, stub, line):
    monkeypatch.setattr(checks, name, stub)
    argv = ("verify", suite) + (("--trials", trials) if trials else ())
    assert run_cli(capsys, *argv) == (3, line, "")


@pytest.mark.parametrize("trials", [1, 3])
def test_verify_pa_computes_each_guarantee_once_per_instance(trials):
    with mock.patch.object(checks, "pa_distance",
                           wraps=hashing.pa_distance) as pa, \
            mock.patch.object(hashing, "min_entropy",
                              wraps=entropy.min_entropy) as h_min:
        report = checks.verify_pa(trials=trials, seed=11)
    assert report == {"suite": "pa", "checks": trials, "violations": 0}
    assert pa.call_count == h_min.call_count == trials
    assert all(call.kwargs["sample_count"] == 16
               for call in pa.call_args_list)


@pytest.mark.parametrize("argv, diagnostic", [
    (OT_ARGS + ("--n", "nan"), "n must be finite"),
    (OT_ARGS + ("--n", "inf"), "n must be finite"),
    (OT_ARGS + ("--nu", "nan"), "nu must be finite"),
    (ROBUST_ARGS + ("--n", "nan"), "n must be finite"),
    (ROBUST_ARGS + ("--n", "inf"), "n must be finite"),
    (QID_ARGS + ("--n", "nan"), "n must be finite"),
    (QID_ARGS + ("--nu", "nan"), "nu must be finite"),
    (("curve", "--n", "1e10", "--delta", "0.0106", "--nu", "nan"),
     "nu must be finite"),
    (OT_ARGS + ("--threshold", "nan", "--format", "json"),
     "--threshold: must be finite"),
    (("simulate", "robust", "--eps-target", "nan"),
     "--eps-target: must be finite"),
    (("region", "--nu-max", "-1"), "nu must be positive"),
    (("region", "--nu-max", "nan", "--format", "json"), "nu must be finite"),
    *(((*command, "--seed", "-1"),
       "argument --seed: seed must be at least 0, got -1")
      for command in (("simulate", "rot"), ("simulate", "robust"),
                      ("simulate", "qid"), ("verify", "split"))),
])
def test_non_finite_and_negative_inputs_exit_1(capsys, argv, diagnostic):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert diagnostic in err
    assert "Traceback" not in err
    assert out == ""


NU_OVERFLOW = "rate R = inf per use of storage at rate nu = 9.99989e-321"
NO_FLOAT_DIM = "channel dimension dim has no finite float value"
# bound inputs whose float overflowed before they were rejected, and a code
# distance above the code length
OUT_OF_RANGE_BOUNDS = [
    (OT_ARGS[:4] + ("--delta", "1e-320", "--r", "0.1"), "n >= 4/delta"),
    (CURVE_ARGS[:3] + ("--delta", "1e-320"), "n >= 4/delta"),
    *((argv + ("--nu", "1e-320"), NU_OVERFLOW) for argv in (
        OT_ARGS, ROBUST_ARGS, QID_ARGS, IMPERSONATION_ARGS, CURVE_ARGS)),
    (OT_ARGS + ("--nu", "1e-303"), "rate R = 2.394e+302 per use"),
    (OT_ARGS + ("--dim", HUGE_INT), NO_FLOAT_DIM),
    (CURVE_ARGS + ("--dim", HUGE_INT), NO_FLOAT_DIM),
    (("region", "--steps", "10", "--dim", HUGE_INT), NO_FLOAT_DIM),
    (QID_ARGS + ("--d-code", "3e9"),
     "d_code = 3000000000 exceeds the code length n = 1e+09"),
    (QID_ARGS + ("--d-code", HUGE_INT), "exceeds the code length"),
    # region grids whose top nu step, or its product, overflows a float,
    # or whose smallest nu step rounds to 0
    *((("region", "--steps", "2", *grid, "--format", fmt), diagnostic)
      for grid, diagnostic in [
          (("--nu-max", "1e308"), "the top nu step is inf"),
          (("--nu-max", "1e307", "--dim", "1" + "0" * 21),
           "the top nu step is 1e+307 and its product capacity * nu is inf"),
          (("--nu-max", "5e-324"), "the smallest nu step is 0.0")]
      for fmt in ("csv", "json")),
    # m1 = (1.0 - 0.0 + 0.5) * 1.7e308 overflows to inf
    (("bounds", "robust", "--n", "1.7e308", "--delta", "0.005", "--r", "0.1",
      "--p1-sent", "1.0", "--ph-noclick", "0.0", "--pd-noclick", "0.5",
      "--ph-err", "0.01"),
     "error: m1 = (p1_sent - ph_noclick + pd_noclick) * n must be finite, "
     "got inf at n = 1.7e+308\n"),
]


@pytest.mark.parametrize("argv, diagnostic", OUT_OF_RANGE_BOUNDS,
                         ids=range(len(OUT_OF_RANGE_BOUNDS)))
def test_out_of_range_bound_inputs_exit_1(capsys, tmp_path, argv,
                                          diagnostic):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert diagnostic in err
    out_file = tmp_path / "bound.out"
    assert run_cli(capsys, *argv, "--out", str(out_file)) == (1, "", err)
    assert not out_file.exists()


@pytest.mark.parametrize("argv, diagnostic", [
    (OT_ARGS + ("--thresh", "1e-8"), "unrecognized arguments: --thresh 1e-8"),
    (OT_ARGS + ("--delt", "0.01"), "unrecognized arguments: --delt 0.01"),
    (OT_ARGS[:4] + ("--delt", "0.01", "--r", "0.1"),
     "the following arguments are required: --delta"),
    (("simulate", "rot", "--see", "3"), "unrecognized arguments: --see 3"),
], ids=["thresh", "delt-extra", "delt-alone", "simulate"])
def test_abbreviated_options_exit_1(capsys, argv, diagnostic):
    # a prefix of a documented option is not that option
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: %s\n" % diagnostic


@pytest.mark.parametrize("argv, option", [
    (("simulate", "rot", "--format", "json"), "--format json"),
    (("simulate", "robust", "--r", "0.2"), "--r 0.2"),
    (("simulate", "robust", "--nu", "1"), "--nu 1"),
])
def test_simulate_takes_no_format_or_storage_options(capsys, argv, option):
    # simulate writes JSON only, and an honest robust run stores nothing
    code, out, err = run_cli(capsys, *argv, "--trials", "1")
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: %s\n" % option


def test_simulate_parsers_count_their_options():
    counts = {protocol: len(_options(cli.build_parser(),
                                     ("simulate", protocol))) + 1
              for protocol in ("rot", "robust", "qid")}  # + 1: --out
    assert counts == {"rot": 6, "robust": 13, "qid": 8}


@pytest.mark.parametrize("argv", [OT_ARGS, ROBUST_ARGS, IMPERSONATION_ARGS])
def test_bounds_transfer_evaluates_gamma_and_capacity_once(capsys,
                                                           monkeypatch, argv):
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("strong_converse_exponent", "depolarizing_capacity"):
        wrapper = counted(name, getattr(bounds, name))
        for module in (bounds, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == {"strong_converse_exponent": 1,
                     "depolarizing_capacity": 1}


# n = 40 at this noise aborts on seed 0, so an unchecked ell went unread
ROBUST_ABORTING = ("simulate", "robust", "--n", "40", "--delta", "0.24",
                   "--ph-noclick", "0.5", "--eps-target", "1", "--trials", "1")


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("ell", ["0", "41"])
def test_simulate_robust_rejects_ell_outside_round_count(capsys, ell, seed):
    code, out, err = run_cli(capsys, *ROBUST_ABORTING, "--ell", ell,
                             "--seed", seed)
    assert code == 1
    assert err == "error: need 1 <= ell <= n\n"
    assert out == ""


@pytest.mark.parametrize("argv, budget_ok", [
    # each 3-position block spends 2 syndrome bits of the 1.2 h(0.2) 3 = 2.60
    # budgeted
    (("simulate", "robust", "--ph-err", "0.2", "--trials", "5"), True),
    # no trial completes, so no budget is reported and none is warned about
    ((*ROBUST_ABORTING, "--ell", "1", "--seed", "0"), None),
])
def test_simulate_robust_warns_only_on_an_overspent_budget(capsys, argv,
                                                           budget_ok):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["syndrome_budget_ok"] is budget_ok


@pytest.mark.parametrize("eps_target", ["0", "-1"])
def test_simulate_robust_rejects_eps_target_outside_unit_interval(
        capsys, eps_target):
    code, out, err = run_cli(capsys, "simulate", "robust", "--trials", "1",
                             "--eps-target", eps_target)
    assert code == 1
    assert err == "error: eps_target must lie in (0, 1]\n"
    assert out == ""


@pytest.mark.parametrize("rows", [
    [],
    [{"r": 0, "nu": 0.5, "capacity": 1e-300, "product": -0.0,
      "feasible": True}],
    bounds.feasible_region(3, 2),
])
def test_json_tables_equal_indented_json_dumps(capsys, rows):
    def lines(template, real):
        for row in rows:
            *values, feasible = row.values()
            yield template % (*values, ("false", "true")[feasible])

    args = argparse.Namespace(format="json", out=None)
    header = bounds.FEASIBLE_REGION_HEADER
    specs = (None, None, None, None, "%s")
    assert cli._write_table(header, specs, lines, args) == 0
    assert capsys.readouterr().out == json.dumps(rows, indent=2) + "\n"
    # CSV is rows_to_csv's text, which for no rows is the header line alone
    args.format = "csv"
    assert cli._write_table(header, specs, lines, args) == 0
    assert capsys.readouterr().out == bounds.rows_to_csv(rows, header)


def test_table_rows_follow_their_header():
    # the curve writer takes each row's values in order, and the reference
    # writers encode each row as it is, so key order is the header's
    rows = bounds.rate_curve(1e10, 0.0106, 1.0, [0.1, 0.9])
    rows += bounds.rate_curve(1e10, 0.0106, 1.0, [0.1], dim=3)
    assert all(list(row) == list(bounds.RATE_CURVE_HEADER) for row in rows)
    rows = bounds.feasible_region(3, 2, dim=3)
    assert all(list(row) == list(bounds.FEASIBLE_REGION_HEADER)
               for row in rows)


# each column's type and values; True, 1 and 1.0 sit in different columns,
# "zero" holds both signs of zero, and "edge" a few floats whose shortest
# text is long or far from 1
TABLE_COLUMNS = {
    "zero": (float, st.sampled_from([0.0, -0.0, 1e-300, -2.5])),
    "flag": (bool, st.booleans()),
    "count": (int, st.integers(-10 ** 20, 10 ** 20)),
    "real": (float, st.floats(allow_nan=False, allow_infinity=False)),
    "edge": (float, st.sampled_from([0.1, 1 / 3, 2.0 ** -1074, 1e22])),
}
TABLE_HEADER = tuple(TABLE_COLUMNS)


@st.composite
def table_rows(draw):
    return [{h: draw(values) for h, (_, values) in TABLE_COLUMNS.items()}
            for _ in range(draw(st.integers(0, 12)))]


@settings(max_examples=300, deadline=None)
@given(table_rows(), st.sampled_from(["csv", "json"]))
@example([{"zero": 0.0, "flag": True, "count": 1, "real": 1.0, "edge": 0.1},
          {"zero": -0.0, "flag": False, "count": 10 ** 20, "real": -0.0,
           "edge": 1e22}], "csv")
def test_table_writers_equal_their_references(rows, fmt):
    # each column's spec comes from its type, as _cmd_curve's does: a float
    # takes the writer's own float spec, an int "%d" and a flag its text
    specs = [{float: None, int: "%d", bool: "%s"}[kind]
             for kind, _ in TABLE_COLUMNS.values()]

    def lines(template, real):
        for row in rows:
            yield template % tuple(("false", "true")[v] if type(v) is bool
                                   else v for v in row.values())

    args = argparse.Namespace(format=fmt, out=None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli._write_table(TABLE_HEADER, specs, lines, args) == 0
    if fmt == "csv":
        expected = bounds.rows_to_csv(rows, TABLE_HEADER)
    else:
        expected = json.dumps(rows, indent=2) + "\n"
    assert out.getvalue() == expected


@pytest.mark.parametrize("argv, cap_mib", [
    (("curve", "--n", "1e10", "--delta", "0.0106", "--steps",
      str(cli.CURVE_MAX_STEPS)), 12),
    (("region", "--steps", "100", "--format", "json"), 7),
    (("region", "--steps", "100"), 3),
], ids=["curve", "region", "region-csv"])
def test_table_memory_stays_capped(capsys, argv, cap_mib):
    # with their output captured, these peak at 10.0 MiB (curve), where one
    # unchunked (steps x scan points) float array is 13.8 MiB, and at
    # 4.3 MiB (region JSON) and 1.6 MiB (region CSV), written from the grid's
    # axes; through one dict per region row they peaked at 9.7 and 4.2 MiB
    tracemalloc.start()
    try:
        code = dispatch(list(argv))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().err == ""
    assert peak < cap_mib * 2 ** 20


def test_region_prints_a_zero_capacity_for_useless_storage(capsys):
    # at r = 0 the dim-3 capacity's float sum is -2.2e-16
    code, out, _ = run_cli(capsys, "region", "--steps", "2", "--dim", "3")
    assert code == 0
    assert out.splitlines() == ["r,nu,capacity,product,feasible",
                                "0,0.5,0,0,true", "0,1,0,0,true",
                                "1,0.5,1.58496250072,0.792481250361,false",
                                "1,1,1.58496250072,1.58496250072,false"]


@settings(max_examples=200, deadline=None)
@given(r_steps=st.integers(2, 40), nu_steps=st.integers(2, 40),
       r_max=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       nu_max=st.floats(5e-324, 1e300),
       dim=st.sampled_from([2, 3, 13, 1000, 10 ** 18]),
       fmt=st.sampled_from(["csv", "json"]))
# the dim-3 rows with a zero capacity at r = 0, an unequal grid each way, a
# product of exactly 1/4 (r = 1, nu = 1/4), and --r-max 0
@example(r_steps=2, nu_steps=2, r_max=1.0, nu_max=1.0, dim=3, fmt="csv")
@example(r_steps=2, nu_steps=2, r_max=1.0, nu_max=1.0, dim=3, fmt="json")
@example(r_steps=2, nu_steps=7, r_max=0.9, nu_max=2.5, dim=2, fmt="json")
@example(r_steps=7, nu_steps=2, r_max=0.9, nu_max=2.5, dim=13, fmt="csv")
@example(r_steps=2, nu_steps=4, r_max=1.0, nu_max=1.0, dim=2, fmt="csv")
@example(r_steps=3, nu_steps=4, r_max=0.0, nu_max=1.0, dim=2, fmt="csv")
@example(r_steps=3, nu_steps=4, r_max=0.0, nu_max=1.0, dim=2, fmt="json")
# a smallest nu step that rounds to 0, and a subnormal one that does not
@example(r_steps=2, nu_steps=2, r_max=1.0, nu_max=5e-324, dim=2, fmt="csv")
@example(r_steps=2, nu_steps=40, r_max=1.0, nu_max=4e-322, dim=2, fmt="json")
# where the writer bisects each r step for its first infeasible cell: rows
# feasible throughout (r = 0, capacity 0, up to nu = 1e300), a row
# infeasible throughout (r = 1, from nu = 1/2 on), and a row whose
# neighbouring products straddle 1/4 (one ulp below it, then 1/2)
@example(r_steps=2, nu_steps=5, r_max=0.0, nu_max=1e300, dim=2, fmt="csv")
@example(r_steps=2, nu_steps=5, r_max=0.0, nu_max=1e300, dim=2, fmt="json")
@example(r_steps=2, nu_steps=4, r_max=1.0, nu_max=2.0, dim=2, fmt="csv")
@example(r_steps=2, nu_steps=4, r_max=1.0, nu_max=2.0, dim=2, fmt="json")
@example(r_steps=2, nu_steps=2, r_max=1.0, nu_max=0.49999999999999994,
         dim=2, fmt="csv")
@example(r_steps=2, nu_steps=2, r_max=1.0, nu_max=0.49999999999999994,
         dim=2, fmt="json")
def test_region_writer_equals_the_row_writers(r_steps, nu_steps, r_max,
                                              nu_max, dim, fmt):
    # the region table is written from its axes; the row writers over
    # feasible_region's dicts are the reference
    argv = ["region", "--r-steps", str(r_steps), "--nu-steps", str(nu_steps),
            "--r-max", repr(r_max), "--nu-max", repr(nu_max),
            "--dim", str(dim), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    if nu_max / nu_steps == 0.0:  # a nu step that StorageModel rejects
        assert (code, out.getvalue()) == (1, "")
        assert "the smallest nu step is 0.0" in err.getvalue()
        with pytest.raises(bounds.PreconditionError,
                           match="smallest nu step is 0.0"):
            bounds.feasible_region(r_steps, nu_steps, r_max, nu_max, dim)
        return
    assert (code, err.getvalue()) == (0, "")
    rows = bounds.feasible_region(r_steps, nu_steps, r_max, nu_max, dim)
    if fmt == "csv":
        expected = bounds.rows_to_csv(rows, bounds.FEASIBLE_REGION_HEADER)
    else:
        expected = json.dumps(rows, indent=2) + "\n"
    assert out.getvalue() == expected


@settings(max_examples=200, deadline=None)
@given(r_steps=st.integers(2, 40), nu_steps=st.integers(2, 40),
       r_max=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       nu_max=st.floats(5e-324, 1e300),
       dim=st.sampled_from([2, 3, 13, 1000, 10 ** 18]))
def test_region_products_never_decrease_along_nu(r_steps, nu_steps, r_max,
                                                 nu_max, dim):
    # the precondition of the region writer's bisection for each r step's
    # first infeasible cell
    try:
        nus, r_caps = bounds._region_axes(r_steps, nu_steps, r_max, nu_max,
                                          dim)
    except bounds.PreconditionError:  # a nu step that rounds to 0
        assume(False)
    for _, cap in r_caps:
        products = [cap * nu for nu in nus]
        assert products == sorted(products)


@settings(max_examples=200, deadline=None)
@given(steps=st.integers(2, 40), delta=st.floats(1e-6, 0.249),
       log_n=st.floats(1.0, 30.0),
       nu=st.one_of(st.sampled_from([1e-300, 1.0]), st.floats(1e-300, 1e3)),
       r_min=st.one_of(st.sampled_from([-0.0, 0.0, 1.0]),
                       st.floats(0.0, 1.0)),
       r_max=st.one_of(st.sampled_from([-0.0, 0.0, 1.0]),
                       st.floats(0.0, 1.0)),
       dim=st.sampled_from([2, 3, 13, 1000, 10 ** 18]),
       fmt=st.sampled_from(["csv", "json"]))
# infeasible rows (ell 0, false) from r = 2/3 on, gamma = 2.394e+299 at
# nu = 1e-300, and --r-min -0
@example(steps=7, delta=0.0106, log_n=10.0, nu=1.0, r_min=0.0, r_max=1.0,
         dim=2, fmt="csv")
@example(steps=7, delta=0.0106, log_n=10.0, nu=1.0, r_min=0.0, r_max=1.0,
         dim=2, fmt="json")
@example(steps=3, delta=0.0106, log_n=10.0, nu=1e-300, r_min=0.0,
         r_max=0.9, dim=2, fmt="json")
@example(steps=3, delta=0.0106, log_n=10.0, nu=1.0, r_min=-0.0, r_max=0.9,
         dim=3, fmt="csv")
def test_curve_writer_equals_the_row_writers(steps, delta, log_n, nu, r_min,
                                             r_max, dim, fmt):
    # the curve table is written by one line template per row; the row
    # writers over rate_curve's dicts are the reference
    n = float(max(math.ceil(4.0 / delta), 10.0 ** log_n))
    argv = ["curve", "--steps", str(steps), "--n", repr(n),
            "--delta", repr(delta), "--nu", repr(nu), "--r-min", repr(r_min),
            "--r-max", repr(r_max), "--dim", str(dim), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert (code, err.getvalue()) == (0, "")
    rows = bounds.rate_curve(n, delta, nu, np.linspace(r_min, r_max, steps),
                             dim=dim)
    # "%.12g" is format_value's text for a float only, and "%d" for an int
    for row in rows:
        kinds = {type(v) for h, v in row.items()
                 if h not in ("ell", "feasible")}
        assert kinds == {float}
        assert (type(row["ell"]), type(row["feasible"])) == (int, bool)
    if fmt == "csv":
        expected = bounds.rows_to_csv(rows, bounds.RATE_CURVE_HEADER)
    else:
        expected = json.dumps(rows, indent=2, allow_nan=False) + "\n"
    assert out.getvalue() == expected


@pytest.mark.parametrize("zero, other", [("--r-steps", "--nu-steps"),
                                         ("--nu-steps", "--r-steps")])
def test_region_zero_axis_steps_exit_1(capsys, tmp_path, zero, other):
    argv = ("region", zero, "0", other, "3")
    assert run_cli(capsys, *argv) == (
        1, "", "error: grids need at least 2 steps per axis\n")
    out_file = tmp_path / "region.csv"
    assert run_cli(capsys, *argv, "--out", str(out_file))[0] == 1
    assert not out_file.exists()


@pytest.mark.parametrize("r_steps, nu_steps", [("-1000", "-1000"),
                                               ("-1", "300000"),
                                               ("0", "300000")])
def test_region_axes_without_steps_are_rejected_before_the_cap(
        capsys, r_steps, nu_steps):
    # the row cap counts only grids whose axes both have steps
    assert run_cli(capsys, "region", "--r-steps", r_steps,
                   "--nu-steps", nu_steps) == (
        1, "", "error: grids need at least 2 steps per axis\n")


def test_run_size_caps_admit_documented_sizes():
    # README: rot n=16 x 10000 trials, robust n=512, qid code n=8, verify
    # split 10000 trials; the benchmark's largest runner is n=4096
    assert cli.SIMULATE_MAX_N >= 4096
    assert cli.QID_MAX_CODE_N >= 8
    assert cli.ROBUST_MAX_CODE_BLOCK >= 3
    assert cli.QID_MAX_PASSWORDS >= 16
    assert cli.SIMULATE_MAX_ROUNDS >= max(16 * 10_000, 100 * 4096)
    assert cli.VERIFY_MAX_TRIALS >= 10_000


class _Reached(Exception):
    """Raised by stand-ins for the work a size cap guards."""


def _unreached(*args, **kwargs):
    raise _Reached(args, kwargs)


class Cap(NamedTuple):
    """A CLI size cap, by the ``<module>.<NAME>`` of its constant."""

    constant: str
    # the largest size the README runs, or the benchmark where it runs
    # larger: n = 4096, at the default 100 trials
    documented: int
    at: tuple  # argv at the cap: admitted, it reaches the stubbed work
    message: str  # the diagnostic past the cap, with %s for the value got
    # (argv, got) past the cap, each exiting 1 with the diagnostic and no
    # output file: one past, then any reproduced size far past it
    past: tuple


ROT, ROBUST, QID = (("simulate", p) for p in ("rot", "robust", "qid"))
CURVE_STEPS = CURVE_ARGS + ("--steps",)
ROUNDS = "at most 100000 rounds per run (--n), got %s"
SIMULATED_ROUNDS = "at most 10000000 simulated rounds (--trials x %s), got %s"
# The sizes far past the run caps reproduce numpy's allocation error
# (--n), gf2.nullspace's MemoryError (--code-n) and allocation error
# (--code-block), and a code search that ran past 30 s (--m).
CAPS = [
    Cap("cli.CURVE_MAX_STEPS", 200, CURVE_STEPS + ("10000",),
        "at most 10000 grid steps, got %s",
        ((CURVE_STEPS + ("10001",), "10001"),)),
    Cap("bounds.REGION_MAX_ROWS", 100 * 100, ("region", "--steps", "500"),
        "at most 250000 region rows (r steps x nu steps), got %s",
        ((("region", "--r-steps", "2", "--nu-steps", "125001", "--format",
            "json"), "2 x 125001"),
         (("region", "--steps", "501"), "501 x 501"),
         (("region", "--r-steps", "1000", "--nu-steps", "251"),
          "1000 x 251"))),
    Cap("cli.SIMULATE_MAX_N", 4096, ROT + ("--n", "100000", "--trials", "1"),
        ROUNDS, ((ROT + ("--n", "100001", "--trials", "1"), "100001"),
                 (ROT + ("--n", "1000000000000", "--trials", "1"),
                  "1000000000000"))),
    Cap("cli.SIMULATE_MAX_N", 512, ROBUST + ("--n", "100000", "--trials", "1"),
        ROUNDS, ((ROBUST + ("--n", "100001", "--trials", "1"), "100001"),
                 (ROBUST + ("--n", "1000000000000"), "1000000000000"))),
    Cap("cli.QID_MAX_CODE_N", 8, QID + ("--code-n", "1024", "--trials", "1"),
        "at most 1024 rounds per run (--code-n), got %s",
        ((QID + ("--code-n", "1025", "--trials", "1"), "1025"),
         (QID + ("--code-n", "100000000"), "100000000"))),
    Cap("cli.SIMULATE_MAX_ROUNDS", 16 * 10_000,
        ROT + ("--n", "100000", "--trials", "100"),
        SIMULATED_ROUNDS % ("--n", "%s"),
        ((ROT + ("--n", "100000", "--trials", "101"), "101 x 100000"),
         (ROT + ("--n", "1", "--ell", "1", "--trials", "10000001"),
          "10000001 x 1"),
         (ROT + ("--n", "100000", "--trials", "100000000"),
          "100000000 x 100000"))),
    Cap("cli.SIMULATE_MAX_ROUNDS", 100 * 4096,
        ROBUST + ("--n", "100000", "--trials", "100"),
        SIMULATED_ROUNDS % ("--n", "%s"),
        ((ROBUST + ("--n", "100000", "--trials", "101"), "101 x 100000"),)),
    Cap("cli.SIMULATE_MAX_ROUNDS", 8 * 100,
        QID + ("--code-n", "1000", "--trials", "10000"),
        SIMULATED_ROUNDS % ("--code-n", "%s"),
        ((QID + ("--code-n", "1000", "--trials", "10001"), "10001 x 1000"),)),
    Cap("cli.ROBUST_MAX_CODE_BLOCK", 3,
        ROBUST + ("--code-block", "17", "--trials", "1"),
        "at most 17 positions per code block (--code-block), got %s",
        ((ROBUST + ("--code-block", "18", "--trials", "1"), "18"),
         (ROBUST + ("--code-block", "100000", "--trials", "1"), "100000"))),
    Cap("cli.QID_MAX_PASSWORDS", 16,
        QID + ("--m", "256", "--code-n", "1024", "--trials", "1"),
        "at most 256 passwords (--m), got %s",
        ((QID + ("--m", "257", "--code-n", "1024", "--trials", "1"), "257"),
         (QID + ("--m", "65536", "--code-n", "40", "--trials", "1"), "65536"),
         (QID + ("--m", "1048576", "--code-n", "40", "--trials", "1"),
          "1048576"))),
    Cap("cli.VERIFY_MAX_TRIALS", 10_000,
        ("verify", "split", "--trials", "100000"),
        "at most 100000 verification trials, got %s",
        ((("verify", "split", "--trials", "100001"), "100001"),
         (("verify", "pa", "--trials", "100001"), "100001"),
         (("verify", "split", "--trials", "1000000000000"),
          "1000000000000"))),
]


def _cap_id(cap, argv):
    command = argv[1] if argv[0] in ("simulate", "verify") else argv[0]
    return "%s-%s" % (cap.constant.split(".")[1], command)


PAST_CAPS = [pytest.param(argv, cap.message % got,
                          id="%s-%s" % (_cap_id(cap, argv), got))
             for cap in CAPS for argv, got in cap.past]


@pytest.fixture
def no_capped_work(monkeypatch):
    """Replace the work each cap guards by stubs that raise _Reached: the
    runners, both code builders, the suites, rate_curve and the table
    writer."""
    for name in ("run_rot", "run_robust_rot", "run_qid", "qid_code",
                 "repetition_code", "rate_curve", "_write_table"):
        monkeypatch.setattr(cli, name, _unreached)
    for suite in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, suite, _unreached)


@pytest.mark.parametrize("cap", CAPS, ids=[_cap_id(cap, cap.at)
                                           for cap in CAPS])
def test_caps_admit_their_boundary_and_documented_size(no_capped_work, cap):
    module, name = cap.constant.split(".")
    assert getattr({"cli": cli, "bounds": bounds}[module],
                   name) >= cap.documented
    with pytest.raises(_Reached):
        dispatch(list(cap.at))


@pytest.mark.parametrize("argv, diagnostic", PAST_CAPS)
def test_past_a_cap_exits_1_before_the_work(capsys, tmp_path, no_capped_work,
                                            argv, diagnostic):
    extra = () if argv[0] == "verify" else ("--out", str(tmp_path / "out"))
    assert run_cli(capsys, *argv, *extra) == (1, "",
                                               "error: %s\n" % diagnostic)
    assert list(tmp_path.iterdir()) == []


def _options(parser, path):
    """The option strings of the subcommand at ``path``.

    The walk stops at a positional choice, such as the suite of ``verify``.
    """
    for name in path:
        sub = next((a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)), None)
        if sub is None:
            break
        parser = sub.choices[name]
    return sorted(opt for a in parser._actions for opt in a.option_strings
                  if opt not in ("-h", "--help", "--out"))


FUZZ_BASES = {
    ("bounds", "ot"): OT_ARGS[2:],
    ("bounds", "robust"): ROBUST_ARGS[2:],
    ("bounds", "qid"): QID_ARGS[2:],
    ("bounds", "impersonation"): IMPERSONATION_ARGS[2:],
    ("curve",): ("--n", "1e10", "--delta", "0.0106", "--steps", "20"),
    ("region",): ("--steps", "10"),
    ("simulate", "rot"): ("--n", "8", "--ell", "2", "--trials", "2"),
    ("simulate", "robust"): ("--n", "256", "--trials", "2"),
    ("simulate", "qid"): ("--m", "4", "--code-n", "6", "--ell", "3",
                          "--trials", "2"),
    ("verify", "split"): ("--trials", "2"),
    ("verify", "hashing"): ("--trials", "2"),
    ("verify", "pa"): ("--trials", "2"),
    ("verify", "lemma4"): ("--trials", "2"),
    ("verify", "codes"): ("--seed", "3"),
}
FUZZ_OPTIONS = {path: _options(cli.build_parser(), path)
                for path in FUZZ_BASES}
FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "1", "2", "1e400", "-0.0",
               "0.1", "0.2", "0.25", "0.9", "1.5", "16", "1000", "1e10",
               "3e8", "3e9", "1e-300", "1e-320", "5e-324", HUGE_INT,
               "garbage", "", "json", "text", "csv", "rounds",
               "error-complement"]
# the values of the valid base argvs, drawn so that fuzzed runs go past parsing
BASE_VALUES = sorted({v for base in FUZZ_BASES.values()
                      for v in base if not v.startswith("--")})
FUZZ_STEPS = ["nan", "-1", "0", "1", "2", "3", "300", "1e400", "garbage"]
FUZZ_TRIALS = ["nan", "-1", "0", "1", "2", "3", "1e400", "garbage", ""]
PREFIXES = {1: "error: ", 2: "infeasible: ", 3: "numeric failure: "}
# the optimizers' own non-convergence is the only numeric failure left
NUMERIC_FAILURES = {PREFIXES[3] + text + "\n" for text in (
    "binary entropy inversion did not converge",
    "exponent bracket did not reach tolerance")}

# The work a fuzzed command really runs.  Above these sizes a stand-in
# raises _Reached instead, which means the command admitted its input.
FUZZ_WORK = {
    "run_rot": lambda n, *args, **kwargs: n <= 1024,
    "run_robust_rot": lambda params, *args, **kwargs: params.n <= 1024,
    "qid_code": lambda m, n: n <= 64,
    "repetition_code": lambda n: n <= 12,
}
FUZZ_MAX_TRIALS = 8
# the reproduced unbounded runs, both sides of every run-size cap, the
# out-of-range ell that an aborting robust run used to accept, and the bound
# inputs that overflowed a float or exceeded the code length
FUZZ_EXAMPLES = [
    *(list(argv) for argv, _ in OUT_OF_RANGE_BOUNDS),
    ["curve", "--n", "1e10", "--delta", "0.0106", "--r-min", "inf"],
    ["simulate", "rot", "--n", "1000000000000", "--trials", "1"],
    ["simulate", "robust", "--n", "1000000000000"],
    ["simulate", "qid", "--code-n", "100000000"],
    ["simulate", "rot", "--n", "100000", "--trials", "100000000"],
    ["verify", "split", "--trials", "1000000000000"],
    ["simulate", "robust", "--code-block", "100000", "--trials", "1"],
    ["simulate", "qid", "--m", "1048576", "--code-n", "40", "--trials", "1"],
    ["simulate", "qid", "--m", "65536", "--code-n", "40", "--trials", "1"],
    ["simulate", "rot", "--n", "100000", "--trials", "1"],
    ["simulate", "rot", "--n", "100001", "--trials", "1"],
    ["simulate", "robust", "--n", "100000", "--trials", "100"],
    ["simulate", "robust", "--n", "100000", "--trials", "101"],
    ["simulate", "qid", "--code-n", "1024", "--trials", "1"],
    ["simulate", "qid", "--code-n", "1025", "--trials", "1"],
    ["simulate", "qid", "--code-n", "1000", "--trials", "10000"],
    ["simulate", "qid", "--code-n", "1000", "--trials", "10001"],
    ["simulate", "robust", "--code-block", "17", "--trials", "1"],
    ["simulate", "robust", "--code-block", "18", "--trials", "1"],
    ["simulate", "qid", "--m", "256", "--trials", "1"],
    ["simulate", "qid", "--m", "257", "--trials", "1"],
    ["verify", "split", "--trials", "100000"],
    ["verify", "split", "--trials", "100001"],
    [*ROBUST_ABORTING, "--ell", "0", "--seed", "0"],
    [*ROBUST_ABORTING, "--ell", "41", "--seed", "0"],
    # abbreviated options, which are not those options
    [*OT_ARGS, "--thr", "1e-8"],
    ["simulate", "rot", "--tri", "2"],
    [*CURVE_ARGS, "--r", "0.1"],
]


def _gated(work, fits):
    def gate(*args, **kwargs):
        if not fits(*args, **kwargs):
            raise _Reached(args, kwargs)
        return work(*args, **kwargs)
    return gate


@st.composite
def fuzz_argvs(draw):
    path = draw(st.sampled_from(sorted(FUZZ_BASES)))
    argv = list(path)
    if draw(st.integers(0, 3)):
        argv += FUZZ_BASES[path]
    for _ in range(draw(st.integers(0, 4))):
        option = draw(st.sampled_from(FUZZ_OPTIONS[path]))
        if len(option) > 3 and draw(st.integers(0, 9)) == 0:
            option = option[:draw(st.integers(3, len(option) - 1))]
        argv.append(option)
        if draw(st.integers(0, 9)) == 0:
            continue  # the value is missing
        if option.endswith("steps"):
            argv.append(draw(st.sampled_from(FUZZ_STEPS)))
        elif option == "--trials":
            argv.append(draw(st.sampled_from(FUZZ_TRIALS)))
        else:
            argv.append(draw(st.one_of(st.sampled_from(FUZZ_VALUES),
                                       st.sampled_from(BASE_VALUES),
                                       st.integers(-2, 40).map(str),
                                       st.floats(0.0, 1.0).map(repr),
                                       st.floats().map(repr))))
    return argv


def _abbreviates(argv):
    """Whether a token of ``argv`` is a strict prefix of one of its
    command's options without being one itself (``--n`` is one beside
    ``--nu``)."""
    path = next(p for p in FUZZ_BASES if tuple(argv[:len(p)]) == p)
    options = FUZZ_OPTIONS[path]
    return any(token.startswith("--") and token not in options
               and any(option.startswith(token) for option in options)
               for token in argv)


def _with_examples(test):
    for argv in FUZZ_EXAMPLES:
        test = example(argv)(test)
    return test


@settings(max_examples=500, deadline=None, derandomize=True)
@_with_examples
@given(fuzz_argvs())
def test_cli_fuzz_exits_with_documented_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught, \
            pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("always")
        for name, fits in FUZZ_WORK.items():
            mp.setattr(cli, name, _gated(getattr(cli, name), fits))
        for suite, run in cli.SUITES.items():
            mp.setitem(cli.SUITES, suite, _gated(
                run, lambda suite=suite, **kwargs: suite == "codes"
                or kwargs.get("trials", math.inf) <= FUZZ_MAX_TRIALS))
        try:
            code = dispatch(argv)
        except _Reached:
            code = None  # admitted into work too large to run here
    assert not caught  # a warning would reach stderr ahead of the diagnostic
    assert "Traceback" not in err.getvalue()
    if _abbreviates(argv):
        assert code == 1
    if code is None:
        assert out.getvalue() == ""
        return
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith(PREFIXES[code])
    if code == 3:
        assert err.getvalue() in NUMERIC_FAILURES
