import argparse
import contextlib
import csv
import io
import json
import math
import types
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisystorage import bounds, checks, cli, codes, entropy, hashing
from noisystorage.cli import dispatch

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
    assert "syndrome bits" in err


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
]


@pytest.mark.parametrize("argv, diagnostic", OUT_OF_RANGE_BOUNDS,
                         ids=range(len(OUT_OF_RANGE_BOUNDS)))
def test_out_of_range_bound_inputs_exit_1(capsys, argv, diagnostic):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert diagnostic in err


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


@pytest.mark.parametrize("eps_target", ["0", "-1"])
def test_simulate_robust_rejects_eps_target_outside_unit_interval(
        capsys, eps_target):
    code, out, err = run_cli(capsys, "simulate", "robust", "--trials", "1",
                             "--eps-target", eps_target)
    assert code == 1
    assert err == "error: eps_target must lie in (0, 1]\n"
    assert out == ""


def test_table_grid_caps_admit_documented_sizes():
    assert cli.CURVE_MAX_STEPS >= 200
    assert cli.REGION_MAX_ROWS >= 100 * 100


@pytest.mark.parametrize("argv, diagnostic", [
    (("curve", "--n", "1e10", "--delta", "0.0106", "--steps", "10001"),
     "at most 10000 grid steps, got 10001"),
    (("region", "--steps", "501"),
     "at most 250000 region rows (r steps x nu steps), got 501 x 501"),
    (("region", "--r-steps", "1000", "--nu-steps", "251"),
     "at most 250000 region rows (r steps x nu steps), got 1000 x 251"),
    (("region", "--steps", "2", "--nu-steps", "125001", "--format", "json"),
     "got 2 x 125001"),
])
def test_table_grids_above_cap_exit_1(capsys, tmp_path, argv, diagnostic):
    out_file = tmp_path / "table.out"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 1
    assert err.startswith("error: ")
    assert diagnostic in err
    assert "Traceback" not in err
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("rows", [
    [],
    [{"r": 0, "nu": 0.5, "capacity": 1e-300, "product": -0.0,
      "feasible": True}],
    bounds.feasible_region(3, 2),
])
def test_json_tables_equal_indented_json_dumps(capsys, rows):
    args = argparse.Namespace(format="json", out=None)
    header = bounds.FEASIBLE_REGION_HEADER
    assert cli._rows_out(rows, header, args) == 0
    assert capsys.readouterr().out == json.dumps(rows, indent=2) + "\n"


def test_table_rows_follow_their_header():
    # _rows_out encodes each row as it is, so key order is the header's
    rows = bounds.rate_curve(1e10, 0.0106, 1.0, [0.1, 0.9])
    rows += bounds.rate_curve(1e10, 0.0106, 1.0, [0.1], dim=3)
    assert all(list(row) == list(bounds.RATE_CURVE_HEADER) for row in rows)
    rows = bounds.feasible_region(3, 2, dim=3)
    assert all(list(row) == list(bounds.FEASIBLE_REGION_HEADER)
               for row in rows)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_tables_reject_non_finite_values(capsys, value):
    args = argparse.Namespace(format="json", out=None)
    with pytest.raises(ValueError):
        cli._rows_out([{"r": 0.5}, {"r": value}], ("r",), args)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("zero, other", [("--r-steps", "--nu-steps"),
                                         ("--nu-steps", "--r-steps")])
def test_region_zero_axis_steps_exit_1(capsys, tmp_path, zero, other):
    argv = ("region", zero, "0", other, "3")
    assert run_cli(capsys, *argv) == (
        1, "", "error: grids need at least 2 steps per axis\n")
    out_file = tmp_path / "region.csv"
    assert run_cli(capsys, *argv, "--out", str(out_file))[0] == 1
    assert not out_file.exists()


def test_table_grid_caps_are_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "CURVE_MAX_STEPS", 3)
    monkeypatch.setattr(cli, "REGION_MAX_ROWS", 6)
    curve = ("curve", "--n", "1e10", "--delta", "0.0106", "--steps")
    code, out, _ = run_cli(capsys, *curve, "3")
    assert code == 0
    assert len(out.splitlines()) == 1 + 3
    assert run_cli(capsys, *curve, "4")[0] == 1
    code, out, _ = run_cli(capsys, "region", "--r-steps", "2",
                           "--nu-steps", "3")
    assert code == 0
    assert len(out.splitlines()) == 1 + 6
    assert run_cli(capsys, "region", "--r-steps", "2",
                   "--nu-steps", "4")[0] == 1
    assert run_cli(capsys, "region", "--steps", "3")[0] == 1


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


@pytest.fixture
def no_simulation_work(monkeypatch):
    """Replace every runner, both code builders and the suites by stubs."""
    for name in ("run_rot", "run_robust_rot", "run_qid", "qid_code",
                 "repetition_code"):
        monkeypatch.setattr(cli, name, _unreached)
    for suite in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, suite, _unreached)


@pytest.mark.parametrize("argv, diagnostic", [
    # reproduced: numpy's allocation error, and gf2.nullspace's MemoryError
    (("simulate", "rot", "--n", "1000000000000", "--trials", "1"),
     "at most 100000 rounds per run (--n), got 1000000000000"),
    (("simulate", "robust", "--n", "1000000000000"),
     "at most 100000 rounds per run (--n), got 1000000000000"),
    (("simulate", "qid", "--code-n", "100000000"),
     "at most 1024 rounds per run (--code-n), got 100000000"),
    (("simulate", "rot", "--n", "100000", "--trials", "100000000"),
     "at most 10000000 simulated rounds (--trials x --n), "
     "got 100000000 x 100000"),
    (("verify", "split", "--trials", "1000000000000"),
     "at most 100000 verification trials, got 1000000000000"),
    # one past each cap
    (("simulate", "rot", "--n", "100001", "--trials", "1"),
     "at most 100000 rounds per run (--n), got 100001"),
    (("simulate", "robust", "--n", "100001", "--trials", "1"),
     "at most 100000 rounds per run (--n), got 100001"),
    (("simulate", "qid", "--code-n", "1025", "--trials", "1"),
     "at most 1024 rounds per run (--code-n), got 1025"),
    (("simulate", "robust", "--n", "100000", "--trials", "101"),
     "at most 10000000 simulated rounds (--trials x --n), got 101 x 100000"),
    (("simulate", "rot", "--n", "1", "--ell", "1", "--trials", "10000001"),
     "got 10000001 x 1"),
    (("simulate", "qid", "--code-n", "1000", "--trials", "10001"),
     "at most 10000000 simulated rounds (--trials x --code-n), "
     "got 10001 x 1000"),
    (("verify", "split", "--trials", "100001"),
     "at most 100000 verification trials, got 100001"),
    (("verify", "pa", "--trials", "100001"),
     "at most 100000 verification trials, got 100001"),
    # reproduced: gf2.nullspace's allocation error, and a code search that
    # ran past 30 s
    (("simulate", "robust", "--code-block", "100000", "--trials", "1"),
     "at most 17 positions per code block (--code-block), got 100000"),
    (("simulate", "qid", "--m", "1048576", "--code-n", "40", "--trials", "1"),
     "at most 256 passwords (--m), got 1048576"),
    (("simulate", "qid", "--m", "65536", "--code-n", "40", "--trials", "1"),
     "at most 256 passwords (--m), got 65536"),
    # one past each code cap
    (("simulate", "robust", "--code-block", "18", "--trials", "1"),
     "at most 17 positions per code block (--code-block), got 18"),
    (("simulate", "qid", "--m", "257", "--code-n", "1024", "--trials", "1"),
     "at most 256 passwords (--m), got 257"),
])
def test_run_sizes_above_cap_exit_1(capsys, tmp_path, no_simulation_work,
                                    argv, diagnostic):
    extra = ("--out", str(tmp_path / "report.json")) if argv[0] == "simulate" \
        else ()
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 1
    assert err.startswith("error: ")
    assert diagnostic in err
    assert "Traceback" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("simulate", "rot", "--n", "100000", "--trials", "1"),
    ("simulate", "robust", "--n", "100000", "--trials", "100"),
    ("simulate", "qid", "--code-n", "1024", "--trials", "1"),
    ("simulate", "qid", "--code-n", "1000", "--trials", "10000"),
    ("simulate", "robust", "--code-block", "17", "--trials", "1"),
    ("simulate", "qid", "--m", "256", "--code-n", "1024", "--trials", "1"),
])
def test_run_size_caps_admit_their_boundary(capsys, no_simulation_work,
                                            argv):
    with pytest.raises(_Reached):
        dispatch(list(argv))


def test_verify_trial_cap_admits_its_boundary(capsys, monkeypatch):
    seen = []

    def suite(**kwargs):
        seen.append(kwargs)
        return {"suite": "split", "checks": 0, "violations": 0}

    monkeypatch.setitem(cli.SUITES, "split", suite)
    assert run_cli(capsys, "verify", "split", "--trials", "100000")[0] == 0
    assert seen == [{"seed": 7, "trials": 100_000}]


def test_run_size_caps_are_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SIMULATE_MAX_N", 20)
    monkeypatch.setattr(cli, "QID_MAX_CODE_N", 9)
    monkeypatch.setattr(cli, "SIMULATE_MAX_ROUNDS", 40)
    monkeypatch.setattr(cli, "VERIFY_MAX_TRIALS", 2)
    rot = ("simulate", "rot", "--n")
    assert run_cli(capsys, *rot, "20", "--trials", "2")[0] == 0
    assert run_cli(capsys, *rot, "21", "--trials", "1")[0] == 1
    assert run_cli(capsys, *rot, "20", "--trials", "3")[0] == 1
    qid = ("simulate", "qid", "--code-n")
    assert run_cli(capsys, *qid, "9", "--trials", "4")[0] == 0
    assert run_cli(capsys, *qid, "10", "--trials", "1")[0] == 1
    assert run_cli(capsys, *qid, "9", "--trials", "5")[0] == 1
    monkeypatch.setattr(cli, "ROBUST_MAX_CODE_BLOCK", 5)
    monkeypatch.setattr(cli, "QID_MAX_PASSWORDS", 4)
    robust = ("simulate", "robust", "--n", "20", "--delta", "0.24", "--ell",
              "1", "--trials", "1", "--code-block")
    assert run_cli(capsys, *robust, "5")[0] == 0
    assert run_cli(capsys, *robust, "6")[0] == 1
    passwords = ("simulate", "qid", "--trials", "1", "--m")
    assert run_cli(capsys, *passwords, "4")[0] == 0
    assert run_cli(capsys, *passwords, "5")[0] == 1
    verify = ("verify", "lemma4", "--trials")
    code, out, _ = run_cli(capsys, *verify, "2")
    assert code == 0
    assert out.startswith("lemma4: ") and out.endswith(", 0 violations\n")
    assert run_cli(capsys, *verify, "3")[0] == 1


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
