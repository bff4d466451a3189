"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Runs every workload of BENCHMARK.json
for a handful of ops through ``run.py``, untraced and traced, and checks
that every metric named there is emitted with its unit, that every op
passed its invariants and matched its golden digest, and, in this
process, that removing the tracer's wrappers leaves every ``noisystorage``
function the identical object it was before.  Exits nonzero on failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OPS = 12


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "0", "--trace", str(trace), "--max-ops",
         str(OPS)], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError("%s trace %d exited %d: %s" % (
            workload, trace, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, "%s trace %d: metrics differ: %s" % (
                workload, trace, sorted(set(got) ^ set(want)))
            assert result["correct"] and result["failed"] == 0, result
            path = os.path.join(HERE, "out", "%s-seed0-trace%d.json"
                                % (workload, trace))
            with open(path) as fh:
                run_record = json.load(fh)["run"]
            checked = run_record["digests_checked"]
            assert checked == run_record["ops"], (workload, checked)
            assert result["attempted"] == (run_record["ops"]
                                           + run_record["pooled_checks"])
            print("ok  %-10s trace %d: %d metrics, %d digests"
                  % (workload, trace, len(got), checked))


def snapshot(tracing):
    from noisystorage.distributions import JointDistribution
    owners = tracing.package_modules() + [JointDistribution]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def check_wrappers_removed():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracing
    from workloads import WORKLOADS, run_op

    before = snapshot(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.missing, tracer.missing
        assert snapshot(tracing) != before, "install wrapped nothing"
        for w in WORKLOADS.values():
            state = w.setup()
            for index in range(2):
                run_op(w.op(state, 0, index))
    finally:
        left = tracer.remove()
    assert not left, left
    after = snapshot(tracing)
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert not changed and len(after) == len(before), changed
    assert len(tracer.span_name) > 0
    print("ok  wrappers removed: %d bindings unchanged, %d spans"
          % (len(before), len(tracer.span_name)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_runs(spec)
    check_wrappers_removed()


if __name__ == "__main__":
    main()
