"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh,
single-threaded worker process (``worker.py``) against the checkout's
``src`` tree; nothing needs installing.  ``--workload all`` runs the four
workloads one after another.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric
(see ``BENCHMARK.json``).  A result file with the same numbers plus their
provenance goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "noisystorage")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("bounds-cli", "verify", "simulate", "large-n")
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_ONLY_RUNS = 6   # fresh set-ups besides the measured worker's own
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(argv):
    """Run one worker to its end.

    Returns the seconds from its start to ``READY``, the machine-speed
    scale it printed right after, and the rest of its stdout.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + argv
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    scale = [ln for ln in rest.splitlines() if ln.startswith("SCALE ")]
    if line.strip() != "READY" or not scale or proc.returncode != 0:
        raise BenchError("worker %s exited %s before reporting"
                         % (" ".join(argv), proc.returncode))
    return setup_s, float(scale[0].split()[1]), rest


def run_worker(workload, seed, seconds, trace, max_ops):
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_ONLY_RUNS):
            setups.append(start_worker(base + ["--setup-only"])[:2])
    setup_s, scale, rest = start_worker(base + [
        "--seconds", str(seconds), "--trace", str(trace),
        "--max-ops", str(max_ops)])
    setups.append((setup_s, scale))
    results = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not results:
        raise BenchError("worker for %s printed no result" % workload)
    payload = json.loads(results[-1][len("RESULT "):])
    # each set-up is scaled by the reference timed right after it
    payload["setup_wall_s"] = [wall for wall, _ in setups]
    payload["setup_samples_s"] = [wall * scale for wall, scale in setups]
    return payload


def source_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def provenance(payload, trace):
    return {"git_commit": git_commit(), "source_sha256": source_digest(),
            "workload": payload["workload"], "seed": payload["seed"],
            "trace": trace, "input_sizes": payload["sizes"],
            "python": payload["python"], "numpy": payload["numpy"],
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "thread_caps": THREAD_CAPS, "machine": platform.machine(),
            "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def end_to_end(payload):
    ops, failed = payload["ops"], payload["failed"]
    return {
        "ops_per_s": (payload["ops_per_s"], "1/s"),
        "op_p50_ms": (payload["op_p50_ms"], "ms"),
        "op_p99_ms": (payload["op_p99_ms"], "ms"),
        "setup_s": (statistics.median(payload["setup_samples_s"]), "s"),
        "peak_rss_mb": (payload["peak_rss_mb"], "MB"),
        "ok_op_ratio": ((ops - failed) / ops if ops else 0.0, "ratio"),
    }


def problems(payload):
    found = ["op %d (%s): %s" % tuple(f) for f in payload.get("failures", [])]
    found += ["run-wide check %s: %s" % tuple(f)
              for f in payload.get("pooled_failures", [])]
    if payload.get("warmup_problem"):
        found.append("warm-up op: %s" % payload["warmup_problem"])
    for name in payload.get("missing_layers", []):
        found.append("traced layer %s no longer exists" % name)
    for name, calls in payload.get("bypass_calls", {}).items():
        found.append("%s was called %d times; this workload should bypass it"
                     % (name, calls))
    for name in payload.get("not_restored", []):
        found.append("wrapper left in place at %s" % name)
    return found


def report(payload, trace):
    """Print the human-readable lines and write the result file."""
    ops = payload["ops"]
    if trace:
        metrics = payload["layers"]
        lines = ["%s seed %d: %d ops untraced, %d traced"
                 % (payload["workload"], payload["seed"],
                    payload["untraced"]["ops"], payload["traced"]["ops"])]
        shares = sorted(((v[0], k) for k, v in metrics.items()
                         if k.endswith(".self_share")), reverse=True)
        lines += ["  %-22s %6.1f%% of traced op time" % (k, 100 * v)
                  for v, k in shares]
    else:
        metrics = end_to_end(payload)
        lines = ["%s seed %d: %d ops, %d digests checked"
                 % (payload["workload"], payload["seed"], ops,
                    payload["digests_checked"])]
        wall = payload["wall"]
        notes = {"ops_per_s": "wall clock %.6g" % wall["ops_per_s"],
                 "op_p50_ms": "%d samples; wall clock %.6g"
                              % (ops, wall["op_p50_ms"]),
                 "op_p99_ms": "%d samples, %d beyond; wall clock %.6g"
                              % (ops, payload["samples_beyond_p99"],
                                 wall["op_p99_ms"]),
                 "setup_s": "median of %d fresh processes; wall clock %.6g"
                            % (len(payload["setup_samples_s"]),
                               statistics.median(payload["setup_wall_s"]))}
        lines += ["  %-15s %.6g %s %s" % (k, v, u, "(%s)" % notes[k]
                                          if k in notes else "")
                  for k, (v, u) in metrics.items()]
        lines.append("  %-15s %.6g ratio (%d of %d ops)"
                     % ("failed_op_ratio", payload["failed"] / max(ops, 1),
                        payload["failed"], ops))
    found = problems(payload)
    lines += ["  FAILED: " + p for p in found]
    print("\n".join(lines), flush=True)

    os.makedirs(OUT, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (payload["workload"], payload["seed"],
                                       trace)
    record = {"provenance": provenance(payload, trace),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "problems": found, "run": payload}
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    return metrics, not found


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=0,
                    help="run exactly this many ops instead of --seconds")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0 and args.max_ops <= 0:
        ap.error("need --seconds > 0 or --max-ops > 0")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.exit("error: no noisystorage sources at %s; run from the root "
                 "of a full checkout" % PACKAGE)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {}
    correct = True
    attempted = failed = 0
    try:
        for name in names:
            payload = run_worker(name, args.seed, args.seconds, args.trace,
                                 args.max_ops)
            metrics, ok = report(payload, args.trace)
            correct = correct and ok
            # run-wide checks count as attempts beside the ops
            attempted += payload["ops"] + payload["pooled_checks"]
            failed += payload["failed"] + len(payload["pooled_failures"])
            prefix = "" if len(names) == 1 else name + "."
            combined.update({prefix + k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()})
    except BenchError as exc:
        sys.exit("error: %s" % exc)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))


if __name__ == "__main__":
    main()
