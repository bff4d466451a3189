"""One workload in a fresh process: set up, run the closed loop, report.

``run.py`` starts this script with the checkout's ``src`` on PYTHONPATH and
thread pools capped at 1, and times it from process start until it prints
``READY``: that interval is the set-up time.  The loop then runs one op at
a time (one client, closed loop) for the given seconds and prints one
``RESULT <json>`` line.

With ``--trace 1`` the seconds are split: the first half runs untraced,
the second half with every traced layer wrapped, so the tracing overhead
is the ratio of the two halves' throughput.

Machine speed: on a shared machine the same work can take 25% more or less
time from one minute to the next, because other tenants contend for the
cores.  So every 10 ms of op time the loop also times a fixed reference
kernel that shares no code with ``noisystorage``.  Each op's wall time is
scaled by NOMINAL_REF_S / (the rolling median reference time around it):
the reported times are what the op would take on a machine running the
reference at its nominal speed.  The raw wall-clock figures are reported
beside them.  Right after ``READY`` the worker also prints ``SCALE``, the
same ratio measured then, which ``run.py`` applies to the set-up time.
"""

import argparse
import hashlib
import json
import math
import mmap
import os
import platform
import resource
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "perfbench", "golden.json")
OUT = os.path.join(ROOT, "perfbench", "out")

# reference kernel time on a quiet 2.1 GHz Xeon
NOMINAL_REF_S = 9.1e-4
REF_EVERY_S = 0.01       # op time between two reference timings
REF_WINDOW = 7           # reference timings in one rolling median
REF_MAP_BYTES = 1 << 20  # fresh memory the kernel maps and touches
_REF_SMALL = np.linspace(0.0, 1.0, 64)
_REF_BUFFER = np.empty(64)
_REF_MATRIX = (np.arange(96 * 2048) % 3 == 0).astype(np.int64).reshape(96, -1)
_REF_VECTOR = (np.arange(2048) % 2).astype(np.int64)
_REF_PRODUCT = np.empty(96, dtype=np.int64)


def reference_kernel():
    """Fixed work sharing no code with noisystorage, in the kinds the ops
    do: an interpreted float loop, small numpy calls, a GF(2)
    matrix-vector product on int64 arrays too big for the L1 cache, and
    page faults on fresh memory.

    It allocates nothing through malloc: the numpy calls write into
    buffers made at import, and the fresh memory is an anonymous mapping
    of its own, made by mmap(2) and unmapped right after.  So its
    speed follows the machine, not the malloc state the ops leave behind
    (which block sizes glibc maps fresh and which it reuses).
    """
    total = 0.0
    for i in range(2000):
        total += math.sqrt(i)
    x = _REF_BUFFER
    np.copyto(x, _REF_SMALL)
    for _ in range(40):
        np.add(x, 1.0, out=x)
        np.sqrt(x, out=x)
    y = _REF_PRODUCT
    np.matmul(_REF_MATRIX, _REF_VECTOR, out=y)
    np.remainder(y, 2, out=y)
    with mmap.mmap(-1, REF_MAP_BYTES) as fresh:
        pages = np.frombuffer(fresh, dtype=np.uint8)
        pages[::mmap.PAGESIZE] = 1
        touched = int(pages[::mmap.PAGESIZE].sum())
        del pages  # the mapping cannot close while a view exports it
    return total + float(x[0]) + int(y.sum()) + touched


def time_reference(repeats=2):
    """Fastest of a few back-to-back runs, so that what the last op left
    in the caches does not count."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def reference_scale(count=REF_WINDOW):
    """NOMINAL_REF_S / the median of ``count`` reference timings."""
    return NOMINAL_REF_S / float(
        np.median([time_reference() for _ in range(count)]))


def speed_factors(n_ops, refs):
    """NOMINAL_REF_S / local reference time, for each op of a loop.

    ``refs`` holds (number of ops done, reference time) pairs in loop
    order; an op takes the rolling median of the references around the
    one timed just before it.
    """
    at = np.array([p for p, _ in refs])
    val = np.array([v for _, v in refs])
    half = REF_WINDOW // 2
    local = np.array([np.median(val[max(0, j - half):j + half + 1])
                      for j in range(len(val))])
    slot = np.searchsorted(at, np.arange(n_ops), side="right") - 1
    slot = np.clip(slot, 0, len(val) - 1)
    return NOMINAL_REF_S / local[slot]


def load_golden(workload, seed):
    from workloads import DEFAULT_SEED
    if seed != DEFAULT_SEED:
        return []
    with open(GOLDEN) as fh:
        return json.load(fh)["workloads"][workload]


def digest(data):
    return hashlib.sha256(data).hexdigest()


def evaluate(op, result, index, golden):
    """The op's broken invariant or digest mismatch, or None."""
    try:
        problem = op.check(result)
        if problem is None and index < len(golden):
            if digest(op.output(result)) != golden[index]:
                problem = "output differs from the golden digest"
    except Exception as exc:  # an unreadable output fails the op
        problem = "check raised %r" % exc
    return problem


def run_loop(w, state, seed, start, seconds, max_ops, golden, tracer=None):
    """Ops from ``start`` until time or ``max_ops`` runs out.

    Only the public call is timed; generating inputs, checking outputs and
    hashing them happen outside the timed interval.
    """
    clock = time.perf_counter
    times = []
    failures = []
    refs = [(0, time_reference())]
    since_ref = 0.0
    deadline = clock() + seconds
    index = start
    while (index - start < max_ops) if max_ops else clock() < deadline:
        op = w.op(state, seed, index)
        if tracer is not None:
            tracer.op[0] = index
        t0 = clock()
        try:
            result = op.call()
        except Exception as exc:  # a raising op is a failed op, not a crash
            elapsed = clock() - t0
            problem = "raised %r" % exc
        else:
            elapsed = clock() - t0
            problem = evaluate(op, result, index, golden)
        if tracer is not None:
            tracer.op[0] = -1
        times.append(elapsed)
        if problem:
            failures.append([index, op.kind, problem])
        index += 1
        since_ref += elapsed
        if since_ref >= REF_EVERY_S:
            refs.append((len(times), time_reference()))
            since_ref = 0.0
    times = np.array(times)
    scaled = times * speed_factors(len(times), refs)
    return times, scaled, failures


def timing(times):
    busy = float(times.sum())
    p50, p99 = np.percentile(times, [50, 99]) * 1e3
    return {"ops_per_s": len(times) / busy, "op_p50_ms": float(p50),
            "op_p99_ms": float(p99), "busy_s": busy,
            "samples_beyond_p99": int((times * 1e3 > p99).sum())}


def summary(wall, scaled, failures):
    res = timing(scaled)
    res.update(ops=len(wall), failed=len(failures), failures=failures[:10],
               wall=timing(wall))
    return res


def traced_half(w, state, seed, start, seconds, max_ops, golden):
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        wall, scaled, failures = run_loop(w, state, seed, start, seconds,
                                          max_ops, golden, tracer)
    finally:
        not_restored = tracer.remove()
    res = summary(wall, scaled, failures)
    metrics = tracer.metrics(res["ops"], res["wall"]["busy_s"])
    bypass = tracer.calls_into(w.bypass)
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, "%s-spans.npz" % w.name))
    return res, metrics, {"missing_layers": tracer.missing,
                          "bypass_calls": bypass,
                          "not_restored": not_restored}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import noisystorage
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(noisystorage.__file__).startswith(src):
        sys.exit("noisystorage imported from %s, not from %s"
                 % (noisystorage.__file__, src))
    from workloads import WORKLOADS, WARMUP_INDEX, run_op

    w = WORKLOADS[args.workload]
    state = w.setup()
    warm = w.op(state, args.seed, WARMUP_INDEX, w.cycle[0])
    _, warm_problem = run_op(warm)
    print("READY", flush=True)
    print("SCALE %r" % reference_scale(), flush=True)
    if args.setup_only:
        return

    golden = load_golden(w.name, args.seed)
    payload = {"workload": w.name, "seed": args.seed, "sizes": w.sizes,
               "python": platform.python_version(),
               "numpy": np.__version__,
               "warmup_problem": warm_problem}
    if args.trace:
        half = args.seconds / 2.0
        plain = summary(*run_loop(w, state, args.seed, 0, half,
                                  args.max_ops, golden))
        traced, layers, notes = traced_half(
            w, state, args.seed, plain["ops"], half, args.max_ops, golden)
        layers["trace.overhead"] = (
            traced["ops_per_s"] / plain["ops_per_s"], "ratio")
        payload.update(untraced=plain, traced=traced, layers=layers, **notes)
        payload["ops"] = plain["ops"] + traced["ops"]
        payload["failures"] = plain["failures"] + traced["failures"]
        payload["failed"] = plain["failed"] + traced["failed"]
    else:
        payload.update(summary(*run_loop(w, state, args.seed, 0,
                                         args.seconds, args.max_ops, golden)))
    pooled = w.pooled(state)
    payload["pooled_checks"] = len(pooled)
    payload["pooled_failures"] = [[name, problem]
                                  for name, problem in pooled if problem]
    payload["digests_checked"] = min(len(golden), payload["ops"])
    payload["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print("RESULT " + json.dumps(payload), flush=True)


if __name__ == "__main__":
    main()
