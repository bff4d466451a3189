"""Per-layer tracing by wrapping the package's public functions.

The layers are the package's modules.  ``Tracer.install`` replaces each
target function with a wrapper that records a span (name, start, end,
parent span, op id) and rebinds that wrapper under every name the package
binds the original to, e.g. both ``hashing.hash_apply`` and
``protocols.hash_apply``.  ``Tracer.remove`` puts every original back.
Spans stay in memory, in flat integer arrays, until ``metrics`` and
``save`` read them after the run.

A target that no longer exists is reported as missing: its metrics are
left out instead of reading zero.
"""

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "noisystorage"

TARGETS = {
    "cli": ["dispatch", "build_parser"],
    "bounds": ["strong_converse_exponent", "depolarizing_capacity",
               "ot_length", "robust_ot_length", "qid_error",
               "impersonation_error", "rate_curve", "feasible_region",
               "rows_to_csv"],
    "checks": ["verify_split", "verify_pa", "verify_lemma4",
               "verify_hashing", "verify_codes"],
    "distributions": ["JointDistribution.__init__",
                      "JointDistribution.marginal",
                      "JointDistribution.grouped",
                      "JointDistribution.with_register"],
    "entropy": ["min_entropy", "split_binary", "split_multi",
                "smooth_sub_distribution", "psucc_classical"],
    "hashing": ["random_hash", "hash_apply", "hash_apply_many",
                "pa_distance", "collision_bound"],
    "codes": ["syndrome", "syndrome_decode", "coset_leaders", "qid_code"],
    "gf2": ["matmul", "rank"],
    "qsim": ["bb84_prepare", "depolarize", "measure"],
    "protocols": ["run_rot", "run_robust_rot", "run_qid", "estimate_leakage",
                  "block_syndromes", "block_correct"],
}

TARGET_NAMES = ["%s.%s" % (mod, fn) for mod, fns in TARGETS.items()
                for fn in fns]
SPLITS = ("entropy.split_binary", "entropy.split_multi")
QSIM_CALLS = ("qsim.bb84_prepare", "qsim.depolarize", "qsim.measure")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# Hooks read a traced call's arguments or result into derived counters.
def _hash_cells(counters, args, kwargs, result):
    # computed from the arguments, not measured: the l x n matrix size
    counters["matrix_cells"] += (_arg(args, kwargs, 0, "n")
                                 * _arg(args, kwargs, 1, "ell"))


def _adversary_qubits(counters, args, kwargs, result):
    if _arg(args, kwargs, 3, "bob") is not None:
        counters["qubits"] += _arg(args, kwargs, 0, "n")


def _robust_outcome(counters, args, kwargs, result):
    counters["robust_runs"] += 1
    if not result.abort:
        counters["robust_completed"] += 1
        counters["robust_decode_ok"] += bool(result.decode_ok)


HOOKS = {
    "hashing.random_hash": _hash_cells,
    "protocols.run_rot": _adversary_qubits,
    "protocols.run_robust_rot": _robust_outcome,
}


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.op = [-1]
        self.counters = dict.fromkeys(
            ["matrix_cells", "qubits", "robust_runs", "robust_completed",
             "robust_decode_ok"], 0)
        self.missing = []
        self.patches = []  # (owner, attribute, original)

    def _wrap(self, idx, fn, hook):
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        stack, op, counters = self.stack, self.op, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = {m.__name__: m for m in package_modules()}
        for idx, target in enumerate(TARGET_NAMES):
            mod_name, _, qual = target.partition(".")
            module = modules.get("%s.%s" % (PACKAGE, mod_name))
            cls_name, _, meth = qual.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = (vars(owner).get(meth if cls_name else qual)
                        if owner is not None else None)
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(idx, original, HOOKS.get(target))
            if cls_name:
                self._patch(owner, meth, original, wrapper)
                continue
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def remove(self):
        """Restore every original; returns the names still not restored."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        wrong = ["%s.%s" % (getattr(o, "__name__", o), a)
                 for o, a, orig in self.patches if vars(o).get(a) is not orig]
        self.patches = []
        return wrong

    def arrays(self):
        return {key: np.frombuffer(getattr(self, "span_" + key), np.int64)
                for key in ("name", "parent", "op", "start", "end")}

    def metrics(self, ops, op_seconds):
        """Per-layer metrics over ``ops`` traced ops taking ``op_seconds``."""
        s = self.arrays()
        n_targets = len(TARGET_NAMES)
        dur = (s["end"] - s["start"]) / 1e9
        child = s["parent"] >= 0
        covered = np.bincount(s["parent"][child], weights=dur[child],
                              minlength=len(dur))
        self_s = dur - covered
        calls = np.bincount(s["name"], minlength=n_targets)
        self_by = np.bincount(s["name"], weights=self_s, minlength=n_targets)
        per_op = 1.0 / max(ops, 1)

        out = {}
        module_self = {}
        for i, target in enumerate(TARGET_NAMES):
            if target in self.missing:
                continue
            out[target + ".calls"] = (calls[i] * per_op, "calls/op")
            out[target + ".self_s"] = (self_by[i] * per_op, "s/op")
            mod = target.partition(".")[0]
            module_self[mod] = module_self.get(mod, 0.0) + self_by[i]
        for mod, busy in module_self.items():
            out[mod + ".self_share"] = (busy / op_seconds if op_seconds
                                        else 0.0, "ratio")

        def count(names):
            return sum(calls[TARGET_NAMES.index(t)] for t in names)

        c = self.counters
        splits, inits = self._split_constructions(s)
        out["bounds.gamma_calls_per_op"] = (
            count(["bounds.strong_converse_exponent"]) * per_op, "calls/op")
        out["entropy.constructions_per_split"] = (
            inits / splits if splits else 0.0, "calls/split")
        out["hashing.matrix_cells"] = (c["matrix_cells"] * per_op,
                                       "cells/op")
        out["qsim.calls_per_qubit"] = (
            count(QSIM_CALLS) / c["qubits"] if c["qubits"] else 0.0,
            "calls/qubit")
        out["protocols.robust.completed_ratio"] = (
            c["robust_completed"] / c["robust_runs"] if c["robust_runs"]
            else 0.0, "ratio")
        out["protocols.robust.decode_ok_ratio"] = (
            c["robust_decode_ok"] / c["robust_completed"]
            if c["robust_completed"] else 0.0, "ratio")
        top = ~child
        out["trace.coverage"] = (dur[top].sum() / op_seconds if op_seconds
                                 else 0.0, "ratio")
        out["trace.missing_layers"] = (len(self.missing), "count")
        return out

    def calls_into(self, prefixes):
        """Traced calls into every target that starts with one of prefixes."""
        calls = np.bincount(self.arrays()["name"], minlength=len(TARGET_NAMES))
        return {t: int(calls[i]) for i, t in enumerate(TARGET_NAMES)
                if t.startswith(tuple(prefixes)) and calls[i]}

    @staticmethod
    def _split_constructions(s):
        """(outermost split calls, JointDistribution builds inside them)."""
        ids = [TARGET_NAMES.index(t) for t in SPLITS]
        is_split = np.isin(s["name"], ids)
        if not is_split.any():
            return 0, 0
        # parents always precede their children, so one forward pass
        # settles whether each span runs inside a split call
        flag = is_split.tolist()
        inside = [False] * len(flag)
        for i, p in enumerate(s["parent"].tolist()):
            if p >= 0:
                inside[i] = flag[p] or inside[p]
        inside = np.array(inside, dtype=bool)
        init = TARGET_NAMES.index("distributions.JointDistribution.__init__")
        return (int((is_split & ~inside).sum()),
                int(((s["name"] == init) & inside).sum()))

    def save(self, path):
        np.savez(path, names=np.array(TARGET_NAMES), **self.arrays())
