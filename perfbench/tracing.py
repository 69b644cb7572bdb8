"""Span tracing for the traced benchmark run, installed from outside the package.

Each wrapped entry point records a span (name, start, end, parent, thread)
in memory. The parent comes from a per-thread stack, because `sweep` runs
its rows on worker threads. Count-only wrappers record calls and no span;
they sit on methods called so often (`Permutation.__mul__`) that a span per
call would swamp the trace.

`Tracer.install` rebinds every name under which the package holds an entry
point: module attributes (`synth.sample_walk`, `compare.synthesize`,
`cli.convolve_steps`, the `permword` re-exports, ...), values of
module-level dicts (`cli.RUNNERS`), and methods on classes. `uninstall`
puts the originals back.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _track_points_steps(args, result):
    symbols, points = args[1], args[2]
    return {"point_steps": symbols.shape[0] * symbols.shape[1] * points.shape[0]}


def _convolve_counts(args, result):
    dist, idx, steps = args[0], args[1], args[3]
    gathers = steps * idx.shape[0] * dist.shape[0]
    # each gather reads an int32 index and a float64 source; each step writes the float64 output
    return {"gathers": gathers, "bytes_computed": gathers * 12 + steps * dist.shape[0] * 8}


def _adjacency_counts(args, result):
    f, nbrs = args[0], args[1]
    return {"bytes_computed": nbrs.shape[0] * f.shape[0] * 12 + f.shape[0] * 8}


def _estimate_iterations(args, result):
    return {"iterations": result.iterations}


def _factor_count(args, result):
    return {"factors": len(result)}


def _partition_count(args, result):
    return {"count": len(result)}


def _walk_trials(args, result):
    return {"trials": result[2]}


def _shrink_iterations(args, result):
    return {"iterations": result.iterations}


# (span name, module, attribute path, on_result). Names follow the layer
# modules of src/permword; a leading underscore marks an internal function
# wrapped only to attribute time or counts to its caller.
SPANS = (
    ("synth.prepare_context", "permword.synth", "prepare_context", None),
    ("synth.synthesize", "permword.synth", "synthesize", None),
    ("synth.build_3cycle", "permword.synth", "build_3cycle", None),
    ("synth._extend_pool", "permword.synth", "_extend_pool", None),
    ("synth._factor_word", "permword.synth", "_factor_word", None),
    ("shrink.shrink_support", "permword.shrink", "shrink_support", _shrink_iterations),
    ("shrink.find_long_cycle_element", "permword.shrink", "find_long_cycle_element", None),
    ("schreier._conditioned_walk_counted", "permword.schreier", "_conditioned_walk_counted",
     _walk_trials),
    ("walk.sample_walk", "permword.walk", "sample_walk", None),
    ("walk.DenseGroup.build", "permword.walk", "DenseGroup.__init__", None),
    ("walk.transition_tables", "permword.walk", "transition_tables", None),
    ("walk.strong_mixing_time", "permword.walk", "strong_mixing_time", None),
    ("walk.mixing_time_lp", "permword.walk", "mixing_time_lp", None),
    ("walk.check_argu", "permword.walk", "check_argu", None),
    ("kernels.track_points", "permword.kernels", "track_points", _track_points_steps),
    ("kernels.convolve_steps", "permword.kernels", "convolve_steps", _convolve_counts),
    ("kernels.adjacency_apply", "permword.kernels", "adjacency_apply", _adjacency_counts),
    ("word.evaluate", "permword.word", "evaluate", None),
    ("word.expanded_length", "permword.word", "expanded_length", None),
    ("word.generator_counts", "permword.word", "generator_counts", None),
    ("perm.three_cycle_factorization", "permword.perm", "three_cycle_factorization",
     _factor_count),
    ("schreier.TupleGraph.build", "permword.schreier", "TupleGraph.__init__", None),
    ("schreier.estimate_gap", "permword.schreier", "estimate_gap", _estimate_iterations),
    ("repgap.spectral_gap_exact", "permword.repgap", "spectral_gap_exact", None),
    ("repgap.partitions", "permword.repgap", "partitions", _partition_count),
    ("compare.comparison_report", "permword.compare", "comparison_report", None),
    ("compare.reference_measure", "permword.compare", "reference_measure", None),
    ("cli.dispatch", "permword.cli", "dispatch", None),
    ("cli.run_sweep", "permword.cli", "run_sweep", None),
    ("cli._sweep_one", "permword.cli", "_sweep_one", None),
    ("cli.run_mix_exact", "permword.cli", "run_mix_exact", None),
    ("cli.run_gap_exact", "permword.cli", "run_gap_exact", None),
)

COUNTS = (
    ("perm.mul", "permword.perm", "Permutation.__mul__"),
    ("perm.is_identity", "permword.perm", "Permutation.is_identity"),
)


class Tracer:
    """In-memory span recorder.

    A span is (id, name, start, end, parent id or -1, thread, self seconds,
    nested), where nested marks a span inside another of the same name,
    which busy time skips so recursion is not counted twice.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.contexts: list = []  # SynthContexts returned by prepare_context
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple] = []
        self._wrappers: list = []

    # -- wrappers -------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name, fn, on_result):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else -1
            nested = any(f[2] == name for f in stack)  # busy_s counts the outermost only
            frame = [next(tracer._ids), 0.0, name]  # id, time covered by children, name
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.spans.append(
                    (frame[0], name, t0, t1, parent, threading.get_ident(),
                     t1 - t0 - frame[1], nested)
                )
                with tracer._lock:
                    tracer.calls[name] += 1
            if on_result is not None:
                counts = on_result(args, result)
                with tracer._lock:
                    for key, val in counts.items():
                        tracer.counters[f"{name}.{key}"] += val
            if name == "synth.prepare_context":
                tracer.contexts.append(result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------------------

    def _set(self, owner, key, value, is_dict):
        if is_dict:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    @staticmethod
    def _bindings():
        """(owner, key, value, owner is a dict) for every attribute of the
        package's modules, every value of their module-level dicts and
        every attribute of the classes they define."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "permword" or modname.startswith("permword.")):
                continue
            for key, val in list(vars(mod).items()):
                yield mod, key, val, False
                if isinstance(val, dict) and not key.startswith("__"):
                    for dkey, dval in list(val.items()):
                        yield val, dkey, dval, True
                elif isinstance(val, type) and val.__module__ == modname:
                    for ckey, cval in list(vars(val).items()):
                        yield val, ckey, cval, False

    def install(self) -> None:
        for name, modname, path, on_result in SPANS:
            self._install_one(modname, path, lambda fn, n=name, h=on_result:
                              self._span_wrapper(n, fn, h))
        for name, modname, path in COUNTS:
            self._install_one(modname, path, lambda fn, n=name: self._count_wrapper(n, fn))

    def _install_one(self, modname, path, make):
        owner = sys.modules[modname]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = make(original)
        self._wrappers.append(wrapper)
        bound = [(o, k, d) for o, k, v, d in self._bindings() if v is original]
        if not bound:
            raise RuntimeError(f"no binding of {modname}.{path} found")
        for o, k, d in bound:
            self._set(o, k, wrapper, d)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def leftovers(self) -> list[str]:
        """Names still bound to a wrapper of this tracer; empty after uninstall."""
        return [
            f"{getattr(owner, '__name__', type(owner).__name__)}.{key}"
            for owner, key, val, _ in self._bindings()
            if any(val is w for w in self._wrappers)
        ]

    # -- results --------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, thread, _self_s, _nested in self.spans:
                fh.write(json.dumps([name, t0, t1, sid, parent, thread]) + "\n")

    def coverage(self, intervals, thread: int) -> float:
        """Share of the (start, end) intervals covered by root spans on `thread`."""
        roots = [(t0, t1) for _sid, _n, t0, t1, parent, th, _s, _nested in self.spans
                 if parent == -1 and th == thread]
        covered = sum(
            max(0.0, min(t1, end) - max(t0, start))
            for start, end in intervals
            for t0, t1 in roots
        )
        return covered / sum(end - start for start, end in intervals)

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s (outermost spans only) and self_s per span name, plus counters."""
        out: dict[str, float] = {}
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for _sid, name, t0, t1, _parent, _th, own, nested in self.spans:
            if not nested:
                busy[name] += t1 - t0
            self_s[name] += own
        names = {s[0] for s in SPANS} | {c[0] for c in COUNTS}
        for name in names:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.busy_s"] = busy.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out.update(self.counters)
        out["synth.relocation_walks_per_factor"] = self._relocation_walks_per_factor()
        return out

    def _relocation_walks_per_factor(self) -> float:
        """Walks drawn by `_factor_word` to move a 3-cycle factor into the long
        cycle, per factor; walks that grow the gamma pool are excluded."""
        by_id = {s[0]: (s[1], s[4]) for s in self.spans}
        relocations = 0
        for sid, name, *_rest in self.spans:
            if name != "walk.sample_walk":
                continue
            pid = by_id[sid][1]
            while pid != -1:
                pname, pid_next = by_id[pid]
                if pname == "synth._extend_pool":
                    break
                if pname == "synth._factor_word":
                    relocations += 1
                    break
                pid = pid_next
        factors = self.calls.get("synth._factor_word", 0)
        return relocations / factors if factors else 0.0
