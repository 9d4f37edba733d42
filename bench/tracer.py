"""Span tracing of otlab from outside the package.

`Tracer.install()` replaces every public function of every `otlab` module by
a wrapper that records a span: name, start, end, parent span and operation
id. The wrapper is installed in every namespace that holds the function, so
`cli` and `checks`, which import `forward` by name, call the wrapper too.
`uninstall()` puts the originals back. Spans live in flat arrays while the
run lasts and are written out once, at the end.

A few wrappers also observe arguments or results to count work where it
happens: layer shapes (for the computed kernel counts), Sinkhorn sweeps,
descent steps, bytes written, and which recorded attention patterns a caller
actually reads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict

import numpy as np

import kernel_counts

MODULES = (
    "transformer_core",
    "prompt",
    "problem",
    "dual_descent",
    "sinkhorn_lab",
    "oracles",
    "checks",
    "io",
    "cli",
)
SUITES = (
    "check_gd_equivalence",
    "check_gradients",
    "check_closure",
    "check_shift",
    "check_contraction",
    "check_stationarity",
    "check_depth_bound",
)
# checks that retry gd_run until the iterates stay inside their radius
CONFINED_CHECKS = ("checks.check_stationarity", "checks.check_depth_bound")
_OBSERVE = "trace.observe"


def _public_functions(module):
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__
    }


def replace_everywhere(fn, replacement) -> list[tuple[object, str, object]]:
    """Point every otlab namespace that holds `fn` at `replacement`; returns what to restore."""
    import otlab

    namespaces = [otlab, *(importlib.import_module(f"otlab.{m}") for m in MODULES)]
    saved = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is fn:
                saved.append((ns, attr, fn))
                setattr(ns, attr, replacement)
    return saved


def restore(saved) -> None:
    for ns, attr, fn in reversed(saved):
        setattr(ns, attr, fn)


class _CountedPair(tuple):
    """A recorded (head 1, head 2) pattern pair that notes which entries are read."""

    def __getitem__(self, i):
        self.reads.update([i % len(self)] if isinstance(i, int) else range(len(self)))
        return tuple.__getitem__(self, i)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1  # -1 is the set-up; operations count from 0
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)
        self.layer_shapes: dict[tuple[int, int], int] = defaultdict(int)
        self.recorded_pairs: list[_CountedPair] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, t0: float) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.start.append(t0)
        self.end.append(t0)
        self.current = idx
        return idx

    def wrap(self, qualname: str, fn, observe=None):
        nid = self._name_id(qualname)
        oid = self._name_id(_OBSERVE)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.current
            idx = tracer._open(nid, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.current = parent
            if observe is not None:
                # observer work gets a span of its own so it is not billed to the caller
                o = tracer._open(oid, clock())
                observe(tracer, parent, args, kwargs, result)
                tracer.end[o] = clock()
                tracer.current = parent
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for mod_name in MODULES:
            module = importlib.import_module(f"otlab.{mod_name}")
            for fn_name, fn in _public_functions(module).items():
                qual = f"{mod_name}.{fn_name}"
                self._saved += replace_everywhere(fn, self.wrap(qual, fn, _OBSERVERS.get(qual)))

    def uninstall(self) -> None:
        restore(self._saved)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Write every span (name id, parent index, op id, start, end) and the name table."""
        np.savez(path, names=np.array(self.names), **self.span_arrays())

    def per_function(self, s: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per traced function."""
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        n_names = len(self.names)
        calls = np.bincount(s["name"], minlength=n_names)
        incl = np.bincount(s["name"], weights=dur, minlength=n_names)
        excl = np.bincount(s["name"], weights=dur - child, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(excl[i])}
            for i, name in enumerate(self.names)
        }

    def attempts_per_check(self, s: dict[str, np.ndarray]) -> float:
        """gd_run calls made directly by a confined check, per such check."""
        confined = [self._ids[c] for c in CONFINED_CHECKS if c in self._ids]
        gd_run = self._ids.get("dual_descent.gd_run")
        checks = np.isin(s["name"], confined).sum()
        if not checks or gd_run is None:
            return 0.0
        caller = np.where(s["parent"] >= 0, s["name"][np.maximum(s["parent"], 0)], -1)
        return float(np.sum((s["name"] == gd_run) & np.isin(caller, confined)) / checks)

    def metrics(self, ops: int, overhead_s: float) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, as totals over the traced run."""
        spans = self.span_arrays()
        fns = self.per_function(spans)
        zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        f = lambda qual: fns.get(qual, zero)  # noqa: E731
        c = self.counts
        m: dict[str, float] = {}

        lf = f("transformer_core.layer_forward")
        m["transformer_core.layer_forward.calls"] = lf["calls"]
        m["transformer_core.layer_forward.self_s"] = lf["self_s"]
        m["transformer_core.layer_forward.us_per_call"] = 1e6 * lf["incl_s"] / lf["calls"] if lf["calls"] else 0.0
        for fn in ("attention", "attention_pattern", "build_constructed_weights"):
            m[f"transformer_core.{fn}.calls"] = f(f"transformer_core.{fn}")["calls"]
            m[f"transformer_core.{fn}.self_s"] = f(f"transformer_core.{fn}")["self_s"]
        m["transformer_core.forward.self_s"] = f("transformer_core.forward")["self_s"]
        m["transformer_core.apply_plan.self_s"] = f("transformer_core.apply_plan")["self_s"]
        m["prompt.build_prompt.self_s"] = f("prompt.build_prompt")["self_s"]
        m["transformer_core.retained_bytes"] = c["retained_bytes"]
        computed = m["transformer_core.attention_pattern.calls"]
        # no pattern computed means none wasted
        m["transformer_core.patterns_used_ratio"] = self.patterns_read() / computed if computed else 1.0
        flops = sum(kernel_counts.layer_flops(n, d) * k for (n, d), k in self.layer_shapes.items())
        moved = sum(kernel_counts.layer_bytes(n, d) * k for (n, d), k in self.layer_shapes.items())
        m["transformer_core.layer_flops"] = flops / lf["calls"] if lf["calls"] else 0.0
        m["transformer_core.layer_bytes"] = moved / lf["calls"] if lf["calls"] else 0.0
        m["transformer_core.gflops"] = flops / lf["incl_s"] / 1e9 if lf["incl_s"] else 0.0

        m["problem.cost_matrix.self_s"] = f("problem.cost_matrix")["self_s"]
        m["problem.instances.self_s"] = sum(
            f(f"problem.{fn}")["self_s"] for fn in ("permutation_instance", "sorting_instance")
        )

        sk = f("sinkhorn_lab.sinkhorn_solve")
        m["sinkhorn_lab.sinkhorn_solve.calls"] = sk["calls"]
        m["sinkhorn_lab.sinkhorn_solve.self_s"] = sk["self_s"]
        m["sinkhorn_lab.sinkhorn_solve.sweeps"] = c["sinkhorn_sweeps"]
        m["sinkhorn_lab.sinkhorn_solve.us_per_sweep"] = 1e6 * sk["incl_s"] / c["sinkhorn_sweeps"] if c["sinkhorn_sweeps"] else 0.0
        for fn in ("closure_harness", "shift_harness", "contraction_history"):
            m[f"sinkhorn_lab.{fn}.self_s"] = f(f"sinkhorn_lab.{fn}")["self_s"]

        for fn in ("gd_step", "gd_run"):
            m[f"dual_descent.{fn}.calls"] = f(f"dual_descent.{fn}")["calls"]
            m[f"dual_descent.{fn}.self_s"] = f(f"dual_descent.{fn}")["self_s"]
        m["dual_descent.gd_run.steps"] = c["gd_run_steps"]
        m["dual_descent.gd_run.attempts_per_check"] = self.attempts_per_check(spans)

        for fn in ("brute_force_ot", "round_plan", "finite_diff_grad"):
            m[f"oracles.{fn}.self_s"] = f(f"oracles.{fn}")["self_s"]
        for suite in SUITES:
            m[f"checks.{suite}.self_s"] = f(f"checks.{suite}")["self_s"]
        for fn in ("write_matrix_csv", "write_pgm", "write_json_atomic"):
            m[f"io.{fn}.calls"] = f(f"io.{fn}")["calls"]
            m[f"io.{fn}.self_s"] = f(f"io.{fn}")["self_s"]
            m[f"io.{fn}.bytes"] = c[f"io.{fn}.bytes"]
        m["cli.main.self_s"] = f("cli.main")["self_s"]
        m["trace.overhead_s"] = overhead_s
        m["trace.ops"] = ops
        m["trace.spans"] = len(self.start)
        return m

    def patterns_read(self) -> int:
        return sum(len(p.reads) for p in self.recorded_pairs) + int(self.counts["patterns_direct"])


# -- observers ----------------------------------------------------------------


def _observe_layer(tracer, caller, args, kwargs, result):
    tracer.layer_shapes[(result.n, result.d)] += 1


def _observe_forward(tracer, caller, args, kwargs, trace):
    held = sum(s.Z.nbytes for s in trace.states)
    for field in ("softmax_patterns", "kernel_patterns"):
        recorded = getattr(trace, field)
        if recorded is None:
            continue
        held += sum(p.nbytes for pair in recorded for p in pair)
        counted = []
        for pair in recorded:
            cp = _CountedPair(pair)
            cp.reads = set()
            counted.append(cp)
            tracer.recorded_pairs.append(cp)
        setattr(trace, field, counted)
    tracer.counts["retained_bytes"] = max(tracer.counts["retained_bytes"], held)


def _observe_pattern(tracer, caller, args, kwargs, result):
    # a pattern requested outside forward() is read by whoever asked for it
    if caller < 0 or tracer.names[tracer.name[caller]] != "transformer_core.forward":
        tracer.counts["patterns_direct"] += 1


def _observe_sinkhorn(tracer, caller, args, kwargs, result):
    tracer.counts["sinkhorn_sweeps"] += result.sweeps


def _observe_gd_run(tracer, caller, args, kwargs, result):
    tracer.counts["gd_run_steps"] += result.depth


def _io_observer(fn_name):
    def observe(tracer, caller, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.counts[f"io.{fn_name}.bytes"] += os.path.getsize(path)

    return observe


_OBSERVERS = {
    "transformer_core.layer_forward": _observe_layer,
    "transformer_core.forward": _observe_forward,
    "transformer_core.attention_pattern": _observe_pattern,
    "sinkhorn_lab.sinkhorn_solve": _observe_sinkhorn,
    "dual_descent.gd_run": _observe_gd_run,
    **{f"io.{fn}": _io_observer(fn) for fn in ("write_matrix_csv", "write_pgm", "write_json_atomic")},
}
