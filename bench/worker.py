"""One workload in one fresh process; `run.py` starts it and reads the JSON
object it prints last. BLAS threads are pinned by the parent's environment
before numpy is imported here.

  --setup-only  import, make inputs, build weights, report when ready
  --trace 0     the timed closed loop: latencies, failures, peak RSS
  --trace 1     a fixed amount of work (set-up plus the workload's trace_ops
                operations) run untraced and then traced; per-layer metrics
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import envinfo
import kernel_counts
import workloads
from tracer import Tracer


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Loop:
    """Runs operations and their checks; checks stay outside the timer."""

    def __init__(self, workload):
        self.wl = workload
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(note)

    def step(self, i: int, tracer: Tracer | None = None) -> float:
        inp = self.wl.input(i)
        if tracer is not None:
            tracer.op_id, tracer.active = i, True
        t0 = time.perf_counter()
        try:
            out = self.wl.op(inp)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            out, note = None, f"op {i} raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        self.attempted += 1
        if out is None:
            self._fail(note)
            return dt
        self.latencies.append(dt)
        try:
            note = self.wl.check(inp, out)
        except Exception as exc:  # an output the check cannot read is a wrong one
            note = f"check raised {type(exc).__name__}: {exc}"
        if note is not None:
            self._fail(f"op {i}: {note}")
        return dt


def timed_run(wl, seconds: float) -> dict:
    loop = Loop(wl)
    busy = 0.0
    i = 0
    while busy < seconds:
        busy += loop.step(i)
        i += 1
    return {
        "latencies": loop.latencies,
        "busy_s": busy,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "notes": loop.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "properties": wl.properties(),
        "kernel_counts": [kernel_counts.summary(n, d) for n, d in wl.kernel_shapes()],
    }


def traced_run(wl, spans_path: Path) -> dict:
    tracer = Tracer()
    loop = Loop(wl)
    walls = []
    for traced in (False, True):
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        tracer.op_id, tracer.active = -1, traced
        wl.setup()
        tracer.active = False
        wall = time.perf_counter() - t0
        for k in range(wl.trace_ops):
            wall += loop.step(k, tracer if traced else None)
        walls.append(wall)
    tracer.uninstall()
    tracer.write(spans_path)
    return {
        "per_layer": tracer.metrics(wl.trace_ops, walls[1] - walls[0]),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "notes": loop.notes,
        "spans_file": str(spans_path),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--root", type=Path, required=True)
    args = ap.parse_args(argv)

    workdir = args.root / ".bench_out"
    workdir.mkdir(exist_ok=True)
    if args.inject_fault:
        workloads.inject_fault()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        wl.setup()
        result = {"ready": _monotonic()}
        if not args.setup_only:
            if args.trace:
                result.update(traced_run(wl, workdir / f"spans-{args.workload}.npz"))
            else:
                result.update(timed_run(wl, args.seconds))
            result["env"] = envinfo.collect(args.root, args.seed)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
