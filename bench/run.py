"""otlab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sort-batch --seed 0 --seconds 30 --trace 0

Run from the repository root. The otlab sources are imported from `src/`;
nothing needs installing. Each measurement runs in a fresh worker process
(`worker.py`) with the BLAS pinned to one thread, so peak RSS belongs to the
workload alone. With `--trace 0` the last line holds the end-to-end metrics,
with `--trace 1` the per-layer ones; the line before it is a report with the
environment, the input properties, all six end-to-end metrics (including the
two that are not gated) and the computed kernel counts. Workloads, metrics
and their reasons are in `bench/README.md`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sort-batch", "forward-deep", "oracle-suite")
SETUP_PROBES = 8  # extra fresh processes that only set up; the main worker is one more sample
DEADLINE_S = 170.0  # the whole run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


_UNITS = {"calls": "count", "self_s": "s", "overhead_s": "s", "us_per_call": "us", "us_per_sweep": "us",
          "bytes": "B", "retained_bytes": "B", "layer_bytes": "B", "layer_flops": "flop", "gflops": "GFLOP/s",
          "sweeps": "count", "steps": "count", "ops": "count", "spans": "count",
          "patterns_used_ratio": "ratio", "attempts_per_check": "ratio"}


def per_layer_unit(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[1]]


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")]))
    return env


def _worker(args: argparse.Namespace, deadline: float, *extra: str) -> tuple[float, dict]:
    """Start one worker; return its spawn time and the JSON object it printed last."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(ROOT), *extra,
    ]
    if args.inject_fault:
        cmd.append("--inject-fault")
    spawned = _monotonic()
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, env=_worker_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - _monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies_ms: list[float]) -> dict:
    """The highest percentile that still has TAIL_BEYOND samples above it."""
    xs = sorted(latencies_ms)
    if len(xs) <= TAIL_BEYOND:
        return {"value": None, "unit": "ms", "samples": len(xs),
                "note": f"needs more than {TAIL_BEYOND} operations"}
    k = len(xs) - TAIL_BEYOND - 1
    return {"value": xs[k], "unit": "ms", "percentile": 100.0 * (k + 1) / len(xs), "samples": len(xs)}


def _quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"p50": xs[0] if xs else None}
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"min": min(xs), "p25": q1, "p50": q2, "p75": q3, "max": max(xs)}


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    setups = []
    for _ in range(SETUP_PROBES):
        spawned, probe = _worker(args, deadline, "--setup-only")
        setups.append(probe["ready"] - spawned)
    spawned, res = _worker(args, deadline)
    setups.append(res["ready"] - spawned)

    lat_ms = [1e3 * t for t in res["latencies"]]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(lat_ms) / res["busy_s"], "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms) if lat_ms else float("nan"), "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    report = {
        **metrics,
        "op_tail_ms": _tail(lat_ms),
        "fail_share": {"value": res["failed"] / res["attempted"], "unit": "ratio"},
        "setup_samples_s": setups,
        "op_ms": _quartiles(lat_ms),
        "operations": res["attempted"],
        "busy_s": res["busy_s"],
    }
    return metrics, report, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="'all' runs the three in turn and prints each one's metrics")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="negate the first head's value map in every weight set (self-test only)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(main(["--workload", w, *rest]) for w in WORKLOADS)
    if not (ROOT / "src" / "otlab" / "__init__.py").is_file():
        print(f"bench: no otlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = _monotonic() + DEADLINE_S
    try:
        if args.trace:
            _, res = _worker(args, deadline)
            metrics = {name: {"value": value, "unit": per_layer_unit(name)} for name, value in res["per_layer"].items()}
            report = {"spans_file": res["spans_file"]}
        else:
            metrics, report, res = end_to_end(args, deadline)
            report.update(properties=res["properties"], kernel_counts=res["kernel_counts"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 3

    report.update(workload=args.workload, seed=args.seed, trace=args.trace, env=res["env"],
                  failure_notes=res["notes"])
    for name, m in report.items():
        if isinstance(m, dict) and "unit" in m:
            print(f"{args.workload}  {name:<12} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
