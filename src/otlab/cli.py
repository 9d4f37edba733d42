"""otlab command line: run the attention solver, the descent and scaling
engines, the sorting demo, and the verification suites.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 solver
non-convergence, including a run that overflows.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, checks
from . import dual_descent as dd
from . import io as otio
from . import sinkhorn_lab as sl
from .logdomain import marginal_error
from .oracles import sort_oracle
from .problem import ProblemInstance, cost_matrix, permutation_instance, sorting_instance
from .transformer_core import (
    DegeneratePlanRowError,
    DivergenceError,
    apply_plan,
    attention_pattern,
    build_constructed_weights,
    divergence_guard,
    forward,
    save_weights,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NO_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for verification
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    flags = {
        "n": dict(flag="--n", help="instance size; forward accepts a comma list"),
        "d": dict(flag="--d", help="point dimension (d > 1 samples uniform points)"),
        "lambda": dict(flag="--lambda", help="entropic regularization weight"),
        "gamma": dict(flag="--gamma", help="descent stepsize"),
        "depth": dict(flag="--depth", help="number of layers / steps"),
        "seed": dict(flag="--seed", help="instance seed"),
        "out": dict(flag="--out", help="output directory (omit to skip artifacts)"),
        "checkpoints": dict(flag="--checkpoints", help="comma-separated layers to export"),
    }
    for name in names:
        s = flags[name]
        p.add_argument(s["flag"], dest=name.replace("-", "_"), default=None, help=s["help"])
    p.add_argument("--config", default=None, help="flat key=value config file; flags override")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = otio.read_config(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            print(f"unknown config keys: {', '.join(sorted(unknown))}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)  # argparse stores --lambda under 'lambda'
        if val is not None:
            cfg[key] = val
    return cfg


def _as_int(x) -> int:
    return int(str(x))


def _as_float(x) -> float:
    return float(str(x))


def _as_int_list(x) -> list[int]:
    return [int(tok) for tok in str(x).split(",") if tok.strip() != ""]


def _as_float_list(x) -> list[float]:
    return [float(tok) for tok in str(x).split(",") if tok.strip() != ""]


def _instance(n: int, d: int, seed: int, lam: float) -> ProblemInstance:
    if d == 1:
        return permutation_instance(n, seed, lam)
    rng = np.random.default_rng(seed)
    return ProblemInstance(x=rng.uniform(0, 1, (n, d)), y=rng.uniform(0, 1, (n, d)), lam=lam)


def _manifest(out: Path, command: str, cfg: dict, metrics: dict, outputs: list[str], t0: float) -> None:
    otio.write_json_atomic(
        {
            "command": command,
            "version": __version__,
            "config": {k: str(v) for k, v in cfg.items()},
            "metrics": metrics,
            "outputs": sorted(outputs),
            "wall_time_s": round(time.perf_counter() - t0, 3),
        },
        out / "manifest.json",
    )


def _cmd_forward(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _resolve(args, {
        "n": "4", "d": "1", "lambda": "0.005", "gamma": "0.01",
        "depth": "2000", "seed": "0", "out": None, "checkpoints": None,
    })
    ns = list(dict.fromkeys(_as_int_list(cfg["n"])))  # each size once, in first-seen order
    if not ns:
        raise ValueError("forward needs at least one n")
    d, lam, gamma = _as_int(cfg["d"]), _as_float(cfg["lambda"]), _as_float(cfg["gamma"])
    depth, seed = _as_int(cfg["depth"]), _as_int(cfg["seed"])
    if cfg["checkpoints"] is None:
        marks = sorted({k for k in (1, 300, 600, depth) if 0 < k <= depth} or {0})
    else:
        marks = sorted(set(_as_int_list(cfg["checkpoints"])))
        if not marks:
            raise ValueError("forward needs at least one checkpoint")
        if any(k < 0 or k > depth for k in marks):
            print(f"checkpoints must lie in [0, {depth}]", file=sys.stderr)
            return EXIT_USAGE

    out = Path(cfg["out"]) if cfg["out"] else None
    weights = build_constructed_weights(d, lam, gamma)
    outputs: list[str] = []
    metrics: dict = {"per_n": {}}

    for n in ns:
        inst = _instance(n, d, seed, lam)
        C = cost_matrix(inst)
        try:
            trace = forward(inst, depth, weights, checkpoints=marks, observe=divergence_guard(C, lam))
        except DivergenceError as exc:
            print(f"n={n}: {exc}; the run diverged", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        try:
            ref = sl.sinkhorn_solve(sl.gibbs_kernel(C, lam))
        except sl.SinkhornError as exc:
            print(f"reference scaling did not converge: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        prefix = "" if len(ns) == 1 else f"n{n}_"
        if out:  # made only once there is something to write into it
            out.mkdir(parents=True, exist_ok=True)
        per_layer = {}
        for k in marks:
            pattern = attention_pattern(trace.state(k), weights.heads[0], "raw_kernel")
            per_layer[str(k)] = {
                "eps_star": marginal_error(pattern),
                "frobenius_to_fixed_point": float(np.linalg.norm(pattern - ref.plan)),
            }
            if out:
                for ext, writer in (("csv", otio.write_matrix_csv), ("pgm", otio.write_pgm)):
                    name = f"{prefix}A_{k:04d}.{ext}"
                    writer(pattern, out / name)
                    outputs.append(name)
        metrics["per_n"][str(n)] = per_layer
        if out:
            for ext, writer in (("csv", otio.write_matrix_csv), ("pgm", otio.write_pgm)):
                name = f"{prefix}Pstar.{ext}"
                writer(ref.plan, out / name)
                outputs.append(name)
        final = per_layer[str(marks[-1])]
        print(
            f"n={n}: layer {marks[-1]} marginal error {final['eps_star']:.3e}, "
            f"|A - P*|_F {final['frobenius_to_fixed_point']:.3e}"
        )
    if out:
        save_weights(weights, out / "weights.json")
        outputs.append("weights.json")
        _manifest(out, "forward", cfg, metrics, outputs, t0)
    return EXIT_OK


def _cmd_sort(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _resolve(args, {
        "x": None, "lambda": "0.005", "gamma": "0.01", "depth": "2000", "out": None,
    })
    if cfg["x"] is None:
        print("sort requires --x (comma-separated values)", file=sys.stderr)
        return EXIT_USAGE
    x = np.array(_as_float_list(cfg["x"]))
    lam, gamma, depth = _as_float(cfg["lambda"]), _as_float(cfg["gamma"]), _as_int(cfg["depth"])
    inst = sorting_instance(x, lam)
    weights = build_constructed_weights(inst.d, lam, gamma)
    try:
        trace = forward(inst, depth, weights, observe=divergence_guard(cost_matrix(inst), lam))
    except DivergenceError as exc:
        print(f"n={inst.n}: {exc}; the run diverged", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    # head 2's kernel block is the transposed plan, whose barycentric image of
    # x lands each rank at its sorted position
    plan_t = attention_pattern(trace.states[-1], weights.heads[1], "raw_kernel")
    try:
        estimate = apply_plan(plan_t, x)
    except DegeneratePlanRowError:
        print(f"n={inst.n}: the layer-{depth} plan has a zero row; the run did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    target = sort_oracle(x)
    err = float(np.abs(estimate - target).max())
    print("input:    " + " ".join(f"{v:8.4f}" for v in x))
    print("sorted:   " + " ".join(f"{v:8.4f}" for v in estimate))
    print("target:   " + " ".join(f"{v:8.4f}" for v in target))
    print(f"max abs error: {err:.4f}")
    if cfg["out"]:
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        _manifest(out, "sort", cfg, {
            "input": x.tolist(),
            "estimate": estimate.tolist(),
            "target": target.tolist(),
            "max_abs_error": err,
        }, [], t0)
    return EXIT_OK


def _cmd_gd(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _resolve(args, {
        "n": "4", "d": "1", "lambda": "0.005", "gamma": "0.01", "radius": None,
        "depth": "2000", "seed": "0", "out": None,
    })
    n, d, lam = _as_int(cfg["n"]), _as_int(cfg["d"]), _as_float(cfg["lambda"])
    depth, seed = _as_int(cfg["depth"]), _as_int(cfg["seed"])
    gamma = (
        dd.radius_stepsize(n, _as_float(cfg["radius"]), lam)
        if cfg["radius"] is not None
        else _as_float(cfg["gamma"])
    )
    inst = _instance(n, d, seed, lam)
    try:
        with np.errstate(over="raise"):
            traj = dd.gd_run(cost_matrix(inst), lam, depth, gamma)
    except FloatingPointError:
        print(f"n={n}: descent overflows within {depth} steps; the run diverged", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    final = float(traj.marginal_errors[-1])
    print(
        f"n={n} depth={depth} gamma={traj.gamma:.6g}: final marginal error {final:.3e}, "
        f"realized radius {traj.radius:.4f}"
    )
    if cfg["out"]:
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        dd.trajectory_to_csv(traj, out / "trajectory.csv")
        _manifest(out, "gd", cfg, {
            "final_marginal_error": final,
            "realized_radius": traj.radius,
            "gamma": traj.gamma,
        }, ["trajectory.csv"], t0)
    return EXIT_OK


def _cmd_sinkhorn(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _resolve(args, {
        "n": "4", "d": "1", "lambda": "0.005", "seed": "0", "out": None,
        "tol": None, "max_sweeps": "100000",
    })
    n, d, lam, seed = _as_int(cfg["n"]), _as_int(cfg["d"]), _as_float(cfg["lambda"]), _as_int(cfg["seed"])
    inst = _instance(n, d, seed, lam)
    gk = sl.gibbs_kernel(cost_matrix(inst), lam)
    tol = None if cfg["tol"] is None else _as_float(cfg["tol"])
    try:
        res = sl.sinkhorn_solve(gk, tol=tol, max_sweeps=_as_int(cfg["max_sweeps"]))
    except sl.SinkhornError as exc:
        print(f"sinkhorn did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"n={n}: converged in {res.sweeps} sweeps, marginal error {res.eps_star:.3e}")
    if cfg["out"]:
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        otio.write_matrix_csv(res.plan, out / "Pstar.csv")
        otio.write_pgm(res.plan, out / "Pstar.pgm")
        _manifest(out, "sinkhorn", cfg, {"sweeps": res.sweeps, "eps_star": res.eps_star},
                  ["Pstar.csv", "Pstar.pgm"], t0)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = _resolve(args, {"seed": "0", "out": None, "quick": "0", "flip_sign": "0"})
    quick = str(cfg["quick"]) not in ("0", "", "false", "False")
    flip = str(cfg["flip_sign"]) not in ("0", "", "false", "False")
    results = checks.run_all(seed=_as_int(cfg["seed"]), quick=quick, flip_sign=flip)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    if cfg["out"]:
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        otio.write_json_atomic(
            {
                "version": __version__,
                "passed": all(r.passed for r in results),
                "results": [r.as_json() for r in results],
                "wall_time_s": round(time.perf_counter() - t0, 3),
            },
            out / "report.json",
        )
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="otlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"otlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="run the attention solver and export patterns")
    _add_common(p, "n", "d", "lambda", "gamma", "depth", "seed", "out", "checkpoints")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("sort", help="sort values with the attention solver")
    p.add_argument("--x", default=None, help="comma-separated values to sort")
    _add_common(p, "lambda", "gamma", "depth", "out")
    p.set_defaults(func=_cmd_sort)

    p = sub.add_parser("gd", help="run the descent engine directly")
    _add_common(p, "n", "d", "lambda", "gamma", "depth", "seed", "out")
    p.add_argument("--radius", default=None,
                   help="derive the stepsize from this confinement radius instead of --gamma")
    p.set_defaults(func=_cmd_gd)

    p = sub.add_parser("sinkhorn", help="solve the scaling fixed point")
    _add_common(p, "n", "d", "lambda", "seed", "out")
    p.add_argument("--tol", default=None, help="marginal tolerance (default 1e-12, or 1e-8 below lambda 0.05)")
    p.add_argument("--max-sweeps", dest="max_sweeps", default=None, help="sweep budget")
    p.set_defaults(func=_cmd_sinkhorn)

    p = sub.add_parser("verify", help="run all verification suites")
    _add_common(p, "seed", "out")
    p.add_argument("--quick", action="store_const", const="1", default=None, help="reduced trial counts")
    p.add_argument("--flip-sign", dest="flip_sign", action="store_const", const="1", default=None,
                   help="inject a value-map sign fault (the suites must catch it)")
    p.set_defaults(func=_cmd_verify)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DivergenceError as exc:
        print(f"otlab: {exc}; the run diverged", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"otlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
