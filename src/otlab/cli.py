"""otlab command line: run the attention solver, the descent and scaling
engines, the sorting demo, and the verification suites.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 solver
non-convergence, including a run that overflows.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
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
from .problem import cost_matrix, seeded_instance, sorting_instance
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
    # argparse prints its usage and exits 2 on a usage error; this tool keeps 2
    # for verification, and main reports every usage error as one line
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no flag starts with a digit, so "-1e-3" and "-0.5,1" are values;
        # argparse's own pattern admits only plain "-2" and "-.5"
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ValueError(message)


def _at_least(lo: int):
    """argparse type: an integer no smaller than lo."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def _comma_list(kind):
    """argparse type: comma-separated values of `kind`; empty items are skipped."""

    def parse(text: str) -> list:
        return [kind(tok) for tok in text.split(",") if tok.strip()]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


# flags shared by several commands, each declared once with its type and default
_SHARED = {
    "d": dict(type=_at_least(1), default=1, help="point dimension (d > 1 samples uniform points)"),
    "lambda": dict(type=float, default=0.005, help="entropic regularization weight"),
    "gamma": dict(type=float, default=0.01, help="descent stepsize"),
    "depth": dict(type=int, default=2000, help="number of layers / steps"),
    "seed": dict(type=_at_least(0), default=0, help="instance seed"),
    "out": dict(type=lambda text: Path(text) if text else None,  # an empty --out writes nothing
                help="output directory (omit to skip artifacts)"),
}


def _command(commands, name: str, func, help: str, *shared: str) -> _Parser:
    p = commands.add_parser(name, help=help)
    for key in shared:
        p.add_argument(f"--{key}", **_SHARED[key])
    p.add_argument("--config", help="flat key=value file of flag values; explicit flags win")
    p.set_defaults(func=func)
    return p


def _parse(parser: _Parser, commands, argv: list[str] | None) -> argparse.Namespace:
    """Parse argv. A --config file's lines are parsed as the command's own
    flags and become its defaults, so explicit flags win wherever they stand."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    sub = commands.choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    cfg = otio.read_config(args.config)
    unknown = sorted(set(cfg) - set(actions))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    tokens = []
    for key, value in cfg.items():
        flag = actions[key].option_strings[0]
        if actions[key].nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true"):  # an on/off flag such as --quick
            tokens.append(flag)
        elif value.lower() not in ("0", "false"):
            raise ValueError(f"{args.config}: {key} takes 1, true, 0 or false, got {value!r}")
    try:
        file_args = sub.parse_args(tokens)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    sub.set_defaults(**{key: getattr(file_args, key) for key in cfg})
    return parser.parse_args(argv)


# bench/workloads.py:180 still reads this name; the next benchmark change drops it
_instance = seeded_instance


def _record(args: argparse.Namespace, name: str, body: dict) -> None:
    """Write body to args.out/name, stamped with the command, its parsed
    flags, the otlab version and the wall time since `main` parsed them."""
    config = {k: str(v) if isinstance(v, Path) else v for k, v in vars(args).items()
              if k not in ("command", "config", "func", "t0")}
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = {"command": args.command, "config": config, "version": __version__,
             "wall_time_s": round(time.perf_counter() - args.t0, 3)}
    otio.write_json_atomic({**body, **stamp}, args.out / name)


def _export(matrix: np.ndarray, out: Path, stem: str) -> list[str]:
    """Write matrix as stem.csv and stem.pgm, making out first; returns the file names."""
    out.mkdir(parents=True, exist_ok=True)
    otio.write_matrix_csv(matrix, out / f"{stem}.csv")
    otio.write_pgm(matrix, out / f"{stem}.pgm")
    return [f"{stem}.csv", f"{stem}.pgm"]


def _cmd_forward(args: argparse.Namespace) -> int:
    ns = list(dict.fromkeys(args.n))  # each size once, in first-seen order
    if not ns:
        raise ValueError("forward needs at least one n")
    d, lam, depth, out = args.d, getattr(args, "lambda"), args.depth, args.out
    if args.checkpoints is None:
        marks = sorted({k for k in (1, 300, 600, depth) if 0 < k <= depth} or {0})
    else:
        marks = sorted(set(args.checkpoints))
        if not marks:
            raise ValueError("forward needs at least one checkpoint")

    weights = build_constructed_weights(d, lam, args.gamma)
    outputs: list[str] = []
    metrics: dict = {"per_n": {}}

    for n in ns:
        inst = seeded_instance(n, d, args.seed, lam)
        C = cost_matrix(inst)
        trace = forward(inst, depth, weights, checkpoints=marks, observe=divergence_guard(C, lam))
        ref = sl.sinkhorn_solve(sl.gibbs_kernel(C, lam))
        prefix = "" if len(ns) == 1 else f"n{n}_"
        per_layer = {}
        for k in marks:
            pattern = attention_pattern(trace.state(k), weights.Qs[0])
            per_layer[str(k)] = {
                "eps_star": marginal_error(pattern),
                "frobenius_to_fixed_point": float(np.linalg.norm(pattern - ref.plan)),
            }
            if out:
                outputs += _export(pattern, out, f"{prefix}A_{k:04d}")
        metrics["per_n"][str(n)] = per_layer
        if out:
            outputs += _export(ref.plan, out, f"{prefix}Pstar")
        final = per_layer[str(marks[-1])]
        print(
            f"n={n}: layer {marks[-1]} marginal error {final['eps_star']:.3e}, "
            f"|A - P*|_F {final['frobenius_to_fixed_point']:.3e}"
        )
    if out:
        save_weights(weights, out / "weights.json")
        outputs.append("weights.json")
        _record(args, "manifest.json", {"metrics": metrics, "outputs": sorted(outputs)})
    return EXIT_OK


def _cmd_sort(args: argparse.Namespace) -> int:
    if not args.x:
        raise ValueError("sort needs at least one value: --x v1,v2,...")
    x, lam, depth = np.array(args.x), getattr(args, "lambda"), args.depth
    inst = sorting_instance(x, lam)
    weights = build_constructed_weights(inst.d, lam, args.gamma)
    trace = forward(inst, depth, weights, observe=divergence_guard(cost_matrix(inst), lam))
    # head 2's kernel block is the transposed plan, whose barycentric image of
    # x lands each rank at its sorted position
    plan_t = attention_pattern(trace.states[-1], weights.Qs[1])
    estimate = apply_plan(plan_t, x)
    target = sort_oracle(x)
    err = float(np.abs(estimate - target).max())
    print("input:    " + " ".join(f"{v:8.4f}" for v in x))
    print("sorted:   " + " ".join(f"{v:8.4f}" for v in estimate))
    print("target:   " + " ".join(f"{v:8.4f}" for v in target))
    print(f"max abs error: {err:.4f}")
    if args.out:
        metrics = {"input": x.tolist(), "estimate": estimate.tolist(), "target": target.tolist(),
                   "max_abs_error": err}
        _record(args, "manifest.json", {"metrics": metrics, "outputs": []})
    return EXIT_OK


def _cmd_gd(args: argparse.Namespace) -> int:
    n, lam, depth = args.n, getattr(args, "lambda"), args.depth
    gamma = args.gamma if args.radius is None else dd.radius_stepsize(n, args.radius, lam)
    inst = seeded_instance(n, args.d, args.seed, lam)
    traj = dd.gd_run(cost_matrix(inst), lam, depth, gamma)
    final = float(traj.marginal_errors[-1])
    print(
        f"n={n} depth={depth} gamma={gamma:.6g}: final marginal error {final:.3e}, "
        f"realized radius {traj.radius:.4f}"
    )
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        dd.trajectory_to_csv(traj, args.out / "trajectory.csv")
        metrics = {"final_marginal_error": final, "realized_radius": traj.radius, "gamma": gamma}
        _record(args, "manifest.json", {"metrics": metrics, "outputs": ["trajectory.csv"]})
    return EXIT_OK


def _cmd_sinkhorn(args: argparse.Namespace) -> int:
    lam = getattr(args, "lambda")
    inst = seeded_instance(args.n, args.d, args.seed, lam)
    res = sl.sinkhorn_solve(sl.gibbs_kernel(cost_matrix(inst), lam), tol=args.tol, max_sweeps=args.max_sweeps)
    print(f"n={args.n}: converged in {res.sweeps} sweeps, marginal error {res.eps_star:.3e}")
    if args.out:
        outputs = _export(res.plan, args.out, "Pstar")
        metrics = {"sweeps": res.sweeps, "eps_star": res.eps_star}
        _record(args, "manifest.json", {"metrics": metrics, "outputs": outputs})
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = checks.run_all(seed=args.seed, quick=args.quick, flip_sign=args.flip_sign)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    passed = all(r.passed for r in results)
    if args.out:
        rows = [dataclasses.asdict(r) for r in results]
        _record(args, "report.json", {"passed": passed, "results": rows})
    return EXIT_OK if passed else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="otlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"otlab {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = _command(commands, "forward", _cmd_forward, "run the attention solver and export patterns",
                 "d", "lambda", "gamma", "depth", "seed", "out")
    p.add_argument("--n", type=_comma_list(int), default=[4], help="instance sizes, comma-separated")
    p.add_argument("--checkpoints", type=_comma_list(int), help="comma-separated layers to export")

    p = _command(commands, "sort", _cmd_sort, "sort values with the attention solver",
                 "lambda", "gamma", "depth", "out")
    p.add_argument("--x", type=_comma_list(float), help="comma-separated values to sort")

    p = _command(commands, "gd", _cmd_gd, "run the descent engine directly",
                 "d", "lambda", "gamma", "depth", "seed", "out")
    p.add_argument("--n", type=int, default=4, help="instance size")
    p.add_argument("--radius", type=float,
                   help="derive the stepsize from this confinement radius instead of --gamma")

    p = _command(commands, "sinkhorn", _cmd_sinkhorn, "solve the scaling fixed point",
                 "d", "lambda", "seed", "out")
    p.add_argument("--n", type=int, default=4, help="instance size")
    p.add_argument("--tol", type=float, help="marginal tolerance (default 1e-12, or 1e-8 below lambda 0.05)")
    p.add_argument("--max-sweeps", type=int, default=100_000, help="sweep budget")

    p = _command(commands, "verify", _cmd_verify, "run all verification suites", "seed", "out")
    p.add_argument("--quick", action="store_true", help="reduced trial counts")
    p.add_argument("--flip-sign", action="store_true",
                   help="inject a value-map sign fault (the suites must catch it)")

    try:
        args = _parse(parser, commands, argv)
        args.t0 = time.perf_counter()  # the run's clock, read by _record
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DivergenceError as exc:
        print(f"otlab: {exc}; the run diverged", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (sl.SinkhornError, DegeneratePlanRowError) as exc:  # before ValueError: a zero row is one
        print(f"otlab: {exc}; the run did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"otlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
