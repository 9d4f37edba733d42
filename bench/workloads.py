"""The benchmark's three workloads.

Each is a closed loop with one client: the next operation starts when the
previous one has returned and been checked. `input(i)` makes operation i's
input from the seed alone, outside the timer; `op` is the timed call into
otlab; `check` tests its output against an oracle, outside the timer, and
returns a failure note or None. Calls go through module attributes
(`tc.forward`, `cli.main`) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from otlab import checks, cli, oracles, problem
from otlab import dual_descent as dd
from otlab import sinkhorn_lab as sl
from otlab import transformer_core as tc

from tracer import replace_everywhere

LAM, GAMMA, DEPTH = 0.005, 0.01, 2000


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def inject_fault() -> None:
    """Make every weight construction return the first head's value map
    negated (ascent on u), the fault `otlab verify --flip-sign` uses."""
    build = tc.build_constructed_weights
    replace_everywhere(build, lambda *a, **k: checks._flip_first_value_sign(build(*a, **k)))


class Workload:
    trace_ops = 1

    def close(self) -> None:
        pass


class SortBatch(Workload):
    """A seeded stream of 1-D sort instances, n drawn from {4, 8, 16}; one
    shared weight set; each operation does what `otlab sort` does.

    The values are a seeded shuffle of the grid {0, 1/n, ..., (n-1)/n}, the
    family of criterion 02's demos, for which its 0.05 bound is stated. On
    values uniform in [0, 1) the n = 16 sort error can exceed it (entropic
    blur at this lambda; the duals still match descent), see README.md.
    """

    name = "sort-batch"
    sizes = (4, 8, 16)
    trace_ops = 16

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.sizes_seen: Counter[int] = Counter()
        self.descent: dict[int, dd.DualIterate] = {}

    def setup(self) -> None:
        self.weights = tc.build_constructed_weights(1, LAM, GAMMA)

    def input(self, i: int) -> np.ndarray:
        rng = np.random.default_rng((self.seed, i))
        n = self.sizes[int(rng.integers(len(self.sizes)))]
        self.sizes_seen[n] += 1
        return rng.permutation(n) / n

    def op(self, x: np.ndarray):
        inst = problem.sorting_instance(x, LAM)
        trace = tc.forward(inst, DEPTH, weights=self.weights, record_patterns=False)
        plan_t = tc.attention_pattern(trace.states[-1], self.weights.heads[1], "raw_kernel")
        return tc.apply_plan(plan_t, x), trace.states[-1]

    def check(self, x: np.ndarray, out) -> str | None:
        estimate, final = out
        err = float(np.abs(estimate - oracles.sort_oracle(x)).max())
        if not err <= 0.05:  # criterion 02's bound
            return f"n={x.size}: sort error {err:.3g} > 0.05"
        # Descent commutes with relabelling the sources: on x = grid[perm] its
        # iterates are the unshuffled grid's with u permuted alike (up to the
        # order of the column sums), so one gd_step loop per n serves every op.
        perm = np.rint(x * x.size).astype(int)
        ref = self._grid_descent(x.size)
        u, v = tc.read_dual(final)
        dev = max(np.abs(u - ref.u[perm]).max(), np.abs(v - ref.v).max())
        if not dev <= 1e-8:  # criterion 01's tolerance
            return f"n={x.size}: final duals {dev:.3g} from the gd_step loop"
        return None

    def _grid_descent(self, n: int) -> dd.DualIterate:
        if n not in self.descent:
            C = problem.cost_matrix(problem.sorting_instance(np.arange(n) / n, LAM))
            it = dd.zero_iterate(n)
            for _ in range(DEPTH):
                it = dd.gd_step(C, it, LAM, GAMMA)
            self.descent[n] = it
        return self.descent[n]

    def properties(self) -> dict:
        total = sum(self.sizes_seen.values())
        return {
            "instances_per_n": {str(n): self.sizes_seen[n] for n in self.sizes},
            "share_per_n": {str(n): self.sizes_seen[n] / total for n in self.sizes},
            # batching groups equal-n instances; this is the largest such group
            "largest_equal_n_share": max(self.sizes_seen.values()) / total,
            "lambda": LAM,
            "gamma": GAMMA,
            "depth": DEPTH,
        }

    def kernel_shapes(self) -> list[tuple[int, int]]:
        return [(n, 1) for n in self.sizes]


class ForwardDeep(Workload):
    """`otlab forward --n 128 --d 2 --depth 2000 --out DIR` through cli.main."""

    name = "forward-deep"
    n, d = 128, 2
    trace_ops = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.out: Path | None = None
        self.digests: dict[str, str] | None = None
        self.artifact_bytes = 0

    def setup(self) -> None:
        if self.out is None:
            self.out = Path(tempfile.mkdtemp(prefix="forward-", dir=self.workdir))
        self.argv = [
            "forward", "--n", str(self.n), "--d", str(self.d), "--lambda", str(LAM),
            "--gamma", str(GAMMA), "--depth", str(DEPTH), "--seed", str(self.seed),
            "--out", str(self.out),
        ]

    def input(self, i: int) -> list[str]:
        return self.argv

    def op(self, argv: list[str]):
        return _cli(argv)

    def check(self, argv, out) -> str | None:
        rc, _ = out
        if rc != cli.EXIT_OK:
            return f"exit code {rc}"
        layers = json.loads((self.out / "manifest.json").read_text())["metrics"]["per_n"][str(self.n)]
        marks = sorted(layers, key=int)
        # criterion 03: the trend over checkpoints is non-increasing
        for key in ("eps_star", "frobenius_to_fixed_point"):
            vals = [layers[k][key] for k in marks]
            if not all(b <= a + 1e-15 for a, b in zip(vals, vals[1:])):
                return f"{key} not non-increasing over layers {marks}: {vals}"
        names = sorted(p.name for p in self.out.glob("A_*.csv")) + ["Pstar.csv", "weights.json"]
        digests = {nm: hashlib.sha256((self.out / nm).read_bytes()).hexdigest() for nm in names}
        if self.digests is None:
            self.digests = digests
            self.artifact_bytes = sum(p.stat().st_size for p in self.out.iterdir())
        elif digests != self.digests:
            return "artifacts differ from the first operation's"
        return None

    def properties(self) -> dict:
        inst = cli._instance(self.n, self.d, self.seed, LAM)
        tol = 1e-8  # the tolerance `otlab forward` uses for its reference below lam = 0.05
        ref = sl.sinkhorn_solve(sl.gibbs_kernel(problem.cost_matrix(inst), LAM), tol=tol)
        return {
            "n": self.n,
            "d": self.d,
            "depth": DEPTH,
            "reference_sweeps": ref.sweeps,
            "artifact_bytes": self.artifact_bytes,
            "sha256": self.digests,
        }

    def kernel_shapes(self) -> list[tuple[int, int]]:
        return [(self.n, self.d)]

    def close(self) -> None:
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)


class OracleSuite(Workload):
    """The full `otlab verify` through cli.main, then criterion 10 extended to
    n = 8: reference solves rounded and compared with exhaustive search and
    the monotone ranks."""

    name = "oracle-suite"
    suites = 7

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.sweeps: dict[str, int] = {}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.cases = [(n, int(rng.integers(0, 2**32))) for n in range(2, 9) for _ in range(3)]
        self.argv = ["verify", "--seed", str(self.seed)]

    def input(self, i: int):
        return self.argv, self.cases

    def op(self, inp):
        argv, cases = inp
        rc, text = _cli(argv)
        plans = []
        for n, s in cases:
            inst = problem.permutation_instance(n, s, LAM)
            C = problem.cost_matrix(inst)
            res = sl.sinkhorn_solve(sl.gibbs_kernel(C, LAM), tol=1e-9)
            try:
                rounded = oracles.round_plan(res.plan)
            except oracles.DegeneratePlanError:
                rounded = None
            else:
                rounded = (rounded, oracles.brute_force_ot(C).perm, oracles.monotone_ranks(inst.x.ravel()))
            plans.append((n, s, res.sweeps, rounded))
        return rc, text, plans

    def check(self, inp, out) -> str | None:
        rc, text, plans = out
        lines = text.splitlines()
        failed = [ln for ln in lines if ln.startswith("FAIL")]
        if rc != cli.EXIT_OK or failed or sum(ln.startswith("PASS") for ln in lines) != self.suites:
            return f"verify exit {rc}: " + "; ".join(failed or lines[-1:])
        rounded = [p for p in plans if p[3] is not None]
        if not rounded:
            return "no reference plan rounded cleanly"
        for n, s, _, (via_rounding, exhaustive, ranks) in rounded:
            if not via_rounding == exhaustive == ranks:
                return f"n={n} seed={s}: rounding {via_rounding}, exhaustive {exhaustive}, ranks {ranks}"
        self.sweeps = {f"n{n}_seed{s}": sweeps for n, s, sweeps, _ in plans}
        self.rounded = len(rounded)
        return None

    def properties(self) -> dict:
        return {
            "verify_seed": self.seed,
            "reference_solves": len(self.cases),
            "reference_lambda": LAM,
            "reference_tol": 1e-9,
            "reference_sweeps": self.sweeps,
            "plans_rounded": getattr(self, "rounded", 0),
        }

    def kernel_shapes(self) -> list[tuple[int, int]]:
        # the equivalence suite's layers
        return [(n, d) for d in (1, 2) for n in (2, 4, 8)]


WORKLOADS = {w.name: w for w in (SortBatch, ForwardDeep, OracleSuite)}
