"""End-to-end verification suites pitting the attention solver against
independent oracles. Each suite returns a CheckResult; the CLI `verify`
command runs them all and reports failures via its exit code.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import dual_descent as dd
from . import sinkhorn_lab as sl
from .oracles import finite_diff_grad
from .problem import ProblemInstance, cost_matrix, permutation_instance
from .prompt import read_dual
from .transformer_core import LayerWeights, build_constructed_weights, forward


@dataclasses.dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    metrics: dict


def _flip_first_value_sign(weights: LayerWeights) -> LayerWeights:
    # deliberate fault injection: ascend instead of descend on u
    Wvs = weights.Wvs.copy()
    Wvs[0] = -Wvs[0]
    return dataclasses.replace(weights, Wvs=Wvs)


def _random_instance(rng: np.random.Generator, n: int, d: int, lam: float) -> ProblemInstance:
    if d == 1:
        return permutation_instance(n, int(rng.integers(0, 2**32)), lam)
    return ProblemInstance(x=rng.uniform(0, 1, (n, d)), y=rng.uniform(0, 1, (n, d)), lam=lam)


def _forward_deviation(insts: list[ProblemInstance], depth: int, weights: LayerWeights, gamma: float) -> float:
    """max |duals(layer ell) - iterate ell| over ell = 1..depth and the
    instances, which share n and d and run as one stacked pass; each layer is
    compared with one stacked gd_step as the pass makes it."""
    C = np.stack([cost_matrix(inst) for inst in insts])
    it = dd.zero_iterate(C.shape[:-1])
    worst = 0.0

    def compare(ell, state):
        nonlocal it, worst
        if ell:
            it = dd.gd_step(C, it, insts[0].lam, gamma)
            u, v = read_dual(state)
            diff = max(np.abs(u - it.u).max(), np.abs(v - it.v).max())
            worst = max(worst, diff)

    forward(insts, depth, weights, observe=compare)
    return worst


def check_gd_equivalence(
    ns: tuple[int, ...] = (2, 4, 8),
    ds: tuple[int, ...] = (1, 2),
    lams: tuple[float, ...] = (0.1, 1.0),
    depth: int = 50,
    n_seeds: int = 5,
    gamma: float = 0.1,
    tol: float = 1e-8,
    flip_sign: bool = False,
) -> CheckResult:
    """Layer-by-layer agreement between the forward pass and the descent
    oracle: max |duals(layer ell) - iterate ell| over every prefix and case.
    The seeds of one (lam, d, n) run as one stacked pass."""
    cache: dict[tuple[int, float], LayerWeights] = {}
    worst = 0.0
    cases = 0
    for lam in lams:
        for d in ds:
            key = (d, lam)
            if key not in cache:
                w = build_constructed_weights(d, lam, gamma)
                cache[key] = _flip_first_value_sign(w) if flip_sign else w
            for n in ns:
                insts = [
                    _random_instance(np.random.default_rng((seed, n, d, int(lam * 1000))), n, d, lam)
                    for seed in range(n_seeds)
                ]
                worst = max(worst, _forward_deviation(insts, depth, cache[key], gamma))
                cases += len(insts)
    return CheckResult(
        name="gd_equivalence",
        passed=worst <= tol,
        detail=f"{cases} runs x depth {depth}: max dual deviation {worst:.3e} (tol {tol:.0e})",
        metrics={"max_deviation": worst, "tol": tol, "cases": cases, "gamma": gamma},
    )


def check_gradients(cases: int = 20, tol: float = 1e-5, seed: int = 0) -> CheckResult:
    """Analytic dual gradient vs central differences of the objective."""
    worst = 0.0
    for c in range(cases):
        rng = np.random.default_rng((seed, c))
        n = int(rng.integers(2, 5))
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        inst = ProblemInstance(x=rng.uniform(0, 1, (n, 2)), y=rng.uniform(0, 1, (n, 2)), lam=lam)
        C = cost_matrix(inst)
        theta = rng.normal(0, 0.3, 2 * n)

        def fn(t):
            return dd.dual_objective(C, dd.DualIterate(u=t[:n], v=t[n:]), lam)

        gu, gv = dd.gradients(C, dd.DualIterate(u=theta[:n], v=theta[n:]), lam)
        analytic = np.concatenate([gu, gv])
        fd = finite_diff_grad(fn, theta, h=1e-6)
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, rel)
    return CheckResult(
        name="gradient_check",
        passed=worst <= tol,
        detail=f"{cases} cases: worst relative error {worst:.3e} (tol {tol:.0e})",
        metrics={"worst_rel_error": worst, "tol": tol, "cases": cases},
    )


def check_closure(trials: int = 1000, seed: int = 0) -> CheckResult:
    """One normalization step at most triples the marginal error."""
    report = sl.closure_harness(trials=trials, seed=seed)
    return CheckResult(
        name="closure_harness",
        passed=report["violations"] == 0,
        detail=f"{report['trials']} trials: {report['violations']} violations, worst slack {report['worst_slack']:.3f}",
        metrics=report,
    )


def check_shift(trials: int = 1000, seed: int = 0) -> CheckResult:
    """One normalization step moves the scalings at most 4 n eps."""
    report = sl.shift_harness(trials=trials, seed=seed)
    return CheckResult(
        name="shift_harness",
        passed=report["violations"] == 0,
        detail=f"{report['trials']} trials: {report['violations']} violations, worst slack {report['worst_slack']:.3f}",
        metrics=report,
    )


def check_contraction(instances: int = 20, sweeps: int = 25, slack: float = 1e-9, seed: int = 0) -> CheckResult:
    """Per-sweep Hilbert-metric ratios toward the fixed point never exceed the
    Birkhoff factor. Ratios with denominators at float noise are skipped."""
    worst_excess = -np.inf
    checked = 0
    for i in range(instances):
        rng = np.random.default_rng((seed, i))
        n = int(rng.integers(2, 6))
        lam = float(rng.choice([0.5, 1.0]))
        inst = permutation_instance(n, int(rng.integers(0, 2**32)), lam)
        gk = sl.gibbs_kernel(cost_matrix(inst), lam)
        eta = sl.contraction_factor(gk)
        hist = sl.contraction_history(gk, sweeps=sweeps, reference=sl.sinkhorn_solve(gk, tol=1e-13))
        mu = hist["mu_w"]
        for m in range(len(mu) - 1):
            if mu[m] < 1e-12:
                continue
            worst_excess = max(worst_excess, mu[m + 1] / mu[m] - eta)
            checked += 1
    return CheckResult(
        name="contraction",
        passed=worst_excess <= slack,
        detail=f"{checked} sweep ratios over {instances} kernels: worst ratio-minus-eta {worst_excess:.3e}",
        metrics={"worst_excess": float(worst_excess), "ratios_checked": checked, "slack": slack},
    )


def _confined_run(C: np.ndarray, lam: float, r_init: float, depth_for_r) -> tuple[dd.Trajectory, float, int, bool]:
    """Run with the radius-matched stepsize and verify the iterates actually
    stay inside the ball the stepsize was derived for, growing the radius
    until they do. Returns (trajectory, confirmed radius, depth, confined)."""
    r = r_init
    for _ in range(7):
        depth = depth_for_r(r)
        traj = dd.gd_run(C, lam, depth, dd.radius_stepsize(C.shape[0], r, lam))
        if traj.radius <= r:
            return traj, r, depth, True
        r = max(2.0 * r, 1.1 * traj.radius)
    return traj, r, depth, False


def check_stationarity(n: int = 3, lam: float = 1.0, depth: int = 5000, seed: int = 0) -> CheckResult:
    """A radius-matched-stepsize run confined to radius r must produce some
    iterate whose kernel marginals are within the predicted eps of 1/n, and
    its smallest gradient must respect the descent bound."""
    inst = permutation_instance(n, seed, lam)
    C = cost_matrix(inst)
    ref = sl.sinkhorn_solve(sl.gibbs_kernel(C, lam), tol=1e-13)
    r_init = max(1.1 * float(np.linalg.norm(np.concatenate([ref.u, ref.v]))), 0.2)
    traj, r, _, confined = _confined_run(C, lam, r_init, lambda _: depth)
    # bounds are stated for the ball the iterates actually visited
    eps_pred = dd.best_marginal_eps(n, traj.radius, lam, depth)
    eps_min = float(traj.marginal_errors.min())
    grad_sq = traj.grad_u_norms**2 + traj.grad_v_norms**2
    grad_bound = dd.min_grad_bound(n, traj.radius, lam, depth)
    grad_sq_min = float(grad_sq.min())
    passed = confined and eps_min <= eps_pred and grad_sq_min <= grad_bound
    return CheckResult(
        name="stationarity",
        passed=passed,
        detail=(
            f"depth {depth}, radius {r:.3f} (realized {traj.radius:.3f}): "
            f"best marginal error {eps_min:.3e} <= predicted {eps_pred:.3e}; "
            f"min grad^2 {grad_sq_min:.3e} <= bound {grad_bound:.3e}"
        ),
        metrics={
            "eps_min": eps_min,
            "eps_predicted": eps_pred,
            "grad_sq_min": grad_sq_min,
            "grad_bound": grad_bound,
            "radius_confirmed": r,
            "radius_realized": traj.radius,
            "confined": confined,
        },
    )


def check_depth_bound(n: int = 2, lam: float = 1.0, seed: int = 0) -> CheckResult:
    """Descend deep enough to satisfy the depth-bound precondition, take the
    most stationary iterate, and compare its Hilbert distance to the scaling
    fixed point against the bound."""
    inst = permutation_instance(n, seed, lam)
    C = cost_matrix(inst)
    gk = sl.gibbs_kernel(C, lam)
    ref = sl.sinkhorn_solve(gk, tol=1e-13)
    r_init = max(1.1 * float(np.linalg.norm(np.concatenate([ref.u, ref.v]))), 0.2)

    def depth_for_r(r: float) -> int:
        return math.ceil(64.0 * n**3 * math.exp(3.0 * r / lam) * r) + 1

    traj, r, depth, confined = _confined_run(C, lam, r_init, depth_for_r)
    k = int(np.argmin(traj.marginal_errors))
    u, v = traj.duals[k]
    eta = sl.contraction_factor(gk)
    # depth was sized for the confirmed radius, so the (monotone) precondition
    # holds a fortiori at the realized one
    bound = sl.scaling_convergence_bound(n, traj.radius, lam, eta, depth)
    mu_w = sl.hilbert_metric_logs(u / lam, ref.u / lam)
    mu_q = sl.hilbert_metric_logs(v / lam, ref.v / lam)
    achieved = max(mu_w, mu_q)
    return CheckResult(
        name="depth_bound",
        passed=confined and achieved <= bound,
        detail=(
            f"depth {depth} (precondition-satisfying), stationary layer {k}: "
            f"scaling distance {achieved:.3e} <= bound {bound:.3e}"
        ),
        metrics={
            "depth": depth,
            "layer": k,
            "mu_w": mu_w,
            "mu_q": mu_q,
            "bound": bound,
            "eta": eta,
            "radius_confirmed": r,
            "radius_realized": traj.radius,
            "confined": confined,
        },
    )


def run_all(seed: int = 0, quick: bool = False, flip_sign: bool = False) -> list[CheckResult]:
    trials = 200 if quick else 1000
    return [
        check_gd_equivalence(n_seeds=2 if quick else 5, flip_sign=flip_sign),
        check_gradients(cases=10 if quick else 20, seed=seed),
        check_closure(trials=trials, seed=seed),
        check_shift(trials=trials, seed=seed),
        check_contraction(instances=10 if quick else 20, seed=seed),
        check_stationarity(seed=seed),
        check_depth_bound(seed=seed),
    ]
