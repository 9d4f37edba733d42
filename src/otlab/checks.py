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
from .problem import (ProblemInstance, cost_matrix, permutation_instance, seeded_instance, sorting_instance,
                      uniform_instance)
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


def _forward_deviation(insts: list[ProblemInstance], depth: int, weights: LayerWeights) -> float:
    """max |duals(layer ell) - iterate ell| over ell = 1..depth and the
    instances, which share n and d and run as one stacked pass; each layer is
    compared with one stacked gd_step as the pass makes it."""
    C = np.stack([cost_matrix(inst) for inst in insts])
    it = dd.zero_iterate(C.shape[:-1])
    worst = 0.0

    def compare(ell, state):
        nonlocal it, worst
        if ell:
            it = dd.gd_step(C, it, weights.lam, weights.gamma)
            u, v = read_dual(state)
            worst = max(worst, np.abs(u - it.u).max(), np.abs(v - it.v).max())

    forward(insts, depth, weights, observe=compare)
    return worst


def check_gd_equivalence(n_seeds: int = 5, flip_sign: bool = False) -> CheckResult:
    """Layer-by-layer agreement between the forward pass and the descent
    oracle: max |duals(layer ell) - iterate ell| over every prefix and case,
    within tol 1e-8. The grid is n in (2, 4, 8), d in (1, 2) and lam in
    (0.1, 1), with n_seeds instances each, depth 50 and stepsize gamma 0.1.
    The seeds of one (lam, d, n) run as one stacked pass."""
    depth, gamma, tol = 50, 0.1, 1e-8
    worst, cases = 0.0, 0
    for lam in (0.1, 1.0):
        for d in (1, 2):
            weights = build_constructed_weights(d, lam, gamma)
            if flip_sign:
                weights = _flip_first_value_sign(weights)
            for n in (2, 4, 8):
                draws = [np.random.default_rng((seed, n, d, int(lam * 1000))) for seed in range(n_seeds)]
                insts = [seeded_instance(n, d, int(rng.integers(0, 2**32)), lam) for rng in draws]
                worst = max(worst, _forward_deviation(insts, depth, weights))
                cases += len(insts)
    return CheckResult(
        name="gd_equivalence",
        passed=worst <= tol,
        detail=f"{cases} runs x depth {depth}: max dual deviation {worst:.3e} (tol {tol:.0e})",
        metrics={"max_deviation": worst, "tol": tol, "cases": cases, "gamma": gamma},
    )


def check_gradients(cases: int = 20, seed: int = 0) -> CheckResult:
    """Analytic dual gradient vs central differences, within relative error 1e-5."""
    tol = 1e-5
    worst = 0.0
    for c in range(cases):
        rng = np.random.default_rng((seed, c))
        n = int(rng.integers(2, 5))
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        C = cost_matrix(uniform_instance(rng, n, 2, lam))
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


def _harness_result(name: str, report: dict) -> CheckResult:
    return CheckResult(
        name=name,
        passed=report["violations"] == 0,
        detail=f"{report['trials']} trials: {report['violations']} violations, worst slack {report['worst_slack']:.3f}",
        metrics=report,
    )


def check_closure(trials: int = 1000, seed: int = 0) -> CheckResult:
    """One normalization step at most triples the marginal error."""
    return _harness_result("closure_harness", sl.closure_harness(trials=trials, seed=seed))


def check_shift(trials: int = 1000, seed: int = 0) -> CheckResult:
    """One normalization step moves the scalings at most 4 n eps."""
    return _harness_result("shift_harness", sl.shift_harness(trials=trials, seed=seed))


def check_contraction(instances: int = 20, seed: int = 0) -> CheckResult:
    """Per-sweep Hilbert-metric ratios toward the fixed point never exceed the
    Birkhoff factor by more than slack 1e-9, observed on each kernel's own
    reference solve. Ratios with denominators at float noise are skipped, and
    a run that checks no ratio fails."""
    slack = 1e-9
    worst_excess, checked = -np.inf, 0
    for i in range(instances):
        rng = np.random.default_rng((seed, i))
        n = int(rng.integers(2, 6))
        lam = float(rng.choice([0.5, 1.0]))
        gk = sl.gibbs_kernel(cost_matrix(permutation_instance(n, int(rng.integers(0, 2**32)), lam)), lam)
        iterates = []
        ref = sl.sinkhorn_solve(gk, tol=1e-13, observe=lambda _, logw, __: iterates.append(logw))
        mu = [sl.hilbert_metric_logs(logw, ref.u / lam) for logw in iterates]
        eta = sl.contraction_factor(gk)
        for m in range(len(mu) - 1):
            if mu[m] < 1e-12:
                continue
            worst_excess = max(worst_excess, mu[m + 1] / mu[m] - eta)
            checked += 1
    return CheckResult(
        name="contraction",
        passed=checked > 0 and worst_excess <= slack,
        detail=f"{checked} sweep ratios over {instances} kernels: worst ratio-minus-eta {worst_excess:.3e}",
        metrics={"worst_excess": float(worst_excess), "ratios_checked": checked, "slack": slack},
    )


def _confined_run(inst: ProblemInstance, depth_for_r):
    """Descend once on `inst` with the stepsize matched to a radius r just
    past the Sinkhorn duals' norm, for depth_for_r(r) steps. Returns
    (trajectory, r, confined, Gibbs kernel, tol-1e-13 reference solution);
    a run whose iterates leave r is not confined and fails its suite."""
    C = cost_matrix(inst)
    gk = sl.gibbs_kernel(C, inst.lam)
    ref = sl.sinkhorn_solve(gk, tol=1e-13)
    r = max(1.1 * float(np.linalg.norm(np.concatenate([ref.u, ref.v]))), 0.2)
    traj = dd.gd_run(C, inst.lam, depth_for_r(r), dd.radius_stepsize(inst.n, r, inst.lam))
    return traj, r, traj.radius <= r, gk, ref


def _cmp(a: float, b: float) -> str:
    return "<=" if a <= b else ">"


def check_stationarity(seed: int = 0) -> CheckResult:
    """A radius-matched-stepsize run of depth 5000 on the n = 3, lam = 1
    permutation instance of `seed`, confined to radius r, must produce some
    iterate whose kernel marginals are within the predicted eps of 1/n, and
    its smallest gradient must respect the descent bound."""
    n, lam, depth = 3, 1.0, 5000
    traj, r, confined, _, _ = _confined_run(permutation_instance(n, seed, lam), lambda _: depth)
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
            f"depth {depth}, {'' if confined else 'left '}radius {r:.3f} (realized {traj.radius:.3f}): "
            f"best marginal error {eps_min:.3e} {_cmp(eps_min, eps_pred)} predicted {eps_pred:.3e}; "
            f"min grad^2 {grad_sq_min:.3e} {_cmp(grad_sq_min, grad_bound)} bound {grad_bound:.3e}"
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


def check_depth_bound(seed: int = 0) -> CheckResult:
    """Descend deep enough to satisfy the depth-bound precondition, take the
    most stationary iterate, and compare its Hilbert distance to the scaling
    fixed point against the bound. The instance sorts n = 2 values drawn
    uniformly from `seed`, at lam = 1: at n = 2 a permutation instance's cost
    is symmetric, and its distance reads 0."""
    n, lam = 2, 1.0
    inst = sorting_instance(np.random.default_rng(seed).uniform(0, 1, n), lam)
    traj, r, confined, gk, ref = _confined_run(inst, lambda r: math.ceil(sl.scaling_bound_depth(n, r, lam)) + 1)
    depth = traj.depth
    k = int(np.argmin(traj.marginal_errors))
    u, v = traj.duals[k]
    eta = sl.contraction_factor(gk)
    # depth was sized for r, so the (monotone) precondition holds a fortiori
    # at the realized radius of a confined run; one that left r fails anyway
    bound = sl.scaling_convergence_bound(n, traj.radius, lam, eta, depth) if confined else math.nan
    mu_w = sl.hilbert_metric_logs(u / lam, ref.u / lam)
    mu_q = sl.hilbert_metric_logs(v / lam, ref.v / lam)
    achieved = max(mu_w, mu_q)
    if confined:
        where, against = "(precondition-satisfying)", f"{_cmp(achieved, bound)} bound {bound:.3e}"
    else:
        where, against = f"(left radius {r:.3f}, realized {traj.radius:.3f})", "has no bound outside it"
    return CheckResult(
        name="depth_bound",
        passed=confined and achieved <= bound,
        detail=f"depth {depth} {where}, stationary layer {k}: scaling distance {achieved:.3e} {against}",
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
