"""Adaptive-stepsize gradient descent on the entropic-OT dual.

For duals (u, v) the smoothed objective is

    L(u, v) = lam * sum_ij M_ij - (1/n) sum_i u_i - (1/n) sum_j v_j,
    M_ij    = exp((-C_ij + u_i + v_j)/lam - 1),

whose partial gradients are the marginal defects of M: grad_u = M 1 - 1/n and
grad_v = M^T 1 - 1/n. The descent preconditions each coordinate by
gamma / (marginal + 1); that "+1" is what a softmax over n points plus one
auxiliary token computes, which is why a fixed attention layer can realize the
step. Everything touching M goes through its log to survive lam as small as
5e-3 (entries underflow to exactly 0.0, which is the correct limit for every
quantity below).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .logdomain import log_kernel, lse


@dataclasses.dataclass(frozen=True)
class DualIterate:
    u: np.ndarray
    v: np.ndarray
    step: int = 0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("u and v must be 1-D of equal length")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.u, self.v])


def zero_iterate(n: int) -> DualIterate:
    return DualIterate(u=np.zeros(n), v=np.zeros(n), step=0)


def _log_sums(C: np.ndarray, it: DualIterate, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """log M 1 and log M^T 1 at the iterate: one kernel pass serves a step
    and everything recorded about it."""
    logM = log_kernel(C, it.u, it.v, lam)
    return lse(logM, axis=1), lse(logM, axis=0)


def dual_objective(C: np.ndarray, it: DualIterate, lam: float) -> float:
    n = C.shape[0]
    log_rs, _ = _log_sums(C, it, lam)
    return lam * np.exp(lse(log_rs, axis=0)) - (it.u.sum() + it.v.sum()) / n


def gradients(C: np.ndarray, it: DualIterate, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Marginal defects (M 1 - 1/n, M^T 1 - 1/n) of the kernel at the iterate."""
    n = C.shape[0]
    log_rs, log_cs = _log_sums(C, it, lam)
    return np.exp(log_rs) - 1.0 / n, np.exp(log_cs) - 1.0 / n


def _step_ratio(log_s: np.ndarray, n: int) -> np.ndarray:
    # (s - 1/n)/(s + 1) from log s; the rewrite for log s > 0 avoids inf/inf
    out = np.empty_like(log_s)
    big = log_s > 0
    e = np.exp(-log_s[big])
    out[big] = (1.0 - e / n) / (1.0 + e)
    s = np.exp(log_s[~big])
    out[~big] = (s - 1.0 / n) / (s + 1.0)
    return out


def _stepped(it: DualIterate, log_rs: np.ndarray, log_cs: np.ndarray, gamma: float) -> DualIterate:
    n = it.u.shape[0]
    u = it.u - gamma * _step_ratio(log_rs, n)
    v = it.v - gamma * _step_ratio(log_cs, n)
    return DualIterate(u=u, v=v, step=it.step + 1)


def gd_step(C: np.ndarray, it: DualIterate, lam: float, gamma: float) -> DualIterate:
    """One preconditioned descent step; both blocks read the same iterate."""
    return _stepped(it, *_log_sums(C, it, lam), gamma)


def radius_stepsize(n: int, r: float, lam: float) -> float:
    """gamma = exp(-2 r / lam) / (n + 2), the inverse of the smoothness
    constant on the ball of radius r, which guarantees monotone descent there."""
    if not r >= 0:
        raise ValueError("radius must be nonnegative")
    # 1/smoothness_bound without forming e^{2r/lam}, which overflows first
    gamma = math.exp(-2.0 * r / lam) / (n + 2)
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"radius {r} at lambda {lam} gives a stepsize of {gamma}")
    return gamma


@dataclasses.dataclass
class Trajectory:
    iterates: list[DualIterate]
    grad_u_norms: np.ndarray
    grad_v_norms: np.ndarray
    objectives: np.ndarray
    marginal_errors: np.ndarray
    radius: float  # max_k ||theta_k||_2 actually realized
    gamma: float
    deltas: np.ndarray | None = None  # weighted squared distance to a reference, if given

    @property
    def depth(self) -> int:
        return len(self.iterates) - 1


def gd_run(
    C: np.ndarray,
    lam: float,
    depth: int,
    gamma: float,
    reference: tuple[np.ndarray, np.ndarray] | None = None,
) -> Trajectory:
    """Run `depth` steps of stepsize `gamma` from zero duals, recording
    per-step diagnostics.

    If `reference` duals (u*, v*) are given, also records
    Delta_k = ||theta_k - theta*||^2 in the inverse-stepsize metric at step k,
    with theta* re-gauged per step so its u-mean matches the iterate's (the
    objective and kernel are invariant under (u+c, v-c)).
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = C.shape[0]
    it = zero_iterate(n)
    iterates = [it]
    gus, gvs, objs, errs, deltas = [], [], [], [], []

    def record(cur: DualIterate) -> tuple[np.ndarray, np.ndarray]:
        log_rs, log_cs = _log_sums(C, cur, lam)
        rs, cs = np.exp(log_rs), np.exp(log_cs)
        gu, gv = rs - 1.0 / n, cs - 1.0 / n
        gus.append(np.linalg.norm(gu))
        gvs.append(np.linalg.norm(gv))
        objs.append(lam * np.exp(lse(log_rs, axis=0)) - (cur.u.sum() + cur.v.sum()) / n)
        errs.append(max(np.abs(gu).max(), np.abs(gv).max()))
        if reference is not None:
            c = cur.u.mean() - reference[0].mean()
            du = cur.u - (reference[0] + c)
            dv = cur.v - (reference[1] - c)
            deltas.append((du**2 * (rs + 1.0)).sum() / gamma + (dv**2 * (cs + 1.0)).sum() / gamma)
        return log_rs, log_cs

    for _ in range(depth):
        # the step reads the sums its record just took
        it = _stepped(it, *record(it), gamma)
        iterates.append(it)
    record(it)

    radius = max(float(np.linalg.norm(i.theta)) for i in iterates)
    return Trajectory(
        iterates=iterates,
        grad_u_norms=np.array(gus),
        grad_v_norms=np.array(gvs),
        objectives=np.array(objs),
        marginal_errors=np.array(errs),
        radius=radius,
        gamma=gamma,
        deltas=np.array(deltas) if reference is not None else None,
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write("step,grad_u_norm,grad_v_norm,objective,marginal_error\n")
        for k in range(len(traj.iterates)):
            fh.write(
                f"{k},{float(traj.grad_u_norms[k])!r},{float(traj.grad_v_norms[k])!r},"
                f"{float(traj.objectives[k])!r},{float(traj.marginal_errors[k])!r}\n"
            )


def smoothness_bound(n: int, r: float, lam: float) -> float:
    """Smoothness constant (n+2) e^{2r/lam} for the ball ||theta||_2 <= r.

    Its inverse is the radius-matched stepsize. Kernel entries on the ball are
    at most e^{2r/lam - 1}, so this dominates the Hessian spectral norm
    whenever lam >= 1 (2n/e <= n+2); for smaller lam the Hessian's 1/lam
    factor can exceed it and the matched stepsize loses its descent guarantee.
    """
    return (n + 2) * np.exp(2.0 * r / lam)


def hessian(C: np.ndarray, it: DualIterate, lam: float) -> np.ndarray:
    """Exact dual Hessian (1/lam) [[diag(M1), M], [M^T, diag(M^T 1)]]."""
    M = np.exp(log_kernel(C, it.u, it.v, lam))
    n = C.shape[0]
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = np.diag(M.sum(axis=1))
    H[:n, n:] = M
    H[n:, :n] = M.T
    H[n:, n:] = np.diag(M.sum(axis=0))
    return H / lam


def min_grad_bound(n: int, r: float, lam: float, depth: int) -> float:
    """Bound on min_k ||grad L(theta_k)||^2 over a depth-`depth` run confined
    to radius r with the radius-matched stepsize."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return smoothness_bound(n, r, lam) * (n * np.exp(r / lam) + 1.0) * r / depth


def best_marginal_eps(n: int, r: float, lam: float, depth: int) -> float:
    """eps such that some iterate k <= depth has all marginal defects within
    eps of 1/n: eps^2 = 3 n e^{3r/lam} r / depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return float(np.sqrt(3.0 * n * np.exp(3.0 * r / lam) * r / depth))
