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


class DivergenceError(ArithmeticError):
    """A run left the regime where its steps are descent steps, or a
    quantity read from it is too large to measure."""


@dataclasses.dataclass(frozen=True)
class DualIterate:
    """Duals u, v of shape (..., n): leading axes stack instances."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape or u.ndim < 1:
            raise ValueError("u and v must be arrays of equal shape (..., n)")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def zero_iterate(n: int | tuple[int, ...]) -> DualIterate:
    """Zero duals of shape n, or (..., n) for a stack of instances."""
    return DualIterate(u=np.zeros(n), v=np.zeros(n))


def _log_sums(C: np.ndarray, u: np.ndarray, v: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """log M 1 and log M^T 1 at duals (u, v): one kernel pass serves a step
    and everything recorded about it."""
    logM = log_kernel(C, u, v, lam)
    return lse(logM, axis=-1), lse(logM, axis=-2)


def _objective(log_rs: np.ndarray, u: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    # lam * sum_ij M_ij from the log row sums, minus the marginal terms
    n = u.shape[-1]
    return lam * np.exp(lse(log_rs, axis=-1)) - (u.sum(axis=-1) + v.sum(axis=-1)) / n


def dual_objective(C: np.ndarray, it: DualIterate, lam: float) -> float | np.ndarray:
    log_rs, _ = _log_sums(C, it.u, it.v, lam)
    return _objective(log_rs, it.u, it.v, lam)


def gradients(C: np.ndarray, it: DualIterate, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Marginal defects (M 1 - 1/n, M^T 1 - 1/n) of the kernel at the iterate."""
    n = C.shape[-1]
    log_rs, log_cs = _log_sums(C, it.u, it.v, lam)
    return np.exp(log_rs) - 1.0 / n, np.exp(log_cs) - 1.0 / n


def _step_ratio(log_s: np.ndarray, n: int) -> np.ndarray:
    # (s - 1/n)/(s + 1) from log s, through t = exp(-|log s|) <= 1 so that
    # neither branch overflows; for log s > 0 it is rewritten to avoid inf/inf
    t = np.exp(-np.abs(log_s))
    return np.where(log_s > 0, (1.0 - t / n) / (1.0 + t), (t - 1.0 / n) / (t + 1.0))


def gd_step(C: np.ndarray, it: DualIterate, lam: float, gamma: float) -> DualIterate:
    """One preconditioned descent step; both blocks read the same iterate.
    C (..., n, n) and the iterate's (..., n) duals may stack instances."""
    n = it.u.shape[-1]
    log_rs, log_cs = _log_sums(C, it.u, it.v, lam)
    return DualIterate(u=it.u - gamma * _step_ratio(log_rs, n), v=it.v - gamma * _step_ratio(log_cs, n))


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
    """A descent run of `depth` steps: duals[k] holds the (u, v) of step k as
    a (2, n) array, and every per-step array has depth + 1 entries."""

    duals: np.ndarray  # (depth + 1, 2, n)
    grad_u_norms: np.ndarray
    grad_v_norms: np.ndarray
    objectives: np.ndarray
    marginal_errors: np.ndarray
    radius: float  # max_k ||theta_k||_2 actually realized

    @property
    def depth(self) -> int:
        return len(self.duals) - 1


def _norms(a: np.ndarray) -> np.ndarray:
    # 2-norms over the last axis; bit-identical to np.linalg.norm of each row
    return np.sqrt(np.vecdot(a, a))


def gd_run(C: np.ndarray, lam: float, depth: int, gamma: float) -> Trajectory:
    """Run `depth` steps of stepsize `gamma` from zero duals, recording
    per-step diagnostics. A step whose diagnostics are not finite raises
    DivergenceError naming n and the first such step; at zero duals, before
    any step, they depend on (C, lam) alone, and ValueError is raised.

    The loop makes one kernel pass per iterate and keeps its log sums; the
    diagnostics are computed from them once, after the loop.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = C.shape[0]
    duals = np.zeros((depth + 1, 2, n))
    log_sums = np.empty((depth + 1, 2, n))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step is reported below
        for k in range(depth + 1):
            log_sums[k] = _log_sums(C, duals[k, 0], duals[k, 1], lam)
            if k < depth:
                duals[k + 1] = duals[k] - gamma * _step_ratio(log_sums[k], n)

        objectives = _objective(log_sums[:, 0], duals[:, 0], duals[:, 1], lam)
        # the log sums are spent: their buffer holds the sums, then the gradients
        grads = np.exp(log_sums, out=log_sums)
        grads -= 1.0 / n
        grad_u_norms, grad_v_norms = _norms(grads[:, 0]), _norms(grads[:, 1])
        dual_norms = _norms(duals.reshape(depth + 1, 2 * n))
    finite = np.isfinite([objectives, grad_u_norms, grad_v_norms, dual_norms]).all(axis=0)
    if not finite[0]:  # zero duals: no step was taken, so (C, lam) itself is out of range
        raise ValueError(f"n={n}: descent diagnostics are not finite at zero duals for lambda {lam:g}")
    if not finite.all():
        raise DivergenceError(f"n={n}: descent diagnostics are not finite at step {int(finite.argmin())}")
    return Trajectory(
        duals=duals,
        grad_u_norms=grad_u_norms,
        grad_v_norms=grad_v_norms,
        objectives=objectives,
        marginal_errors=np.abs(grads, out=grads).max(axis=(1, 2)),
        radius=float(dual_norms.max()),
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write("step,grad_u_norm,grad_v_norm,objective,marginal_error\n")
        for k in range(traj.depth + 1):
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
