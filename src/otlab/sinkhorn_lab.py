"""Sinkhorn matrix scaling and the contraction theory used to verify it.

Normalization maps act on positive matrices whose target marginals are the
uniform vector 1/n:

    row(A)_i = 1/(n sum_j A_ij)      col(A)_j = 1/(n sum_i A_ij)
    f(A) = A diag(col(A))            g(A) = diag(row(A)) A

One Sinkhorn sweep is g(f(A)). On the scaling vectors (w, q) with
A = diag(w) Q diag(q) the sweep is w -> 1/(n Q (1/(n Q^T w))), and since
pointwise inversion is an isometry of the Hilbert projective metric while Q
contracts it by the Birkhoff factor, each sweep contracts the distance of w to
the fixed point by at least that factor. The solver itself runs entirely in
log space so kernels with e^{-C/lam} down to e^{-200} stay exact.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .logdomain import lse, marginal_error, square_matrices


class SinkhornError(RuntimeError):
    """Raised when scaling fails to reach tolerance; carries the achieved error."""

    def __init__(self, message: str, eps_star: float):
        super().__init__(message)
        self.eps_star = eps_star


@dataclasses.dataclass(frozen=True)
class GibbsKernel:
    """Positive kernel Q = exp(-C/lam - 1) stored with its log."""

    logQ: np.ndarray
    lam: float

    @property
    def n(self) -> int:
        return self.logQ.shape[0]


def gibbs_kernel(C: np.ndarray, lam: float) -> GibbsKernel:
    C = np.asarray(C, dtype=float)
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("lam must be positive and finite")
    with np.errstate(over="ignore"):  # -inf past the float range: a kernel entry of exactly 0
        return GibbsKernel(logQ=-C / lam - 1.0, lam=lam)


# ---------------------------------------------------------------------------
# dense normalization maps; each acts on one matrix or, slice by slice, on a
# stack of them over the last two axes


def row_fn(A: np.ndarray) -> np.ndarray:
    """Row normalizers 1/(n * row sums)."""
    A = square_matrices(A)
    s = A.sum(axis=-1)
    if not (np.isfinite(s).all() and (s > 0).all()):
        raise ValueError("row sums must be positive and finite")
    return 1.0 / (A.shape[-1] * s)


def col_fn(A: np.ndarray) -> np.ndarray:
    """Column normalizers 1/(n * column sums)."""
    A = square_matrices(A)
    s = A.sum(axis=-2)
    if not (np.isfinite(s).all() and (s > 0).all()):
        raise ValueError("column sums must be positive and finite")
    return 1.0 / (A.shape[-1] * s)


def f_map(A: np.ndarray) -> np.ndarray:
    """Column normalization A diag(col(A)); makes column sums exactly 1/n."""
    return A * col_fn(A)[..., None, :]


def g_map(A: np.ndarray) -> np.ndarray:
    """Row normalization diag(row(A)) A; makes row sums exactly 1/n."""
    return A * row_fn(A)[..., :, None]


# ---------------------------------------------------------------------------
# Hilbert projective metric and the Birkhoff contraction factor


def hilbert_metric_logs(logw: np.ndarray, logwp: np.ndarray) -> float:
    """log max_ij (w_i wp_j)/(w_j wp_i) from log w and log wp: the projective
    distance between positive vectors, i.e. the spread of their log ratios."""
    d = np.asarray(logw, dtype=float) - np.asarray(logwp, dtype=float)
    return float(d.max() - d.min())


def log_max_cross_ratio(logQ: np.ndarray) -> float:
    """log of max_{ijkl} Q_ik Q_jl / (Q_jk Q_il), computed in O(n^3).

    For each column pair the inner max over (i, j) splits into two independent
    maxima of the column log-difference, i.e. its spread.
    """
    logQ = square_matrices(logQ)
    if logQ.ndim != 2:
        raise ValueError("expected one kernel, not a stack")
    diff = logQ[:, :, None] - logQ[:, None, :]  # diff[i, k, l] = logQ_ik - logQ_il
    return float(np.ptp(diff, axis=0).max())


def contraction_factor(gk: GibbsKernel) -> float:
    """Birkhoff contraction factor (sqrt(phi) - 1)/(sqrt(phi) + 1) of one
    half-sweep through the kernel, phi its max cross ratio; computed as
    tanh(log(phi)/4), which is immune to phi overflow."""
    return float(np.tanh(log_max_cross_ratio(gk.logQ) / 4.0))


# ---------------------------------------------------------------------------
# solver


@dataclasses.dataclass(frozen=True)
class SinkhornResult:
    """The fixed point as duals u = lam log w, v = lam log q in the balanced
    gauge mean(u) = mean(v), so plan = exp(log_kernel(C, u, v, lam)).

    The dual optimum is only defined up to (u + c, v - c). Hilbert distances
    do not see c, but a confinement radius does, and the radius-matched
    stepsize is exponentially sensitive to it; the balanced gauge is the one
    of least norm.
    """

    u: np.ndarray
    v: np.ndarray
    plan: np.ndarray
    eps_star: float
    sweeps: int


def _f_update(logQ: np.ndarray, logw: np.ndarray) -> np.ndarray:
    # q <- 1/(n Q^T w)
    n = logQ.shape[0]
    return -(np.log(n) + lse(logQ + logw[:, None], axis=0))


def _g_update(logQ: np.ndarray, logq: np.ndarray) -> np.ndarray:
    # w <- 1/(n Q q)
    n = logQ.shape[0]
    return -(np.log(n) + lse(logQ + logq[None, :], axis=1))


def sinkhorn_solve(gk: GibbsKernel, tol: float | None = None, max_sweeps: int = 100_000, observe=None) -> SinkhornResult:
    """Alternate column/row normalization until every marginal is within tol
    of 1/n. Raises SinkhornError (with the achieved error) if the budget runs
    out — the kernel is strictly positive in exact arithmetic, so that only
    signals an unreachable tolerance, not divergence — or at once at a sweep
    whose error is NaN, as when a whole kernel row underflows to zero.

    The default tol is 1e-12, or 1e-8 below lam = 0.05: near-deterministic
    plans contract too slowly for 1e-12 (83,502 sweeps at n = 4, lam = 0.005,
    where 1e-8 takes one), and 1e-8 marginals already give ~1e-7 plans.

    After a row step the rows sit at 1/n, and the columns at q / (n q'),
    where q' is what the next column step computes anyway. So each sweep
    measures its column defect from that step, and only once it is within
    tol is the plan exponentiated and checked densely; the returned plan
    always passes the dense check.

    `observe(sweep, logw, logq)` sees the unit scalings (zeros) as sweep 0,
    then each sweep's logw = g(f(previous logw)) and the logq it came from,
    right after the row step; the arrays are never reused, so it may keep them.
    """
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if tol is None:
        tol = 1e-12 if gk.lam >= 0.05 else 1e-8
    if not tol > 0:  # also catches NaN
        raise ValueError(f"tol must be positive, got {tol}")
    n = gk.n
    logw = np.zeros(n)
    if observe is not None:
        observe(0, logw, np.zeros(n))
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN sweep error is reported below
        logq = _f_update(gk.logQ, logw)
        for sweep in range(1, max_sweeps + 1):
            logw = _g_update(gk.logQ, logq)
            if observe is not None:
                observe(sweep, logw, logq)
            next_logq = _f_update(gk.logQ, logw)
            eps = float(np.abs(np.expm1(logq - next_logq)).max()) / n
            if math.isnan(eps):
                raise SinkhornError(f"marginal error is nan at sweep {sweep}", eps_star=eps)
            if eps <= tol:
                P = np.exp(gk.logQ + logw[:, None] + logq[None, :])
                eps = marginal_error(P)
                if eps <= tol:
                    # (w c, q / c) scale to one plan; balanced in log units, nothing overflows
                    c = (logq.mean() - logw.mean()) / 2.0
                    return SinkhornResult(u=gk.lam * (logw + c), v=gk.lam * (logq - c), plan=P, eps_star=eps,
                                          sweeps=sweep)
            logq = next_logq
    raise SinkhornError(f"no convergence to {tol} within {max_sweeps} sweeps (reached {eps})", eps_star=float(eps))


# ---------------------------------------------------------------------------
# one-step displacement and the depth bound


def normalization_mu_shifts(A: np.ndarray) -> tuple:
    """Hilbert-metric displacement of the scaling vectors under one f / g.

    f multiplies the column scaling by col(A) and g the row scaling by row(A),
    so the displacements are the log-spreads of those normalizer vectors,
    independent of how A is decomposed. Floats for one matrix, arrays over the
    leading axes for a stack.
    """
    lc = np.log(col_fn(A))
    lr = np.log(row_fn(A))
    shifts = lc.max(axis=-1) - lc.min(axis=-1), lr.max(axis=-1) - lr.min(axis=-1)
    return tuple(map(float, shifts)) if lc.ndim == 1 else shifts


def scaling_bound_depth(n: int, r: float, lam: float) -> float:
    """The depth 64 n^3 e^{3r/lam} r from which scaling_convergence_bound
    applies; inf once the exponential overflows."""
    return float(64.0 * n**3 * np.exp(3.0 * r / lam) * r)


def scaling_convergence_bound(n: int, r: float, lam: float, eta: float, depth: int) -> float:
    """Distance bound 36 n^{3/2} e^{r/lam} sqrt(r) / (sqrt(depth) (1 - eta))
    for the scalings reached by descending `depth` steps and then following
    the contraction; only valid once depth >= scaling_bound_depth(n, r, lam).
    """
    if not 0 <= eta < 1:
        raise ValueError(f"contraction factor must be in [0, 1), got {eta}")
    needed = scaling_bound_depth(n, r, lam)
    if depth < needed:
        raise ValueError(f"depth {depth} below the bound's precondition {needed:.3g}")
    return float(36.0 * n**1.5 * np.exp(r / lam) * np.sqrt(r) / (np.sqrt(depth) * (1.0 - eta)))


# ---------------------------------------------------------------------------
# randomized property harnesses


def random_near_scaled(rngs: list[np.random.Generator], n: int, eps_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """One positive n x n matrix per generator, all marginals strictly within
    eps_cap of 1/n: the (T, n, n) stack and its (T,) marginal errors.

    Each lognormal matrix is scaled to doubly stochastic, then perturbed
    entrywise by a relative factor small enough that the achieved marginal
    error stays below 0.9 * eps_cap while every entry stays positive. A trial
    depends on its own generator only: it draws the matrix, the factor and
    the perturbation in that order, and its scaling stops at the first
    iteration that brings it within eps_cap * 1e-6, whatever the others do.
    """
    P = np.empty((len(rngs), n, n))
    noise = np.empty_like(P)
    for t, rng in enumerate(rngs):
        P[t] = rng.normal(size=(n, n))
        rho = n * eps_cap * rng.uniform(0.05, 0.9)
        noise[t] = rng.uniform(-rho, rho, size=(n, n))
    np.exp(P, out=P)  # well-conditioned, dense sweeps suffice
    P /= P.sum(axis=(-2, -1), keepdims=True)
    live = np.arange(len(P))  # trials still scaling; Q holds their iterates
    Q = P
    for _ in range(500):
        Q = g_map(f_map(Q))
        done = marginal_error(Q) <= eps_cap * 1e-6
        P[live[done]] = Q[done]
        live, Q = live[~done], Q[~done]
        if not live.size:
            break
    P[live] = Q
    P *= 1.0 + noise
    eps_star = marginal_error(P)
    if not (eps_star < eps_cap).all():
        raise AssertionError("perturbation sizing failed to stay inside the ball")
    return P, eps_star


def _harness(trials: int, ns: tuple[int, ...], seed: int, k: float, ratios) -> dict:
    """Draw a matrix with marginal error eps < 1/(k n) per trial and count the
    `ratios(A, n, eps)` (each a bound's use of its slack) that exceed 1.
    Trial t has size ns[t % len(ns)] and generator (seed, t), so it draws the
    same matrix whatever else runs; the trials of one size form one stack."""
    violations = 0
    worst = 0.0
    for n in dict.fromkeys(ns):
        ts = [t for t in range(trials) if ns[t % len(ns)] == n]
        if not ts:
            continue
        A, eps = random_near_scaled([np.random.default_rng((seed, t)) for t in ts], n, 1.0 / (k * n))
        for ratio in ratios(A, n, eps):
            worst = max(worst, float(ratio.max()))
            violations += int((ratio > 1.0).sum())
    return {"trials": trials, "violations": violations, "worst_slack": worst}


def closure_harness(trials: int = 1000, ns: tuple[int, ...] = (2, 3, 5, 8), seed: int = 0) -> dict:
    """Check that one f or g application at most triples the marginal error
    (requires starting error < 1/(3n))."""
    return _harness(
        trials, ns, seed, 3.0,
        lambda A, n, eps: (marginal_error(mapped) / (3.0 * eps) for mapped in (f_map(A), g_map(A))),
    )


def shift_harness(trials: int = 1000, ns: tuple[int, ...] = (2, 3, 5, 8), seed: int = 0) -> dict:
    """Check that one f or g application moves the scalings by at most 4 n eps
    in the Hilbert metric (requires starting error < 1/(4n))."""
    return _harness(
        trials, ns, seed, 4.0,
        lambda A, n, eps: (shift / (4.0 * n * eps) for shift in normalization_mu_shifts(A)),
    )
