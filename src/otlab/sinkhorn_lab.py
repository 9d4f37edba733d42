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

from .logdomain import (ball, exp_or_inf, integer_at_least, lse, marginal_error, positive_finite, square_matrices,
                        square_matrix)


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
    """The kernel of one non-empty n x n cost C; a stack or another shape raises ValueError."""
    C = square_matrix(C)
    positive_finite("lam", lam)
    with np.errstate(over="ignore"):  # -inf past the float range: a kernel entry of exactly 0
        return GibbsKernel(logQ=-C / lam - 1.0, lam=lam)


# ---------------------------------------------------------------------------
# dense normalization maps; each acts on one matrix or, slice by slice, on a
# stack of them over the last two axes


def _normalizers(A: np.ndarray, axis: int) -> np.ndarray:
    A = square_matrices(A)
    s = A.sum(axis=axis)
    if not (np.isfinite(s).all() and (s > 0).all()):
        raise ValueError(f"sums over axis {axis} must be positive and finite")
    return 1.0 / (A.shape[-1] * s)


def row_fn(A: np.ndarray) -> np.ndarray:
    """Row normalizers 1/(n * row sums)."""
    return _normalizers(A, -1)


def col_fn(A: np.ndarray) -> np.ndarray:
    """Column normalizers 1/(n * column sums)."""
    return _normalizers(A, -2)


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
    logQ = square_matrix(logQ)
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


def sinkhorn_solve(gk: GibbsKernel, tol: float | None = None, max_sweeps: int = 100_000, observe=None) -> SinkhornResult:
    """Alternate column/row normalization until every marginal is within tol,
    positive and finite, of 1/n. Raises SinkhornError (with the achieved
    error) if the budget runs out — the kernel is strictly positive in exact
    arithmetic, so that only signals an unreachable tolerance, not
    divergence — or at once at a sweep whose error is NaN, as when a whole
    kernel row underflows to zero.

    The default tol is 1e-12, or 1e-8 below lam = 0.05: near-deterministic
    plans contract too slowly for 1e-12 (83,502 sweeps at n = 4, lam = 0.005,
    where 1e-8 takes one), and 1e-8 marginals already give ~1e-7 plans.

    After a row step the rows sit at 1/n, and the columns at q / (n q'),
    where q' is what the next column step computes anyway. So each sweep
    measures its column defect from that step, and only once it is within
    tol is the plan exponentiated and checked densely; the returned plan
    always passes the dense check.

    Each half step is -(log n + lse(logQ + log x)) for x the other scaling,
    with its shifted logs allocated afresh.

    `observe(sweep, logw, logq)` sees the unit scalings (zeros) as sweep 0,
    then each sweep's logw = g(f(previous logw)) and the logq it came from,
    right after the row step; the arrays are never reused, so it may keep them.
    """
    integer_at_least("max_sweeps", max_sweeps, 1)
    tol = _tolerance(gk, tol)
    n = gk.n
    logw = np.zeros(n)
    if observe is not None:
        observe(0, logw, np.zeros(n))
    log_n = np.log(n)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN sweep error is reported below
        logq = _half_step(gk.logQ, log_n, logw, 0)
        for sweep in range(1, max_sweeps + 1):
            logw = _half_step(gk.logQ, log_n, logq, 1)
            if observe is not None:
                observe(sweep, logw, logq)
            next_logq = _half_step(gk.logQ, log_n, logw, 0)
            eps = float(np.abs(np.expm1(logq - next_logq)).max()) / n
            if math.isnan(eps):
                raise SinkhornError(f"marginal error is nan at sweep {sweep}", eps_star=eps)
            if eps <= tol:
                P = _plan(gk.logQ, logw, logq)
                eps = marginal_error(P)
                if eps <= tol:
                    return _balanced(gk, logw, logq, P, eps, sweep)
            logq = next_logq
    raise SinkhornError(f"no convergence to {tol} within {max_sweeps} sweeps (reached {eps})", eps_star=float(eps))


def _half_step(logQ: np.ndarray, log_n: float, x: np.ndarray, axis: int) -> np.ndarray:
    # the log scaling that brings the sums along axis to 1/n, given x, the other one
    return -(log_n + lse(logQ + (x[:, None] if axis == 0 else x), axis))


def _tolerance(gk: GibbsKernel, tol: float | None) -> float:
    # the default tol rule both solvers document, and its gate
    if tol is None:
        tol = 1e-12 if gk.lam >= 0.05 else 1e-8
    positive_finite("tol", tol)
    return tol


def _balanced(gk: GibbsKernel, logw: np.ndarray, logq: np.ndarray, P: np.ndarray, eps: float,
              sweeps: int) -> SinkhornResult:
    # (w c, q / c) scale to one plan; balanced in log units, nothing overflows
    c = (logq.mean() - logw.mean()) / 2.0
    return SinkhornResult(u=gk.lam * (logw + c), v=gk.lam * (logq - c), plan=P, eps_star=eps, sweeps=sweeps)


_WARM_SWEEPS = 10
_NEWTON_STEPS = 1000
_HALVINGS = 40
_MAX_SHIFT = 50.0


def newton_solve(gk: GibbsKernel) -> SinkhornResult:
    """The fixed point of `sinkhorn_solve`, by Sinkhorn-Newton (Brauer,
    Clason, Lorenz & Wirth, arXiv:1710.06635) on the dual in log scalings.

    With P = diag(w) Q diag(q), r = P 1 and c = P^T 1, the dual
    F(log w, log q) = sum(P) - (sum(log w) + sum(log q))/n is convex, its
    gradient is (r - 1/n, c - 1/n) and its Hessian H = [[diag(r), P],
    [P^T, diag(c)]]. After a few plain sweeps, each step solves H d = -g by
    conjugate gradients preconditioned with diag(r, c): a product with H is
    one with P and one with P^T, so no 2n x 2n matrix is formed and memory
    stays O(n^2). H is singular along the gauge direction (1, -1), which
    leaves the plan unchanged; preconditioned CG from zero is plain CG on
    diag^-1/2 H diag^-1/2 from zero, whose iterates stay in that matrix's
    range, so the singular direction causes no breakdown. The iteration
    count is capped at 2n and stops once the residual is within
    min(1/2, sqrt|g|) of |g|. Where kernel entries underflow H is nearly
    singular and that step can be 1e15 long, so a step first moves no log
    scaling by more than 50. It is then halved until the dual decreases by a
    fraction of the predicted decrease, or until the marginal error halves:
    near 1e-12 the dual's differences sink into its rounding, while the
    error still reads.

    Solves to `sinkhorn_solve`'s default tol, with the same balanced-gauge
    result and a plan that passes the same dense check. `sweeps` counts the plain
    sweeps plus the Newton steps. Raises SinkhornError (with the achieved
    error) when the error is NaN after the plain sweeps, when no halving is
    accepted, or after 1000 Newton steps; it never falls back to sweeping.
    """
    tol = _tolerance(gk, None)
    n, logQ = gk.n, gk.logQ
    log_n = np.log(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # NaN and inf are refused below
        logw = np.zeros(n)
        for _ in range(_WARM_SWEEPS):
            logq = _half_step(logQ, log_n, logw, 0)
            logw = _half_step(logQ, log_n, logq, 1)
        P, spare = _plan(logQ, logw, logq), np.empty_like(logQ)
        eps = marginal_error(P)
        if math.isnan(eps):
            raise SinkhornError(f"marginal error is nan after {_WARM_SWEEPS} sweeps", eps_star=eps)
        steps = 0
        while eps > tol:
            if steps == _NEWTON_STEPS:
                raise SinkhornError(f"no convergence to {tol} within {steps} Newton steps (reached {eps})",
                                    eps_star=eps)
            steps += 1
            sums = np.concatenate([P.sum(axis=1), P.sum(axis=0)])
            g = sums - 1.0 / n
            d = _cg(P, sums, g)
            slope, shift, total = g @ d, d.sum() / n, sums[:n].sum()
            t = min(1.0, _MAX_SHIFT / np.abs(d).max())
            for _ in range(_HALVINGS):
                trial_w, trial_q = logw + t * d[:n], logq + t * d[n:]
                trial = _plan(logQ, trial_w, trial_q, spare)
                trial_eps = marginal_error(trial)
                # F(trial) - F: the change in sum(P), less t times the linear term's
                decrease = (trial.sum() - total) - t * shift
                if decrease <= 1e-4 * t * slope or trial_eps <= eps / 2:
                    break
                t /= 2
            else:
                raise SinkhornError(f"Newton step {steps} found no decrease (reached {eps})", eps_star=eps)
            logw, logq, eps = trial_w, trial_q, trial_eps
            P, spare = trial, P
    return _balanced(gk, logw, logq, P, eps, _WARM_SWEEPS + steps)


def _plan(logQ: np.ndarray, logw: np.ndarray, logq: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp(logQ + log w 1^T + 1 log q^T), into out if given
    out = np.add(logQ, logw[:, None], out=out)
    out += logq
    return np.exp(out, out=out)


def _cg(P: np.ndarray, diag: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Approximately solve [[diag(r), P], [P^T, diag(c)]] d = -g, diag = (r, c),
    by conjugate gradients preconditioned with diag, from d = 0."""
    n = P.shape[0]
    d = np.zeros(2 * n)
    res = -g
    z = res / diag
    p = z
    rz = res @ z
    gg = g @ g
    stop = min(0.25, math.sqrt(gg)) * gg  # |res|^2 against (min(1/2, sqrt|g|) |g|)^2
    for _ in range(2 * n):
        Hp = diag * p
        Hp[:n] += P @ p[n:]
        Hp[n:] += p[:n] @ P
        pHp = p @ Hp
        if not pHp > 0:
            break
        alpha = rz / pHp
        d += alpha * p
        res -= alpha * Hp
        if res @ res <= stop:
            break
        z = res / diag
        rz, rz_old = res @ z, rz
        p = z + (rz / rz_old) * p
    return d


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
    ball(n, r, lam)
    return float(64.0 * n**3 * exp_or_inf(3.0 * r / lam) * r)


def scaling_convergence_bound(n: int, r: float, lam: float, eta: float, depth: int) -> float:
    """Distance bound 36 n^{3/2} e^{r/lam} sqrt(r) / (sqrt(depth) (1 - eta))
    for the scalings reached by descending `depth` steps and then following
    the contraction; only valid once depth >= scaling_bound_depth(n, r, lam).
    """
    if not 0 <= eta < 1:
        raise ValueError(f"contraction factor must be in [0, 1), got {eta}")
    integer_at_least("depth", depth, 1)
    needed = scaling_bound_depth(n, r, lam)
    if depth < needed:
        raise ValueError(f"depth {depth} below the bound's precondition {needed:.3g}")
    return float(36.0 * n**1.5 * exp_or_inf(r / lam) * np.sqrt(r) / (np.sqrt(depth) * (1.0 - eta)))


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


def _harness(trials: int, seed: int, k: float, ratios) -> dict:
    """Draw a matrix with marginal error eps < 1/(k n) per trial and count the
    `ratios(A, n, eps)` (each a bound's use of its slack) that exceed 1.
    Trial t has size (2, 3, 5, 8)[t % 4] and generator (seed, t), so it draws
    the same matrix whatever else runs; the trials of one size form one stack.
    The report counts the trials drawn: none for trials <= 0."""
    violations = 0
    worst = 0.0
    for i, n in enumerate((2, 3, 5, 8)):
        ts = range(i, trials, 4)
        if not ts:
            continue
        A, eps = random_near_scaled([np.random.default_rng((seed, t)) for t in ts], n, 1.0 / (k * n))
        for ratio in ratios(A, n, eps):
            worst = max(worst, float(ratio.max()))
            violations += int((ratio > 1.0).sum())
    return {"trials": max(trials, 0), "violations": violations, "worst_slack": worst}


def closure_harness(trials: int = 1000, seed: int = 0) -> dict:
    """Check that one f or g application at most triples the marginal error
    (requires starting error < 1/(3n))."""
    return _harness(
        trials, seed, 3.0,
        lambda A, n, eps: (marginal_error(mapped) / (3.0 * eps) for mapped in (f_map(A), g_map(A))),
    )


def shift_harness(trials: int = 1000, seed: int = 0) -> dict:
    """Check that one f or g application moves the scalings by at most 4 n eps
    in the Hilbert metric (requires starting error < 1/(4n))."""
    return _harness(
        trials, seed, 4.0,
        lambda A, n, eps: (shift / (4.0 * n * eps) for shift in normalization_mu_shifts(A)),
    )
