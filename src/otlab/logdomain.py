"""Log-domain reductions shared by the descent and scaling engines.

At duals (u, v) both engines work with the positive matrix

    M_ij = exp((-C_ij + u_i + v_j)/lam - 1),

whose entries underflow to 0.0 (or overflow) long before the quantities built
from them do at lam as small as 5e-3. So M is kept as its log, and its row and
column sums are taken with `lse`. A descent step turns them into adaptive
steps, a Sinkhorn sweep into new scalings. `marginal_error` is the one dense
check, applied to plans that have been exponentiated. Each input rule the
modules share is one gate here, beside the one error for an unreadable plan.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np


class DegeneratePlanError(ValueError):
    """A plan no answer can be read out of: a zero row, tied maxima or an argmax that is no bijection."""


def positive_finite(name: str, value) -> None:
    """Refuse a value that is not a positive real number within the float range."""
    if not (isinstance(value, numbers.Real) and 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def integer_at_least(name: str, value, lo: int) -> None:
    """Refuse a value that is not an integer >= lo; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


def below_reset_guard(gamma, guard: float) -> None:
    """Refuse a stepsize of at least the feedforward's reset guard. A step's
    ratio lies in (-1/n, 1), so it moves a dual by less than gamma: below the
    guard, a dual that crosses -guard lands exactly on it (Sterbenz's lemma),
    where `divergence_guard` stops the pass. A larger step can carry a dual so
    far past that the reset rounds it to 0.0, a silent clamp."""
    if not gamma < guard:
        raise ValueError(f"gamma must be below the reset guard {guard:.0e}, got {gamma!r}")


def seed64(seed) -> None:
    """Refuse a seed outside [0, 2**64): SplitMix64 keeps 64 bits, so a larger
    seed would name a smaller one's instance."""
    integer_at_least("seed", seed, 0)
    if seed >= 2**64:
        raise ValueError(f"seed must be below 2**64, got {seed!r}")


def ball(n, r, lam) -> None:
    """Refuse (n, r, lam) outside the bounds' domain: n >= 1 points, radius r >= 0, lam positive and finite."""
    integer_at_least("n", n, 1)
    if not r >= 0:
        raise ValueError(f"radius must be nonnegative, got {r!r}")
    positive_finite("lam", lam)


def exp_or_inf(x) -> float:
    """e^x as a float, bit for bit np.exp's, and inf past the float range without an overflow warning."""
    with np.errstate(over="ignore"):
        return float(np.exp(x))


def lse(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a), axis)), shifted by the max; entries must be finite."""
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    e = a - m
    return m.squeeze(axis) + np.log(np.add.reduce(np.exp(e, out=e), axis=axis))


def log_kernel(C: np.ndarray, u: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    """log M = (-C + u 1^T + 1 v^T)/lam - 1; leading axes of C, u and v
    broadcast, so a stack of instances gives a stack of kernels."""
    return (-C + u[..., :, None] + v[..., None, :]) / lam - 1.0


def square_matrices(A) -> np.ndarray:
    """A as floats: one non-empty square matrix, or a stack of them over the last two axes."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        raise ValueError("expected a non-empty square matrix")
    return A


def square_matrix(A) -> np.ndarray:
    """A as floats: one non-empty square matrix, not a stack."""
    A = square_matrices(A)
    if A.ndim != 2:
        raise ValueError("expected one non-empty square matrix, not a stack")
    return A


def plan_matrix(P) -> np.ndarray:
    """P as floats: one non-empty square matrix of finite, nonnegative entries."""
    P = square_matrix(P)
    if not (np.isfinite(P).all() and (P >= 0).all()):
        raise ValueError("plan entries must be finite and nonnegative")
    return P


def marginal_error(A: np.ndarray) -> float | np.ndarray:
    """Largest deviation of any row/column sum of A from 1/n (sup-norm): a
    float for one matrix, an array over the leading axes for a stack."""
    A = square_matrices(A)
    n = A.shape[-1]
    err = np.maximum(
        np.abs(A.sum(axis=-1) - 1.0 / n).max(axis=-1),
        np.abs(A.sum(axis=-2) - 1.0 / n).max(axis=-1),
    )
    return float(err) if A.ndim == 2 else err
