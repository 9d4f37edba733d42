"""Log-domain reductions shared by the descent and scaling engines.

At duals (u, v) both engines work with the positive matrix

    M_ij = exp((-C_ij + u_i + v_j)/lam - 1),

whose entries underflow to 0.0 (or overflow) long before the quantities built
from them do at lam as small as 5e-3. So M is kept as its log, and its row and
column sums are taken with `lse`. A descent step turns them into adaptive
steps, a Sinkhorn sweep into new scalings. `marginal_error` is the one dense
check, applied to plans that have been exponentiated.
"""

from __future__ import annotations

import numpy as np


def lse(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a), axis)), shifted by the max; entries must be finite."""
    m = a.max(axis=axis, keepdims=True)
    return m.squeeze(axis) + np.log(np.exp(a - m).sum(axis=axis))


def log_kernel(C: np.ndarray, u: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    """log M = (-C + u 1^T + 1 v^T)/lam - 1."""
    return (-C + u[:, None] + v[None, :]) / lam - 1.0


def square_matrices(A) -> np.ndarray:
    """A as floats: one square matrix, or a stack of them over the last two axes."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("expected a square matrix")
    return A


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
