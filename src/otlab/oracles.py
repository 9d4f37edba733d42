"""Independent ground-truth solvers used only for verification."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

MAX_BRUTE_FORCE_N = 9
# exhaustive search scores the permutations sharing a prefix as one block of
# 6! = 720 rows (fewer below n = 6), so its memory does not grow with n;
# 5,040-row blocks were no faster up to n = 8 and held about 1 MB more
_BLOCK_TAIL = 6


class DegeneratePlanError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class PermutationPlan:
    perm: tuple[int, ...]  # perm[i] = target index assigned to source i (0-based)
    cost: float


def brute_force_ot(C: np.ndarray) -> PermutationPlan:
    """Exact unregularized OT between uniform marginals by enumerating all
    permutations. Ties go to the lexicographically smallest permutation.

    cost is Tr(P^T C) for the coupling P with P[i, perm[i]] = 1/n.
    """
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    if C.shape != (n, n) or n == 0:
        raise ValueError("cost matrix must be square and non-empty")
    if n > MAX_BRUTE_FORCE_N:
        raise ValueError(f"refusing to enumerate {n}! permutations (n > {MAX_BRUTE_FORCE_N})")
    rows = np.arange(n)
    tail = min(n, _BLOCK_TAIL)
    tails = np.array(list(itertools.permutations(range(tail))), dtype=np.intp)
    best: tuple[int, ...] | None = None
    best_cost = np.inf
    # prefixes and each block's rows both run in lexicographic order, so the
    # blocks visit every permutation in the order itertools.permutations does
    for prefix in itertools.permutations(range(n), n - tail):
        perms = np.empty((len(tails), n), dtype=np.intp)
        perms[:, : n - tail] = prefix
        perms[:, n - tail :] = np.delete(rows, prefix)[tails]
        costs = C[rows, perms].sum(axis=1)
        costs[np.isnan(costs)] = np.inf  # never a minimizer, as under `<`
        i = int(costs.argmin())
        if costs[i] < best_cost:  # strict: first minimizer is lexicographically smallest
            best, best_cost = tuple(int(j) for j in perms[i]), costs[i]
    if best is None:
        raise ValueError("no permutation has a finite cost")
    return PermutationPlan(perm=best, cost=float(best_cost) / n)


def sort_oracle(x) -> np.ndarray:
    return np.sort(np.asarray(x, dtype=float).ravel())


def monotone_ranks(x) -> tuple[int, ...]:
    """perm[i] = rank of x_i, i.e. the target each source maps to when the
    optimal 1-D coupling is the monotone rearrangement. Requires distinct x."""
    x = np.asarray(x, dtype=float).ravel()
    if np.unique(x).size != x.size:
        raise ValueError("ranks undefined for repeated values")
    return tuple(int(r) for r in np.argsort(np.argsort(x)))


def finite_diff_grad(fn, point: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    point = np.asarray(point, dtype=float)
    g = np.empty_like(point)
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = h
        g[i] = (fn(point + e) - fn(point - e)) / (2.0 * h)
    return g


def round_plan(P: np.ndarray) -> tuple[int, ...]:
    """Round a transport plan to a permutation by row-wise argmax.

    Raises DegeneratePlanError when any row's maximum is tied or the argmax
    map fails to be a bijection (e.g. the uniform plan), and ValueError for a
    plan that is empty or not finite.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n) or n == 0:
        raise ValueError("plan must be square and non-empty")
    if not np.isfinite(P).all():
        raise ValueError("plan entries must be finite")
    perm = []
    for i in range(n):
        row = P[i]
        m = row.max()
        (ties,) = np.nonzero(row == m)
        if ties.size != 1:
            raise DegeneratePlanError(f"row {i} has {ties.size} tied maxima")
        perm.append(int(ties[0]))
    if len(set(perm)) != n:
        raise DegeneratePlanError("argmax map is not a bijection")
    return tuple(perm)
