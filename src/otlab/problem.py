"""Discrete optimal transport instances with uniform marginals.

An instance couples n source points x_i with n target points y_j in R^d under
the squared Euclidean cost, with both marginals fixed to 1/n, and carries the
entropic regularization weight lambda.
"""

from __future__ import annotations

import dataclasses

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclasses.dataclass(frozen=True)
class ProblemInstance:
    """n source/target points in R^d with entropic weight lam > 0."""

    x: np.ndarray  # (n, d) source points
    y: np.ndarray  # (n, d) target points
    lam: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim == 1:
            y = y[:, None]
        if x.shape != y.shape or x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError(f"x and y must both be (n, d) with n, d >= 1, got {x.shape} and {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("points must be finite")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def cost_matrix(inst: ProblemInstance) -> np.ndarray:
    """Pairwise squared Euclidean costs, C[i, j] = ||x_i - y_j||^2.

    Computed from coordinate differences (not the expanded inner-product form)
    so that C[i, j] == 0 exactly iff x_i == y_j.
    """
    diff = inst.x[:, None, :] - inst.y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def uniform_instance(rng: np.random.Generator, n: int, d: int, lam: float) -> ProblemInstance:
    """Instance with x, then y, drawn uniformly from [0, 1)^(n, d) by rng."""
    return ProblemInstance(x=rng.uniform(0, 1, (n, d)), y=rng.uniform(0, 1, (n, d)), lam=lam)


def _splitmix64(state: int) -> tuple[int, int]:
    # One step of the SplitMix64 stream (Steele et al.); fixed here so that
    # seeded instances reproduce bit-for-bit across implementations.
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def seeded_permutation(n: int, seed: int) -> list[int]:
    """Fisher-Yates shuffle of range(n) driven by SplitMix64 draws.

    The draw for position i is `z mod (i + 1)`; the modulo bias is < 2**-57
    for n <= 64 and accepted for the sake of a portable, exactly specified
    stream.
    """
    perm = list(range(n))
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        state, z = _splitmix64(state)
        j = z % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def permutation_instance(n: int, seed: int, lam: float = 0.005) -> ProblemInstance:
    """1-D instance with y_i = i/n and x a seeded shuffle of the same grid.

    The optimal (unregularized) plan is then the permutation matching each x_i
    to its rank, which makes these instances a sorting benchmark.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = (1.0 + np.arange(n)) / n
    perm = seeded_permutation(n, seed)
    return ProblemInstance(x=grid[perm], y=grid.copy(), lam=lam)


def seeded_instance(n: int, d: int, seed: int, lam: float) -> ProblemInstance:
    """The instance a seed names: `permutation_instance` for d = 1, and
    `uniform_instance` drawn by default_rng(seed) otherwise."""
    if d == 1:
        return permutation_instance(n, seed, lam)
    return uniform_instance(np.random.default_rng(seed), n, d, lam)


def sorting_instance(values, lam: float = 0.005) -> ProblemInstance:
    """Instance whose sources are the given 1-D values and targets the grid i/n.

    The values must lie in [0, 1], the span of the grid: outside it the plan
    matches them to the wrong targets and the barycentric sort is wrong.
    """
    x = np.asarray(values, dtype=float).ravel()
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValueError("values to sort must lie in [0, 1]")
    grid = (1.0 + np.arange(x.size)) / x.size
    return ProblemInstance(x=x, y=grid, lam=lam)

