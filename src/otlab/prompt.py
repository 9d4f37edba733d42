"""Hidden-state encoding of a transport instance for the attention solver.

The state is an (n+1) x (2d+9) matrix: one token per point pair plus one
auxiliary token. Data row i holds

    [x_i, y_i, ||x_i||^2, ||y_i||^2, 1, 1, 1, 1, u_i, v_i, 0]

and the auxiliary row is zero except for -1/n in the last of the four flag
columns. The flag columns exist so the bilinear logit maps can source constant
terms; the -1/n marker is what the value maps read to form the gradient's
constant part; u/v are dual-variable scratch, zero in a fresh prompt.

Instances of one n and d can be stacked: their states then share leading
axes in front of the (n+1, 2d+9) matrix, and each reads like its own.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from .problem import ProblemInstance


@dataclasses.dataclass(frozen=True)
class PromptLayout:
    """Column indices of the hidden state for a given point dimension d."""

    d: int

    @property
    def width(self) -> int:
        return 2 * self.d + 9

    @property
    def x(self) -> slice:
        return slice(0, self.d)

    @property
    def y(self) -> slice:
        return slice(self.d, 2 * self.d)

    @property
    def xsq(self) -> int:
        return 2 * self.d

    @property
    def ysq(self) -> int:
        return 2 * self.d + 1

    @property
    def ones(self) -> tuple[int, int, int]:
        # flag columns that are 1 on data rows and 0 on the auxiliary row
        return (2 * self.d + 2, 2 * self.d + 3, 2 * self.d + 4)

    @property
    def marker(self) -> int:
        # 1 on data rows, -1/n on the auxiliary row
        return 2 * self.d + 5

    @property
    def u(self) -> int:
        return 2 * self.d + 6

    @property
    def v(self) -> int:
        return 2 * self.d + 7

    @property
    def spare(self) -> int:
        return 2 * self.d + 8


@dataclasses.dataclass(frozen=True)
class HiddenState:
    Z: np.ndarray  # (..., n+1, 2d+9): leading axes stack instances
    n: int
    d: int

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        if Z.shape[-2:] != (self.n + 1, 2 * self.d + 9):
            raise ValueError(f"state shape {Z.shape} does not match n={self.n}, d={self.d}")
        Z.setflags(write=False)
        object.__setattr__(self, "Z", Z)

    @property
    def layout(self) -> PromptLayout:
        return PromptLayout(self.d)


def build_prompt(inst: ProblemInstance | Sequence[ProblemInstance]) -> HiddenState:
    """Encode an instance as a fresh hidden state (dual scratch zeroed); a
    sequence of instances of one n and d gives their states stacked on a
    leading axis, in order."""
    if not isinstance(inst, ProblemInstance):
        states = [build_prompt(one) for one in inst]
        if not states or any((s.n, s.d) != (states[0].n, states[0].d) for s in states):
            raise ValueError("a stack needs at least one instance, all of one n and d")
        return HiddenState(Z=np.stack([s.Z for s in states]), n=states[0].n, d=states[0].d)
    n, d = inst.n, inst.d
    lay = PromptLayout(d)
    Z = np.zeros((n + 1, lay.width))
    Z[:n, lay.x] = inst.x
    Z[:n, lay.y] = inst.y
    Z[:n, lay.xsq] = np.einsum("ij,ij->i", inst.x, inst.x)
    Z[:n, lay.ysq] = np.einsum("ij,ij->i", inst.y, inst.y)
    for c in lay.ones:
        Z[:n, c] = 1.0
    Z[:n, lay.marker] = 1.0
    Z[n, lay.marker] = -1.0 / n
    return HiddenState(Z=Z, n=n, d=d)


def read_dual(state: HiddenState) -> tuple[np.ndarray, np.ndarray]:
    """Extract the dual vectors (u, v) from the data rows' scratch columns,
    each (..., n) for a state stacked over leading axes."""
    lay = state.layout
    return state.Z[..., : state.n, lay.u].copy(), state.Z[..., : state.n, lay.v].copy()


def with_duals(state: HiddenState, u: np.ndarray, v: np.ndarray) -> HiddenState:
    """Copy of the state with the data rows' dual scratch set to (u, v)."""
    lay = state.layout
    Z = state.Z.copy()
    Z[..., : state.n, lay.u] = u
    Z[..., : state.n, lay.v] = v
    return HiddenState(Z=Z, n=state.n, d=state.d)
