"""Hidden-state encoding of a transport instance for the attention solver.

The state is an (n+1) x width(d) matrix, width(d) = 2d + 9: one token per
point pair plus one auxiliary token. Data row i holds

    [x_i, y_i, ||x_i||^2, ||y_i||^2, 1, 1, 1, 1, u_i, v_i, 0]

The points fill columns [:d] (x) and [d:2d] (y). The nine columns after them
do not depend on d, so they are named once here, counted from the right:

    XSQ, YSQ             ||x_i||^2 and ||y_i||^2
    ONE_A, ONE_B, ONE_C  flags, 1 on data rows and 0 on the auxiliary row; the
                         bilinear logit maps source their constant terms here
    MARKER               1 on data rows, -1/n on the auxiliary row; the value
                         maps read it to form the gradient's constant part
    U, V                 dual-variable scratch, zero in a fresh prompt
    SPARE                always 0

The auxiliary row is zero except at MARKER.

Instances of one n and d can be stacked: their states then share leading
axes in front of the (n+1, 2d+9) matrix, and each reads like its own.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from .problem import ProblemInstance

XSQ, YSQ, ONE_A, ONE_B, ONE_C, MARKER, U, V, SPARE = range(-9, 0)


def width(d: int) -> int:
    """Columns of the state for point dimension d."""
    return 2 * d + 9


@dataclasses.dataclass(frozen=True)
class HiddenState:
    """A state takes ownership of a float Z and makes it read-only; it does
    not copy it, since a forward pass makes one state per layer."""

    Z: np.ndarray  # (..., n+1, 2d+9): leading axes stack instances

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        # n, d >= 1: at least two rows, and an odd width of at least width(1) = 11
        if Z.ndim < 2 or Z.shape[-2] < 2 or Z.shape[-1] < 11 or Z.shape[-1] % 2 == 0:
            raise ValueError(f"state shape {Z.shape} is not (..., n+1, 2d+9) with n, d >= 1")
        Z.setflags(write=False)
        object.__setattr__(self, "Z", Z)

    @property
    def n(self) -> int:
        return self.Z.shape[-2] - 1

    @property
    def d(self) -> int:
        return (self.Z.shape[-1] - 9) // 2


def build_prompt(inst: ProblemInstance | Sequence[ProblemInstance]) -> HiddenState:
    """Encode an instance as a fresh hidden state (dual scratch zeroed); a
    sequence of instances of one n and d gives their states stacked on a
    leading axis, in order."""
    if not isinstance(inst, ProblemInstance):
        states = [build_prompt(one) for one in inst]
        if not states or any(s.Z.shape != states[0].Z.shape for s in states):
            raise ValueError("a stack needs at least one instance, all of one n and d")
        return HiddenState(Z=np.stack([s.Z for s in states]))
    n, d = inst.n, inst.d
    Z = np.zeros((n + 1, width(d)))
    Z[:n, :d] = inst.x
    Z[:n, d : 2 * d] = inst.y
    Z[:n, XSQ] = np.einsum("ij,ij->i", inst.x, inst.x)
    Z[:n, YSQ] = np.einsum("ij,ij->i", inst.y, inst.y)
    Z[:n, [ONE_A, ONE_B, ONE_C, MARKER]] = 1.0
    Z[n, MARKER] = -1.0 / n
    return HiddenState(Z=Z)


def read_dual(state: HiddenState) -> tuple[np.ndarray, np.ndarray]:
    """Extract the dual vectors (u, v) from the data rows' scratch columns,
    each (..., n) for a state stacked over leading axes."""
    n = state.n
    return state.Z[..., :n, U].copy(), state.Z[..., :n, V].copy()


def with_duals(state: HiddenState, u: np.ndarray, v: np.ndarray) -> HiddenState:
    """Copy of the state with the data rows' dual scratch set to (u, v)."""
    Z = state.Z.copy()
    Z[..., : state.n, U] = u
    Z[..., : state.n, V] = v
    return HiddenState(Z=Z)
