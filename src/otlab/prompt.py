"""Hidden-state encoding of a transport instance for the attention solver.

The state is an (n+1) x width(d) matrix, width(d) = 2d + 8: one token per
point pair plus one auxiliary token. Data row i holds

    [phi_i, psi_i, 1, 1, u_i, v_i]

The cost's factors (`problem.cost_factors`) of rank r = d + 2 fill columns
[:r] and [r:2r]; the four after them are named here, counted from the right:

    ONE     1 on data rows and 0 on the auxiliary row; the logit maps pair it
            with the duals and itself, and the feedforward's reset reads it
    MARKER  1 on data rows, -1/n on the auxiliary row; the value maps read
            it to form the gradient's constant part
    U, V    dual-variable scratch, zero in a fresh prompt

The auxiliary row is zero except at MARKER.

Instances of one n and d can be stacked: their states then share leading
axes in front of the (n+1, 2d+8) matrix, and each reads like its own.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from .problem import ProblemInstance, cost_factors

ONE, MARKER, U, V = range(-4, 0)


def width(d: int) -> int:
    """Columns of the state for point dimension d."""
    return 2 * d + 8


def is_width(w: int) -> bool:
    """Whether w is width(d) for some d >= 1: even and at least width(1) = 10."""
    return w >= width(1) and w % 2 == 0


@dataclasses.dataclass(frozen=True)
class HiddenState:
    """A state takes ownership of a float Z and makes it read-only; it does
    not copy it, since a forward pass makes one state per layer."""

    Z: np.ndarray  # (..., n+1, 2d+8): leading axes stack instances

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        # n, d >= 1: at least two rows, and a width of some d
        if Z.ndim < 2 or Z.shape[-2] < 2 or not is_width(Z.shape[-1]):
            raise ValueError(f"state shape {Z.shape} is not (..., n+1, 2d+8) with n, d >= 1")
        Z.setflags(write=False)
        object.__setattr__(self, "Z", Z)

    @property
    def n(self) -> int:
        return self.Z.shape[-2] - 1

    @property
    def d(self) -> int:
        return (self.Z.shape[-1] - 8) // 2


def build_prompt(inst: ProblemInstance | Sequence[ProblemInstance]) -> HiddenState:
    """Encode an instance as a fresh hidden state (dual scratch zeroed); a
    sequence of instances of one n and d gives their states stacked on a
    leading axis, in order."""
    if not isinstance(inst, ProblemInstance):
        states = [build_prompt(one) for one in inst]
        if not states or any(s.Z.shape != states[0].Z.shape for s in states):
            raise ValueError("a stack needs at least one instance, all of one n and d")
        return HiddenState(Z=np.stack([s.Z for s in states]))
    n = inst.n
    Z = np.zeros((n + 1, width(inst.d)))
    Z[:n, :ONE] = np.hstack(cost_factors(inst))
    Z[:n, [ONE, MARKER]] = 1.0
    Z[n, MARKER] = -1.0 / n
    return HiddenState(Z=Z)


def read_dual(state: HiddenState) -> tuple[np.ndarray, np.ndarray]:
    """Extract the dual vectors (u, v) from the data rows' scratch columns,
    each (..., n) for a state stacked over leading axes."""
    n = state.n
    return state.Z[..., :n, U].copy(), state.Z[..., :n, V].copy()

