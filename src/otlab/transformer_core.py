"""Fixed-weight softmax attention whose forward pass runs dual descent.

A layer is two attention heads plus a ReLU feedforward:

    Zmid = Z + sum_h softmax_rows(Z Q_h Z^T) (Z W_h) B_h
    Znew = Zmid + relu(Zmid Wf)

`build_constructed_weights` fills these matrices so that on a prompt encoding
a transport instance the layer performs exactly one preconditioned descent
step on the dual variables stored in the state:

* Head 1's bilinear map reproduces the kernel logits
  (-C_ij + u_i + v_j)/lam - 1 between data tokens and 0 against the auxiliary
  token, so its softmax row i is [M_i1 .. M_in, 1] / (sum_j M_ij + 1) — the
  adaptive stepsize denominator appears for free. Its value map reads the
  marker column (1 on data rows, -1/n on the auxiliary row), so attending to
  the data rows contributes -sum M_ij and the auxiliary row +1/n: together the
  negated descent direction times the stepsize, scaled into the u column by
  B_1 = gamma I. Head 2 is the transpose story for v.
* The same heads deposit a residue on the *auxiliary* row's dual columns (its
  softmax row is uniform). Left in place it would be read back by the next
  layer's logit map as a phantom dual. The feedforward clears it: the active
  Wf columns compute relu(-dual - G * flag) with guard G = 1e8, which is 0 on
  data rows (flag = 1) and exactly -residue on the auxiliary row (flag = 0,
  residue <= 0), restoring its scratch to 0.0 in IEEE arithmetic. Data rows
  therefore require |duals| < 1e8, comfortably true at desk scale.

The weights depend only on (d, lam, gamma), never on n or the points: the one
matrix set solves every instance size.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from . import dual_descent as dd
from .dual_descent import DivergenceError
from .logdomain import log_kernel
from .problem import ProblemInstance, cost_matrix, uniform_instance
from .prompt import MARKER, ONE_A, ONE_B, ONE_C, U, V, XSQ, YSQ, HiddenState, build_prompt, read_dual, width, with_duals

_RESET_GUARD = 1e8


class DegeneratePlanRowError(ValueError):
    pass


def _log_kernel_cap(n: int) -> float:
    # log of sqrt(largest float)/n: a kernel entry above it may overflow the
    # plan's squared Frobenius norm
    return 0.5 * np.log(np.finfo(float).max) - np.log(n)


@dataclasses.dataclass(frozen=True)
class LayerWeights:
    # the two heads stacked on a leading axis, (2, width, width): the only copy
    Qs: np.ndarray
    Wvs: np.ndarray
    Bs: np.ndarray
    Wf: np.ndarray
    d: int
    lam: float
    gamma: float

    @property
    def heads(self) -> np.ndarray:
        # bench/workloads.py:86 still reads this name; the next benchmark change drops it
        return self.Qs


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in `logits`."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def attention(Z: np.ndarray, Qs: np.ndarray, Wvs: np.ndarray) -> np.ndarray:
    """softmax_rows(Z Q_h Z^T) (Z Wv_h) for every head h of the stacks, as one
    (..., heads, n+1, width) array for a (..., n+1, width) state; each token
    attends over all tokens of its own instance, self included."""
    Z = Z[..., None, :, :]  # the head axis
    return _softmax_rows((Z @ Qs) @ Z.mT) @ (Z @ Wvs)


def attention_pattern(state: HiddenState, Q: np.ndarray, variant: str = "raw_kernel") -> np.ndarray:
    """The raw n x n kernel block exp(Z Q Z^T) of a logit map Q: M at the
    current duals for a constructed Qs[0], M^T for Qs[1]. A kernel entry above
    sqrt(largest float)/n raises DivergenceError, the bound `divergence_guard`
    holds every layer's kernel to. The layer's own row softmax is `attention`."""
    # bench/ still passes variant="raw_kernel"; the next benchmark change drops it
    if variant != "raw_kernel":
        raise ValueError(f"unknown pattern variant {variant!r}")
    block = (state.Z @ Q @ state.Z.mT)[..., : state.n, : state.n]
    log_cap = _log_kernel_cap(state.n)
    if not block.max() <= log_cap:  # also catches NaN logits
        raise DivergenceError(f"attention kernel exceeds {np.exp(log_cap):.0e}")
    return np.exp(block)


def layer_forward(state: HiddenState, weights: LayerWeights) -> HiddenState:
    """Apply one layer to a state, or to a stack of states at once; both heads
    read the incoming state and are summed in the order Z + head 1 + head 2,
    bit-identical to a head-by-head loop on each instance alone."""
    Z = state.Z
    heads = attention(Z, weights.Qs, weights.Wvs) @ weights.Bs
    mid = Z + heads[..., 0, :, :]
    mid += heads[..., 1, :, :]
    out = mid @ weights.Wf
    np.maximum(out, 0.0, out=out)
    out += mid
    return HiddenState(Z=out)


def build_constructed_weights(d: int, lam: float, gamma: float) -> LayerWeights:
    """Weights for point dimension d, entropic weight lam, stepsize gamma.

    Self-checks on a random probe instance that the logit/value identities and
    the one-layer-equals-one-step property hold before returning.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("lam must be positive and finite")
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be positive and finite")

    w = width(d)

    # bilinear form G with z_i G z_j = -||x_i - y_j||^2 + u_i + v_j - lam,
    # assembled against the prompt's columns; head logits are G/lam
    G = np.zeros((w, w))
    for k in range(d):
        G[k, d + k] = 2.0  # 2 <x_i, y_j>
    G[XSQ, ONE_A] = -1.0  # -||x_i||^2
    G[ONE_A, YSQ] = -1.0  # -||y_j||^2
    G[U, ONE_B] = 1.0  # + u_i
    G[ONE_B, V] = 1.0  # + v_j
    G[ONE_C, ONE_C] = -lam  # constant -lam => the -1 in the exponent
    # marker row/column stay zero so the auxiliary token scores 0 both ways
    with np.errstate(over="ignore"):  # a tiny lam overflows to inf, rejected below
        Qs = np.stack([G / lam, G.T / lam])

    # value maps read the marker column into the dual scratch: data tokens
    # contribute -1, the auxiliary token +1/n — the negated gradient pieces
    Wvs = np.zeros((2, w, w))
    Wvs[0, MARKER, U] = -1.0
    Wvs[1, MARKER, V] = -1.0

    Bs = np.stack([gamma * np.eye(w)] * 2)

    # feedforward clears the auxiliary row's dual residue (see module docstring)
    Wf = np.zeros((w, w))
    Wf[U, U] = -1.0
    Wf[ONE_C, U] = -_RESET_GUARD
    Wf[V, V] = -1.0
    Wf[ONE_C, V] = -_RESET_GUARD

    for m in (Qs, Wvs, Bs, Wf):
        if not np.isfinite(m).all():
            raise ValueError("constructed weights are not finite for these parameters")
    weights = LayerWeights(Qs=Qs, Wvs=Wvs, Bs=Bs, Wf=Wf, d=d, lam=lam, gamma=gamma)
    _probe_check(weights)
    return weights


def _probe_check(weights: LayerWeights) -> None:
    """Verify the construction on a random 3-point instance with nonzero duals.

    A failure means the construction does not hold at these parameters (say,
    a stepsize whose steps outgrow the feedforward's reset guard), so it is
    reported as a ValueError like the other parameter checks.
    """
    rng = np.random.default_rng(1234)
    n, d, lam = 3, weights.d, weights.lam
    inst = uniform_instance(rng, n, d, lam)
    sigma = 10.0 * min(lam, 0.005)  # keep probe kernel exponents overflow-free at tiny lam
    u, v = rng.normal(0, sigma, n), rng.normal(0, sigma, n)
    state = with_duals(build_prompt(inst), u, v)
    C = cost_matrix(inst)

    logits = (state.Z @ weights.Qs) @ state.Z.T
    want = log_kernel(C, u, v, lam)
    scale = max(1.0, np.abs(want).max())
    if np.abs(logits[0, :n, :n] - want).max() > 1e-9 * scale:
        raise ValueError("constructed logits do not match the kernel exponents")
    if logits[0, n, :].any() or logits[0, :, n].any():
        raise ValueError("auxiliary token logits are not exactly zero")
    if np.abs(logits[1, :n, :n] - want.T).max() > 1e-9 * scale:
        raise ValueError("second head logits are not the transpose")

    values = state.Z @ weights.Wvs[0]
    expect = np.zeros_like(values)
    expect[:, U] = -state.Z[:, MARKER]
    if not np.array_equal(values, expect):
        raise ValueError("head-1 value map does not read the marker column")

    stepped = layer_forward(state, weights)
    got_u, got_v = read_dual(stepped)
    ref = dd.gd_step(C, dd.DualIterate(u=u, v=v), lam, weights.gamma)
    if not (
        np.allclose(got_u, ref.u, rtol=1e-9, atol=1e-12)
        and np.allclose(got_v, ref.v, rtol=1e-9, atol=1e-12)
    ):
        raise ValueError("one layer does not match one descent step")
    if stepped.Z[n, U] != 0.0 or stepped.Z[n, V] != 0.0:
        raise ValueError("auxiliary dual scratch was not cleared")


def divergence_guard(C: np.ndarray, lam: float) -> Callable[[int, HiddenState], None]:
    """An observer for `forward` that raises DivergenceError at the first bad
    layer of a pass over the instance with cost matrix C. Its messages start
    with "n=<n>: ", the instance size read from C.

    A layer is bad once a dual reaches the feedforward's reset guard (from
    there the layer no longer performs a descent step), or once its plan is
    too large to measure: a kernel entry exp((u_i + v_j - C_ij)/lam - 1) above
    sqrt(largest float)/n. The O(n) bound (max u + max v - min C)/lam - 1 on
    the log entries clears almost every layer, so the n^2 logits are formed
    only for the layers it does not clear. For a stacked pass, C stacks the
    instances' cost matrices alike and the guard holds them all.
    """
    n = C.shape[-1]
    log_cap = _log_kernel_cap(n)
    c_min = C.min()

    def check(ell: int, state: HiddenState) -> None:
        u, v = read_dual(state)
        u_max, v_max = u.max(), v.max()
        if not max(u_max, v_max, -u.min(), -v.min()) < _RESET_GUARD:  # also catches NaN duals
            raise DivergenceError(f"n={n}: duals reach the reset guard {_RESET_GUARD:.0e} at layer {ell}")
        if (u_max + v_max - c_min) / lam - 1.0 > log_cap and not log_kernel(C, u, v, lam).max() <= log_cap:
            raise DivergenceError(f"n={n}: attention kernel exceeds {np.exp(log_cap):.0e} at layer {ell}")

    return check


@dataclasses.dataclass
class ForwardTrace:
    """The hidden states a forward pass kept: states[i] holds the duals after
    exactly layers[i] descent steps, in increasing layer order, and
    states[-1] is always the final layer. A layer's plan is read from its
    state with `attention_pattern(trace.state(ell), weights.Qs[h])`.
    """

    states: list[HiddenState]
    layers: list[int]
    # No patterns are kept. bench/ still reads these two names and passes
    # forward's pattern flag as False; the next benchmark change drops both.
    softmax_patterns = None
    kernel_patterns = None

    def state(self, ell: int) -> HiddenState:
        i = bisect.bisect_left(self.layers, ell)
        if i == len(self.layers) or self.layers[i] != ell:
            raise LookupError(f"layer {ell} was not kept; pass it in forward's checkpoints")
        return self.states[i]

    def duals(self, ell: int) -> tuple[np.ndarray, np.ndarray]:
        return read_dual(self.state(ell))


def forward(
    inst: ProblemInstance | Sequence[ProblemInstance],
    depth: int,
    weights: LayerWeights,
    checkpoints: Iterable[int] = (),
    observe: Callable[[int, HiddenState], None] | None = None,
    record_patterns: bool = False,
) -> ForwardTrace:
    """Run `depth` layers of `weights` on the instance's prompt; a constructed
    set is n-independent, so one set serves every instance of its d. A
    sequence of instances of one n and d runs as one stacked pass, whose
    states stack theirs on a leading axis (see `build_prompt`).

    The pass streams: it holds one state at a time and keeps only those of
    the layers in `checkpoints` and the final one. `observe(ell, state)`, if
    given, sees every state as soon as it is made, prompt (ell = 0) included;
    an exception it raises ends the pass (see `divergence_guard`).
    """
    if record_patterns:
        raise ValueError("forward keeps states only; read patterns with attention_pattern")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    keep = set(checkpoints)
    if any(not 0 <= k <= depth for k in keep):
        raise ValueError(f"checkpoints must lie in [0, {depth}]")
    keep.add(depth)

    states, layers = [], []
    state = build_prompt(inst)
    for ell in range(depth + 1):
        if ell:
            state = layer_forward(state, weights)
        if observe is not None:
            observe(ell, state)
        if ell in keep:
            states.append(state)
            layers.append(ell)
    return ForwardTrace(states=states, layers=layers)


def apply_plan(pattern: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric image of x under a nonnegative plan: rescale each row to
    sum 1, then multiply. A zero row has no barycenter and raises."""
    P = np.asarray(pattern, dtype=float)
    x = np.asarray(x, dtype=float)
    if P.ndim != 2 or P.shape[1] != x.shape[0]:
        raise ValueError("pattern columns must match len(x)")
    if not np.isfinite(P).all():
        raise ValueError("plan entries must be finite")
    if (P < 0).any():
        raise ValueError("plan entries must be nonnegative")
    sums = P.sum(axis=1)
    if (sums <= 0).any():
        raise DegeneratePlanRowError("plan has a zero row")
    return (P @ x) / sums


# weights.json key stem of each stack; head h is stored as stem + str(h + 1)
_STACKS = {"Q": "Qs", "Wv": "Wvs", "B": "Bs"}


def save_weights(weights: LayerWeights, path) -> None:
    layer = {
        f"{stem}{h + 1}": getattr(weights, field)[h].tolist() for stem, field in _STACKS.items() for h in (0, 1)
    }
    layer["Wf"] = weights.Wf.tolist()
    obj = {
        "d": weights.d,
        "lambda": weights.lam,
        "gamma": weights.gamma,
        "layers": [layer],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_weights(path) -> LayerWeights:
    with open(path) as fh:
        obj = json.load(fh)
    if len(obj["layers"]) != 1:
        raise ValueError("expected a single shared layer")
    lw = obj["layers"][0]
    return LayerWeights(
        **{field: np.array([lw[stem + "1"], lw[stem + "2"]], dtype=float) for stem, field in _STACKS.items()},
        Wf=np.array(lw["Wf"], dtype=float),
        d=int(obj["d"]),
        lam=float(obj["lambda"]),
        gamma=float(obj["gamma"]),
    )
