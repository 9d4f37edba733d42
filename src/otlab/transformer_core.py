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

import dataclasses
import json

import numpy as np

from . import dual_descent as dd
from .problem import ProblemInstance, cost_matrix
from .prompt import HiddenState, PromptLayout, build_prompt, read_dual, with_duals

_RESET_GUARD = 1e8


class DegeneratePlanRowError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class AttentionHead:
    Q: np.ndarray  # bilinear logit map, (width, width)
    Wv: np.ndarray  # value map, (width, width)


@dataclasses.dataclass(frozen=True)
class LayerWeights:
    heads: tuple[AttentionHead, AttentionHead]
    B: tuple[np.ndarray, np.ndarray]
    Wf: np.ndarray
    d: int
    lam: float
    gamma: float
    # heads stacked on a leading axis, (2, width, width); rebuilt on replace()
    Qs: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    Wvs: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    Bs: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "Qs", np.stack([h.Q for h in self.heads]))
        object.__setattr__(self, "Wvs", np.stack([h.Wv for h in self.heads]))
        object.__setattr__(self, "Bs", np.stack(self.B))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in `logits`."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def attention(Z: np.ndarray, Qs: np.ndarray, Wvs: np.ndarray) -> np.ndarray:
    """softmax_rows(Z Q_h Z^T) (Z Wv_h) for every head h of the stacks, as one
    (heads, n+1, width) array; each token attends over all tokens, self included."""
    return _softmax_rows((Z @ Qs) @ Z.T) @ (Z @ Wvs)


def attention_pattern(state: HiddenState, head: AttentionHead, variant: str = "softmax") -> np.ndarray:
    """Either the full (n+1)^2 row-softmax or the raw n x n kernel block
    exp(logits), which on a constructed head equals M at the current duals."""
    logits = state.Z @ head.Q @ state.Z.T
    if variant == "softmax":
        return _softmax_rows(logits)
    if variant == "raw_kernel":
        return np.exp(logits[: state.n, : state.n])
    raise ValueError(f"unknown pattern variant {variant!r}")


def layer_forward(state: HiddenState, weights: LayerWeights) -> HiddenState:
    """Apply one layer; both heads read the incoming state and are summed in
    the order Z + head 1 + head 2, bit-identical to a head-by-head loop."""
    Z = state.Z
    heads = attention(Z, weights.Qs, weights.Wvs) @ weights.Bs
    mid = Z + heads[0]
    mid += heads[1]
    out = mid @ weights.Wf
    np.maximum(out, 0.0, out=out)
    out += mid
    return HiddenState(Z=out, n=state.n, d=state.d)


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

    lay = PromptLayout(d)
    w = lay.width
    one_a, one_b, one_c = lay.ones

    # bilinear form G with z_i G z_j = -||x_i - y_j||^2 + u_i + v_j - lam,
    # assembled against the prompt layout; head logits are G/lam
    G = np.zeros((w, w))
    for k in range(d):
        G[k, d + k] = 2.0  # 2 <x_i, y_j>
    G[lay.xsq, one_a] = -1.0  # -||x_i||^2
    G[one_a, lay.ysq] = -1.0  # -||y_j||^2
    G[lay.u, one_b] = 1.0  # + u_i
    G[one_b, lay.v] = 1.0  # + v_j
    G[one_c, one_c] = -lam  # constant -lam => the -1 in the exponent
    # marker row/column stay zero so the auxiliary token scores 0 both ways
    Q1 = G / lam
    Q2 = Q1.T.copy()

    # value maps read the marker column into the dual scratch: data tokens
    # contribute -1, the auxiliary token +1/n — the negated gradient pieces
    Wv1 = np.zeros((w, w))
    Wv1[lay.marker, lay.u] = -1.0
    Wv2 = np.zeros((w, w))
    Wv2[lay.marker, lay.v] = -1.0

    B = gamma * np.eye(w)

    # feedforward clears the auxiliary row's dual residue (see module docstring)
    Wf = np.zeros((w, w))
    Wf[lay.u, lay.u] = -1.0
    Wf[one_c, lay.u] = -_RESET_GUARD
    Wf[lay.v, lay.v] = -1.0
    Wf[one_c, lay.v] = -_RESET_GUARD

    weights = LayerWeights(
        heads=(AttentionHead(Q=Q1, Wv=Wv1), AttentionHead(Q=Q2, Wv=Wv2)),
        B=(B, B.copy()),
        Wf=Wf,
        d=d,
        lam=lam,
        gamma=gamma,
    )
    for m in (Q1, Q2, Wv1, Wv2, B, Wf):
        if not np.isfinite(m).all():
            raise ValueError("constructed weights are not finite for these parameters")
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
    inst = ProblemInstance(x=rng.uniform(0, 1, (n, d)), y=rng.uniform(0, 1, (n, d)), lam=lam)
    sigma = min(0.05, 10.0 * lam)  # keep probe kernel exponents overflow-free at tiny lam
    u = rng.normal(0, sigma, n)
    v = rng.normal(0, sigma, n)
    state = with_duals(build_prompt(inst), u, v)
    C = cost_matrix(inst)
    lay = state.layout

    logits = state.Z @ weights.heads[0].Q @ state.Z.T
    want = (-C + u[:, None] + v[None, :]) / lam - 1.0
    scale = max(1.0, np.abs(want).max())
    if np.abs(logits[:n, :n] - want).max() > 1e-9 * scale:
        raise ValueError("constructed logits do not match the kernel exponents")
    if logits[n, :].any() or logits[:, n].any():
        raise ValueError("auxiliary token logits are not exactly zero")
    logits2 = state.Z @ weights.heads[1].Q @ state.Z.T
    if np.abs(logits2[:n, :n] - want.T).max() > 1e-9 * scale:
        raise ValueError("second head logits are not the transpose")

    values = state.Z @ weights.heads[0].Wv
    expect = np.zeros_like(values)
    expect[:, lay.u] = -state.Z[:, lay.marker]
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
    if stepped.Z[n, lay.u] != 0.0 or stepped.Z[n, lay.v] != 0.0:
        raise ValueError("auxiliary dual scratch was not cleared")


@dataclasses.dataclass
class ForwardTrace:
    """Hidden states of a full forward pass: states[ell] holds the duals after
    exactly ell descent steps. A layer's plan is read from its state with
    `attention_pattern(states[ell], head, variant)`.
    """

    states: list[HiddenState]
    weights: LayerWeights
    # No patterns are kept. bench/ still reads these two names and passes
    # forward's pattern flag as False; the next benchmark change drops both.
    softmax_patterns = None
    kernel_patterns = None

    def duals(self, ell: int) -> tuple[np.ndarray, np.ndarray]:
        return read_dual(self.states[ell])


def forward(
    inst: ProblemInstance,
    depth: int,
    weights: LayerWeights,
    record_patterns: bool = False,
) -> ForwardTrace:
    """Run `depth` layers of `weights` on the instance's prompt; a constructed
    set is n-independent, so one set serves every instance of its d."""
    if record_patterns:
        raise ValueError("forward keeps states only; read patterns with attention_pattern")
    if depth < 0:
        raise ValueError("depth must be >= 0")

    states = [build_prompt(inst)]
    for _ in range(depth):
        states.append(layer_forward(states[-1], weights))
    return ForwardTrace(states=states, weights=weights)


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


def save_weights(weights: LayerWeights, path) -> None:
    obj = {
        "d": weights.d,
        "lambda": weights.lam,
        "gamma": weights.gamma,
        "layers": [
            {
                "Q1": weights.heads[0].Q.tolist(),
                "Q2": weights.heads[1].Q.tolist(),
                "Wv1": weights.heads[0].Wv.tolist(),
                "Wv2": weights.heads[1].Wv.tolist(),
                "B1": weights.B[0].tolist(),
                "B2": weights.B[1].tolist(),
                "Wf": weights.Wf.tolist(),
            }
        ],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_weights(path) -> LayerWeights:
    with open(path) as fh:
        obj = json.load(fh)
    if len(obj["layers"]) != 1:
        raise ValueError("expected a single shared layer")
    lw = obj["layers"][0]
    arr = lambda key: np.array(lw[key], dtype=float)
    return LayerWeights(
        heads=(
            AttentionHead(Q=arr("Q1"), Wv=arr("Wv1")),
            AttentionHead(Q=arr("Q2"), Wv=arr("Wv2")),
        ),
        B=(arr("B1"), arr("B2")),
        Wf=arr("Wf"),
        d=int(obj["d"]),
        lam=float(obj["lambda"]),
        gamma=float(obj["gamma"]),
    )
