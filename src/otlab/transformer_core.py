"""Fixed-weight softmax attention whose forward pass runs dual descent.

A layer is two attention heads plus a ReLU feedforward:

    Zmid = Z + sum_h softmax_rows(Z Q_h Z^T) (Z W_h)
    Znew = Zmid + relu(Zmid Wf)

How the layer is computed depends on the prompt's size. A prompt of at
most 33 tokens (n + 1 <= 33, below the measured crossover) runs both heads
as one attention: with keys K_h = Z Q_h^T and values Z W_h, the logits Z [K_1; K_2]^T
hold each head in its own half, each half's row softmax is normalized, and
one product with the stacked values [Z W_1; Z W_2] sums the two heads
(`_fused_layers`, whose maps and scratch `forward` allocates once per pass).
A longer prompt computes head h as E_h (Z W_h) / rowsum(E_h), with
E_h = exp(Z Q_h Z^T - rowmax): the softmax is normalized after the value
product (see `attention`). Both are exact softmax attention; they differ in
rounding only.

`build_constructed_weights` fills these matrices so that on a prompt encoding
a transport instance the layer performs exactly one preconditioned descent
step on the dual variables stored in the state:

* Head 1's logit map G/lam pairs the prompt's cost factors, C_ij =
  phi_i^T psi_j, by a -I block, plus three entries for u_i, v_j and -lam: it
  never sees the cost. It reproduces the kernel logits
  (-C_ij + u_i + v_j)/lam - 1 between data tokens and 0 against the auxiliary
  token, so its softmax row i is [M_i1 .. M_in, 1] / (sum_j M_ij + 1) — the
  adaptive stepsize denominator appears for free. Its value map reads the
  marker column (1 on data rows, -1/n on the auxiliary row), so attending to
  the data rows contributes -sum M_ij and the auxiliary row +1/n: together the
  negated descent direction, written into the u column times the stepsize
  gamma, which the value map carries. Head 2 is the transpose story for v.
* The same heads deposit a residue on the *auxiliary* row's dual columns (its
  softmax row is uniform). Left in place it would be read back by the next
  layer's logit map as a phantom dual. The feedforward clears it: the active
  Wf columns compute relu(-dual - 1e8 * flag), with reset guard 1e8: 0 on
  data rows (flag = 1) and exactly -residue on the auxiliary row (flag = 0,
  residue <= 0), restoring its scratch to 0.0 in IEEE arithmetic. Data rows
  therefore require |duals| < 1e8, comfortably true at desk scale.

The weights depend only on (d, lam, gamma), never on n, the points or the
cost: the one matrix set solves every instance size.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from . import dual_descent as dd
from .dual_descent import DivergenceError
from .io import write_json_atomic
from .logdomain import DegeneratePlanError, integer_at_least, log_kernel, plan_matrix, positive_finite
from .problem import ProblemInstance, cost_matrix, uniform_instance
from .prompt import MARKER, ONE, U, V, HiddenState, build_prompt, is_width, read_dual, width, with_duals

_RESET_GUARD = 1e8
# The most tokens (n + 1) a prompt may have for its layers to run fused: a
# point chosen below the crossover. Per layer (d = 1 and 2, one BLAS thread,
# 2-vCPU x86 machine) the fused form was 26 % faster at n = 16, 10-17 % at
# n = 32, 3-6 % at n = 48, even at n = 56 and 5-23 % slower at n = 64-128,
# where dividing its (n+1) x 2(n+1) softmax costs more than the calls it saves.
# Above n = 32 the gain is small and no workload is timed there.
_FUSED_MAX_TOKENS = 33

def _log_kernel_cap(n: int) -> float:
    # log of sqrt(largest float)/n: a kernel entry above it may overflow the
    # plan's squared Frobenius norm
    return 0.5 * np.log(np.finfo(float).max) - np.log(n)


@dataclasses.dataclass(frozen=True)
class LayerWeights:
    # the two heads stacked on a leading axis, (2, width, width): the only copy
    Qs: np.ndarray
    Wvs: np.ndarray
    Wf: np.ndarray

    @property
    def heads(self) -> np.ndarray:
        # bench/workloads.py:86 still reads this name; the next benchmark change drops it
        return self.Qs


def attention(Z: np.ndarray, Qs: np.ndarray, Wvs: np.ndarray) -> np.ndarray:
    """softmax_rows(Z Q_h Z^T) (Z Wv_h) for every head h of the stacks, as one
    (..., heads, n+1, width) array for a (..., n+1, width) state; each token
    attends over all tokens of its own instance, self included.

    The rows are normalized after the value product (Rabe & Staats,
    arXiv:2112.05682): E = exp(L - rowmax L) multiplies the values, and the
    (n+1) x width product is divided by E's row sums, not E itself.
    `layer_forward` calls it for prompts of more than 33 tokens; shorter ones
    run both heads fused, normalized before one value product."""
    Z = Z[..., None, :, :]  # the head axis
    E = (Z @ Qs) @ np.ascontiguousarray(Z.mT)  # matmul is slower on the broadcast, transposed Z.mT
    E -= E.max(axis=-1, keepdims=True)
    np.exp(E, out=E)
    out = E @ (Z @ Wvs)
    out /= E.sum(axis=-1, keepdims=True)
    return out


def attention_pattern(state: HiddenState, Q: np.ndarray, variant: str = "raw_kernel") -> np.ndarray:
    """The raw n x n kernel block exp(Z Q Z^T) of a logit map Q: M at the
    current duals for a constructed Qs[0], M^T for Qs[1]. A kernel entry above
    sqrt(largest float)/n raises DivergenceError, the bound `divergence_guard`
    holds every layer's kernel to. The layer's own attention, normalized after
    its value product, is `attention`."""
    # bench/ still passes variant="raw_kernel"; the next benchmark change drops it
    if variant != "raw_kernel":
        raise ValueError(f"unknown pattern variant {variant!r}")
    block = (state.Z @ Q @ state.Z.mT)[..., : state.n, : state.n]
    log_cap = _log_kernel_cap(state.n)
    if not block.max() <= log_cap:  # also catches NaN logits
        raise DivergenceError(f"attention kernel exceeds {np.exp(log_cap):.0e}")
    return np.exp(block)


def _fused_layers(Z: np.ndarray, weights: LayerWeights) -> Callable[[], None]:
    """A step function that applies one layer to Z, a writable (..., n+1, w)
    state, in place, as one two-head attention. The stacked maps and every
    scratch array are made here, once; a step allocates nothing.

    Per step: R = Z [Q_1^T, Q_2^T, W_1, W_2] gives both heads' keys and
    values; the logits Z [K_1; K_2]^T are (n+1) x 2(n+1), each head in its
    own half; each half's row softmax is normalized in place; one product
    with the stacked values [V_1; V_2] sums the heads; then the residual and
    relu(mid Wf) + mid, written back into Z."""
    lead, (t, w) = Z.shape[:-2], Z.shape[-2:]
    maps = np.stack([weights.Qs[0].T, weights.Qs[1].T, weights.Wvs[0], weights.Wvs[1]])
    Wf = weights.Wf
    R = np.empty((*lead, 4, t, w))
    keys_T = R[..., :2, :, :].reshape(*lead, 2 * t, w).mT  # views into R: no copy per step
    values = R[..., 2:, :, :].reshape(*lead, 2 * t, w)
    L = np.empty((*lead, t, 2 * t))
    halves = L.reshape(*lead, t, 2, t)  # the heads' logits side by side
    rows = np.empty((*lead, t, 2, 1))
    mid = np.empty_like(Z)
    Z_heads = Z[..., None, :, :]

    def step() -> None:
        np.matmul(Z_heads, maps, out=R)
        np.matmul(Z, keys_T, out=L)
        np.maximum.reduce(halves, axis=-1, keepdims=True, out=rows)  # np.max and np.sum wrap these slowly
        np.subtract(halves, rows, out=halves)
        np.exp(halves, out=halves)
        np.add.reduce(halves, axis=-1, keepdims=True, out=rows)
        np.divide(halves, rows, out=halves)
        np.matmul(L, values, out=mid)
        np.add(mid, Z, out=mid)
        np.matmul(mid, Wf, out=Z)
        np.maximum(Z, 0.0, out=Z)
        np.add(Z, mid, out=Z)

    return step


def layer_forward(state: HiddenState, weights: LayerWeights) -> HiddenState:
    """Apply one layer to a state, or to a stack of states at once, each
    instance bit-identical to itself alone. Both heads read the incoming
    state. A prompt of at most 33 tokens takes one step of the fused kernel
    `forward` runs (so a pass is its layers one by one, bit for bit); a
    longer one sums Z + head 1 + head 2 from `attention`, bit-identical to a
    head-by-head loop."""
    Z = state.Z
    if Z.shape[-2] <= _FUSED_MAX_TOKENS:
        Z = Z.copy()
        _fused_layers(Z, weights)()
        return HiddenState(Z=Z)
    heads = attention(Z, weights.Qs, weights.Wvs)
    mid = Z + heads[..., 0, :, :]
    mid += heads[..., 1, :, :]
    out = mid @ weights.Wf
    np.maximum(out, 0.0, out=out)
    out += mid
    return HiddenState(Z=out)


def build_constructed_weights(d: int, lam: float, gamma: float) -> LayerWeights:
    """Weights for point dimension d, entropic weight lam, stepsize gamma.

    Self-checks on a random probe instance that the logit/value identities and
    the one-layer-equals-one-step property hold before returning. The set
    records none of the three: d is its width, lam and gamma sit in Qs and Wvs.
    """
    integer_at_least("d", d, 1)
    positive_finite("lam", lam)
    positive_finite("gamma", gamma)
    w = width(d)
    r = (w - 4) // 2  # the rank of the cost's factors

    # bilinear form G with z_i G z_j = -phi_i^T psi_j + u_i + v_j - lam = -C_ij + u_i + v_j - lam
    G = np.zeros((w, w))
    G[:r, r : 2 * r] = -np.eye(r)
    G[U, ONE] = G[ONE, V] = 1.0
    G[ONE, ONE] = -lam  # constant -lam => the -1 in the exponent
    # marker row/column stay zero so the auxiliary token scores 0 both ways
    with np.errstate(over="ignore"):  # a tiny lam overflows to inf, rejected below
        Qs = np.stack([G / lam, G.T / lam])

    # value maps read the marker column into the dual scratch: data tokens
    # contribute -1, the auxiliary token +1/n — the negated gradient pieces,
    # times the stepsize
    Wvs = np.zeros((2, w, w))
    Wvs[0, MARKER, U] = Wvs[1, MARKER, V] = -gamma

    # feedforward clears the auxiliary row's dual residue (see module docstring)
    Wf = np.zeros((w, w))
    Wf[U, U] = Wf[V, V] = -1.0
    Wf[ONE, U] = Wf[ONE, V] = -_RESET_GUARD

    if not np.isfinite(Qs).all():
        raise ValueError("constructed weights are not finite for these parameters")
    weights = LayerWeights(Qs=Qs, Wvs=Wvs, Wf=Wf)
    _probe_check(weights, d, lam, gamma)
    return weights


def _probe_check(weights: LayerWeights, d: int, lam: float, gamma: float) -> None:
    """Verify weights built for (d, lam, gamma) on a random 3-point instance
    with nonzero duals, against the descent oracle at those parameters.

    A failure means the construction does not hold at these parameters (say,
    a stepsize whose steps outgrow the feedforward's reset guard), so it is
    reported as a ValueError like the other parameter checks, on one line
    that names them.
    """
    at = f" at d={d}, lam={lam:g}, gamma={gamma:g}"
    rng, n = np.random.default_rng(1234), 3
    inst = uniform_instance(rng, n, d, lam)
    sigma = 10.0 * min(lam, 0.005)  # keep probe kernel exponents overflow-free at tiny lam
    u, v = rng.normal(0, sigma, n), rng.normal(0, sigma, n)
    state = with_duals(build_prompt(inst), u, v)
    C = cost_matrix(inst)

    logits = (state.Z @ weights.Qs) @ state.Z.T
    want = log_kernel(C, u, v, lam)
    scale = max(1.0, np.abs(want).max())
    if np.abs(logits[0, :n, :n] - want).max() > 1e-9 * scale:
        raise ValueError("constructed logits do not match the kernel exponents" + at)
    if logits[0, n, :].any() or logits[0, :, n].any():
        raise ValueError("auxiliary token logits are not exactly zero" + at)
    if np.abs(logits[1, :n, :n] - want.T).max() > 1e-9 * scale:
        raise ValueError("second head logits are not the transpose" + at)

    values = state.Z @ weights.Wvs[0]
    expect = np.zeros_like(values)
    expect[:, U] = -gamma * state.Z[:, MARKER]
    if not np.array_equal(values, expect):
        raise ValueError("head-1 value map does not read the marker column" + at)

    stepped = layer_forward(state, weights)
    got_u, got_v = read_dual(stepped)
    ref = dd.gd_step(C, dd.DualIterate(u=u, v=v), lam, gamma)
    if not (
        np.allclose(got_u, ref.u, rtol=1e-9, atol=1e-12)
        and np.allclose(got_v, ref.v, rtol=1e-9, atol=1e-12)
    ):
        raise ValueError("one layer does not match one descent step" + at)
    if stepped.Z[n, U] != 0.0 or stepped.Z[n, V] != 0.0:
        raise ValueError("auxiliary dual scratch was not cleared" + at)


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
    positive_finite("lam", lam)
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
    an exception it raises ends the pass (see `divergence_guard`). A prompt
    of at most 33 tokens runs its layers fused in one buffer, copied into a
    fresh state only for the layers kept or observed.
    """
    if record_patterns:
        raise ValueError("forward keeps states only; read patterns with attention_pattern")
    integer_at_least("depth", depth, 0)
    keep = set(checkpoints)
    for k in keep:
        integer_at_least("checkpoints", k, 0)
    if any(k > depth for k in keep):
        raise ValueError(f"checkpoints must lie in [0, {depth}]")
    keep.add(depth)

    states, layers = [], []
    state = build_prompt(inst)
    fused = state.Z.shape[-2] <= _FUSED_MAX_TOKENS
    if fused:
        Z = state.Z.copy()
        step = _fused_layers(Z, weights)
    for ell in range(depth + 1):
        if ell and fused:
            step()
            if observe is None and ell not in keep:
                continue  # nothing reads this layer's state
            state = HiddenState(Z=Z.copy())
        elif ell:
            state = layer_forward(state, weights)
        if observe is not None:
            observe(ell, state)
        if ell in keep:
            states.append(state)
            layers.append(ell)
    return ForwardTrace(states=states, layers=layers)


def apply_plan(pattern: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric image of x, n values of shape (n,) or n points in R^d of
    shape (n, d), under a nonnegative plan: rescale each row to sum 1, then
    multiply. A zero row has no barycenter and raises."""
    P = plan_matrix(pattern)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or P.shape[1] != x.shape[0]:
        raise ValueError("pattern columns must match len(x)")
    sums = P.sum(axis=1)
    if (sums <= 0).any():
        raise DegeneratePlanError("plan has a zero row")
    return (P @ x) / sums.reshape(-1, *[1] * (x.ndim - 1))  # row i of P @ x by sums[i]


def save_weights(weights: LayerWeights, path) -> None:
    """Write the three matrices as nested lists under the keys Qs, Wvs and Wf."""
    write_json_atomic({"Qs": weights.Qs.tolist(), "Wvs": weights.Wvs.tolist(), "Wf": weights.Wf.tolist()}, path)


def _json_numbers(value):
    """value, nested lists of JSON numbers, as it is; float() would also take
    a string such as "1e0" and true, which are not numbers."""
    if isinstance(value, list):
        return [_json_numbers(v) for v in value]
    if type(value) not in (int, float):  # bool is an int subclass
        raise TypeError(f"an entry is {json.dumps(value)}, not a number")
    return value


def load_weights(path) -> LayerWeights:
    """Read back what `save_weights` wrote, and nothing else: another key set
    (older files also recorded d, lambda and gamma, or kept each value map
    apart from its stepsize, in a list of layers), or a matrix that is not
    numbers, not of one width w = 2d + 8 for some d >= 1, or with an entry
    that is not finite raises ValueError."""
    with open(path) as fh:
        obj = json.load(fh)
    keys = ("Qs", "Wvs", "Wf")
    if not isinstance(obj, dict) or obj.keys() != set(keys):
        raise ValueError(f"{path}: a weights file has exactly the keys {', '.join(keys)}")
    try:
        Qs, Wvs, Wf = (np.array(_json_numbers(obj[k]), dtype=float) for k in keys)
    except (TypeError, ValueError, OverflowError) as err:  # a JSON value of another type or range
        raise ValueError(f"{path}: {err}") from None
    w = Wf.shape[0] if Wf.ndim else 0
    if not is_width(w):
        raise ValueError(f"{path}: Wf has shape {Wf.shape}, not (w, w) for a width w = 2d + 8 with d >= 1")
    for name, m, shape in (("Qs", Qs, (2, w, w)), ("Wvs", Wvs, (2, w, w)), ("Wf", Wf, (w, w))):
        if m.shape != shape:
            raise ValueError(f"{path}: {name} has shape {m.shape}, not {shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"{path}: {name} has an entry that is not finite")
    return LayerWeights(Qs=Qs, Wvs=Wvs, Wf=Wf)
