"""The fixed-weight attention stack and its equivalence to adaptive-stepsize
descent on the entropic matching dual.

The bit-exactness assertions below are deliberate: the auxiliary row's scratch
entries must be *exactly* zero after every layer (the cleanup feedforward is
designed to cancel the residue in IEEE arithmetic, not approximately), and the
dual columns must track the descent oracle to float64 resolution.
"""

import dataclasses

import numpy as np
import pytest

from otlab import dual_descent as dd
from otlab import transformer_core as tc
from otlab.checks import _flip_first_value_sign
from otlab.logdomain import log_kernel
from otlab.problem import ProblemInstance, cost_matrix, permutation_instance
from otlab.prompt import build_prompt
from otlab.transformer_core import (
    AttentionHead,
    DegeneratePlanRowError,
    apply_plan,
    attention_pattern,
    build_constructed_weights,
    forward,
    layer_forward,
    load_weights,
    save_weights,
)


def _oracle_duals(inst, depth, gamma):
    C = cost_matrix(inst)
    it = dd.zero_iterate(inst.n)
    out = [it]
    for _ in range(depth):
        it = dd.gd_step(C, it, inst.lam, gamma)
        out.append(it)
    return out


def test_weight_shapes_and_structure():
    w = build_constructed_weights(2, 0.5, 0.1)
    width = 13
    assert len(w.heads) == 2
    for h in w.heads:
        assert h.Q.shape == (width, width)
        assert h.Wv.shape == (width, width)
    np.testing.assert_array_equal(w.heads[1].Q, w.heads[0].Q.T)
    for B in w.B:
        np.testing.assert_array_equal(B, 0.1 * np.eye(width))
    assert w.Wf.shape == (width, width)
    assert (w.d, w.lam, w.gamma) == (2, 0.5, 0.1)


def test_build_rejects_bad_parameters():
    for d, lam, gamma in ((0, 1.0, 0.1), (1, 0.0, 0.1), (1, 1.0, 0.0), (1, 1.0, -0.2)):
        with pytest.raises(ValueError):
            build_constructed_weights(d, lam, gamma)


def test_single_layer_is_one_descent_step():
    rng = np.random.default_rng(0)
    inst = ProblemInstance(x=rng.uniform(0, 1, (5, 2)), y=rng.uniform(0, 1, (5, 2)), lam=0.3)
    w = build_constructed_weights(2, 0.3, 0.05)
    state = layer_forward(build_prompt(inst), w)
    lay = state.layout
    expected = _oracle_duals(inst, 1, 0.05)[1]
    np.testing.assert_allclose(state.Z[:5, lay.u], expected.u, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(state.Z[:5, lay.v], expected.v, rtol=1e-12, atol=1e-14)


def test_forward_tracks_oracle_at_every_prefix():
    inst = permutation_instance(4, 3, 0.2)
    gamma = 0.15
    trace = forward(inst, 8, weights=build_constructed_weights(inst.d, inst.lam, gamma))
    oracle = _oracle_duals(inst, 8, gamma)
    for ell in range(9):
        u, v = trace.duals(ell)
        np.testing.assert_allclose(u, oracle[ell].u, atol=1e-12)
        np.testing.assert_allclose(v, oracle[ell].v, atol=1e-12)


def test_aux_row_scratch_is_bit_exact_zero():
    inst = permutation_instance(6, 1, 0.05)
    trace = forward(inst, 40, weights=build_constructed_weights(inst.d, inst.lam, 0.02))
    lay = trace.states[0].layout
    for state in trace.states:
        assert state.Z[6, lay.u] == 0.0
        assert state.Z[6, lay.v] == 0.0


def test_static_prompt_columns_never_move():
    inst = permutation_instance(3, 5, 0.5)
    trace = forward(inst, 30, weights=build_constructed_weights(inst.d, inst.lam, 0.1))
    first, last = trace.states[0].Z, trace.states[-1].Z
    lay = trace.states[0].layout
    static = [lay.xsq, lay.ysq, lay.marker, lay.spare, *lay.ones]
    static += list(range(*lay.x.indices(lay.width))) + list(range(*lay.y.indices(lay.width)))
    np.testing.assert_array_equal(last[:, static], first[:, static])


def test_flipped_value_sign_breaks_equivalence():
    """Sanity check that the agreement tests can fail: ascending on u instead
    of descending must diverge from the oracle immediately."""
    inst = permutation_instance(4, 0, 0.5)
    w = build_constructed_weights(1, 0.5, 0.1)
    h1, h2 = w.heads
    bad = dataclasses.replace(w, heads=(AttentionHead(Q=h1.Q, Wv=-h1.Wv), h2))
    trace = forward(inst, 3, weights=bad)
    oracle = _oracle_duals(inst, 3, 0.1)
    assert np.abs(trace.duals(3)[0] - oracle[3].u).max() > 1e-3


def _two_head_loop(state, w):
    """One layer run head by head, each with its own row softmax."""
    Z = state.Z
    mid = Z.copy()
    for head, B in zip(w.heads, w.B):
        logits = Z @ head.Q @ Z.T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        mid = mid + (e / e.sum(axis=1, keepdims=True)) @ (Z @ head.Wv) @ B
    return mid + np.maximum(mid @ w.Wf, 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam, gamma", [(0.005, 0.01), (0.1, 0.1), (1.0, 0.1)])
def test_stacked_heads_match_head_by_head_loop_bit_for_bit(d, lam, gamma):
    w = build_constructed_weights(d, lam, gamma)
    for weights in (w, _flip_first_value_sign(w)):
        for n in (2, 5, 17):
            rng = np.random.default_rng((n, d))
            inst = ProblemInstance(x=rng.uniform(0, 1, (n, d)), y=rng.uniform(0, 1, (n, d)), lam=lam)
            state = build_prompt(inst)
            for _ in range(20):
                want = _two_head_loop(state, weights)
                state = layer_forward(state, weights)
                np.testing.assert_array_equal(state.Z, want)


def test_replaced_and_loaded_weights_rebuild_their_stacks(tmp_path):
    """--flip-sign and the bench's injected fault swap head 1 with
    dataclasses.replace; the layer must run the swapped head, not a stale stack."""
    w = build_constructed_weights(1, 0.5, 0.1)
    bad = _flip_first_value_sign(w)
    np.testing.assert_array_equal(bad.Wvs[0], -w.heads[0].Wv)
    np.testing.assert_array_equal(bad.Wvs[1], w.heads[1].Wv)
    save_weights(bad, tmp_path / "bad.json")
    loaded = load_weights(tmp_path / "bad.json")
    state = build_prompt(permutation_instance(4, 0, 0.5))
    for weights in (bad, loaded):
        for stack, parts in ((weights.Qs, [h.Q for h in weights.heads]),
                             (weights.Wvs, [h.Wv for h in weights.heads]), (weights.Bs, weights.B)):
            np.testing.assert_array_equal(stack, np.stack(parts))
        np.testing.assert_array_equal(layer_forward(state, weights).Z, _two_head_loop(state, bad))
    assert not np.array_equal(layer_forward(state, bad).Z, layer_forward(state, w).Z)


def test_layer_makes_one_attention_call(monkeypatch):
    calls = []
    real = tc.attention

    def counted(*args):
        calls.append(1)
        return real(*args)

    w = build_constructed_weights(1, 0.5, 0.1)
    monkeypatch.setattr(tc, "attention", counted)
    forward(permutation_instance(4, 0, 0.5), 30, weights=w)
    assert len(calls) == 30


def test_raw_kernel_pattern_is_dual_kernel():
    inst = permutation_instance(5, 2, 0.3)
    trace = forward(inst, 12, weights=build_constructed_weights(inst.d, inst.lam, 0.08))
    C = cost_matrix(inst)
    for ell in (0, 5, 12):
        u, v = trace.duals(ell)
        M = np.exp(log_kernel(C, u, v, 0.3))
        K1, K2 = (attention_pattern(trace.states[ell], h, "raw_kernel") for h in trace.weights.heads)
        np.testing.assert_allclose(K1, M, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(K2, M.T, rtol=1e-10, atol=1e-13)


def test_softmax_pattern_rows_are_distributions():
    inst = permutation_instance(4, 1, 0.5)
    trace = forward(inst, 4, weights=build_constructed_weights(inst.d, inst.lam, 0.1))
    A = attention_pattern(trace.states[2], trace.weights.heads[0], "softmax")
    assert A.shape == (5, 5)  # softmax runs over all n+1 tokens
    assert np.all(A > 0)
    np.testing.assert_allclose(A.sum(axis=1), 1.0, rtol=1e-12)
    # ... so the n x n block of a data row sums to s/(s+1) < 1
    assert np.all(A[:4, :4].sum(axis=1) < 1.0)


def test_attention_pattern_variants_disagree():
    inst = permutation_instance(3, 0, 0.5)
    state = build_prompt(inst)
    w = build_constructed_weights(1, 0.5, 0.1)
    raw = attention_pattern(state, w.heads[0], "raw_kernel")
    soft = attention_pattern(state, w.heads[0], "softmax")
    assert raw.shape == (3, 3)
    assert soft.shape == (4, 4)
    assert np.abs(raw - soft[:3, :3]).max() > 1e-6
    with pytest.raises(ValueError):
        attention_pattern(state, w.heads[0], "nonsense")


def test_forward_requires_weights():
    inst = permutation_instance(3, 4, 0.7)
    with pytest.raises(TypeError):
        forward(inst, 5)
    w = build_constructed_weights(1, 0.7, 0.1)
    assert forward(inst, 5, weights=w).weights is w


def test_forward_rejects_mismatched_weights():
    inst = permutation_instance(3, 0, 0.5)  # d = 1
    w = build_constructed_weights(2, 0.5, 0.1)
    with pytest.raises(ValueError):
        forward(inst, 2, weights=w)


def test_apply_plan_row_rescales():
    pattern = np.array([[0.0, 0.25], [0.25, 0.0]])
    np.testing.assert_allclose(apply_plan(pattern, np.array([1.0, 2.0])), [2.0, 1.0])
    blurry = np.array([[0.2, 0.05], [0.05, 0.2]])
    out = apply_plan(blurry, np.array([0.0, 1.0]))
    np.testing.assert_allclose(out, [0.2, 0.8])


def test_apply_plan_rejects_non_finite_plan():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            apply_plan(np.array([[bad, 1.0], [1.0, 1.0]]), np.array([0.0, 1.0]))


def test_apply_plan_rejects_zero_row():
    with pytest.raises(DegeneratePlanRowError):
        apply_plan(np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([1.0, 2.0]))


def test_weights_json_round_trip(tmp_path):
    w = build_constructed_weights(2, 0.05, 0.02)
    path = tmp_path / "weights.json"
    save_weights(w, path)
    back = load_weights(path)
    assert (back.d, back.lam, back.gamma) == (w.d, w.lam, w.gamma)
    for ha, hb in zip(w.heads, back.heads):
        np.testing.assert_array_equal(ha.Q, hb.Q)
        np.testing.assert_array_equal(ha.Wv, hb.Wv)
    np.testing.assert_array_equal(w.B, back.B)
    np.testing.assert_array_equal(w.Wf, back.Wf)
    # loaded weights drive an identical forward pass
    inst = ProblemInstance(x=[[0.1, 0.9], [0.8, 0.2]], y=[[0.2, 0.8], [0.9, 0.1]], lam=0.05)
    za = forward(inst, 6, weights=w).states[-1].Z
    zb = forward(inst, 6, weights=back).states[-1].Z
    np.testing.assert_array_equal(za, zb)


def test_equivalence_survives_tiny_lam_deep_run():
    inst = permutation_instance(4, 2, 0.005)
    trace = forward(inst, 200, weights=build_constructed_weights(inst.d, inst.lam, 0.01))
    oracle = _oracle_duals(inst, 200, 0.01)
    u, v = trace.duals(200)
    assert np.abs(np.concatenate([u - oracle[200].u, v - oracle[200].v])).max() < 1e-10
