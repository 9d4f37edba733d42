"""The fixed-weight attention stack and its equivalence to adaptive-stepsize
descent on the entropic matching dual.

The bit-exactness assertions below are deliberate: the auxiliary row's scratch
entries must be *exactly* zero after every layer (the cleanup feedforward is
designed to cancel the residue in IEEE arithmetic, not approximately), and the
dual columns must track the descent oracle to float64 resolution.
"""

import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otlab import dual_descent as dd
from otlab import transformer_core as tc
from otlab.checks import _flip_first_value_sign
from otlab.logdomain import DegeneratePlanError, log_kernel
from otlab.problem import ProblemInstance, cost_matrix, permutation_instance, seeded_instance
from otlab.prompt import MARKER, ONE, U, V, build_prompt, width
from otlab.transformer_core import (
    DivergenceError,
    apply_plan,
    attention_pattern,
    build_constructed_weights,
    divergence_guard,
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
    cols = width(2)
    assert cols == 12
    # head h is Qs[h], Wvs[h]; each value map carries the stepsize
    assert w.Qs.shape == w.Wvs.shape == (2, cols, cols)
    # the logit map is a -I block pairing the rank-4 factors, plus the duals'
    # pairings with the flag and the constant -lam: no entry reads the cost
    G = np.zeros((cols, cols))
    G[:4, 4:8] = -np.eye(4)
    G[U, ONE] = G[ONE, V] = 1.0
    G[ONE, ONE] = -0.5
    np.testing.assert_array_equal(w.Qs[0], G / 0.5)
    np.testing.assert_array_equal(w.Qs[1], w.Qs[0].T)
    Wvs = np.zeros((2, cols, cols))
    Wvs[0, MARKER, U] = Wvs[1, MARKER, V] = -0.1
    np.testing.assert_array_equal(w.Wvs, Wvs)
    # the feedforward's reset reads the flag column
    Wf = np.zeros((cols, cols))
    Wf[U, U] = Wf[V, V] = -1.0
    Wf[ONE, [U, V]] = -1e8
    np.testing.assert_array_equal(w.Wf, Wf)


def test_build_rejects_bad_parameters():
    for d, lam, gamma in ((0, 1.0, 0.1), (1.7, 1.0, 0.1), (True, 1.0, 0.1), (1, 0.0, 0.1), (1, 1.0, 0.0),
                          (1, 1.0, -0.2), (1, np.nan, 0.1)):
        with pytest.raises(ValueError):
            build_constructed_weights(d, lam, gamma)


def test_build_at_the_float_limits_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_constructed_weights(1, np.float64(1e308), 0.01)  # the probe's 10 lam overflowed
        with pytest.raises(ValueError, match="^constructed weights are not finite"):
            build_constructed_weights(1, 1e-309, 0.01)  # G / lam overflowed


def test_single_layer_is_one_descent_step():
    rng = np.random.default_rng(0)
    inst = ProblemInstance(x=rng.uniform(0, 1, (5, 2)), y=rng.uniform(0, 1, (5, 2)), lam=0.3)
    w = build_constructed_weights(2, 0.3, 0.05)
    state = layer_forward(build_prompt(inst), w)
    expected = _oracle_duals(inst, 1, 0.05)[1]
    np.testing.assert_allclose(state.Z[:5, U], expected.u, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(state.Z[:5, V], expected.v, rtol=1e-12, atol=1e-14)


def test_forward_tracks_oracle_at_every_prefix():
    inst = permutation_instance(4, 3, 0.2)
    gamma = 0.15
    trace = forward(inst, 8, build_constructed_weights(inst.d, inst.lam, gamma), checkpoints=range(9))
    oracle = _oracle_duals(inst, 8, gamma)
    for ell in range(9):
        u, v = trace.duals(ell)
        np.testing.assert_allclose(u, oracle[ell].u, atol=1e-12)
        np.testing.assert_allclose(v, oracle[ell].v, atol=1e-12)


def test_trace_keeps_only_checkpoints_and_the_final_layer():
    inst = permutation_instance(4, 0, 0.5)
    w = build_constructed_weights(1, 0.5, 0.1)
    full = forward(inst, 10, w, checkpoints=range(11))
    trace = forward(inst, 10, w, checkpoints=[7, 2, 2])
    assert trace.layers == [2, 7, 10] and len(trace.states) == 3
    for ell in trace.layers:
        np.testing.assert_array_equal(trace.state(ell).Z, full.state(ell).Z)
    assert trace.states[-1] is trace.state(10)
    assert forward(inst, 10, w).layers == [10]
    assert forward(inst, 0, w).layers == [0]
    with pytest.raises(LookupError, match="^layer 5 was not kept"):
        trace.duals(5)
    for bad in ([11], [-1]):
        with pytest.raises(ValueError, match="checkpoints"):
            forward(inst, 10, w, checkpoints=bad)


def test_observer_sees_every_layer_and_its_exception_ends_the_pass(monkeypatch, fused_steps):
    """Below the fused limit the observer gets a copy of each layer's buffer,
    which later layers leave alone; above it, each layer's own state."""
    w = build_constructed_weights(1, 0.5, 0.1)
    small, large = (permutation_instance(n, 0, 0.5) for n in (4, tc._FUSED_MAX_TOKENS))
    for inst in (small, large):
        full = forward(inst, 6, w, checkpoints=range(7))
        seen = []
        forward(inst, 6, w, observe=lambda ell, state: seen.append((ell, state.Z)))
        assert [ell for ell, _ in seen] == list(range(7))
        for ell, Z in seen:
            np.testing.assert_array_equal(Z, full.state(ell).Z)
    fused_steps.clear()

    calls = []
    real = tc.layer_forward

    def counted(*args):
        calls.append(1)
        return real(*args)

    class Stop(Exception):
        pass

    def stop_at_3(ell, state):
        if ell == 3:
            raise Stop

    monkeypatch.setattr(tc, "layer_forward", counted)
    with pytest.raises(Stop):
        forward(small, 50, w, observe=stop_at_3)
    assert len(fused_steps) == 3 and not calls
    with pytest.raises(Stop):
        forward(large, 50, w, observe=stop_at_3)
    assert len(calls) == 3 and len(fused_steps) == 3


def test_divergence_guard_names_the_first_bad_layer():
    # lam = 1e-6: head 1's kernel overflows at layer 2 (and again at 7, 12, ...)
    inst = permutation_instance(4, 0, 1e-6)
    w = build_constructed_weights(1, 1e-6, 0.01)
    with pytest.raises(DivergenceError, match="^n=4: attention kernel exceeds 3e\\+153 at layer 2$"):
        forward(inst, 50, w, observe=divergence_guard(cost_matrix(inst), 1e-6))
    # a stacked pass is guarded with its stacked costs
    other = permutation_instance(4, 1, 1e-6)
    with pytest.raises(DivergenceError, match="^n=4: attention kernel exceeds 3e\\+153 at layer 2$"):
        forward([other, inst], 50, w, observe=divergence_guard(np.stack([cost_matrix(other), cost_matrix(inst)]), 1e-6))
    # duals pass the feedforward's reset guard at layer 5
    inst = permutation_instance(4, 0, 1e9)
    w = build_constructed_weights(1, 1e9, 5e7)
    with pytest.raises(DivergenceError, match="^n=4: duals reach the reset guard 1e\\+08 at layer 5$"):
        forward(inst, 200, w, observe=divergence_guard(cost_matrix(inst), 1e9))


def test_raw_kernel_beyond_the_bound_raises_divergence_error():
    # the read-out at layer 2 exponentiated logits past exp's range: an
    # overflow warning and an inf plan
    inst = permutation_instance(4, 0, 1e-6)
    w = build_constructed_weights(1, 1e-6, 0.01)
    state = forward(inst, 50, w, checkpoints=[2]).state(2)
    with pytest.raises(DivergenceError, match="^attention kernel exceeds 3e\\+153$"):
        attention_pattern(state, w.Qs[0])


def test_aux_row_scratch_is_bit_exact_zero():
    inst = permutation_instance(6, 1, 0.05)
    trace = forward(inst, 40, build_constructed_weights(inst.d, inst.lam, 0.02), checkpoints=range(41))
    for state in trace.states:
        assert state.Z[6, U] == 0.0
        assert state.Z[6, V] == 0.0


def test_static_prompt_columns_never_move():
    inst = permutation_instance(3, 5, 0.5)
    trace = forward(inst, 30, build_constructed_weights(inst.d, inst.lam, 0.1), checkpoints=range(31))
    first, last = trace.states[0].Z, trace.states[-1].Z
    # the cost's factors, ONE and MARKER: every column before the dual scratch U, V
    np.testing.assert_array_equal(last[:, :U], first[:, :U])
    assert first[:, :U].any(axis=0).all()


def test_flipped_value_sign_breaks_equivalence():
    """Sanity check that the agreement tests can fail: ascending on u instead
    of descending must diverge from the oracle immediately."""
    inst = permutation_instance(4, 0, 0.5)
    w = build_constructed_weights(1, 0.5, 0.1)
    bad = dataclasses.replace(w, Wvs=np.stack([-w.Wvs[0], w.Wvs[1]]))
    trace = forward(inst, 3, weights=bad)
    oracle = _oracle_duals(inst, 3, 0.1)
    assert np.abs(trace.duals(3)[0] - oracle[3].u).max() > 1e-3


def _two_head_loop(state, w):
    """One layer run head by head, each with its own row softmax, normalized
    after the product with its values."""
    Z = state.Z
    mid = Z.copy()
    for Q, Wv in zip(w.Qs, w.Wvs):
        logits = Z @ Q @ Z.T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        mid = mid + e @ (Z @ Wv) / e.sum(axis=1, keepdims=True)
    return mid + np.maximum(mid @ w.Wf, 0.0)


def _softmax_rows(logits):
    """The textbook row softmax, normalized before any value product."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _fused_loop(state, w):
    """One layer as one attention over both heads' keys: keys Z Q_h^T and
    values Z Wv_h stacked head after head, each head's half of the logits
    normalized by its own row softmax, then one product with the values."""
    Z = state.Z
    keys = np.concatenate([Z @ Q.T for Q in w.Qs])
    values = np.concatenate([Z @ Wv for Wv in w.Wvs])
    halves = np.split(Z @ keys.T, 2, axis=1)
    mid = Z + np.hstack([_softmax_rows(h) for h in halves]) @ values
    return mid + np.maximum(mid @ w.Wf, 0.0)


def _layer_references(n):
    """The written-out layer an n-point prompt runs, and the other one."""
    if n + 1 <= tc._FUSED_MAX_TOKENS:
        return _fused_loop, _two_head_loop
    return _two_head_loop, _fused_loop


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("n, d", [(1, 1), (6, 2), (40, 3)])
def test_attention_matches_normalize_first_softmax(lead, n, d):
    """On random, non-constructed logit and value maps, dividing after the
    value product agrees with softmax-then-values to 1e-12 of each entry's
    own scale, softmax @ |values|."""
    rng = np.random.default_rng((n, d, len(lead)))
    w = width(d)
    Z = rng.uniform(-1.0, 1.0, (*lead, n + 1, w))
    Qs = rng.normal(0.0, 1.0 / w, (2, w, w))  # moderate logits, a few units
    Wvs = rng.normal(0.0, 1.0, (2, w, w))
    got = tc.attention(Z, Qs, Wvs)
    assert got.shape == (*lead, 2, n + 1, w)
    for h in (0, 1):
        A = _softmax_rows(Z @ Qs[h] @ Z.mT)
        values = Z @ Wvs[h]
        assert (np.abs(got[..., h, :, :] - A @ values) <= 1e-12 * (A @ np.abs(values))).all()


@pytest.mark.parametrize("n", [128, 256])
def test_layers_are_descent_steps_at_forward_deep_shape(n):
    """Criterion 01's 1e-8 over 10 layers at the n, d, lam and gamma of the
    bench's forward-deep workload; the criterion itself stops at n = 8."""
    lam, gamma = 0.005, 0.01
    inst = seeded_instance(n, 2, n, lam)
    trace = forward(inst, 10, build_constructed_weights(2, lam, gamma), checkpoints=range(11))
    for ell, it in enumerate(_oracle_duals(inst, 10, gamma)):
        u, v = trace.duals(ell)
        assert max(np.abs(u - it.u).max(), np.abs(v - it.v).max()) <= 1e-8


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam, gamma", [(0.005, 0.01), (0.1, 0.1), (1.0, 0.1)])
def test_stacked_heads_match_head_by_head_loop_bit_for_bit(d, lam, gamma):
    """Each layer is its written-out reference bit for bit: the fused loop
    up to the fused limit (n = 2, 5, 17), the head-by-head loop above it
    (n = 40). The other reference rounds differently within 20 layers, so
    the check tells the two apart."""
    w = build_constructed_weights(d, lam, gamma)
    for weights in (w, _flip_first_value_sign(w)):
        for n in (2, 5, 17, 40):
            reference, other = _layer_references(n)
            rng = np.random.default_rng((n, d))
            inst = ProblemInstance(x=rng.uniform(0, 1, (n, d)), y=rng.uniform(0, 1, (n, d)), lam=lam)
            state = build_prompt(inst)
            differs = False
            for _ in range(20):
                want = reference(state, weights)
                differs |= not np.array_equal(other(state, weights), want)
                state = layer_forward(state, weights)
                np.testing.assert_array_equal(state.Z, want)
            assert differs


@pytest.mark.parametrize("n", [tc._FUSED_MAX_TOKENS - 1, tc._FUSED_MAX_TOKENS])
def test_both_sides_of_the_fused_limit_are_descent(n):
    """At n + 1 = the fused limit and one above it: criterion 01's 1e-8
    against descent's trajectory, the 1e-10 step from each layer's own
    duals, a stacked pass equal to each single pass and to its layers one by
    one, bit for bit, and the auxiliary row's dual scratch exactly 0.0."""
    lam, gamma, depth = 0.005, 0.01, 30
    w = build_constructed_weights(2, lam, gamma)
    insts = [seeded_instance(n, 2, seed, lam) for seed in range(3)]
    layers = range(depth + 1)
    stacked = forward(insts, depth, w, checkpoints=layers)
    for b, inst in enumerate(insts):
        single = forward(inst, depth, w, checkpoints=layers)
        state = single.states[0]
        C = cost_matrix(inst)
        oracle = _oracle_duals(inst, depth, gamma)
        for ell in layers:
            np.testing.assert_array_equal(stacked.state(ell).Z[b], single.state(ell).Z)
            np.testing.assert_array_equal(single.state(ell).Z, state.Z)
            assert state.Z[n, U] == 0.0 and state.Z[n, V] == 0.0
            u, v = single.duals(ell)
            assert max(np.abs(u - oracle[ell].u).max(), np.abs(v - oracle[ell].v).max()) <= 1e-8
            if ell < depth:
                step = dd.gd_step(C, dd.DualIterate(u=u, v=v), lam, gamma)
                got_u, got_v = single.duals(ell + 1)
                residual = max(np.abs(got_u - step.u).max(), np.abs(got_v - step.v).max())
                assert residual <= 1e-10 * max(np.abs(u).max(), np.abs(v).max(), gamma)
            state = layer_forward(state, w)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 16),
    d=st.integers(1, 3),
    batch=st.integers(1, 4),
    log_lam=st.floats(-3.0, 2.0),
    log_ratio=st.floats(-3.0, 0.6),
    depth=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_pass_is_each_single_pass_and_stacked_descent(n, d, batch, log_lam, log_ratio, depth, seed):
    """Every instance of a stacked pass is its own single pass bit for bit,
    and every layer's duals are one stacked gd_step within criterion 01's
    1e-8. Steps stay below 4 lam (the sorting demo's is 2 lam): from about
    20 lam on, descent amplifies float rounding past 1e-8 within 30 steps."""
    lam = 10.0**log_lam
    gamma = lam * 10.0**log_ratio
    try:
        w = build_constructed_weights(d, lam, gamma)
    except ValueError:
        assume(False)
    rng = np.random.default_rng(seed)
    insts = [ProblemInstance(x=rng.uniform(0, 1, (n, d)), y=rng.uniform(0, 1, (n, d)), lam=lam) for _ in range(batch)]
    layers = range(depth + 1)
    stacked = forward(insts, depth, w, checkpoints=layers)
    plans = attention_pattern(stacked.states[-1], w.Qs[0])
    for b, inst in enumerate(insts):
        single = forward(inst, depth, w, checkpoints=layers)
        for ell in layers:
            np.testing.assert_array_equal(stacked.state(ell).Z[b], single.state(ell).Z)
        np.testing.assert_array_equal(plans[b], attention_pattern(single.states[-1], w.Qs[0]))
    C = np.stack([cost_matrix(inst) for inst in insts])
    it = dd.zero_iterate((batch, n))
    for ell in range(1, depth + 1):
        it = dd.gd_step(C, it, lam, gamma)
        u, v = stacked.duals(ell)
        assert max(np.abs(u - it.u).max(), np.abs(v - it.v).max()) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 16),
    d=st.integers(1, 2),
    log_lam=st.floats(-3.0, 1.0),
    log_ratio=st.floats(-3.0, 3.0),
    depth=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_layer_is_one_descent_step_from_its_own_duals(n, d, log_lam, log_ratio, depth, seed):
    """Layer ell + 1 is one float64 gd_step applied to layer ell's own duals,
    within 1e-10 of max(|theta_ell|_inf, gamma), over every (lam, gamma) the
    construction accepts, gamma up to 1000 lam. Unlike criterion 01 it does
    not compare with descent's own trajectory, which from about 4 lam on
    amplifies rounding (see the test below)."""
    lam = 10.0**log_lam
    gamma = lam * 10.0**log_ratio
    try:
        w = build_constructed_weights(d, lam, gamma)
    except ValueError:
        assume(False)
    rng = np.random.default_rng(seed)
    inst = ProblemInstance(x=rng.uniform(0, 1, (n, d)), y=rng.uniform(0, 1, (n, d)), lam=lam)
    trace = forward(inst, depth, w, checkpoints=range(depth + 1))
    C = cost_matrix(inst)
    for ell in range(depth):
        u, v = trace.duals(ell)
        step = dd.gd_step(C, dd.DualIterate(u=u, v=v), lam, gamma)
        got_u, got_v = trace.duals(ell + 1)
        residual = max(np.abs(got_u - step.u).max(), np.abs(got_v - step.v).max())
        assert residual <= 1e-10 * max(np.abs(u).max(), np.abs(v).max(), gamma)


@pytest.mark.parametrize("ratio, grows", [(20.0, True), (2.0, False)])
def test_descent_alone_amplifies_rounding_at_large_steps(ratio, grows):
    """Why the property above keeps gamma below 4 lam: at gamma = 20 lam a
    one-ulp change to descent's first iterate grows past 1e-8 within 30
    steps with no layer involved, as the forward pass's own rounding does on
    this instance (1.6e-7 at layer 30); at 2 lam it stays at rounding level."""
    rng = np.random.default_rng(2)
    lam = 10.0
    C = cost_matrix(ProblemInstance(x=rng.uniform(0, 1, (8, 1)), y=rng.uniform(0, 1, (8, 1)), lam=lam))
    a = dd.gd_step(C, dd.zero_iterate(8), lam, ratio * lam)
    b = dd.DualIterate(u=np.nextafter(a.u, np.inf), v=a.v)
    for _ in range(29):
        a, b = dd.gd_step(C, a, lam, ratio * lam), dd.gd_step(C, b, lam, ratio * lam)
    deviation = max(np.abs(a.u - b.u).max(), np.abs(a.v - b.v).max())
    assert (deviation > 1e-8) == grows

def test_stacked_prompt_needs_one_n_and_d():
    w = build_constructed_weights(1, 0.5, 0.1)
    for mixed in ([permutation_instance(3, 0, 0.5), permutation_instance(4, 0, 0.5)], []):
        with pytest.raises(ValueError):
            forward(mixed, 2, w)


def test_layer_makes_one_attention_call(monkeypatch, fused_steps):
    """One attention computation per layer: a fused step on buffers made
    once per pass up to the fused limit, one `attention` call above it."""
    calls, made = [], []
    real, make = tc.attention, tc._fused_layers

    def counted(*args):
        calls.append(1)
        return real(*args)

    w = build_constructed_weights(1, 0.5, 0.1)
    fused_steps.clear()  # the weights' probe layer
    monkeypatch.setattr(tc, "attention", counted)
    monkeypatch.setattr(tc, "_fused_layers", lambda *args: made.append(1) or make(*args))
    forward(permutation_instance(4, 0, 0.5), 30, weights=w)
    assert len(fused_steps) == 30 and len(made) == 1 and not calls
    forward(permutation_instance(tc._FUSED_MAX_TOKENS, 0, 0.5), 30, weights=w)
    assert len(calls) == 30 and len(fused_steps) == 30 and len(made) == 1


def test_raw_kernel_pattern_is_dual_kernel():
    inst = permutation_instance(5, 2, 0.3)
    w = build_constructed_weights(inst.d, inst.lam, 0.08)
    trace = forward(inst, 12, w, checkpoints=range(13))
    C = cost_matrix(inst)
    for ell in (0, 5, 12):
        u, v = trace.duals(ell)
        M = np.exp(log_kernel(C, u, v, 0.3))
        K1, K2 = (attention_pattern(trace.states[ell], h) for h in w.Qs)
        np.testing.assert_allclose(K1, M, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(K2, M.T, rtol=1e-10, atol=1e-13)


def test_layer_softmax_row_is_the_kernel_over_its_sum_plus_one():
    """Head 1's row softmax over all n + 1 tokens is [M_i1 .. M_in, 1] /
    (sum_j M_ij + 1) on a data row: the kernel block plus the auxiliary
    token's 1, which supplies the adaptive stepsize's denominator."""
    inst = permutation_instance(4, 1, 0.5)
    w = build_constructed_weights(inst.d, inst.lam, 0.1)
    state = forward(inst, 4, w, checkpoints=[2]).state(2)
    A = _softmax_rows(state.Z @ w.Qs[0] @ state.Z.T)
    np.testing.assert_allclose(A.sum(axis=1), 1.0, rtol=1e-12)
    M = attention_pattern(state, w.Qs[0])
    np.testing.assert_allclose(A[:4], np.column_stack([M, np.ones(4)]) / (M.sum(axis=1, keepdims=True) + 1.0),
                               rtol=1e-12)


def test_attention_pattern_has_one_readout():
    state = build_prompt(permutation_instance(3, 0, 0.5))
    w = build_constructed_weights(1, 0.5, 0.1)
    raw = attention_pattern(state, w.Qs[0])
    assert raw.shape == (3, 3)
    np.testing.assert_array_equal(attention_pattern(state, w.Qs[0], "raw_kernel"), raw)
    for variant in ("softmax", "nonsense"):
        with pytest.raises(ValueError, match="unknown pattern variant"):
            attention_pattern(state, w.Qs[0], variant)


def test_forward_requires_weights():
    inst = permutation_instance(3, 4, 0.7)
    with pytest.raises(TypeError):
        forward(inst, 5)
    w = build_constructed_weights(1, 0.7, 0.1)
    assert forward(inst, 5, weights=w).layers == [5]


def test_forward_keeps_states_only():
    w = build_constructed_weights(1, 0.5, 0.1)
    with pytest.raises(ValueError, match="keeps states only"):
        forward(permutation_instance(3, 0, 0.5), 2, weights=w, record_patterns=True)


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


@pytest.mark.parametrize("d", [2, 3])
def test_apply_plan_takes_points_in_rd(d):
    # unequal row sums: at d = n each row was divided by the sum of another row,
    # and at d != n numpy raised a broadcast error
    P = np.array([[0.5, 0.0], [0.25, 0.5]])
    x = np.arange(2.0 * d).reshape(2, d)
    expected = np.stack([x[0], (0.25 * x[0] + 0.5 * x[1]) / 0.75])
    np.testing.assert_allclose(apply_plan(P, x), expected)


def test_apply_plan_rejects_non_finite_plan():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            apply_plan(np.array([[bad, 1.0], [1.0, 1.0]]), np.array([0.0, 1.0]))


def test_apply_plan_rejects_x_of_another_length():
    for x in (np.zeros(3), 1.0):  # a 0-d x has no length at all
        with pytest.raises(ValueError, match=r"^pattern columns must match len\(x\)$"):
            apply_plan(np.eye(2), x)


def test_apply_plan_rejects_zero_row():
    with pytest.raises(DegeneratePlanError):
        apply_plan(np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([1.0, 2.0]))


def test_weights_json_round_trip(tmp_path):
    """Constructed weights and the --flip-sign fault both load back exactly,
    and a loaded set runs the layer's written-out reference on both sides of
    the fused limit: n = 2 fused, n = 40 head by head."""
    w = build_constructed_weights(2, 0.05, 0.02)
    inst = ProblemInstance(x=[[0.1, 0.9], [0.8, 0.2]], y=[[0.2, 0.8], [0.9, 0.1]], lam=0.05)
    state = build_prompt(inst)
    large = build_prompt(seeded_instance(40, 2, 0, 0.05))
    bad = _flip_first_value_sign(w)
    np.testing.assert_array_equal(bad.Wvs, np.stack([-w.Wvs[0], w.Wvs[1]]))  # head 1 only, on a copy
    for weights in (w, bad):
        path = tmp_path / "weights.json"
        save_weights(weights, path)
        back = load_weights(path)
        np.testing.assert_array_equal(weights.Qs, back.Qs)
        np.testing.assert_array_equal(weights.Wvs, back.Wvs)
        np.testing.assert_array_equal(weights.Wf, back.Wf)
        # loaded weights drive an identical forward pass, and run the saved heads
        za = forward(inst, 6, weights=weights).states[-1].Z
        zb = forward(inst, 6, weights=back).states[-1].Z
        np.testing.assert_array_equal(za, zb)
        np.testing.assert_array_equal(layer_forward(state, back).Z, _fused_loop(state, weights))
        np.testing.assert_array_equal(layer_forward(large, back).Z, _two_head_loop(large, weights))
    assert not np.array_equal(layer_forward(state, back).Z, layer_forward(state, w).Z)


def test_weights_json_bytes_are_pinned(tmp_path):
    # re-pinned when the file came to hold the three matrices only, written
    # sorted and indented like the manifests; the format must not drift
    path = tmp_path / "weights.json"
    save_weights(build_constructed_weights(2, 0.05, 0.02), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "ea288330b07ca2cd5031265ca2c694d37da8315822f39dfd3bc0d1697bddbcb4"


# Files that still record a parameter next to the matrices, as older files
# recorded d, lambda and gamma. The key set is checked before any value is
# read, so no recorded value, in or out of the old domain, reaches a gate.
_RECORDED = {"d 0": ("d", 0), "d -1": ("d", -1), "d 1.7": ("d", 1.7), "d '1'": ("d", "1"), "d true": ("d", True),
             "lambda -1": ("lambda", -1), "gamma nan": ("gamma", float("nan")), "lambda '1'": ("lambda", "1"),
             "lambda 10**400": ("lambda", 10**400)}


@pytest.mark.parametrize("case", ["old layout", "extra key", "wrong width", "nan entry", "object entry", "odd width",
                                  "width of d = 0", "scalar Wf", "string entry", "true entry", *_RECORDED])
def test_load_weights_reads_only_what_save_weights_writes(tmp_path, case):
    w = build_constructed_weights(2, 0.05, 0.02)
    path = tmp_path / "weights.json"
    save_weights(w, path)
    obj = json.loads(path.read_text())
    if case == "old layout":  # each head's maps in a one-layer list, the stepsize in B_h = gamma I
        B = (0.02 * np.eye(12)).tolist()
        layer = {"Q1": w.Qs[0].tolist(), "Q2": w.Qs[1].tolist(), "Wv1": (w.Wvs[0] / 0.02).tolist(),
                 "Wv2": (w.Wvs[1] / 0.02).tolist(), "B1": B, "B2": B, "Wf": obj.pop("Wf")}
        obj = {"d": 2, "lambda": 0.05, "gamma": 0.02, "layers": [layer]}
    elif case == "extra key":
        obj["note"] = "ignored"
    elif case == "wrong width":
        obj["Wvs"] = np.zeros((2, 10, 10)).tolist()  # d = 1's width
    elif case == "nan entry":
        obj["Wf"][0][0] = float("nan")
    elif case == "object entry":
        obj["Wf"][0][0] = {}
    elif case == "string entry":  # float() reads both of these as 1.0
        obj["Wf"][0][0] = "1e0"
    elif case == "true entry":
        obj["Qs"][0][0][0] = True
    elif case == "scalar Wf":
        obj["Wf"] = 1.0
    elif case in ("odd width", "width of d = 0"):  # consistent shapes, but of no d >= 1
        k = 11 if case == "odd width" else width(0)
        obj = {"Qs": np.zeros((2, k, k)).tolist(), "Wvs": np.zeros((2, k, k)).tolist(), "Wf": np.zeros((k, k)).tolist()}
    else:
        key, value = _RECORDED[case]
        obj.update({"d": 2, "lambda": 0.05, "gamma": 0.02, key: value})
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as err:
        load_weights(path)
    assert str(err.value).startswith(f"{path}: ") and "\n" not in str(err.value)


def test_heads_are_views_of_the_stacks():
    w = build_constructed_weights(2, 0.5, 0.1)
    for h, Q in enumerate(w.heads):
        assert np.shares_memory(Q, w.Qs[h])
        np.testing.assert_array_equal(Q, w.Qs[h])
    # the stacks are the only stored copy of the heads
    assert [f.name for f in dataclasses.fields(w)] == ["Qs", "Wvs", "Wf"]


def test_equivalence_survives_tiny_lam_deep_run():
    inst = permutation_instance(4, 2, 0.005)
    trace = forward(inst, 200, weights=build_constructed_weights(inst.d, inst.lam, 0.01))
    oracle = _oracle_duals(inst, 200, 0.01)
    u, v = trace.duals(200)
    assert np.abs(np.concatenate([u - oracle[200].u, v - oracle[200].v])).max() < 1e-10
