"""Scaling / fixed-point side: Gibbs kernels, the f and g normalization maps,
the projective metric on positive vectors, the contraction factor, and the
randomized harnesses behind the almost-doubly-stochastic closure and shift
bounds.

Hand-computed anchors:
  mu([1,2],[1,1])   = log max(1/1, 2/1) - log min(...) wrapped as the maximal
                      cross ratio = log 2
  mu([1,2],[2,1])   = log 4
  phi([[1,2],[3,4]]) = max over column pairs of (Q_ik Q_jl)/(Q_jk Q_il) = 1.5
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from otlab import checks
from otlab import sinkhorn_lab as sl
from otlab.logdomain import log_kernel, lse, marginal_error
from otlab.problem import cost_matrix, permutation_instance, sorting_instance

positive_vectors = st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=6).map(np.array)


def test_gibbs_kernel_frozen_and_shape():
    gk = sl.gibbs_kernel(np.zeros((1, 1)), 1.0)
    np.testing.assert_allclose(np.exp(gk.logQ), [[math.exp(-1)]], rtol=1e-15)
    gk2 = sl.gibbs_kernel(np.array([[0.0, 2.0], [2.0, 0.0]]), 2.0)
    np.testing.assert_allclose(gk2.logQ, [[-1.0, -2.0], [-2.0, -1.0]])
    assert gk2.n == 2


def test_gibbs_kernel_rejects_bad_lam():
    # lam = inf was accepted, and its solve returned NaN scalings
    for lam in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            sl.gibbs_kernel(np.ones((2, 2)), lam)


def test_f_map_fixes_columns_g_map_fixes_rows():
    rng = np.random.default_rng(0)
    A = rng.uniform(0.1, 2.0, (4, 4))
    np.testing.assert_allclose(sl.f_map(A).sum(axis=0), 0.25, rtol=1e-12)
    np.testing.assert_allclose(sl.g_map(A).sum(axis=1), 0.25, rtol=1e-12)


def test_f_map_is_column_rescaling():
    rng = np.random.default_rng(1)
    A = rng.uniform(0.1, 2.0, (3, 3))
    F = sl.f_map(A)
    # each column scaled by a single positive factor
    ratios = F / A
    np.testing.assert_allclose(ratios, np.tile(ratios[0], (3, 1)), rtol=1e-12)
    np.testing.assert_allclose(ratios[0], sl.col_fn(A), rtol=1e-12)


def test_normalizers_reject_degenerate_sums():
    with pytest.raises(ValueError):
        sl.col_fn(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        sl.row_fn(np.array([[-1.0, -1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        sl.col_fn(np.ones((2, 3)))


def test_marginal_error_and_membership():
    n = 4
    A = np.full((n, n), 1.0 / n**2)
    assert marginal_error(A) == 0.0
    B = A.copy()
    B[0, :] += 0.01 / n  # one row pushed to marginal error exactly 0.01
    assert marginal_error(B) == pytest.approx(0.01, rel=1e-12)
    with pytest.raises(ValueError):
        marginal_error(np.ones((2, 3)))


def test_marginal_error_rejects_an_empty_matrix():
    # a 0 x 0 matrix passed the shape check and raised ZeroDivisionError
    with pytest.raises(ValueError, match="non-empty square matrix"):
        marginal_error(np.zeros((0, 0)))


def _mu(w, wp):
    return sl.hilbert_metric_logs(np.log(w), np.log(wp))


def test_hilbert_metric_frozen_values():
    assert _mu([1.0, 2.0], [1.0, 1.0]) == pytest.approx(math.log(2), rel=1e-12)
    assert _mu([1.0, 2.0], [2.0, 1.0]) == pytest.approx(math.log(4), rel=1e-12)
    assert _mu([3.0, 3.0], [7.0, 7.0]) == 0.0


@settings(max_examples=80, deadline=None)
@given(w=positive_vectors, c=st.floats(1e-3, 1e3))
def test_hilbert_metric_scale_invariant(w, c):
    wp = w[::-1].copy()
    a = _mu(w, wp)
    assert _mu(c * w, wp) == pytest.approx(a, rel=1e-9, abs=1e-12)
    assert a >= 0.0


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(2, 5))
def test_hilbert_metric_symmetry_and_triangle(data, n):
    elt = st.floats(1e-2, 1e2)
    w = np.array(data.draw(st.lists(elt, min_size=n, max_size=n)))
    wp = np.array(data.draw(st.lists(elt, min_size=n, max_size=n)))
    wq = np.array(data.draw(st.lists(elt, min_size=n, max_size=n)))
    ab = _mu(w, wp)
    assert _mu(wp, w) == pytest.approx(ab, rel=1e-12, abs=1e-12)
    assert ab <= _mu(w, wq) + _mu(wq, wp) + 1e-9


def _phi_brute(Q):
    n = Q.shape[0]
    best = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    best = max(best, Q[i, k] * Q[j, l] / (Q[j, k] * Q[i, l]))
    return best


def test_cross_ratio_frozen_value():
    Q = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert sl.log_max_cross_ratio(np.log(Q)) == pytest.approx(math.log(1.5), rel=1e-12)


def test_cross_ratio_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        Q = rng.uniform(0.2, 3.0, (4, 4))
        assert math.exp(sl.log_max_cross_ratio(np.log(Q))) == pytest.approx(_phi_brute(Q), rel=1e-10)


def test_contraction_factor_identity():
    # tanh(log(phi)/4) must equal (sqrt(phi)-1)/(sqrt(phi)+1); the 2 x 2
    # kernel with log Q = [[log phi, 0], [0, 0]] has cross ratio phi
    for phi in (1.0, 1.5, 7.0, 1e8):
        direct = (math.sqrt(phi) - 1) / (math.sqrt(phi) + 1)
        gk = sl.GibbsKernel(logQ=np.array([[math.log(phi), 0.0], [0.0, 0.0]]), lam=1.0)
        assert sl.contraction_factor(gk) == pytest.approx(direct, rel=1e-12)


def test_contraction_factor_survives_tiny_lam():
    # phi itself overflows float64 below lam ~ 0.01; the log-domain route must
    # return a finite factor. tanh saturates to exactly 1.0 once log(phi)/4
    # passes ~19, which is the honest float64 answer at this scale.
    gk = sl.gibbs_kernel(cost_matrix(permutation_instance(4, 1)), 0.005)
    eta = sl.contraction_factor(gk)
    assert np.isfinite(eta) and 0.0 < eta <= 1.0
    # a merely-small lam still resolves a strict contraction
    gk = sl.gibbs_kernel(cost_matrix(permutation_instance(4, 1)), 0.05)
    assert sl.contraction_factor(gk) < 1.0


def test_sinkhorn_solve_reaches_fixed_point():
    C = cost_matrix(permutation_instance(5, 3, 0.5))
    res = sl.sinkhorn_solve(sl.gibbs_kernel(C, 0.5), tol=1e-12)
    assert res.eps_star <= 1e-12
    np.testing.assert_allclose(res.plan.sum(axis=0), 0.2, atol=2e-12)
    np.testing.assert_allclose(res.plan.sum(axis=1), 0.2, atol=2e-12)
    # the returned duals are descent's: their kernel is the plan, balanced gauge
    np.testing.assert_allclose(np.exp(log_kernel(C, res.u, res.v, 0.5)), res.plan, rtol=1e-10)
    assert res.u.mean() == pytest.approx(res.v.mean(), abs=1e-12)


def test_balanced_gauge_is_finite_at_the_top_of_the_float_range():
    # at lam = 1e308 every dual is -8.86e307, so a mean over the duals
    # themselves would overflow; the gauge is balanced in log units instead
    lam = 1e308
    C = cost_matrix(permutation_instance(4, 0, lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sl.sinkhorn_solve(sl.gibbs_kernel(C, lam))
    assert np.isfinite(res.u).all() and np.isfinite(res.v).all()
    assert (res.u / lam).mean() == pytest.approx((res.v / lam).mean(), abs=1e-15)
    np.testing.assert_allclose(res.plan, 1 / 16, rtol=1e-15)  # lam -> inf: the uniform plan
    np.testing.assert_allclose(np.exp(log_kernel(C, res.u, res.v, lam)), res.plan, rtol=1e-15)


def test_sinkhorn_default_tolerance():
    # the default is 1e-12 from lam = 0.05 up, 1e-8 below it
    gk = sl.gibbs_kernel(cost_matrix(permutation_instance(5, 3, 0.5)), 0.5)
    assert sl.sinkhorn_solve(gk).eps_star <= 1e-12
    gk = sl.gibbs_kernel(cost_matrix(permutation_instance(4, 0, 0.005)), 0.005)
    res = sl.sinkhorn_solve(gk)
    assert res.sweeps < 10 and res.eps_star <= 1e-8


def test_scaled_log_plan_is_descent_kernel():
    # the Gibbs kernel scaled by w = exp(u/lam), q = exp(v/lam) is the
    # descent kernel at (u, v): the identity behind SinkhornResult's duals
    rng = np.random.default_rng(3)
    lam = 0.4
    C = rng.uniform(0, 1, (3, 3))
    u, v = rng.normal(0, 0.2, 3), rng.normal(0, 0.2, 3)
    gk = sl.gibbs_kernel(C, lam)
    logP = gk.logQ + (u / lam)[:, None] + (v / lam)[None, :]
    np.testing.assert_allclose(logP, log_kernel(C, u, v, lam), atol=1e-12)


def test_sinkhorn_budget_exhaustion_raises_with_progress():
    gk = sl.gibbs_kernel(cost_matrix(sorting_instance([0.5, 0.75, 0.25, 0.0])), 0.005)
    with pytest.raises(sl.SinkhornError) as exc:
        sl.sinkhorn_solve(gk, tol=1e-12, max_sweeps=5)
    assert 0.0 < exc.value.eps_star < 1.0


def _reference_solve(gk, tol):
    """Reference loop: scipy's logsumexp, and the plan exponentiated and
    checked densely after every sweep."""
    n = gk.n
    logw = np.zeros(n)
    for sweep in range(1, 100_001):
        logq = -(np.log(n) + logsumexp(gk.logQ + logw[:, None], axis=0))
        logw = -(np.log(n) + logsumexp(gk.logQ + logq[None, :], axis=1))
        P = np.exp(gk.logQ + logw[:, None] + logq[None, :])
        if marginal_error(P) <= tol:
            return sweep, P
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize(
    "n, seed, lam, tol",
    [(n, seed, 0.005, 1e-9) for n in range(2, 9) for seed in range(3)] + [(5, 3, 0.5, 1e-13)],
)
def test_sinkhorn_solve_matches_reference_loop(n, seed, lam, tol):
    gk = sl.gibbs_kernel(cost_matrix(permutation_instance(n, seed, lam)), lam)
    sweeps, plan = _reference_solve(gk, tol)
    res = sl.sinkhorn_solve(gk, tol=tol)
    assert res.sweeps == sweeps
    assert np.abs(res.plan - plan).max() <= 1e-15
    assert res.eps_star == marginal_error(res.plan) <= tol


def test_lse_matches_scipy_logsumexp():
    rng = np.random.default_rng(12)
    a = rng.uniform(-1e4, 0.0, (6, 5))
    a[2] = -1e4 + rng.uniform(0.0, 1.0, 5)  # every exp(a) in this row underflows to 0
    for axis in (0, 1):
        np.testing.assert_allclose(lse(a, axis), logsumexp(a, axis=axis), rtol=1e-15, atol=0)


def _reference_iterates(gk, sweeps):
    """The sweep loop the contraction check used to run next to the solve:
    (log w, log q) after m = 0..sweeps full sweeps from unit scalings."""
    n = gk.n
    logw, logq = np.zeros(n), np.zeros(n)
    iterates = [(logw, logq)]
    for _ in range(sweeps):
        logq = -(np.log(n) + lse(gk.logQ + logw[:, None], axis=0))
        logw = -(np.log(n) + lse(gk.logQ + logq[None, :], axis=1))
        iterates.append((logw, logq))
    return iterates


@pytest.mark.parametrize("n, seed, lam, tol", [(4, 2, 0.8, None), (5, 3, 0.5, 1e-13), (6, 1, 0.005, 1e-9)])
def test_observer_sees_each_sweep_and_changes_nothing(n, seed, lam, tol):
    gk = sl.gibbs_kernel(cost_matrix(permutation_instance(n, seed, lam)), lam)
    seen = []
    res = sl.sinkhorn_solve(gk, tol=tol, observe=lambda sweep, logw, logq: seen.append((sweep, logw, logq)))
    assert [sweep for sweep, _, _ in seen] == list(range(res.sweeps + 1))
    assert not seen[0][1].any() and not seen[0][2].any()
    # kept without copying: each sweep hands the observer fresh arrays
    for (_, logw, logq), (ref_w, ref_q) in zip(seen, _reference_iterates(gk, res.sweeps), strict=True):
        assert np.array_equal(logw, ref_w) and np.array_equal(logq, ref_q)
    plain = sl.sinkhorn_solve(gk, tol=tol)
    for name in ("u", "v", "plan"):
        assert np.array_equal(getattr(res, name), getattr(plain, name))
    assert (res.eps_star, res.sweeps) == (plain.eps_star, plain.sweeps)


def _reference_contraction_metrics(instances, seed, sweeps=25, slack=1e-9):
    """check_contraction as it ran before it observed its own solve: the
    reference solve, then `sweeps` more sweeps from unit scalings."""
    worst_excess, checked = -np.inf, 0
    for i in range(instances):
        rng = np.random.default_rng((seed, i))
        n = int(rng.integers(2, 6))
        lam = float(rng.choice([0.5, 1.0]))
        gk = sl.gibbs_kernel(cost_matrix(permutation_instance(n, int(rng.integers(0, 2**32)), lam)), lam)
        ref = sl.sinkhorn_solve(gk, tol=1e-13)
        eta = sl.contraction_factor(gk)
        mu = [sl.hilbert_metric_logs(logw, ref.u / lam) for logw, _ in _reference_iterates(gk, sweeps)]
        for m in range(sweeps):
            if mu[m] < 1e-12:
                continue
            worst_excess = max(worst_excess, mu[m + 1] / mu[m] - eta)
            checked += 1
    return {"worst_excess": float(worst_excess), "ratios_checked": checked, "slack": slack}


@pytest.mark.parametrize("instances", [10, 20])
@pytest.mark.parametrize("seed", range(4))
def test_contraction_check_matches_the_reference_loop(instances, seed):
    result = checks.check_contraction(instances=instances, seed=seed)
    assert result.metrics == _reference_contraction_metrics(instances, seed)


def test_sweep_contracts_toward_fixed_point():
    gk = sl.gibbs_kernel(cost_matrix(permutation_instance(4, 2, 0.8)), 0.8)
    iterates = []
    res = sl.sinkhorn_solve(gk, observe=lambda _, logw, __: iterates.append(logw))
    eta = sl.contraction_factor(gk)
    mu = [sl.hilbert_metric_logs(logw, res.u / gk.lam) for logw in iterates]
    assert mu[0] > 0
    checked = 0
    for m in range(len(mu) - 1):
        if mu[m] > 1e-12:
            assert mu[m + 1] <= eta * mu[m] + 1e-9
            checked += 1
    assert checked >= 3


def test_normalization_shift_equals_normalizer_spread():
    rng = np.random.default_rng(4)
    A = rng.uniform(0.2, 2.0, (3, 3))
    sf, sg = sl.normalization_mu_shifts(A)
    c, r = np.log(sl.col_fn(A)), np.log(sl.row_fn(A))
    assert sf == pytest.approx(c.max() - c.min(), rel=1e-12)
    assert sg == pytest.approx(r.max() - r.min(), rel=1e-12)


def test_random_near_scaled_respects_cap():
    for n in (2, 5):
        cap = 1.0 / (3 * n) * 0.9
        A, eps = sl.random_near_scaled([np.random.default_rng((6, t)) for t in range(4)], n, cap)
        assert A.shape == (4, n, n) and eps.shape == (4,)
        assert np.all(A > 0)
        np.testing.assert_allclose(eps, [marginal_error(a) for a in A], rtol=1e-12)
        assert np.all(eps <= cap)


def _reference_near_scaled(rng, n, eps_cap):
    """The per-trial draw: one matrix, scaled by its own loop."""
    P = np.exp(rng.normal(size=(n, n)))
    P /= P.sum()
    for _ in range(500):
        P = P * sl.col_fn(P)[None, :]
        P = sl.row_fn(P)[:, None] * P
        if marginal_error(P) <= eps_cap * 1e-6:
            break
    rho = n * eps_cap * rng.uniform(0.05, 0.9)
    A = P * (1.0 + rng.uniform(-rho, rho, size=(n, n)))
    return A, marginal_error(A)


def _reference_harness(trials, ns, seed, k, ratios):
    """The per-trial harness loop over `_reference_near_scaled` draws."""
    violations, worst = 0, 0.0
    for t in range(trials):
        n = ns[t % len(ns)]
        A, eps = _reference_near_scaled(np.random.default_rng((seed, t)), n, 1.0 / (k * n))
        for ratio in ratios(A, n, eps):
            worst = max(worst, ratio)
            violations += ratio > 1.0
    return {"trials": trials, "violations": violations, "worst_slack": worst}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_stacked_draw_matches_per_trial_loop(n):
    for seed, k in ((0, 3.0), (1, 4.0), (7, 3.0)):
        cap = 1.0 / (k * n)
        A, eps = sl.random_near_scaled([np.random.default_rng((seed, t)) for t in range(25)], n, cap)
        for t in range(25):
            ref_A, ref_eps = _reference_near_scaled(np.random.default_rng((seed, t)), n, cap)
            assert np.array_equal(A[t], ref_A)
            assert eps[t] == ref_eps
    # one generator is the same call
    A1, eps1 = sl.random_near_scaled([np.random.default_rng((7, 3))], n, cap)
    assert np.array_equal(A1[0], A[3]) and eps1[0] == eps[3]


def test_harness_reports_match_per_trial_reference():
    closure = lambda A, n, eps: [marginal_error(m) / (3.0 * eps) for m in (sl.f_map(A), sl.g_map(A))]
    shift = lambda A, n, eps: [s / (4.0 * n * eps) for s in sl.normalization_mu_shifts(A)]
    for seed in range(3):
        assert sl.closure_harness(trials=150, seed=seed) == _reference_harness(150, (2, 3, 5, 8), seed, 3.0, closure)
        assert sl.shift_harness(trials=150, seed=seed) == _reference_harness(150, (2, 3, 5, 8), seed, 4.0, shift)
    # fewer trials than sizes, and a size listed twice
    assert sl.closure_harness(trials=3, ns=(2, 3, 5, 8), seed=4) == _reference_harness(3, (2, 3, 5, 8), 4, 3.0, closure)
    assert sl.shift_harness(trials=31, ns=(3, 2, 3), seed=5) == _reference_harness(31, (3, 2, 3), 5, 4.0, shift)


def test_harness_runs_one_scaling_loop_per_n(monkeypatch):
    draws = []
    stacked = sl.random_near_scaled

    def counted(rngs, n, eps_cap):
        draws.append((n, len(rngs)))
        return stacked(rngs, n, eps_cap)

    monkeypatch.setattr(sl, "random_near_scaled", counted)
    sl.closure_harness(trials=40, ns=(2, 3, 5, 8), seed=0)
    assert draws == [(2, 10), (3, 10), (5, 10), (8, 10)]


def test_normalization_maps_act_slice_by_slice_on_stacks():
    rng = np.random.default_rng(8)
    stack = rng.uniform(0.1, 2.0, (6, 4, 4))
    for fn in (sl.row_fn, sl.col_fn, sl.f_map, sl.g_map):
        assert np.array_equal(fn(stack), [fn(a) for a in stack])
    errs = marginal_error(stack)
    assert errs.shape == (6,) and list(errs) == [marginal_error(a) for a in stack]
    sf, sg = sl.normalization_mu_shifts(stack)
    assert list(zip(sf, sg)) == [sl.normalization_mu_shifts(a) for a in stack]
    # one matrix keeps plain float results
    assert type(marginal_error(stack[0])) is float
    assert all(type(s) is float for s in sl.normalization_mu_shifts(stack[0]))
    with pytest.raises(ValueError):
        sl.row_fn(np.ones((3, 2, 3)))
    with pytest.raises(ValueError):
        marginal_error(np.ones(4))
    with pytest.raises(ValueError):
        sl.log_max_cross_ratio(stack)


def test_harnesses_small_runs_clean():
    rep = sl.closure_harness(trials=40, ns=(2, 3), seed=1)
    assert rep["violations"] == 0 and rep["trials"] == 40
    assert 0.0 < rep["worst_slack"] <= 1.0
    rep = sl.shift_harness(trials=40, ns=(2, 3), seed=1)
    assert rep["violations"] == 0 and rep["trials"] == 40


def test_closure_bound_is_tight_enough_to_be_nontrivial():
    """One normalization can genuinely inflate the error; make sure the
    harness would notice a broken bound by checking the slack is not
    vacuously tiny."""
    rep = sl.closure_harness(trials=120, ns=(2, 3, 5), seed=3)
    assert rep["worst_slack"] > 0.05


def test_scaling_convergence_bound_preconditions():
    with pytest.raises(ValueError, match="^depth 10 below the bound's precondition 1.03e\\+04$"):
        sl.scaling_convergence_bound(2, 1.0, 1.0, eta=0.5, depth=10)  # too shallow
    with pytest.raises(ValueError, match="^contraction factor must be in \\[0, 1\\), got 1.0$"):
        sl.scaling_convergence_bound(2, 0.1, 1.0, eta=1.0, depth=10**9)  # no contraction
    n, r, lam, eta = 2, 0.25, 1.0, 0.2
    depth = int(64 * n**3 * math.exp(3 * r / lam) * r) + 1
    bound = sl.scaling_convergence_bound(n, r, lam, eta, depth)
    expected = 36 * n**1.5 * math.exp(r / lam) * math.sqrt(r) / (math.sqrt(depth) * (1 - eta))
    assert bound == pytest.approx(expected, rel=1e-12)


def test_scaling_bound_depth_is_the_bounds_precondition():
    n, r, lam = 2, 0.25, 1.0
    needed = sl.scaling_bound_depth(n, r, lam)
    assert needed == pytest.approx(64 * n**3 * math.exp(3 * r / lam) * r, rel=1e-15)
    sl.scaling_convergence_bound(n, r, lam, 0.5, math.ceil(needed))
    with pytest.raises(ValueError, match="below the bound's precondition"):
        sl.scaling_convergence_bound(n, r, lam, 0.5, math.ceil(needed) - 1)
    # a radius whose exponential overflows asks for infinite depth, not an OverflowError
    with np.errstate(over="ignore"):
        assert sl.scaling_bound_depth(n, 1e4, lam) == math.inf
