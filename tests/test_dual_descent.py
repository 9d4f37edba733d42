"""Unit and property tests for the dual objective, its gradients, and the
adaptive-stepsize descent engine.

The frozen scalars were computed by hand from the closed forms: with
C = [[0]], u = [1], v = [0], lam = 1 the kernel entry is e^{(0+1+0)/1 - 1} = 1;
with zero duals the n = 1 objective is e^{-1}.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otlab
from otlab import dual_descent as dd
from otlab import sinkhorn_lab as sl
from otlab.logdomain import log_kernel, lse, marginal_error
from otlab.oracles import finite_diff_grad
from otlab.problem import ProblemInstance, cost_matrix, permutation_instance


def _dense_kernel(C, u, v, lam):
    return np.exp((-C + u[:, None] + v[None, :]) / lam - 1.0)


def test_kernel_frozen_value():
    logM = log_kernel(np.zeros((1, 1)), np.array([1.0]), np.array([0.0]), 1.0)
    np.testing.assert_allclose(np.exp(logM), [[1.0]], rtol=1e-15)
    np.testing.assert_allclose(np.exp(lse(logM, axis=1)), [1.0])
    np.testing.assert_allclose(np.exp(lse(logM, axis=0)), [1.0])


def test_objective_frozen_value():
    it = dd.zero_iterate(1)
    assert dd.dual_objective(np.zeros((1, 1)), it, 1.0) == pytest.approx(math.exp(-1), rel=1e-15)


def test_gradient_frozen_value():
    it = dd.zero_iterate(1)
    gu, gv = dd.gradients(np.zeros((1, 1)), it, 1.0)
    assert gu[0] == pytest.approx(math.exp(-1) - 1.0, rel=1e-14)
    assert gv[0] == pytest.approx(math.exp(-1) - 1.0, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 5),
    lam=st.floats(0.3, 3.0),
    seed=st.integers(0, 2**31),
)
def test_gradients_are_marginal_defects(n, lam, seed):
    """grad_u = M 1 - 1/n and grad_v = M^T 1 - 1/n, against a dense exp."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(0, 1, (n, n))
    it = dd.DualIterate(u=rng.normal(0, 0.4, n), v=rng.normal(0, 0.4, n))
    M = _dense_kernel(C, it.u, it.v, lam)
    gu, gv = dd.gradients(C, it, lam)
    np.testing.assert_allclose(gu, M.sum(axis=1) - 1.0 / n, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(gv, M.sum(axis=0) - 1.0 / n, rtol=1e-12, atol=1e-14)


def test_gradients_agree_with_finite_differences():
    rng = np.random.default_rng(11)
    n, lam = 3, 0.8
    C = rng.uniform(0, 1, (n, n))
    theta0 = rng.normal(0, 0.3, 2 * n)

    def obj(theta):
        it = dd.DualIterate(u=theta[:n], v=theta[n:])
        return dd.dual_objective(C, it, lam)

    it = dd.DualIterate(u=theta0[:n], v=theta0[n:])
    gu, gv = dd.gradients(C, it, lam)
    fd = finite_diff_grad(obj, theta0)
    np.testing.assert_allclose(np.concatenate([gu, gv]), fd, atol=2e-9)


def test_gd_step_matches_manual_update():
    rng = np.random.default_rng(5)
    n, lam, gamma = 4, 0.5, 0.2
    C = rng.uniform(0, 1, (n, n))
    it = dd.DualIterate(u=rng.normal(0, 0.2, n), v=rng.normal(0, 0.2, n))
    M = _dense_kernel(C, it.u, it.v, lam)
    r, c = M.sum(axis=1), M.sum(axis=0)
    nxt = dd.gd_step(C, it, lam, gamma)
    np.testing.assert_allclose(nxt.u, it.u - gamma * (r - 1 / n) / (r + 1), rtol=1e-12)
    np.testing.assert_allclose(nxt.v, it.v - gamma * (c - 1 / n) / (c + 1), rtol=1e-12)


def test_gd_step_survives_kernel_overflow():
    """Row sums beyond float64 range: the defect/denominator ratio tends to 1,
    so the update must stay finite instead of producing inf/inf."""
    C = np.zeros((2, 2))
    it = dd.DualIterate(u=np.array([800.0, 800.0]), v=np.zeros(2))
    nxt = dd.gd_step(C, it, 1.0, 0.1)
    assert np.all(np.isfinite(nxt.u)) and np.all(np.isfinite(nxt.v))
    np.testing.assert_allclose(nxt.u, it.u - 0.1, rtol=1e-12)


def _masked_step_ratio(log_s, n):
    # the per-branch form the branch-free ratio replaced
    out = np.empty_like(log_s)
    big = log_s > 0
    e = np.exp(-log_s[big])
    out[big] = (1.0 - e / n) / (1.0 + e)
    s = np.exp(log_s[~big])
    out[~big] = (s - 1.0 / n) / (s + 1.0)
    return out


def test_branch_free_step_ratio_matches_the_masked_form():
    rng = np.random.default_rng(8)
    log_s = np.concatenate([rng.normal(0, 30, 500), [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, np.inf, -np.inf]])
    for n in (1, 3, 16):
        np.testing.assert_array_equal(dd._step_ratio(log_s, n), _masked_step_ratio(log_s, n))


def test_stacked_gd_step_is_each_single_step():
    rng = np.random.default_rng(3)
    C = rng.uniform(0, 1, (4, 5, 5))
    it = dd.DualIterate(u=rng.normal(0, 2, (4, 5)), v=rng.normal(0, 2, (4, 5)))
    nxt = dd.gd_step(C, it, 0.05, 0.1)
    assert nxt.u.shape == nxt.v.shape == (4, 5)
    for b in range(4):
        one = dd.gd_step(C[b], dd.DualIterate(u=it.u[b], v=it.v[b]), 0.05, 0.1)
        np.testing.assert_array_equal(nxt.u[b], one.u)
        np.testing.assert_array_equal(nxt.v[b], one.v)


def test_descent_decreases_objective():
    inst = permutation_instance(4, 1, 0.5)
    traj = dd.gd_run(cost_matrix(inst), 0.5, 60, 0.1)
    assert np.all(np.diff(traj.objectives) <= 1e-12)
    assert traj.marginal_errors[-1] < traj.marginal_errors[0]


def test_schedule_fixed_and_radius_modes():
    # a fixed stepsize is used as given; the radius-matched one is 1/smoothness
    C = cost_matrix(permutation_instance(5, 0, 0.01))
    one = dd.gd_step(C, dd.zero_iterate(5), 0.01, 0.3)
    np.testing.assert_array_equal(dd.gd_run(C, 0.01, 1, 0.3).duals[1], [one.u, one.v])
    n, lam = 3, 2.0
    assert dd.radius_stepsize(n, 1.0, lam) == pytest.approx(1.0 / dd.smoothness_bound(n, 1.0, lam), rel=1e-15)


def test_schedule_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dd.gd_run(np.zeros((2, 2)), 1.0, 5, 0.0)
    with pytest.raises(ValueError):
        dd.radius_stepsize(4, -1.0, 1.0)
    with pytest.raises(ValueError):  # e^{-2r/lam} underflows to 0
        dd.radius_stepsize(4, 1e6, 0.005)


@pytest.mark.parametrize("u, v", [(np.zeros(3), np.zeros(2)), (np.zeros((2, 3)), np.zeros(3)), (0.0, 0.0)],
                         ids=["3-vs-2", "stack-vs-one", "scalars"])
def test_dual_iterate_takes_two_arrays_of_one_shape(u, v):
    with pytest.raises(ValueError, match=r"^u and v must be arrays of equal shape \(\.\.\., n\)$"):
        dd.DualIterate(u=u, v=v)


@pytest.mark.parametrize("C", [np.zeros(3), np.zeros((2, 3)), np.zeros((1, 3, 3)), np.zeros((0, 0))],
                         ids=["1-D", "2x3", "stack", "empty"])
def test_descent_and_kernel_take_one_square_cost(C):
    # a 1-D cost broadcast into a 3 x 3 run, and a 2 x 3 kernel spent every sweep before it raised
    for call in (lambda: dd.gd_run(C, 1.0, 3, 0.1), lambda: sl.gibbs_kernel(C, 1.0)):
        with pytest.raises(ValueError, match="^expected (a|one) non-empty square matrix") as err:
            call()
        assert "\n" not in str(err.value)


def test_gd_run_takes_one_kernel_pass_per_step(monkeypatch):
    """Each recorded iterate's kernel sums also feed the step that leaves it,
    and the iterates are exactly those of the gd_step oracle."""
    C = cost_matrix(permutation_instance(4, 3, 0.5))
    depth = 30
    calls = []

    def counted(*args):
        calls.append(1)
        return log_kernel(*args)

    monkeypatch.setattr(dd, "log_kernel", counted)
    traj = dd.gd_run(C, 0.5, depth, 0.1)
    assert len(calls) == depth + 1
    monkeypatch.undo()
    it = dd.zero_iterate(4)
    for k in range(1, depth + 1):
        it = dd.gd_step(C, it, 0.5, 0.1)
        np.testing.assert_array_equal(traj.duals[k], [it.u, it.v])


def test_gd_run_names_its_first_non_finite_step():
    """At gamma = 1e9 the duals stay finite but the objective overflows at
    step 2: the run raises there instead of returning inf diagnostics, and
    leaks no float warning."""
    C = cost_matrix(permutation_instance(4, 0, 0.005))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dd.DivergenceError, match="^n=4: descent diagnostics are not finite at step 2$"):
            dd.gd_run(C, 0.005, 50, 1e9)
    assert otlab.DivergenceError is otlab.transformer_core.DivergenceError is dd.DivergenceError


def test_smoothness_bound_frozen_value():
    # (n+2) e^{2r/lam} with n = 2 and r = lam ln 2 is 4 * 4 = 16 for any lam
    assert dd.smoothness_bound(2, 0.7 * math.log(2), 0.7) == pytest.approx(16.0, rel=1e-12)


def test_smoothness_bound_dominates_hessian_norm():
    """The descent analysis replaces the true Hessian by the r-ball bound
    (n+2)e^{2r/lam}; at lam = 1 the bound must dominate sampled operator
    norms anywhere inside the ball."""
    rng = np.random.default_rng(9)
    n, lam, r = 4, 1.0, 1.5
    zeta = dd.smoothness_bound(n, r, lam)
    for _ in range(25):
        C = rng.uniform(0, 1, (n, n))
        theta = rng.normal(size=2 * n)
        theta *= rng.uniform(0, r) / np.linalg.norm(theta)
        it = dd.DualIterate(u=theta[:n], v=theta[n:])
        H = dd.hessian(C, it, lam)
        assert np.linalg.norm(H, 2) <= zeta


def test_hessian_symmetric_psd_and_lam_scaling():
    rng = np.random.default_rng(2)
    n = 3
    C = rng.uniform(0, 1, (n, n))
    u, v = rng.normal(0, 0.2, n), rng.normal(0, 0.2, n)
    H1 = dd.hessian(C, dd.DualIterate(u=u, v=v), 1.0)
    np.testing.assert_allclose(H1, H1.T, atol=1e-15)
    assert np.linalg.eigvalsh(H1).min() >= -1e-12
    # scaling C, u, v by lam leaves the kernel fixed, so H picks up exactly 1/lam
    lam = 2.5
    H2 = dd.hessian(lam * C, dd.DualIterate(u=lam * u, v=lam * v), lam)
    np.testing.assert_allclose(H2, H1 / lam, rtol=1e-12)


def test_hessian_blocks_are_kernel_marginals():
    rng = np.random.default_rng(4)
    n, lam = 3, 0.7
    C = rng.uniform(0, 1, (n, n))
    it = dd.DualIterate(u=rng.normal(0, 0.1, n), v=rng.normal(0, 0.1, n))
    M = _dense_kernel(C, it.u, it.v, lam)
    H = dd.hessian(C, it, lam)
    np.testing.assert_allclose(H[:n, :n], np.diag(M.sum(axis=1)) / lam, rtol=1e-12)
    np.testing.assert_allclose(H[:n, n:], M / lam, rtol=1e-12)


def test_depth_bounds_scale_correctly():
    n, r, lam = 3, 0.8, 1.0
    assert dd.min_grad_bound(n, r, lam, 2000) == pytest.approx(dd.min_grad_bound(n, r, lam, 1000) / 2)
    assert dd.min_grad_bound(n, 0.0, lam, 100) == 0.0
    e1 = dd.best_marginal_eps(n, r, lam, 1000)
    e2 = dd.best_marginal_eps(n, r, lam, 2000)
    assert e2 == pytest.approx(e1 / math.sqrt(2), rel=1e-12)
    assert e1 == pytest.approx(math.sqrt(3 * n * math.exp(3 * r / lam) * r / 1000), rel=1e-12)


def test_trajectory_bookkeeping():
    inst = permutation_instance(3, 2, 0.8)
    C = cost_matrix(inst)
    depth = 25
    traj = dd.gd_run(C, 0.8, depth, 0.05)
    assert traj.depth == depth
    assert traj.duals.shape == (depth + 1, 2, 3)
    for arr in (traj.grad_u_norms, traj.grad_v_norms, traj.objectives, traj.marginal_errors):
        assert arr.shape == (depth + 1,)
    assert traj.radius == pytest.approx(max(np.linalg.norm(theta.ravel()) for theta in traj.duals))
    np.testing.assert_array_equal(traj.duals[0], np.zeros((2, 3)))
    # recorded diagnostics match recomputation at a middle iterate
    it = dd.DualIterate(*traj.duals[7])
    M = np.exp(log_kernel(C, it.u, it.v, 0.8))
    assert traj.marginal_errors[7] == pytest.approx(marginal_error(M), rel=1e-12)
    assert traj.objectives[7] == pytest.approx(dd.dual_objective(C, it, 0.8), rel=1e-12)


def test_gd_run_diagnostics_match_a_per_step_recomputation():
    """The arrays computed after the loop equal the per-step formulas the
    loop used to record, bit for bit."""
    lam, gamma = 0.3, 0.05
    C = cost_matrix(permutation_instance(4, 1, lam))
    traj = dd.gd_run(C, lam, 40, gamma)
    for k, (u, v) in enumerate(traj.duals):
        it = dd.DualIterate(u=u, v=v)
        logM = log_kernel(C, u, v, lam)
        rs, cs = np.exp(lse(logM, axis=1)), np.exp(lse(logM, axis=0))
        gu, gv = rs - 1.0 / 4, cs - 1.0 / 4
        assert traj.grad_u_norms[k] == np.linalg.norm(gu)
        assert traj.grad_v_norms[k] == np.linalg.norm(gv)
        assert traj.objectives[k] == dd.dual_objective(C, it, lam)
        assert traj.marginal_errors[k] == max(np.abs(gu).max(), np.abs(gv).max())
    assert traj.radius == max(float(np.linalg.norm(np.concatenate([u, v]))) for u, v in traj.duals)


def test_reference_distance_nonincreasing_under_radius_matched_step():
    """With the radius-matched stepsize, the squared distance to the optimum
    in the inverse-stepsize metric must never increase along the run:
    Delta_k = sum (theta_k - theta*)^2 (marginal + 1) / gamma, with theta*
    re-gauged per step so its u-mean matches the iterate's (the objective
    and kernel are invariant under (u + c, v - c))."""
    for seed, (n, d) in ((0, (3, 1)), (7, (4, 2))):
        if d == 1:
            inst = permutation_instance(n, seed, 1.0)
        else:
            rng = np.random.default_rng(seed)
            inst = ProblemInstance(x=rng.uniform(0, 1, (n, d)), y=rng.uniform(0, 1, (n, d)), lam=1.0)
        C = cost_matrix(inst)
        ref = sl.sinkhorn_solve(sl.gibbs_kernel(C, 1.0), tol=1e-13)
        r = 2.0 * (float(np.linalg.norm(np.concatenate([ref.u, ref.v]))) + 1.0)
        gamma = dd.radius_stepsize(n, r, 1.0)
        traj = dd.gd_run(C, 1.0, 300, gamma)
        assert traj.radius <= r  # premise of the monotonicity claim
        u, v = traj.duals[:, 0], traj.duals[:, 1]
        logM = log_kernel(C, u, v, 1.0)
        rs, cs = np.exp(lse(logM, axis=-1)), np.exp(lse(logM, axis=-2))
        c = u.mean(axis=-1, keepdims=True) - ref.u.mean()
        deltas = ((u - (ref.u + c)) ** 2 * (rs + 1.0)).sum(axis=-1) / gamma
        deltas += ((v - (ref.v - c)) ** 2 * (cs + 1.0)).sum(axis=-1) / gamma
        assert deltas.shape == (301,)
        assert np.all(np.diff(deltas) <= 1e-9 * deltas[0])


def test_trajectory_csv_round_trip(tmp_path):
    inst = permutation_instance(3, 0, 0.5)
    traj = dd.gd_run(cost_matrix(inst), 0.5, 10, 0.1)
    path = tmp_path / "traj.csv"
    dd.trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,grad_u_norm,grad_v_norm,objective,marginal_error"
    assert len(lines) == 12
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], np.arange(11))
    # repr round-trips float64 exactly
    np.testing.assert_array_equal(data[:, 3], traj.objectives)
    np.testing.assert_array_equal(data[:, 4], traj.marginal_errors)

