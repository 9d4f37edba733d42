import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from otlab.oracles import (
    MAX_BRUTE_FORCE_N,
    DegeneratePlanError,
    brute_force_ot,
    finite_diff_grad,
    monotone_ranks,
    round_plan,
    sort_oracle,
)
from otlab.problem import cost_matrix, permutation_instance


def test_brute_force_identity_cost():
    plan = brute_force_ot(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert plan.perm == (0, 1)
    assert plan.cost == 0.0


def test_brute_force_swap():
    plan = brute_force_ot(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert plan.perm == (1, 0)
    assert plan.cost == 0.0


def test_brute_force_cost_normalization():
    # cost is the plan value Tr(P^T C) with P = (1/n) * permutation matrix
    C = np.array([[2.0, 9.0], [9.0, 4.0]])
    plan = brute_force_ot(C)
    assert plan.perm == (0, 1)
    assert plan.cost == pytest.approx((2.0 + 4.0) / 2.0)


def test_brute_force_tie_break_is_lexicographic():
    assert brute_force_ot(np.zeros((3, 3))).perm == (0, 1, 2)


def test_brute_force_rejects_large_n():
    with pytest.raises(ValueError):
        brute_force_ot(np.zeros((10, 10)))


def test_brute_force_matches_hungarian_cost():
    rng = np.random.default_rng(0)
    for n in range(2, MAX_BRUTE_FORCE_N + 1):
        for _ in range(3):
            C = rng.uniform(0, 1, (n, n))
            mine = brute_force_ot(C)
            rows, cols = linear_sum_assignment(C)
            assert mine.cost == pytest.approx(C[rows, cols].sum() / n, rel=1e-12)


def _reference_brute_force(C):
    """The permutation-by-permutation search, first strict minimizer kept."""
    n = C.shape[0]
    rows = np.arange(n)
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(n)):
        cost = C[rows, perm].sum()
        if cost < best_cost:
            best, best_cost = perm, cost
    return best, float(best_cost) / n


@pytest.mark.parametrize("n", range(1, 9))
def test_block_enumeration_matches_permutation_loop(n):
    rng = np.random.default_rng(n)
    cases = [rng.uniform(0, 1, (n, n)), np.zeros((n, n))]
    cases += [rng.integers(0, 3, (n, n)).astype(float) for _ in range(2)]  # many tied optima
    for C in cases:
        plan = brute_force_ot(C)
        assert (plan.perm, plan.cost) == _reference_brute_force(C)


def test_brute_force_on_line_is_monotone_rearrangement():
    for seed in range(6):
        inst = permutation_instance(5, seed)
        assert brute_force_ot(cost_matrix(inst)).perm == monotone_ranks(inst.x.ravel())


def test_monotone_ranks_frozen():
    assert monotone_ranks([0.5, 0.75, 0.25, 0.0]) == (2, 3, 1, 0)
    assert monotone_ranks([1.0]) == (0,)


def test_monotone_ranks_rejects_duplicates():
    with pytest.raises(ValueError):
        monotone_ranks([0.3, 0.3, 0.1])


def test_sort_oracle():
    np.testing.assert_array_equal(sort_oracle([3.0, 1.0, 2.0]), [1.0, 2.0, 3.0])


def test_finite_diff_quadratic():
    point = np.array([0.3, -0.7, 1.1])
    grad = finite_diff_grad(lambda t: float(t @ t), point)
    np.testing.assert_allclose(grad, 2 * point, atol=1e-9)


def test_finite_diff_stepsize_is_central():
    # f(x) = x^3 has zero second-order error under central differences
    grad = finite_diff_grad(lambda t: float(t[0] ** 3), np.array([2.0]), h=1e-5)
    assert grad[0] == pytest.approx(12.0, abs=1e-6)


def test_round_plan_recovers_permutation():
    P = np.zeros((3, 3))
    for i, j in enumerate((2, 0, 1)):
        P[i, j] = 1 / 3
    assert round_plan(P) == (2, 0, 1)


def test_round_plan_tolerates_blur():
    P = np.array([[0.30, 0.02], [0.05, 0.40]])
    assert round_plan(P) == (0, 1)


def test_round_plan_rejects_row_tie():
    with pytest.raises(DegeneratePlanError):
        round_plan(np.full((2, 2), 0.25))


def test_round_plan_rejects_non_bijection():
    P = np.array([[0.4, 0.1], [0.4, 0.1]])
    with pytest.raises(DegeneratePlanError):
        round_plan(P)
