import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import otlab
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


def test_brute_force_rejects_an_empty_cost_matrix():
    # a 0 x 0 cost matrix was searched and its cost divided by n = 0
    with pytest.raises(ValueError, match="non-empty"):
        brute_force_ot(np.zeros((0, 0)))


def test_brute_force_rejects_large_n():
    with pytest.raises(ValueError):
        brute_force_ot(np.zeros((10, 10)))


def test_brute_force_rejects_all_infinite_costs():
    """No permutation with a finite cost is a one-line ValueError, also under
    python -O, which strips asserts (it returned perm None there)."""
    with pytest.raises(ValueError, match="finite cost"):
        brute_force_ot(np.full((2, 2), np.inf))
    code = (
        "import numpy as np\n"
        "from otlab.oracles import brute_force_ot\n"
        "try:\n"
        "    print(brute_force_ot(np.full((2, 2), np.inf)))\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    src = str(Path(otlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "ValueError: no permutation has a finite cost\n"


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


def _ranks_before_one_sort(x):
    """monotone_ranks as it was written with np.unique and two argsorts."""
    x = np.asarray(x, dtype=float).ravel()
    if np.unique(x).size != x.size:
        raise ValueError("ranks undefined for repeated values")
    return tuple(int(r) for r in np.argsort(np.argsort(x)))


@pytest.mark.parametrize("x, repeated", [
    ([0.5, 0.75, 0.25, 0.0, -1.5], False),
    ([0.3, 0.1, 0.3], True),
    ([0.0, -0.0], True),  # -0.0 == 0.0
    ([2.0, -0.0, 1.0], False),
    ([0.2, np.nan, -0.4], False),  # NaN ranks last
    ([np.nan, 0.2, np.nan], True),  # as in np.unique, two NaNs are a repeat
    ([np.nan], False),
])
def test_monotone_ranks_match_double_argsort(x, repeated):
    if repeated:
        for ranks in (monotone_ranks, _ranks_before_one_sort):
            with pytest.raises(ValueError, match="^ranks undefined for repeated values$"):
                ranks(x)
    else:
        assert monotone_ranks(x) == tuple(np.argsort(np.argsort(x)).tolist()) == _ranks_before_one_sort(x)


def test_oracle_suite_path_imports_no_numpy_ma():
    """verify --quick, a lambda = 0.005 reference solve and the three oracles
    it is checked against, as the bench's oracle-suite runs them, import no
    numpy.ma (np.unique does; it cost 1.27 MB of peak RSS)."""
    code = (
        "import contextlib, io, sys\n"
        "from otlab import cli, oracles, problem, sinkhorn_lab as sl\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--quick']) == 0\n"
        "inst = problem.permutation_instance(5, 0, 0.005)\n"
        "C = problem.cost_matrix(inst)\n"
        "plan = sl.sinkhorn_solve(sl.gibbs_kernel(C, 0.005), tol=1e-9).plan\n"
        "ranks = oracles.monotone_ranks(inst.x.ravel())\n"
        "assert oracles.round_plan(plan) == oracles.brute_force_ot(C).perm == ranks\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(otlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "False\n"


def test_sort_oracle():
    np.testing.assert_array_equal(sort_oracle([3.0, 1.0, 2.0]), [1.0, 2.0, 3.0])


def test_finite_diff_quadratic():
    point = np.array([0.3, -0.7, 1.1])
    grad = finite_diff_grad(lambda t: float(t @ t), point)
    np.testing.assert_allclose(grad, 2 * point, atol=1e-9)


def test_finite_diff_stepsize_is_central():
    # f(x) = x^3 has zero second-order error under central differences
    grad = finite_diff_grad(lambda t: float(t[0] ** 3), np.array([2.0]))
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


@pytest.mark.parametrize(
    "P, reason",
    [
        (np.zeros((0, 0)), "non-empty"),  # returned ()
        (np.full((2, 2), np.nan), "finite"),  # raised DegeneratePlanError "row 0 has 0 tied maxima"
    ],
)
def test_round_plan_rejects_empty_or_non_finite_plan(P, reason):
    with pytest.raises(ValueError, match=reason) as info:
        round_plan(P)
    assert not isinstance(info.value, DegeneratePlanError)
