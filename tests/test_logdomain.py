"""The input rules written once in `logdomain`: every taker of lam or gamma,
of a count, of a radius or of a plan to read out goes through the same gate,
so each refusal reads the same wherever it is raised."""

import math
import warnings

import numpy as np
import pytest

from otlab import dual_descent as dd
from otlab import logdomain, oracles
from otlab import sinkhorn_lab as sl
from otlab import transformer_core as tc
from otlab.problem import ProblemInstance, cost_matrix, permutation_instance

_C = cost_matrix(permutation_instance(4, 0, 1.0))

LAM_TAKERS = {
    "ProblemInstance": lambda lam: ProblemInstance(x=[0.5], y=[1.0], lam=lam),
    "gibbs_kernel": lambda lam: sl.gibbs_kernel(_C, lam),
    "build_constructed_weights": lambda lam: tc.build_constructed_weights(1, lam, 0.1),
    # gd_run ran lam = -1 to final marginal error 7.28 and named nan "not finite at zero duals"
    "gd_run": lambda lam: dd.gd_run(_C, lam, 10, 0.1),
    # a guard at lam = -1 held the kernel to a bound of the wrong sign
    "divergence_guard": lambda lam: tc.divergence_guard(_C, lam),
    # lam = 0 raised ZeroDivisionError
    "radius_stepsize": lambda lam: dd.radius_stepsize(4, 0.5, lam),
}


@pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf, 10**400, "1", np.array(1.0)],
                         ids=["negative", "zero", "nan", "inf", "int past the float range", "string", "0-d array"])
@pytest.mark.parametrize("taker", LAM_TAKERS)
def test_every_lam_taker_refuses_through_one_gate(taker, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            LAM_TAKERS[taker](lam)
    assert str(err.value) == f"lam must be positive and finite, got {lam!r}"


@pytest.mark.parametrize("gamma", [-1e-3, 0.0, math.inf])
def test_every_gamma_taker_refuses_through_one_gate(gamma):
    for call in (lambda: tc.build_constructed_weights(1, 1.0, gamma), lambda: dd.gd_run(_C, 1.0, 10, gamma)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"gamma must be positive and finite, got {gamma!r}"


_W = tc.build_constructed_weights(1, 1.0, 0.1)
_INST = permutation_instance(4, 0, 1.0)


@pytest.mark.parametrize(
    "call, name, lo, value",
    [
        # dropped silently: the trace kept layers [3]
        (lambda: tc.forward(_INST, 3, _W, checkpoints=[1.5]), "checkpoints", 0, 1.5),
        # these three raised "'float' object cannot be interpreted as an integer"
        (lambda: tc.forward(_INST, 2.5, _W), "depth", 0, 2.5),
        (lambda: dd.gd_run(_C, 1.0, 2.5, 0.1), "depth", 0, 2.5),
        (lambda: sl.sinkhorn_solve(sl.gibbs_kernel(_C, 1.0), max_sweeps=2.5), "max_sweeps", 1, 2.5),
        (lambda: dd.gd_run(_C, 1.0, True, 0.1), "depth", 0, True),  # ran one step
        (lambda: tc.forward(_INST, -1, _W), "depth", 0, -1),
        (lambda: sl.sinkhorn_solve(sl.gibbs_kernel(_C, 1.0), max_sweeps=0), "max_sweeps", 1, 0),
        (lambda: tc.build_constructed_weights(1.0, 1.0, 0.1), "d", 1, 1.0),
        (lambda: tc.build_constructed_weights(True, 1.0, 0.1), "d", 1, True),
    ],
    ids=["checkpoint-1.5", "forward-depth-2.5", "gd_run-depth-2.5", "max_sweeps-2.5", "gd_run-depth-True",
         "forward-depth--1", "max_sweeps-0", "d-1.0", "d-True"],
)
def test_counts_go_through_one_integer_gate(call, name, lo, value):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"{name} must be an integer >= {lo}, got {value!r}"


def test_integer_gate_takes_numpy_integers():
    trace = tc.forward(_INST, np.int64(3), _W, checkpoints=np.arange(2))
    assert trace.layers == [0, 1, 3]


@pytest.mark.parametrize(
    "bound",
    [
        # leaked "invalid value encountered in sqrt" and returned nan
        lambda: dd.best_marginal_eps(3, -1.0, 1.0, 10),
        lambda: sl.scaling_convergence_bound(3, -1.0, 1.0, 0.5, 10),
        # returned negative "bounds"
        lambda: dd.min_grad_bound(3, -1.0, 1.0, 10),
        lambda: sl.scaling_bound_depth(3, -1.0, 1.0),
        lambda: dd.radius_stepsize(3, -1.0, 1.0),
    ],
    ids=["best_marginal_eps", "scaling_convergence_bound", "min_grad_bound", "scaling_bound_depth",
         "radius_stepsize"],
)
def test_bounds_refuse_a_negative_radius(bound):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^radius must be nonnegative, got -1\.0$"):
            bound()


def test_one_error_for_a_plan_that_cannot_be_read_out():
    # apply_plan's zero row raised a class of its own, transformer_core.DegeneratePlanRowError
    assert oracles.DegeneratePlanError is logdomain.DegeneratePlanError
    assert not hasattr(tc, "DegeneratePlanRowError")


@pytest.mark.parametrize("A", [np.zeros(3), np.zeros((2, 3)), np.zeros((1, 3, 3)), np.zeros((0, 0))],
                         ids=["1-D", "2x3", "stack", "empty"])
def test_oracles_take_one_square_matrix(A):
    for call in (oracles.brute_force_ot, oracles.round_plan):
        with pytest.raises(ValueError, match="^expected (a|one) non-empty square matrix") as err:
            call(A)
        assert not isinstance(err.value, logdomain.DegeneratePlanError)
