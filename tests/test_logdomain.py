"""The input rules written once in `logdomain`: every taker of lam or gamma,
of a count, of a bound's (n, r, lam) or of a plan to read out goes through
the same gate, so each refusal reads the same wherever it is raised."""

import ast
import math
import pathlib
import re
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


@pytest.mark.parametrize("gamma", [1e8, 1e9, 1e300])
def test_a_stepsize_at_the_reset_guard_is_refused_at_every_d_and_lam(gamma):
    # a sampled check accepted gamma = 1e300 at lam = 1e-6, and gamma up to 2-3e8 at lam = 1
    refusals = set()
    for d in (1, 2, 3):
        for lam in (1e-6, 0.005, 1.0, 1e300):
            with pytest.raises(ValueError) as err:
                tc.build_constructed_weights(d, lam, gamma)
            refusals.add(str(err.value))
            tc.build_constructed_weights(d, lam, np.nextafter(1e8, 0))
    assert refusals == {f"gamma must be below the reset guard 1e+08, got {gamma!r}"}


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
        # returned 0.68
        lambda: dd.smoothness_bound(3, -1.0, 1.0),
    ],
    ids=["best_marginal_eps", "scaling_convergence_bound", "min_grad_bound", "scaling_bound_depth",
         "radius_stepsize", "smoothness_bound"],
)
def test_bounds_refuse_a_negative_radius(bound):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^radius must be nonnegative, got -1\.0$"):
            bound()


# the paper's six bounds, each called at (n, r, lam) = (3, 1.0, 1.0) unless told otherwise; the
# depth of scaling_convergence_bound clears its precondition 64 n^3 e^{3r/lam} r ~ 3.5e4
BOUNDS = {
    "smoothness_bound": lambda n=3, lam=1.0: dd.smoothness_bound(n, 1.0, lam),
    "radius_stepsize": lambda n=3, lam=1.0: dd.radius_stepsize(n, 1.0, lam),
    "scaling_bound_depth": lambda n=3, lam=1.0: sl.scaling_bound_depth(n, 1.0, lam),
    "min_grad_bound": lambda n=3, lam=1.0, depth=10: dd.min_grad_bound(n, 1.0, lam, depth),
    "best_marginal_eps": lambda n=3, lam=1.0, depth=10: dd.best_marginal_eps(n, 1.0, lam, depth),
    "scaling_convergence_bound":
        lambda n=3, lam=1.0, depth=10**6: sl.scaling_convergence_bound(n, 1.0, lam, 0.5, depth),
}
DEPTH_BOUNDS = ["min_grad_bound", "best_marginal_eps", "scaling_convergence_bound"]


def _refusal(call) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call()
    return str(err.value)


@pytest.mark.parametrize("bound", BOUNDS)
def test_bounds_hold_at_a_point_of_their_domain(bound):
    assert 0.0 < BOUNDS[bound]() < math.inf


@pytest.mark.parametrize(
    "arg, value, text",
    [
        # lam = 0 raised ZeroDivisionError in the five bounds that had no lam gate
        ("lam", 0.0, "lam must be positive and finite, got 0.0"),
        # best_marginal_eps(3, 1.0, -1.0, 10) returned 0.21
        ("lam", -1.0, "lam must be positive and finite, got -1.0"),
        # best_marginal_eps(0, 1.0, 1.0, 10) returned 0.0
        ("n", 0, "n must be an integer >= 1, got 0"),
        ("n", True, "n must be an integer >= 1, got True"),
    ],
    ids=["lam-0", "lam--1", "n-0", "n-True"],
)
@pytest.mark.parametrize("bound", BOUNDS)
def test_bounds_refuse_outside_one_domain(bound, arg, value, text):
    assert _refusal(lambda: BOUNDS[bound](**{arg: value})) == text


# scaling_convergence_bound returned 0.0 at depth inf and nan at depth nan
@pytest.mark.parametrize("depth", [0, 2.5, math.nan, math.inf, True], ids=["0", "2.5", "nan", "inf", "True"])
@pytest.mark.parametrize("bound", DEPTH_BOUNDS)
def test_depth_bounds_take_an_integer_depth_of_at_least_one(bound, depth):
    assert _refusal(lambda: BOUNDS[bound](depth=depth)) == f"depth must be an integer >= 1, got {depth!r}"


# past the float range each exponential leaked "overflow encountered in exp" (pytest makes it an
# error); min_grad_bound at r = 300 overflowed in a product of two finite exponentials instead
@pytest.mark.parametrize(
    "bound",
    [
        lambda: dd.smoothness_bound(3, 1e3, 1.0),
        lambda: dd.min_grad_bound(3, 1e3, 1.0, 10),
        lambda: dd.min_grad_bound(3, 300.0, 1.0, 10),
        lambda: dd.best_marginal_eps(3, 1e3, 1.0, 10),
        lambda: sl.scaling_bound_depth(3, 1e3, 1.0),
    ],
    ids=["smoothness_bound", "min_grad_bound", "min_grad_bound-product", "best_marginal_eps", "scaling_bound_depth"],
)
def test_bounds_read_inf_past_the_float_range(bound):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bound() == math.inf


def test_convergence_bound_past_the_float_range_asks_for_infinite_depth():
    # its precondition is scaling_bound_depth, which reads inf first
    assert _refusal(lambda: sl.scaling_convergence_bound(3, 1e3, 1.0, 0.5, 10**6)) == \
        "depth 1000000 below the bound's precondition inf"


@pytest.mark.parametrize("x", [-800.0, -1.0, 0.0, 0.3, 2.0 / 0.7, 709.0])
def test_exp_or_inf_keeps_the_bits_of_np_exp_inside_the_range(x):
    assert logdomain.exp_or_inf(x) == np.exp(x) and type(logdomain.exp_or_inf(x)) is float


_PLAN_READERS = {"round_plan": oracles.round_plan, "apply_plan": lambda P: tc.apply_plan(P, np.zeros(2))}


@pytest.mark.parametrize(
    "P",
    [
        [[-1.0, -2.0], [-3.0, -0.5]],  # round_plan read it out as (0, 1)
        [[0.5, -0.25], [0.25, 0.5]],
        [[0.5, math.nan], [0.25, 0.5]],
        [[0.5, math.inf], [0.25, 0.5]],
        [[0.5, -math.inf], [0.25, 0.5]],
    ],
    ids=["all-negative", "negative", "nan", "inf", "-inf"],
)
@pytest.mark.parametrize("reader", _PLAN_READERS)
def test_plan_readers_refuse_through_one_gate(reader, P):
    with pytest.raises(ValueError) as err:
        _PLAN_READERS[reader](np.array(P))
    assert str(err.value) == "plan entries must be finite and nonnegative"
    assert not isinstance(err.value, logdomain.DegeneratePlanError)


@pytest.mark.parametrize("A", [np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2, 2)), np.zeros((0, 0))],
                         ids=["1-D", "2x3", "stack", "empty"])
def test_apply_plan_takes_one_square_plan(A):
    with pytest.raises(ValueError, match="^expected (a|one) non-empty square matrix"):
        tc.apply_plan(A, np.zeros(A.shape[-1]))


# each gate's refusal text; outside logdomain no string constant may hold one. The scalar gate's
# text keeps its ", got": sinkhorn_lab's normalizers refuse sums that are not "positive and
# finite", an array rule that no gate covers
GATE_TEXTS = ["must be positive and finite, got", "must be an integer >=", "must be below 2**64",
              "must be below the reset guard", "radius must be nonnegative", "plan entries must be",
              "non-empty square matrix"]
# an integer bound in any wording: the command line refused --d and --seed as "must be >= 1, got 0"
INTEGER_BOUND = re.compile(r"must be (an integer )?>=")


def _strings(path) -> list[str]:
    """The string constants of a module, f-string parts included and docstrings left out."""
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings]


def test_each_gate_text_is_written_in_logdomain_only():
    package = pathlib.Path(logdomain.__file__).parent
    gate_strings = _strings(package / "logdomain.py")
    for text in GATE_TEXTS:
        assert any(text in s for s in gate_strings), f"no gate in logdomain writes {text!r}"
    copies = [f"{path.name}: {s!r}" for path in sorted(package.glob("*.py")) if path.name != "logdomain.py"
              for s in _strings(path) if any(text in s for text in GATE_TEXTS) or INTEGER_BOUND.search(s)]
    assert not copies


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
