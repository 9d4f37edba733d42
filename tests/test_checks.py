"""The verification suites themselves: quick-mode smoke, result plumbing,
proof that the fault injection actually trips the equivalence suite, and the
bound suites' single descent."""

import dataclasses
import json
import math

import numpy as np
import pytest

from otlab import checks
from otlab import dual_descent as dd
from otlab import transformer_core as tc
from otlab.io import write_json_atomic


def test_run_all_quick_is_green():
    results = checks.run_all(seed=0, quick=True)
    assert [r.name for r in results] == [
        "gd_equivalence",
        "gradient_check",
        "closure_harness",
        "shift_harness",
        "contraction",
        "stationarity",
        "depth_bound",
    ]
    failing = [r.name for r in results if not r.passed]
    assert failing == []


def test_result_json_is_native(tmp_path):
    # the report `verify` writes: numpy scalars in a result read back as plain JSON
    res = checks.CheckResult("demo", np.bool_(True), "ok", {
        "flag": np.bool_(False), "count": np.int64(3), "error": np.float64(0.25), "sizes": (2, 3),
    })
    write_json_atomic(dataclasses.asdict(res), tmp_path / "report.json")
    blob = json.loads((tmp_path / "report.json").read_text())
    assert blob == {"name": "demo", "passed": True, "detail": "ok",
                    "metrics": {"flag": False, "count": 3, "error": 0.25, "sizes": [2, 3]}}
    assert {k: type(v) for k, v in blob["metrics"].items()} == {"flag": bool, "count": int, "error": float, "sizes": list}


def test_flip_sign_trips_equivalence():
    res = checks.check_gd_equivalence(n_seeds=1, flip_sign=True)
    assert not res.passed
    assert res.metrics["max_deviation"] > 1e-8


@pytest.mark.parametrize("fault", ["2 gamma", "2 lam"])
def test_equivalence_catches_weights_built_at_other_parameters(monkeypatch, fault):
    # the oracle takes lam and gamma from the suite's own grid, not from the weights
    # under test: read from the weights, it passed both faults at 5.2e-16 and 4.4e-16
    build = checks.build_constructed_weights

    def faulty(d, lam, gamma):
        return build(d, 2 * lam, gamma) if fault == "2 lam" else build(d, lam, 2 * gamma)

    monkeypatch.setattr(checks, "build_constructed_weights", faulty)
    res = checks.check_gd_equivalence(n_seeds=1)
    assert not res.passed
    assert res.metrics["max_deviation"] > 1e-8


def test_equivalence_metrics_report_worst_case():
    res = checks.check_gd_equivalence(n_seeds=2)
    assert res.passed
    assert res.metrics["cases"] == 24
    assert 0.0 <= res.metrics["max_deviation"] <= 1e-8


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_run_all_refuses_a_bad_seed_before_any_suite(seed, monkeypatch):
    calls = []
    for name in ("check_gd_equivalence", "check_gradients", "check_closure", "check_shift",
                 "check_contraction", "check_stationarity", "check_depth_bound"):
        monkeypatch.setattr(checks, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    with pytest.raises(ValueError) as err:
        checks.run_all(seed=seed)
    assert str(err.value) == f"seed must be an integer >= 0, got {seed!r}"
    assert calls == []  # at -1 the equivalence suite ran before check_gradients' rng refused it


def test_equivalence_runs_each_group_as_one_stacked_pass(monkeypatch, fused_steps):
    """The 60 default runs go as 12 (lam, d, n) groups of 5 seeds: 12 forward
    passes of 50 stacked layers, where one pass per run made 60 and 3,000.
    Each of the 4 (d, lam) weight sets adds one layer in its probe check.
    Every n is below the fused limit, so each layer is one fused step: 50 per
    group on its 5 stacked states, and one `layer_forward` per probe."""
    calls = {"forward": 0, "layer_forward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(checks, "forward", counted("forward", checks.forward))
    monkeypatch.setattr(tc, "layer_forward", counted("layer_forward", tc.layer_forward))
    res = checks.check_gd_equivalence()
    assert res.passed and res.metrics["cases"] == 60
    assert calls == {"forward": 12, "layer_forward": 4}
    stacked = [shape for shape in fused_steps if len(shape) == 3]
    assert len(stacked) == 12 * 50 and {shape[0] for shape in stacked} == {5}
    assert len(fused_steps) == 12 * 50 + 4


def _counted_gd_run(monkeypatch, step_factor=1.0):
    """Count the suites' gd_run calls; a step_factor above 1 enlarges every
    radius-matched step, which drives the iterates out of their radius."""
    calls = []
    gd_run = dd.gd_run

    def wrapper(C, lam, depth, gamma):
        calls.append(depth)
        return gd_run(C, lam, depth, step_factor * gamma)

    monkeypatch.setattr(dd, "gd_run", wrapper)
    return calls


@pytest.mark.parametrize("suite", [checks.check_stationarity, checks.check_depth_bound])
def test_bound_suite_descends_once(monkeypatch, suite):
    calls = _counted_gd_run(monkeypatch)
    res = suite(seed=0)
    assert res.passed and res.metrics["confined"]
    assert len(calls) == 1


_LEFT_RADIUS_DETAIL = {
    "check_stationarity": "depth 5000, left radius 1.433 (realized 22.461): ",
    "check_depth_bound": "depth 561 (left radius 0.365, realized 17.530), stationary layer 0: "
    "scaling distance 2.966e-01 has no bound outside it",
}


@pytest.mark.parametrize(
    "suite, step_factor",
    [(checks.check_stationarity, 1e3), (checks.check_depth_bound, 1e2)],
)
def test_run_outside_its_radius_fails_its_suite(monkeypatch, suite, step_factor):
    # no retry with a larger radius: the one run is reported as it went, and
    # its line names the radius it left instead of a precondition or a bound
    calls = _counted_gd_run(monkeypatch, step_factor)
    res = suite(seed=0)
    assert len(calls) == 1
    assert not res.passed
    assert res.metrics["confined"] is False
    assert res.metrics["radius_realized"] > res.metrics["radius_confirmed"]
    assert res.detail.startswith(_LEFT_RADIUS_DETAIL[suite.__name__])
    assert "precondition" not in res.detail and "nan" not in res.detail


@pytest.mark.parametrize(
    "suite, module, bound, failed",
    [
        (checks.check_stationarity, dd, "best_marginal_eps", "> predicted 0.000e+00; "),
        (checks.check_stationarity, dd, "min_grad_bound", "> bound 0.000e+00"),
        (checks.check_depth_bound, checks.sl, "scaling_convergence_bound", "> bound 0.000e+00"),
    ],
)
def test_failed_comparison_reads_greater_than(monkeypatch, suite, module, bound, failed):
    # a bound of 0 fails its comparison on a confined run; only that one flips
    monkeypatch.setattr(module, bound, lambda *args: 0.0)
    res = suite(seed=0)
    assert not res.passed and res.metrics["confined"]
    assert failed in res.detail
    assert res.detail.count(">") == 1


def test_depth_bound_measures_a_nonzero_distance():
    # at n = 2 a permutation instance's cost is symmetric and its distance
    # reads exactly 0; the seeded sorting instance is not
    for seed in range(4):
        res = checks.check_depth_bound(seed=seed)
        assert res.passed
        assert 0.0 < max(res.metrics["mu_w"], res.metrics["mu_q"]) <= res.metrics["bound"]


def test_depth_bound_descends_to_the_bounds_precondition():
    res = checks.check_depth_bound(seed=0)
    needed = checks.sl.scaling_bound_depth(2, res.metrics["radius_confirmed"], 1.0)
    assert res.metrics["depth"] == math.ceil(needed) + 1


def test_contraction_that_checks_no_ratio_fails(monkeypatch):
    # no kernel, or only ratios at float noise, passed with "worst ratio-minus-eta -inf"
    res = checks.check_contraction(instances=0)
    assert not res.passed and res.metrics["ratios_checked"] == 0
    monkeypatch.setattr(checks.sl, "hilbert_metric_logs", lambda *args: 0.0)
    res = checks.check_contraction(instances=2)
    assert not res.passed and res.metrics["ratios_checked"] == 0


@pytest.mark.parametrize(
    "suite, sizes",
    [
        (checks.check_closure, {"trials": 0}),  # passed with "0 trials: 0 violations"
        (checks.check_shift, {"trials": -3}),  # passed with "-3 trials"
        (checks.check_gradients, {"cases": 0}),  # passed
        (checks.check_gd_equivalence, {"n_seeds": 0}),  # raised "need at least one array to stack"
    ],
    ids=["closure", "shift", "gradients", "equivalence"],
)
def test_suite_that_checks_nothing_fails(suite, sizes):
    res = suite(**sizes)
    assert not res.passed
    assert res.detail.startswith("0 ")  # the count it actually checked
