"""The verification suites themselves: quick-mode smoke, result plumbing, and
proof that the fault injection actually trips the equivalence suite."""

from otlab import checks
from otlab import transformer_core as tc


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
    import json

    res = checks.check_gradients(cases=3, seed=1)
    blob = res.as_json()
    assert set(blob) == {"name", "passed", "detail", "metrics"}
    assert blob["passed"] is True
    assert blob["metrics"]["worst_rel_error"] <= 1e-5
    json.dumps(blob)  # no numpy scalars allowed through


def test_flip_sign_trips_equivalence():
    res = checks.check_gd_equivalence(
        ns=(3,), ds=(1,), lams=(0.5,), depth=5, n_seeds=1, flip_sign=True
    )
    assert not res.passed
    assert res.metrics["max_deviation"] > 1e-8


def test_equivalence_metrics_report_worst_case():
    res = checks.check_gd_equivalence(ns=(2, 3), ds=(1,), lams=(0.5,), depth=10, n_seeds=2)
    assert res.passed
    assert res.metrics["cases"] == 4
    assert 0.0 <= res.metrics["max_deviation"] <= 1e-8


def test_equivalence_runs_each_group_as_one_stacked_pass(monkeypatch):
    """The 60 default runs go as 12 (lam, d, n) groups of 5 seeds: 12 forward
    passes of 50 stacked layers, where one pass per run made 60 and 3,000.
    Each of the 4 (d, lam) weight sets adds one layer in its probe check."""
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
    assert calls == {"forward": 12, "layer_forward": 12 * 50 + 4}
