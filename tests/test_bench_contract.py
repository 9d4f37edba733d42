"""The benchmark's view of otlab. `bench/` stays frozen between benchmark
revisions and calls into otlab by name; a rename there, or a change to the
number of `verify` suites, would fail every benchmark operation. These tests
run a few of its operations so that Tier-1 notices first."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from otlab import cli
from otlab import transformer_core as tc
from otlab.problem import seeded_instance

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def workloads():
    # bench/ imports its siblings by bare name; write no bytecode under it
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


def test_sort_batch_op_and_check_per_size(workloads, tmp_path):
    wl = workloads.SortBatch(0, tmp_path)
    wl.setup()
    first: dict = {}
    i = 0
    while len(first) < len(wl.sizes):
        x = wl.input(i)
        first.setdefault(x.size, x)
        i += 1
    assert sorted(first) == [4, 8, 16]
    for x in first.values():
        assert wl.check(x, wl.op(x)) is None


def test_verify_quick_prints_one_pass_line_per_oracle_suite(workloads):
    rc, text = workloads._cli(["verify", "--quick"])
    assert rc == cli.EXIT_OK
    lines = text.splitlines()
    assert [ln for ln in lines if not ln.startswith("PASS")] == []
    assert len(lines) == workloads.OracleSuite.suites == 7


def test_fused_limit_keeps_each_workload_on_its_side(workloads, tmp_path, fused_steps, monkeypatch):
    """Sort-batch's n in {4, 8, 16} and every layer `verify` runs (n <= 8)
    are fused; forward-deep's n = 128 is above the limit and runs `attention`,
    so the bench times both ways of computing a layer."""
    calls = []
    real = tc.attention
    monkeypatch.setattr(tc, "attention", lambda *args: calls.append(1) or real(*args))
    sort = workloads.SortBatch(0, tmp_path)
    sort.setup()
    for n in sort.sizes:
        fused_steps.clear()
        sort.op(np.arange(n) / n)
        assert len(fused_steps) == workloads.DEPTH and n + 1 <= tc._FUSED_MAX_TOKENS
    oracle = workloads.OracleSuite(0, tmp_path)
    oracle.setup()
    assert workloads._cli(oracle.argv)[0] == cli.EXIT_OK and fused_steps
    assert not calls
    deep = workloads.ForwardDeep
    weights = tc.build_constructed_weights(deep.d, workloads.LAM, workloads.GAMMA)
    fused_steps.clear()  # the weights' probe layer
    tc.forward(seeded_instance(deep.n, deep.d, 0, workloads.LAM), 3, weights)
    assert len(calls) == 3 and not fused_steps


def test_forward_deep_properties_solve_its_instance(workloads, tmp_path):
    # the report rebuilds the instance through the private cli._instance
    props = workloads.ForwardDeep(0, tmp_path).properties()
    assert props["n"] == 128 and props["reference_sweeps"] > 0


def test_forward_deep_op_and_check_twice(workloads, tmp_path):
    # the check reads the manifest's criterion-03 trend and hashes the
    # artifacts, weights.json included, against the first operation's
    wl = workloads.ForwardDeep(0, tmp_path)
    wl.setup()
    try:
        for i in range(2):
            argv = wl.input(i)
            assert wl.check(argv, wl.op(argv)) is None
    finally:
        wl.close()
    assert not wl.out.exists()


def test_trace_mode_reads_every_per_layer_metric(workloads, tmp_path):
    # `bench/run.py --trace 1` reads trace and result attributes by name
    tracer = importlib.import_module("tracer").Tracer()
    wl = workloads.SortBatch(0, tmp_path)
    wl.setup()
    tracer.install()
    try:
        tracer.op_id, tracer.active = 0, True
        wl.op(wl.input(0))
        tracer.op_id = 1
        rc, _ = workloads._cli(["verify", "--quick"])
    finally:
        tracer.active = False
        tracer.uninstall()
    assert rc == cli.EXIT_OK
    metrics = tracer.metrics(2, 0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert metrics["sinkhorn_lab.sinkhorn_solve.sweeps"] > 0
    assert metrics["dual_descent.gd_run.steps"] > 0
