"""The benchmark's view of otlab. `bench/` stays frozen between benchmark
revisions and calls into otlab by name; a rename there, or a change to the
number of `verify` suites, would fail every benchmark operation. These tests
run a few of its operations so that Tier-1 notices first."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from otlab import cli

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


def test_forward_deep_properties_solve_its_instance(workloads, tmp_path):
    # the report rebuilds the instance through the private cli._instance
    props = workloads.ForwardDeep(0, tmp_path).properties()
    assert props["n"] == 128 and props["reference_sweeps"] > 0


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
