"""End-to-end command tests through main(argv): exit codes, artifacts,
config-file layering, and byte determinism of exports.

Exit code contract: 0 ok, 1 usage, 2 verification failure, 3 solver
non-convergence.
"""

import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import otlab
from otlab import cli
from otlab import transformer_core as tc
from otlab.cli import main
from otlab.logdomain import marginal_error
from otlab.problem import permutation_instance, seeded_instance


def _read_csv(path) -> np.ndarray:
    # skips the `rows,cols` header and the dimension line; exact on repr floats
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def test_malformed_number_is_usage_error(capsys):
    assert main(["forward", "--n", "four"]) == 1
    assert "four" in capsys.readouterr().err


def test_version_exits_clean():
    assert main(["--version"]) == 0


def test_forward_writes_expected_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["forward", "--n", "4", "--depth", "60", "--checkpoints", "1,30,60",
         "--out", str(out), "--seed", "0"]
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    expected = {"A_0001.csv", "A_0001.pgm", "A_0030.csv", "A_0030.pgm",
                "A_0060.csv", "A_0060.pgm", "Pstar.csv", "Pstar.pgm",
                "weights.json", "manifest.json"}
    assert expected <= names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "forward"
    assert sorted(manifest["outputs"]) == manifest["outputs"]
    per_layer = manifest["metrics"]["per_n"]["4"]
    errs = [per_layer[k]["eps_star"] for k in ("1", "30", "60")]
    assert errs[0] > errs[-1] > 0  # convergence trend visible in metrics
    assert "marginal error" in capsys.readouterr().out
    # each export is head 1's kernel block read from that layer's state
    w = tc.build_constructed_weights(1, 0.005, 0.01)
    trace = tc.forward(permutation_instance(4, 0, 0.005), 60, w, checkpoints=range(61))
    for k in (1, 30, 60):
        A = _read_csv(out / f"A_{k:04d}.csv")
        assert A.shape == (4, 4)
        np.testing.assert_array_equal(A, tc.attention_pattern(trace.states[k], w.Qs[0]))


def test_forward_computes_only_the_exported_patterns(monkeypatch):
    calls = []
    real = tc.attention_pattern

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tc, "attention_pattern", counted)
    monkeypatch.setattr(cli, "attention_pattern", counted)
    assert main(["forward", "--n", "4", "--depth", "60", "--checkpoints", "1,30,60"]) == 0
    assert len(calls) == 3


def test_forward_peak_memory_is_flat_in_depth(capsys):
    """The pass streams: it keeps states only, under 64 MiB at depth 2000,
    and four times the depth costs no more memory, where keeping every state
    cost 45.7 MiB at depth 8000 against 11.6 at 2000."""
    peaks = {}
    for depth in (2000, 8000):
        tracemalloc.start()
        try:
            assert main(["forward", "--n", "64", "--depth", str(depth)]) == 0
            peaks[depth] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] < 64 * 2**20, peaks
    assert peaks[8000] - peaks[2000] < 2**20, peaks


def test_diverged_forward_stops_at_its_first_bad_layer(fused_steps, capsys):
    # the kernel overflows at layer 2: n = 4 runs fused, two steps, and one
    # more is the weights' probe check
    assert main(["forward", "--gamma", "1e6", "--depth", "2000"]) == 3
    assert len(fused_steps) == 3
    assert capsys.readouterr().err == "otlab: n=4: attention kernel exceeds 3e+153 at layer 2; the run diverged\n"


def test_forward_multi_n_prefixes_files(tmp_path):
    out = tmp_path / "multi"
    assert main(["forward", "--n", "3,4", "--depth", "5", "--checkpoints", "5",
                 "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"n3_A_0005.csv", "n4_A_0005.csv", "n3_Pstar.csv", "n4_Pstar.csv"} <= names
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["metrics"]["per_n"]) == {"3", "4"}


def test_forward_runs_each_size_once(tmp_path, capsys):
    out = tmp_path / "dup"
    assert main(["forward", "--n", "4,3,4", "--depth", "5", "--checkpoints", "5", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["n=4", "n=3"]
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert len(outputs) == len(set(outputs)) == 9  # A_0005 and Pstar as .csv and .pgm per n, weights.json
    # an empty size list is a usage error before anything is written, even with --out
    assert main(["forward", "--n", ",", "--out", str(tmp_path / "none")]) == 1
    assert capsys.readouterr().err == "otlab: argument --n: needs at least one value, got ','\n"
    assert not (tmp_path / "none").exists()


def test_forward_weights_and_config_replay_its_last_export(tmp_path):
    # weights.json holds the matrices only; the manifest's config names the instance
    out = tmp_path / "run"
    assert main(["forward", "--n", "6", "--d", "2", "--depth", "40", "--out", str(out)]) == 0
    weights = tc.load_weights(out / "weights.json")
    config = json.loads((out / "manifest.json").read_text())["config"]
    inst = seeded_instance(config["n"][0], config["d"], config["seed"], config["lambda"])
    trace = tc.forward(inst, config["depth"], weights)
    np.testing.assert_array_equal(tc.attention_pattern(trace.states[-1], weights.Qs[0]),
                                  _read_csv(out / "A_0040.csv"))


def test_forward_probe_refusal_names_its_parameters(capsys):
    assert main(["forward", "--gamma", "1e9"]) == 1
    assert capsys.readouterr().err == (
        "otlab: one layer does not match one descent step at d=1, lam=0.005, gamma=1e+09\n"
    )


def test_forward_checkpoint_out_of_range(capsys):
    assert main(["forward", "--depth", "10", "--checkpoints", "11"]) == 1
    assert "checkpoints" in capsys.readouterr().err


def test_forward_exports_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["forward", "--n", "4", "--depth", "40", "--checkpoints", "40",
                     "--out", str(out)]) == 0
    for name in ("A_0040.csv", "Pstar.csv", "A_0040.pgm", "weights.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sort_happy_path(capsys):
    assert main(["sort", "--x", "0.5,0.75,0.25,0.0", "--depth", "1200"]) == 0
    out = capsys.readouterr().out
    assert "sorted:" in out and "max abs error" in out
    sorted_line = next(l for l in out.splitlines() if l.startswith("sorted:"))
    values = [float(tok) for tok in sorted_line.split()[1:]]
    assert values == sorted(values)


def test_sort_requires_x(capsys):
    assert main(["sort"]) == 1
    assert "--x" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sort", "--x", "1e9,0,1"],  # outside the target grid's span [0, 1]
        ["forward", "--gamma", "1e9"],  # fails the construction's probe check
        ["gd", "--radius", "1e6"],  # radius-matched stepsize underflows to 0
        ["gd", "--gamma", "0"],
        ["gd", "--gamma", "inf"],  # ran to NaN duals and exited 0
        ["gd", "--depth", "-1"],
        ["sinkhorn", "--max-sweeps", "0"],  # exited 3 "within 0 sweeps (reached inf)"
        ["sinkhorn", "--tol", "-1"],  # each tol ran the whole sweep budget and exited 3
        ["sinkhorn", "--tol", "0"],
        ["sinkhorn", "--tol", "nan"],
        ["forward", "--n", ","],  # no size at all: exited 0 with no output
        ["forward", "--checkpoints", ","],  # no layer to export: raised IndexError
        ["sort", "--x", ","],  # named the internal (0, 1) arrays
        ["gd", "--d", "0"],  # named the internal (4, 0) arrays
        ["sinkhorn", "--d", "0"],
        # named the internal (0, 2) arrays; at d = 1 it read "n must be >= 1"
        ["forward", "--n", "0", "--d", "2"],
        ["gd", "--d", "2", "--n", "0"],
        ["sinkhorn", "--d", "2", "--n", "0"],
        ["sinkhorn", "--tol", "inf", "--d", "2", "--n", "6", "--lambda", "0.1"],  # exited 0 after 1 sweep
        # parser errors printed a bare usage line without the reason
        ["forward", "--bogus", "1"],
        ["forward", "--dep", "5"],  # a prefix of --depth ran at depth 5
        ["bogus"],
        [],
        ["verify", "--seed", "-1"],  # named neither the flag nor the value
        ["forward", "--depth", "10", "--checkpoints", "11"],  # had no "otlab: " prefix
        ["sort"],
        # negative values in exponent or list form were taken for a flag: "expected one argument"
        ["gd", "--gamma", "-1e-3"],
        ["sort", "--x", "-0.5,1"],
        # G / lam overflowed with a RuntimeWarning before the weights were rejected
        ["forward", "--lambda", "1e-309", "--depth", "3"],
        ["sort", "--x", "0.2,0.8", "--lambda", "1e-309"],
        # the objective overflows at zero duals: exited 3 "diverged at step 0"
        ["gd", "--lambda", "1e308", "--depth", "3"],
    ],
)
def test_out_of_domain_input_is_one_line_usage_error(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("otlab: ")
    assert not caught
    named = {("gd", "--d", "0"): "d must be an integer >= 1, got 0",
             ("sinkhorn", "--d", "0"): "d must be an integer >= 1, got 0",
             ("verify", "--seed", "-1"): "seed must be an integer >= 0, got -1",
             ("sort", "--x", ","): "argument --x: needs at least one value, got ','",
             ("forward", "--n", ","): "argument --n: needs at least one value, got ','",
             ("forward", "--checkpoints", ","): "argument --checkpoints: needs at least one value, got ','",
             ("sort",): "the following arguments are required: --x",
             ("forward", "--dep", "5"): "unrecognized arguments: --dep 5",
             ("gd", "--gamma", "-1e-3"): "gamma must be positive and finite",
             ("sort", "--x", "-0.5,1"): "values to sort must lie in [0, 1]",
             ("forward", "--lambda", "1e-309", "--depth", "3"): "constructed weights are not finite",
             ("gd", "--lambda", "1e308", "--depth", "3"): "n=4: descent diagnostics are not finite at zero duals",
             ("forward", "--n", "0", "--d", "2"): "n must be an integer >= 1, got 0",
             ("gd", "--d", "2", "--n", "0"): "n must be an integer >= 1, got 0",
             ("sinkhorn", "--d", "2", "--n", "0"): "n must be an integer >= 1, got 0",
             ("sinkhorn", "--tol", "inf", "--d", "2", "--n", "6", "--lambda", "0.1"):
                 "tol must be positive and finite, got inf"}
    assert named.get(tuple(argv), "") in err


# d and seed are refused by the library that takes them, before anything is written; the command
# line refused them itself as "argument --d: must be >= 1, got 0"
@pytest.mark.parametrize(
    "argv, line",
    [
        (["forward", "--d", "0"], "d must be an integer >= 1, got 0"),
        (["gd", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["sinkhorn", "--d", "2", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["verify", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["gd", "--config", "d=0"], "d must be an integer >= 1, got 0"),
        (["verify", "--config", "seed=-1"], "seed must be an integer >= 0, got -1"),
        # SplitMix64 masked the seed to 64 bits: this ran seed 0's instance
        (["gd", "--seed", "18446744073709551616", "--n", "5", "--depth", "10", "--lambda", "0.5"],
         "seed must be below 2**64, got 18446744073709551616"),
    ],
)
def test_refused_d_and_seed_write_nothing(argv, line, tmp_path, capsys):
    if argv[1] == "--config":  # the file's one line stands in argv's place
        cfg = tmp_path / "run.cfg"
        cfg.write_text(argv[2] + "\n")
        argv = [argv[0], "--config", str(cfg)]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"otlab: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["forward", "--lambda", "1e-6", "--depth", "50", "--checkpoints", "2,50"],  # kernel overflows
        ["gd", "--gamma", "1e9", "--depth", "50"],  # descent diverges
        ["forward", "--gamma", "1e6"],  # oscillates; overflows at layers 2, 7, 12, ..., no default checkpoint
        ["forward", "--lambda", "1e-6"],
        ["sort", "--x", "0.5,0,1,0.25", "--gamma", "1e3"],  # each sort exited 1 with "plan has a zero row"
        ["sort", "--x", "0.5,0,1,0.25", "--gamma", "10"],
        ["sort", "--x", "0.5,0,1,0.25", "--gamma", "1e6"],
        # duals pass the feedforward's reset guard at layer 5; exited 0 with marginal error 0.955
        ["forward", "--n", "4", "--lambda", "1e9", "--gamma", "5e7", "--depth", "200", "--checkpoints", "200"],
    ],
)
def test_diverged_run_exits_3_with_one_line(argv, tmp_path, capsys):
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("otlab: ") and "diverged" in err
    # gd named neither n nor the step when numpy's overflow error ended it
    named = {("gd", "--gamma", "1e9", "--depth", "50"): "n=4: descent diagnostics are not finite at step 2;"}
    assert named.get(tuple(argv), "") in err
    assert not caught
    assert not out.exists()  # nothing exported from the diverged run, not even its directory


@pytest.mark.parametrize(
    "argv, code, line",
    [
        # the gauge's mean over the duals overflowed to inf, also in forward's reference solve
        (["sinkhorn", "--lambda", "1e308"], 0, ""),
        (["forward", "--lambda", "1e308", "--depth", "3"], 0, ""),
        # -C/lam overflows to -inf, a kernel entry of exactly 0
        (["sinkhorn", "--lambda", "1e-309"], 0, ""),
        (["sinkhorn", "--d", "2", "--lambda", "1e-300", "--max-sweeps", "50"], 3,
         "otlab: no convergence to 1e-08 within 50 sweeps"),  # expm1 overflowed
        (["sinkhorn", "--d", "2", "--lambda", "1e-309"], 3,
         "otlab: marginal error is nan at sweep 1; the run did not converge"),  # spent 100,000 sweeps on NaN
    ],
)
def test_float_limit_run_raises_no_warning(argv, code, line, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    err = capsys.readouterr().err
    assert not caught
    assert len(err.splitlines()) == (code == 3) and err.startswith(line)


def test_sort_zero_row_plan_exits_3(capsys):
    # at lam = 1e-6 every kernel entry of a point off the grid i/n underflows
    assert main(["sort", "--x", "0.1,0.9", "--lambda", "1e-6", "--depth", "0"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("otlab: ") and "zero row" in err


@pytest.mark.parametrize(
    "module, name, exc, argv, code, line",
    [
        # `gd --n 100000 --depth 0` ended in a traceback from the cost matrix's allocation
        (cli, "cost_matrix", MemoryError("Unable to allocate 74.5 GiB"), ["gd", "--n", "100000", "--depth", "0"],
         1, "otlab: Unable to allocate 74.5 GiB\n"),
        (cli.sl, "newton_solve", cli.sl.SinkhornError("no convergence", eps_star=1.6e-6), ["forward", "--depth", "5"],
         3, "otlab: no convergence; the run did not converge\n"),
    ],
    ids=["allocation", "reference-solve"],
)
def test_failure_inside_a_command_is_one_line(module, name, exc, argv, code, line, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(module, name, mock.Mock(side_effect=exc))
    assert main([*argv, "--out", str(tmp_path / "run")]) == code
    assert capsys.readouterr().err == line
    assert not (tmp_path / "run").exists()


def test_process_entry_point_reports_one_line():
    src = str(Path(otlab.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "otlab.cli", "gd", "--gamma", "1e9", "--depth", "50"],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 3
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("otlab: ")
    assert "Traceback" not in run.stderr


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["sort", "forward", "gd", "sinkhorn"]),
    xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    log_gamma=st.floats(-3.0, 8.0),
    log_lam=st.floats(-6.0, 9.0),
    depth=st.integers(0, 50),
    seed=st.integers(0, 2**16),
    max_sweeps=st.integers(1, 2000),
)
def test_run_exits_0_or_3_with_one_line(command, xs, log_gamma, log_lam, depth, seed, max_sweeps):
    """Any parameters the weight construction accepts either give a result
    or a one-line non-convergence report, never a usage error or a float
    warning (pytest makes those errors)."""
    lam, gamma = 10.0**log_lam, 10.0**log_gamma
    try:
        tc.build_constructed_weights(1, lam, gamma)
    except ValueError:
        assume(False)
    common = ["--lambda", repr(lam), "--gamma", repr(gamma), "--depth", str(depth)]
    instance = ["--n", str(len(xs)), "--seed", str(seed)]
    if command == "sort":
        argv = ["sort", "--x", ",".join(map(repr, xs)), *common]
    elif command == "sinkhorn":
        argv = ["sinkhorn", *instance, "--lambda", repr(lam), "--max-sweeps", str(max_sweeps)]
    else:
        argv = [command, *instance, *common]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0 or (code == 3 and len(err.getvalue().splitlines()) == 1), (code, err.getvalue())


def test_cli_import_loads_no_scipy():
    code = "import sys, otlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(otlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_sort_manifest(tmp_path):
    out = tmp_path / "sorted"
    assert main(["sort", "--x", "0.9,0.1", "--depth", "400", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["metrics"]["max_abs_error"] < 0.05


def test_gd_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "gd"
    assert main(["gd", "--n", "3", "--lambda", "0.5", "--gamma", "0.1",
                 "--depth", "30", "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("step,")
    assert len(lines) == 32
    assert "final marginal error" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--n", "3", "--lambda", "0.5", "--depth", "300"],
         "e824eefaf566815e686f48449027df47b4c02ec1981a37d0028e538c915f0de8"),
        (["--n", "5", "--radius", "0.8", "--lambda", "1", "--depth", "500"],
         "4ebce3ede7e97ca8f701f91af299ed564817470e3f70b833cc752fbecfd43953"),
    ],
)
def test_gd_trajectory_bytes_are_pinned(argv, digest, tmp_path, capsys):
    # the bytes written while gd_run recorded each step inside its loop
    out = tmp_path / "gd"
    assert main(["gd", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest() == digest


def test_gd_radius_matched_stepsize(capsys):
    assert main(["gd", "--n", "3", "--lambda", "1.0", "--radius", "0.5", "--depth", "10"]) == 0
    out = capsys.readouterr().out
    # gamma = e^{-2r/lam}/(n+2) = e^{-1}/5
    assert f"gamma={np.exp(-1.0) / 5:.6g}" in out


def test_sinkhorn_converges(capsys):
    assert main(["sinkhorn", "--n", "4", "--lambda", "0.5", "--tol", "1e-10"]) == 0
    assert "converged" in capsys.readouterr().out


def test_sinkhorn_default_tolerance_follows_lambda(capsys):
    # the 1e-12 default took 83,502 sweeps here; below lam = 0.05 it is 1e-8
    assert main(["sinkhorn"]) == 0
    sweeps = int(capsys.readouterr().out.split("converged in ")[1].split()[0])
    assert sweeps < 10


def test_sinkhorn_budget_exhaustion_exits_3(tmp_path, capsys):
    code = main(["sinkhorn", "--n", "4", "--d", "2", "--lambda", "0.005",
                 "--tol", "1e-12", "--max-sweeps", "40", "--out", str(tmp_path / "s")])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("otlab: no convergence to 1e-12 within 40 sweeps")
    assert err.endswith("; the run did not converge\n")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("n", ["4", "8"])
def test_forward_reference_solves_where_sweeps_stall(n, tmp_path, capsys):
    # sinkhorn_solve spent its 100,000 sweeps here and stopped near 2e-6, so forward exited 3
    out = tmp_path / "run"
    assert main(["forward", "--d", "2", "--n", n, "--depth", "50", "--lambda", "0.005", "--seed", "0",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert marginal_error(_read_csv(out / "Pstar.csv")) <= 1e-8


def test_sinkhorn_artifacts(tmp_path):
    out = tmp_path / "sk"
    assert main(["sinkhorn", "--n", "3", "--lambda", "0.8", "--out", str(out)]) == 0
    P = _read_csv(out / "Pstar.csv")
    np.testing.assert_allclose(P.sum(axis=1), 1 / 3, atol=1e-11)


def test_verify_quick_green(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["verify", "--quick", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 7 and "FAIL" not in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert len(report["results"]) == 7


def test_verify_flip_sign_exits_2(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["verify", "--quick", "--flip-sign", "--out", str(out)]) == 2
    stdout = capsys.readouterr().out
    assert "FAIL  gd_equivalence" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    failed = {r["name"] for r in report["results"] if not r["passed"]}
    assert "gd_equivalence" in failed


def test_every_record_carries_one_stamp(tmp_path, capsys):
    # the command, its parsed flags, the version and the wall time, in
    # manifest.json and in verify's report.json alike
    stamp = {"command", "config", "version", "wall_time_s"}
    runs = {
        "forward": ["--n", "3", "--depth", "5", "--checkpoints", "5"],
        "sort": ["--x", "0.9,0.1", "--depth", "50"],
        "gd": ["--n", "3", "--lambda", "0.5", "--depth", "5"],
        "sinkhorn": ["--n", "3", "--lambda", "0.8"],
    }
    for command, argv in runs.items():
        out = tmp_path / command
        assert main([command, *argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == stamp | {"metrics", "outputs"}
        assert (manifest["command"], manifest["version"]) == (command, otlab.__version__)
    out = tmp_path / "verify"
    assert main(["verify", "--quick", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == stamp | {"passed", "results"}
    assert (report["command"], report["version"]) == ("verify", otlab.__version__)
    assert report["config"] == {"seed": 0, "out": str(out), "quick": True, "flip_sign": False}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("flags, code", [([], 0), (["--flip-sign"], 2)])
def test_verify_quick_exits_0_or_2_with_a_silent_stderr(seed, flags, code, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--quick", "--seed", str(seed), *flags]) == code
    assert capsys.readouterr().err == ""
    assert not caught


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth=5\nn=3\nseed=2\n")
    # flag --depth overrides the config value wherever it stands; config n and seed stick
    for i, argv in enumerate((["--config", str(cfg), "--depth", "6"], ["--depth", "6", f"--config={cfg}"])):
        out = tmp_path / f"cfls{i}"
        assert main(["forward", *argv, "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {"n": [3], "d": 1, "lambda": 0.005, "gamma": 0.01, "depth": 6, "seed": 2,
                          "out": str(out), "checkpoints": None}


def test_config_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quick\nflip-sign\nseed=1\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == ""
    # a value the flag's type cannot parse names the file; a seed below 0 is the library's to refuse
    for line in ("seed=1.5", "quick=yes"):
        cfg.write_text(line + "\n")
        assert main(["verify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"otlab: {cfg}: ")


def test_config_flags_sit_ahead_of_the_command_line(tmp_path, capsys):
    cfg, out = tmp_path / "run.cfg", tmp_path / "run"
    # the command line's --x wins over the file's, and a file without x leaves the required --x to it
    for text in ("depth=50\nx=0.9\n", "depth=50\n"):
        cfg.write_text(text)
        assert main(["sort", "--x", "0.6,0.1", "--config", str(cfg), "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["x"], config["depth"]) == ([0.6, 0.1], 50)
    cfg.write_text("x=,\n")
    assert main(["sort", "--x", "0.6,0.1", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"otlab: {cfg}: argument --x: needs at least one value, got ','\n"


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depht=5\n")
    assert main(["forward", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"otlab: {cfg}: unrecognized arguments: --depht=5\n"


# a line is judged as the flag it spells: an abbreviated or underscored name and a
# value on an on/off flag are refused like on the command line, and a config or help
# line, which would be ignored or print the help and exit 0, is refused too
@pytest.mark.parametrize(
    "command, line, err",
    [
        ("forward", "dep=5", "unrecognized arguments: --dep=5"),
        ("forward", "conf=other.cfg", "unrecognized arguments: --conf=other.cfg"),
        ("sinkhorn", "max_sweeps=5", "unrecognized arguments: --max_sweeps=5"),
        ("verify", "quick=1", "argument --quick: ignored explicit argument '1'"),
        ("forward", "config=other.cfg", "a config file cannot set --config"),
        ("forward", "help", "a config file cannot set --help"),
    ],
)
def test_config_line_is_refused_as_its_flag(command, line, err, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"otlab: {cfg}: {err}\n")


def test_config_lines_take_spaces_and_comments(tmp_path):
    cfg, out = tmp_path / "run.cfg", tmp_path / "run"
    cfg.write_text("# full-line comments only\nn = 8\nlambda=0.05\n\n  max-sweeps =  5000\n")
    assert main(["sinkhorn", "--config", str(cfg), "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["n"], config["lambda"], config["max_sweeps"]) == (8, 0.05, 5000)


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["forward", "--config", str(tmp_path / "absent.cfg")]) == 1


def _otlab_exception_classes():
    found = []
    for info in pkgutil.iter_modules(otlab.__path__):
        module = importlib.import_module(f"otlab.{info.name}")
        found += [obj for obj in vars(module).values()
                  if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == module.__name__]
    return found


@pytest.mark.parametrize("cls", _otlab_exception_classes(), ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_every_otlab_error_exits_with_a_documented_code_and_one_line(cls, monkeypatch, capsys):
    """Each exception class otlab defines, raised from a command, ends main
    with exit 1 or 3 and one stderr line, never a traceback."""

    def stub(args):
        exc = cls.__new__(cls)
        BaseException.__init__(exc, "stub failure")  # whatever arguments the class's own __init__ takes
        raise exc

    monkeypatch.setattr(cli, "_cmd_verify", stub)
    assert main(["verify"]) in (cli.EXIT_USAGE, cli.EXIT_NO_CONVERGENCE)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("otlab: stub failure")


def test_otlab_exception_classes_are_found():
    names = {cls.__name__ for cls in _otlab_exception_classes()}
    assert {"DivergenceError", "SinkhornError", "DegeneratePlanError"} <= names
