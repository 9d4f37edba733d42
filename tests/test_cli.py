"""End-to-end command tests through main(argv): exit codes, artifacts,
config-file layering, and byte determinism of exports.

Exit code contract: 0 ok, 1 usage, 2 verification failure, 3 solver
non-convergence.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import otlab
from otlab.cli import main
from otlab.io import read_matrix_csv


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_usage_error():
    assert main(["forward", "--bogus", "1"]) == 1


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
    A = read_matrix_csv(out / "A_0060.csv")
    assert A.shape == (4, 4)
    assert "marginal error" in capsys.readouterr().out


def test_forward_multi_n_prefixes_files(tmp_path):
    out = tmp_path / "multi"
    assert main(["forward", "--n", "3,4", "--depth", "5", "--checkpoints", "5",
                 "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"n3_A_0005.csv", "n4_A_0005.csv", "n3_Pstar.csv", "n4_Pstar.csv"} <= names
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["metrics"]["per_n"]) == {"3", "4"}


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
    ],
)
def test_out_of_domain_input_is_one_line_usage_error(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("otlab: ")
    assert not caught


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


def test_gd_radius_matched_stepsize(capsys):
    assert main(["gd", "--n", "3", "--lambda", "1.0", "--radius", "0.5", "--depth", "10"]) == 0
    out = capsys.readouterr().out
    # gamma = e^{-2r/lam}/(n+2) = e^{-1}/5
    assert f"gamma={np.exp(-1.0) / 5:.6g}" in out


def test_sinkhorn_converges(capsys):
    assert main(["sinkhorn", "--n", "4", "--lambda", "0.5", "--tol", "1e-10"]) == 0
    assert "converged" in capsys.readouterr().out


def test_sinkhorn_budget_exhaustion_exits_3(tmp_path, capsys):
    code = main(["sinkhorn", "--n", "4", "--d", "2", "--lambda", "0.005",
                 "--tol", "1e-12", "--max-sweeps", "40", "--out", str(tmp_path / "s")])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    assert not (tmp_path / "s" / "Pstar.csv").exists()


def test_sinkhorn_artifacts(tmp_path):
    out = tmp_path / "sk"
    assert main(["sinkhorn", "--n", "3", "--lambda", "0.8", "--out", str(out)]) == 0
    P = read_matrix_csv(out / "Pstar.csv")
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


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth=5\nn=3\nseed=2\n")
    out = tmp_path / "cfls"
    # flag --depth overrides the config value; config n sticks
    assert main(["forward", "--config", str(cfg), "--depth", "6",
                 "--checkpoints", "6", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["depth"] == "6"
    assert manifest["config"]["n"] == "3"
    assert manifest["config"]["seed"] == "2"


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depht=5\n")
    assert main(["forward", "--config", str(cfg)]) == 1
    assert "depht" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["forward", "--config", str(tmp_path / "absent.cfg")]) == 1
