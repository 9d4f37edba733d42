import json

import numpy as np
import pytest

from otlab.io import write_json_atomic, write_matrix_csv, write_pgm


def test_matrix_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 5)) * 10.0 ** rng.integers(-12, 12, size=(3, 5))
    path = tmp_path / "a.csv"
    write_matrix_csv(A, path)
    np.testing.assert_array_equal(np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2), A)


def test_matrix_csv_header(tmp_path):
    path = tmp_path / "a.csv"
    write_matrix_csv(np.zeros((2, 3)), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rows,cols"
    assert lines[1] == "2,3"
    assert len(lines) == 4


def test_matrix_csv_deterministic_bytes(tmp_path):
    A = np.array([[1.0 / 3.0, 2.0 / 7.0]])
    write_matrix_csv(A, tmp_path / "x.csv")
    write_matrix_csv(A.copy(), tmp_path / "y.csv")
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()


def test_writers_match_per_element_formatting(tmp_path):
    """Both writers format each row as a per-element repr/str join would, on
    the floats whose text is easiest to get wrong."""
    A = np.array([[-0.0, 5e-324, 1e308], [np.inf, np.nan, 3.0]])
    write_matrix_csv(A, tmp_path / "a.csv")
    rows = "".join(",".join(repr(x) for x in row.tolist()) + "\n" for row in A)
    assert (tmp_path / "a.csv").read_bytes() == ("rows,cols\n2,3\n" + rows).encode()
    B = np.array([[-0.0, 5e-324, 1e308], [1e307, 2.5, 3.0]])
    write_pgm(B, tmp_path / "b.pgm")
    pix = np.rint((B - B.min()) / (B.max() - B.min()) * 255.0).astype(int)
    rows = "".join(" ".join(str(p) for p in row.tolist()) + "\n" for row in pix)
    head = f"P2\n# linear scale min={float(B.min())!r} max={float(B.max())!r}\n3 2\n255\n"
    assert (tmp_path / "b.pgm").read_bytes() == (head + rows).encode()


def test_pgm_format_and_scaling(tmp_path):
    A = np.array([[0.0, 0.5], [0.25, 1.0]])
    path = tmp_path / "a.pgm"
    write_pgm(A, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("# linear scale min=")
    assert lines[2] == "2 2" and lines[3] == "255"
    pix = np.array([[int(v) for v in line.split()] for line in lines[4:]])
    assert pix[0, 0] == 0 and pix[1, 1] == 255
    assert pix[0, 1] == 128 and pix[1, 0] == 64
    assert pix.min() >= 0 and pix.max() <= 255


def test_pgm_constant_matrix(tmp_path):
    path = tmp_path / "c.pgm"
    write_pgm(np.full((2, 2), 0.7), path)
    body = path.read_text().splitlines()[4:]
    assert all(v == "0" for line in body for v in line.split())


def test_json_atomic_leaves_no_temp(tmp_path):
    path = tmp_path / "r.json"
    write_json_atomic({"a": 1, "b": [1.5, "x"]}, path)
    assert json.loads(path.read_text()) == {"a": 1, "b": [1.5, "x"]}
    assert list(tmp_path.iterdir()) == [path]


def test_json_atomic_writes_numpy_scalars_only(tmp_path):
    path = tmp_path / "r.json"
    write_json_atomic({"ok": np.bool_(True), "k": np.int64(7), "x": np.float64(0.1)}, path)
    assert path.read_text() == '{\n  "k": 7,\n  "ok": true,\n  "x": 0.1\n}\n'
    with pytest.raises(TypeError):
        write_json_atomic({"a": np.zeros(2)}, tmp_path / "s.json")
    assert list(tmp_path.iterdir()) == [path]  # the failed write left no partial temp file

