"""Deterministic file formats: matrix CSV, 8-bit PGM heatmaps, JSON manifests,
and flat key=value config files."""

from __future__ import annotations

import json
import os

import numpy as np


def write_matrix_csv(A: np.ndarray, path) -> None:
    """Row-major matrix dump; first line is the literal header `rows,cols`,
    second line the dimensions, then one comma-separated line per row.
    Floats use repr (shortest round-trip) so identical runs are byte-identical.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    with open(path, "w") as fh:
        fh.write("rows,cols\n")
        fh.write(f"{A.shape[0]},{A.shape[1]}\n")
        for row in A:
            fh.write(",".join(repr(x) for x in row.tolist()) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "rows,cols":
            raise ValueError(f"bad matrix CSV header {header!r}")
        rows, cols = (int(t) for t in fh.readline().split(","))
        A = np.array([[float(t) for t in fh.readline().split(",")] for _ in range(rows)])
    if A.shape != (rows, cols):
        raise ValueError("matrix CSV dimensions do not match its data")
    return A


def write_pgm(A: np.ndarray, path) -> None:
    """Plain (P2) PGM with linear min-max scaling to 0..255; the scale is
    recorded in a comment so the image remains interpretable."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    lo, hi = float(A.min()), float(A.max())
    if hi > lo:
        pix = np.rint((A - lo) / (hi - lo) * 255.0).astype(int)
    else:
        pix = np.zeros(A.shape, dtype=int)
    with open(path, "w") as fh:
        fh.write("P2\n")
        fh.write(f"# linear scale min={lo!r} max={hi!r}\n")
        fh.write(f"{A.shape[1]} {A.shape[0]}\n255\n")
        for row in pix:
            fh.write(" ".join(str(p) for p in row.tolist()) + "\n")


def _numpy_scalar(x):
    # json refuses numpy scalars (np.bool_ and np.int64 subclass no Python type)
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def write_json_atomic(obj, path) -> None:
    """Sorted, indented JSON; numpy scalars are written as Python values.
    Serialized before any file is opened, so a failure leaves nothing behind."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_numpy_scalar) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_config(path) -> dict[str, str]:
    """Flat key=value file; blank lines and full-line #-comments ignored."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
