"""Deterministic file formats: matrix CSV, 8-bit PGM heatmaps and JSON records."""

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
            fh.write(",".join(map(repr, row.tolist())) + "\n")


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
            fh.write(" ".join(map(str, row.tolist())) + "\n")


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

