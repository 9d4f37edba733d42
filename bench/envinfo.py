"""The environment block recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

_BLAS_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
)


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    # ask the OpenBLAS that numpy loaded how many threads it will use
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:  # not Linux: report the version without the thread count
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                out["threads"] = query()
                return out
    return out


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30)

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    if sha.returncode != 0 or status.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def collect(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git": _git(root),
        "seed": seed,
    }
