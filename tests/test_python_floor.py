"""Every Python source of the package, its tests and its benchmark parses at
the oldest Python that pyproject.toml declares, so syntax newer than that
floor (say, `except*` or PEP 695 generics) fails here on any interpreter."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_parses_at_the_requires_python_floor():
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    version = (int(floor[1]), int(floor[2]))
    sources = sorted(p for top in ("src/otlab", "tests", "bench") for p in (ROOT / top).rglob("*.py"))
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
