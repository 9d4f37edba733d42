"""The floors that pyproject.toml declares hold. Every Python source of the
package, its tests and its benchmark parses at the oldest Python declared, so
syntax newer than that floor (say, `except*` or PEP 695 generics) fails here on
any interpreter; and the CI workflow runs the suite on those floors."""

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


def test_ci_matrix_runs_the_declared_floors():
    # read as text: PyYAML is not a test dependency
    pyproject = (ROOT / "pyproject.toml").read_text()
    python = re.search(r'requires-python = ">=([\d.]+)"', pyproject)[1]
    numpy = re.search(r'"numpy>=([\d.]+)"', pyproject)[1]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    entry = rf'- python: "{re.escape(python)}"\n\s+numpy: "numpy=={re.escape(numpy)}\.\*"\n'
    assert re.search(entry, workflow), f"no matrix entry runs Python {python} with numpy=={numpy}.*"
