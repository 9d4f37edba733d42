"""The README's Library example and command lines run as printed."""

import shlex
from pathlib import Path

from otlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library") :]
    start = section.index("```python\n") + len("```python\n")
    code = section[start : section.index("```", start)]
    exec(compile(code, str(README), "exec"), {})
    plan_gap, log_kernel_gap, descent_error = (float(t) for t in capsys.readouterr().out.split())
    # the forward pass reached the reference plan, and its duals the reference duals
    assert plan_gap < 1e-6 and log_kernel_gap < 1e-5
    assert 0.0 <= descent_error < 0.25


def test_readme_command_lines_run(tmp_path, monkeypatch):
    """Every `otlab ...` line of the Command line section parses and runs."""
    text = README.read_text()
    section = text[text.index("## Command line") : text.index("## Library")]
    blocks = [block.split("```")[0] for block in section.split("```sh\n")[1:]]
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("otlab ")]
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == (2 if "--flip-sign" in argv else 0), line
