"""The README's Library example runs as printed."""

from pathlib import Path

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
