import pytest

from otlab import transformer_core as tc

_CRITERION_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Recorder for acceptance criteria: prints one PASS/FAIL line per
    criterion and repeats them in the terminal summary."""

    def record(num: int, name: str, ok: bool, detail: str) -> bool:
        line = f"{'PASS' if ok else 'FAIL'}  criterion {num:02d} [{name}] {detail}"
        _CRITERION_LINES.append(line)
        print(line)
        return ok

    return record


@pytest.fixture
def fused_steps(monkeypatch):
    """The fused layers run, one entry per layer: the shape of the state it
    stepped. Wraps each step function `transformer_core._fused_layers` makes."""
    steps = []
    make = tc._fused_layers

    def counted(Z, weights):
        step = make(Z, weights)

        def counted_step():
            steps.append(Z.shape)
            step()

        return counted_step

    monkeypatch.setattr(tc, "_fused_layers", counted)
    return steps


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)
