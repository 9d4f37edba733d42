"""Self-test of the benchmark's output checks: they must be able to fail.

    python3 bench/selftest.py

Runs each workload briefly twice: once on the real program, where no
operation may fail, and once with every weight construction replaced by one
whose first head has its value map negated (`run.py --inject-fault`, the
fault `checks._flip_first_value_sign` injects). With the fault, every
operation of sort-batch and forward-deep must fail its check (fail_share 1)
and oracle-suite must report a FAIL from `otlab verify`. Exits 1 otherwise.
src/otlab is not modified; the fault is swapped in from the worker process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, *extra: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", "0", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def main() -> int:
    ok = True
    for workload in ("sort-batch", "forward-deep", "oracle-suite"):
        _, clean = _run(workload)
        report, faulty = _run(workload, "--inject-fault")
        share = faulty["failed"] / faulty["attempted"]
        checks = [
            (clean["failed"] == 0 and clean["correct"], f"clean run: {clean['failed']}/{clean['attempted']} failed"),
            (share == 1.0 and not faulty["correct"], f"fault injected: fail_share {share:.2f}"),
        ]
        if workload == "oracle-suite":
            notes = report["failure_notes"]
            checks.append((any("FAIL" in note for note in notes), f"verify reports a FAIL: {notes[:1]}"))
        for passed, detail in checks:
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'}  {workload}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
