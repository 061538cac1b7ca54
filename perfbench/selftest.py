"""Self-test of the benchmark itself (not of repro).

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload it runs the traced pass twice at seed 1 and
asserts that both are correct and that every counter (unit ``count``
or ``B``) is identical, so a later change can cite those counts
exactly.  It also runs each untraced workload once, and checks that
``run.py`` fails without printing a result in a directory that holds
only ``BENCHMARK.json`` and this directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "study", "live")
EXACT_UNITS = ("count", "B")
SEED = 1
SECONDS = 2


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result(process: subprocess.CompletedProcess) -> dict:
    if process.returncode != 0:
        raise AssertionError(f"run.py exited {process.returncode}:\n"
                             f"{process.stderr}")
    return json.loads(process.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        plain = result(run(ROOT, workload, 0))
        if not plain["correct"]:
            problems.append(f"{workload}: untraced run incorrect")
        first, second = (
            result(run(ROOT, workload, 1))
            for _ in range(2)
        )
        for traced in (first, second):
            if not traced["correct"]:
                problems.append(f"{workload}: traced run incorrect")
        for name, metric in first["metrics"].items():
            if metric["unit"] not in EXACT_UNITS:
                continue
            again = second["metrics"][name]["value"]
            if metric["value"] != again:
                problems.append(f"{workload}: {name} {metric['value']} "
                                f"then {again}")
        print(f"{workload}: counters "
              + ", ".join(f"{name}={metric['value']}"
                          for name, metric in first["metrics"].items()
                          if metric["unit"] in EXACT_UNITS))

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        process = run(bare, "scan", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if process.returncode == 0 or process.stdout.strip():
        problems.append("run.py printed a result without the sources")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
