"""Benchmark harness smoke test: each workload runs, checks out, and traces the
call-site bindings it is expected to.

The harness times layers by rebinding names that ctorsim modules import from
each other (see benchmarks/tracer.py), so a refactor that renames or stops
calling one of those bindings shows up here as a changed unfired list. No
timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

GRID_UNFIRED = ["cli.build_circuits", "cli.run_transfer", "cli.select_bridges", "gf256.xor_bytes"]
EXPECTED_UNFIRED = {
    "fig2-grid": GRID_UNFIRED,
    "crosscheck-grid": sorted(GRID_UNFIRED + ["cli.sweep"]),
    "e2e-bulk": [
        "censor.build_circuits",
        "censor.run_transfer",
        "censor.run_trial",
        "censor.select_bridges",
        "cli.run_campaign",
        "cli.select_bridges",
        "cli.sweep",
        "gf256.xor_bytes",
    ],
}


@pytest.mark.parametrize("workload", sorted(EXPECTED_UNFIRED))
def test_workload_runs_traced(workload):
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    details = next(line for line in lines if line.startswith("details: ")).removeprefix("details: ")
    assert json.loads((ROOT / details).read_text())["unfired_bindings"] == EXPECTED_UNFIRED[workload]
