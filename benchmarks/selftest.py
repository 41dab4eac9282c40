#!/usr/bin/env python3
"""Quick self-test of the benchmark harness at tiny sizes.

    python3 benchmarks/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics run.py
defines, then runs every workload with --tiny for one second, untraced and
traced, and checks each result line: exactly the keys correct, attempted,
failed and metrics; every metric BENCHMARK.json names, with its unit, and no
other; finite numbers; no failed operation. It repeats one run with the same
seed and compares output hashes, and checks that the harness refuses to
report from a directory holding only BENCHMARK.json and benchmarks/.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import E2E_METRICS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL {message}")


def check_benchmark_json() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys {sorted(spec)}",
    )
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads differ from run.py's")
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(E2E_METRICS),
        "BENCHMARK.json end_to_end differs from run.py's E2E_METRICS",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS),
        "BENCHMARK.json per_layer differs from run.py's LAYER_METRICS",
    )
    for metric in spec["end_to_end"]:
        expect(0 < metric["bound"] <= 0.25, f"bound of {metric['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s must carry the largest bound")
    return spec


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(spec: dict, workload: str, trace: int) -> dict:
    done = run(workload, trace)
    label = f"{workload} --trace {trace}"
    expect(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr[-500:]}")
    if done.returncode != 0:
        return {}
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == RESULT_KEYS, f"{label} result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0, f"{label} reported failures: {lines[-12:-1]}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label} attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    expect(set(got) == set(wanted), f"{label} metrics differ: {sorted(set(got) ^ set(wanted))}")
    for name, entry in got.items():
        expect(set(entry) == {"value", "unit"}, f"{label} {name} keys {sorted(entry)}")
        expect(entry.get("unit") == wanted.get(name), f"{label} {name} unit {entry.get('unit')}")
        value = entry.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{label} {name} value {value!r}")
    if not trace:
        for name in wanted:
            expect(got[name]["value"] > 0, f"{label} end-to-end metric {name} is not positive")
    details = next(line for line in lines if line.startswith("details: ")).removeprefix("details: ")
    return json.loads((ROOT / details).read_text())


def main() -> int:
    spec = check_benchmark_json()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(spec, workload, trace)
            print(f"ok {workload} --trace {trace}")

    # same seed, same outputs: the run's second pass must reproduce the first
    first = check_result(spec, "fig2-grid", 0)
    second = check_result(spec, "fig2-grid", 0)
    if first and second:
        pairs = list(zip(first["operations"], second["operations"]))
        expect(bool(pairs) and all(a["argv"] == b["argv"] and a["hashes"] == b["hashes"] for a, b in pairs),
               "fig2-grid output hashes differ between two runs with the same seed")
        print("ok same-seed output hashes")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run("e2e-bulk", 0, cwd=bare)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    expect(done.returncode != 0 and '"correct"' not in last[0],
           f"harness without a source tree exited {done.returncode} with {last[0]!r}")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without the program")

    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
