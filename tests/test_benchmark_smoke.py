"""Benchmark harness smoke test: each workload runs, checks out, and traces the
call-site bindings it is expected to.

The harness times layers by rebinding names that ctorsim modules import from
each other (see benchmarks/tracer.py), so a refactor that renames or stops
calling one of those bindings shows up here as a changed unfired list. No
timing is asserted.
"""

import ast
import importlib
import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ctorsim import censor, onion
from ctorsim.codec import CELL_SIZE, CodeParams, Generation, UnrecoverableGeneration, build_generator, encode_generation
from ctorsim.onion import CodedMessage, build_circuits

ROOT = Path(__file__).resolve().parent.parent

# onion layers XOR as ints, so onion.xor_bytes never fires; onion codes and
# decodes a message in one batch, so the per-generation onion.encode_generation
# and onion.decode_generation never fire; on the grids the untimed warm-up call
# fills censor's per-shape trial cells, so the traced calls never encode
GRID_UNFIRED = [
    "cli.build_circuits",
    "cli.run_transfer",
    "cli.select_bridges",
    "gf256.xor_bytes",
    "onion.build_generator",
    "onion.decode_generation",
    "onion.encode_generation",
    "onion.split_message",
    "onion.xor_bytes",
]
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
        "onion.decode_generation",
        "onion.encode_generation",
        "onion.xor_bytes",
    ],
}


def assigned_value(path: Path, name: str) -> ast.expr:
    """The expression a module assigns to `name` at top level, read without importing it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def test_benchmark_json_names_what_the_harness_defines():
    # the static half of benchmarks/selftest.py: workload, metric and unit
    # names in BENCHMARK.json against run.py and workloads.py
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_py, workloads_py = ROOT / "benchmarks" / "run.py", ROOT / "benchmarks" / "workloads.py"
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    workloads = assigned_value(workloads_py, "WORKLOADS")
    assert [w["name"] for w in spec["workloads"]] == [ast.literal_eval(key) for key in workloads.keys]
    for section, name in (("end_to_end", "E2E_METRICS"), ("per_layer", "LAYER_METRICS")):
        defined = ast.literal_eval(assigned_value(run_py, name))
        assert [(m["name"], m["unit"], m["better"]) for m in spec[section]] == list(defined), section
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_binding_exists():
    # Tracer.installed looks up each binding with getattr, so one missing
    # name would crash every traced run before it starts
    tracer = load_tracer()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.SPAN_BINDINGS + tracer.LEAF_BINDINGS
        if not hasattr(importlib.import_module(f"ctorsim.{module}"), attr)
    ]
    assert missing == []


def test_tracer_counts_one_coded_transfer():
    # the tracer iterates the CodedMessage that transmit gets and takes the
    # len of run_transfer's third argument; a change to either shape would
    # otherwise show only in the subprocess runs below
    params = CodeParams(4, 3, 1)
    message = random.Random(40).randbytes(3000)
    coded = CodedMessage(params, message)
    circuits = build_circuits([f"b{i}" for i in range(params.n)], random.Random(41))
    tracer = load_tracer().Tracer()
    with tracer.installed():
        result = censor.run_transfer(circuits, coded, message, {2})
    assert result.success
    generations = len(coded.cells[0])
    assert generations > 1
    assert tracer.counters["cells_offered"] == params.n * generations
    assert tracer.counters["cells_delivered"] == (params.n - 1) * generations
    assert tracer.counters["message_bytes"] == len(message)
    # one wrap and three peels per surviving circuit, each through its module binding
    assert tracer.fired["onion.wrap_layers"] == 3
    assert tracer.fired["onion.peel_layer"] == 9


def test_tracer_counts_an_unrecoverable_generation():
    # the tracer's decode wrapper catches UnrecoverableGeneration by class and
    # raises it on, so the caller still gets the class with its message
    params = CodeParams(3, 2, 1)
    generation = Generation(4, (bytes(CELL_SIZE), random.Random(42).randbytes(CELL_SIZE)))
    parity = encode_generation(generation, build_generator(params))[2]
    tracer = load_tracer().Tracer()
    with tracer.installed():
        with pytest.raises(UnrecoverableGeneration, match=r"^generation 4 cannot be recovered \(2 cells received\)$"):
            onion.decode_generation([parity, parity], params)
    assert tracer.counters["unrecoverable"] == 1


@pytest.mark.parametrize("workload", sorted(EXPECTED_UNFIRED))
def test_workload_runs_traced(workload, tmp_path):
    # the harness runs from a bare copy of what it reads, so the outputs and
    # fingerprints that the checkout's own runs left in .bench_out/ play no part
    for tree in ("src", "benchmarks"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    details = next(line for line in lines if line.startswith("details: ")).removeprefix("details: ")
    assert json.loads((tmp_path / details).read_text())["unfired_bindings"] == EXPECTED_UNFIRED[workload]
