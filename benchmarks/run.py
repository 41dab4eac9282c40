#!/usr/bin/env python3
"""ctorsim benchmark: three workloads driven through the documented CLI.

    python3 benchmarks/run.py --workload fig2-grid --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20   # table of every workload

Every operation is an in-process call of `ctorsim.cli.main([...])` from one
thread; the program sees only the generated CLI arguments. With --trace 0 the
run times the calls and reports the end-to-end metrics. With --trace 1 it
runs the same calls untraced for half the time, replays them with every layer
binding wrapped (see tracer.py), and reports the per-layer metrics. Each run
checks every output (see workloads.py) and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. Details (run
manifest, CSV hashes, tail percentile, trace hygiene) go to a JSON file under
.bench_out/, and the span trace of a traced run to a CSV beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

from refkernel import NOMINAL_S, kernel_seconds
from workloads import WORKLOADS, OpRecord

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")  # relative to ROOT, the working directory of every run

# name, unit, better
E2E_METRICS = (
    ("trials_per_s", "1/s", "higher"),
    ("goodput_MBps", "MB/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

LAYER_METRICS = (
    ("censor.run_campaign.calls", "count", "lower"),
    ("censor.run_campaign.self_s", "s", "lower"),
    ("censor.fastpath_us_per_trial", "us", "lower"),
    ("censor.run_trial.calls", "count", "lower"),
    ("censor.run_trial.self_s", "s", "lower"),
    ("censor.pipeline_fraction", "fraction", "higher"),
    ("censor.select_bridges.calls", "count", "lower"),
    ("censor.select_bridges.s", "s", "lower"),
    ("onion.run_transfer.calls", "count", "lower"),
    ("onion.run_transfer.s", "s", "lower"),
    ("onion.run_transfer.self_s", "s", "lower"),
    ("onion.run_transfer.MBps", "MB/s", "higher"),
    ("onion.build_circuits.calls", "count", "lower"),
    ("onion.build_circuits.s", "s", "lower"),
    ("onion.transmit.calls", "count", "lower"),
    ("onion.transmit.s", "s", "lower"),
    ("onion.transmit.self_s", "s", "lower"),
    ("onion.wrap_layers.calls", "count", "lower"),
    ("onion.wrap_layers.s", "s", "lower"),
    ("onion.peel_layer.calls", "count", "lower"),
    ("onion.peel_layer.s", "s", "lower"),
    ("onion.cells_offered", "count", "lower"),
    ("onion.cells_delivered", "count", "higher"),
    ("codec.build_generator.calls", "count", "lower"),
    ("codec.build_generator.s", "s", "lower"),
    ("codec.encode_generation.calls", "count", "lower"),
    ("codec.encode_generation.s", "s", "lower"),
    ("codec.decode_systematic.calls", "count", "higher"),
    ("codec.decode_systematic.s", "s", "lower"),
    ("codec.decode_elimination.calls", "count", "lower"),
    ("codec.decode_elimination.s", "s", "lower"),
    ("codec.split_message.s", "s", "lower"),
    ("codec.reassemble_message.s", "s", "lower"),
    ("codec.unrecoverable", "count", "lower"),
    ("gf256.xor_bytes.calls", "count", "lower"),
    ("gf256.xor_bytes.s", "s", "lower"),
    ("gf256.xor_bytes.bytes", "B_computed", "lower"),
    ("gf256.scale_bytes.calls", "count", "lower"),
    ("gf256.scale_bytes.s", "s", "lower"),
    ("gf256.scale_bytes.bytes", "B_computed", "lower"),
    ("analytics.sweep.calls", "count", "lower"),
    ("analytics.sweep.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.self_gap_frac", "fraction", "lower"),
    ("trace.unfired_bindings", "count", "lower"),
)

SETUP_REPEATS = 11
THROUGHPUT_BATCHES = 8
KERNEL_NEIGHBOURS = 2  # a call is normalised by the kernel times of itself and this many calls each side
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
MAX_SELF_GAP = 0.02  # traced self times must cover the traced wall time this closely
HELD_OUT_OFFSET = 1_000_000  # held-out workload seed = seed + offset

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import ctorsim.cli\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from refkernel import kernel_seconds, reference_kernel\n"
    "reference_kernel()\n"
    "print(repr(t1 - t0), repr(kernel_seconds()))\n"
)


def fail(message: str) -> NoReturn:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def import_ctorsim():
    if not (SRC / "ctorsim" / "cli.py").is_file():
        fail(f"no ctorsim source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import ctorsim.cli

    if not Path(ctorsim.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported ctorsim from {ctorsim.cli.__file__}, not from {SRC}")
    return ctorsim.cli


def run_op(cli_main, workload, argv: list[str], call=None) -> OpRecord:
    """Run one CLI call with captured stdout, time it, and check its outputs."""
    workload.clear_outputs()
    stdout = io.StringIO()
    exc = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = call(argv) if call else cli_main(argv)
    except Exception as error:  # a raising operation is a failed operation, not a crashed run
        exc = error
    wall = time.perf_counter() - t0
    return workload.check(argv, rc, exc, stdout.getvalue(), wall)


def timed_ops(cli_main, workload, argvs, seconds: float | None = None, call=None) -> list[OpRecord]:
    """Run calls until `seconds` have passed (or argvs run out), timing the
    reference kernel between calls; each call gets the mean of the kernel
    times just before and just after it."""
    records = []
    start = time.perf_counter()
    before = kernel_seconds()
    for argv in argvs:
        record = run_op(cli_main, workload, argv, call)
        after = kernel_seconds()
        record.kernel_s = (before + after) / 2
        before = after
        records.append(record)
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return records


def normalised_walls(records: list[OpRecord]) -> list[float]:
    """Each call's wall time on a machine that runs the reference kernel in NOMINAL_S.

    The machine's speed around a call is the mean kernel time over the call
    and its KERNEL_NEIGHBOURS neighbours on each side, which evens out the
    noise of single kernel timings while still following drifts that last
    longer than a few calls.
    """
    kernels = [r.kernel_s for r in records]
    return [
        r.wall_s * NOMINAL_S / statistics.fmean(kernels[max(0, i - KERNEL_NEIGHBOURS) : i + KERNEL_NEIGHBOURS + 1])
        for i, r in enumerate(records)
    ]


def batch_rate(records: list[OpRecord], walls: list[float], attr: str) -> float:
    """Median over THROUGHPUT_BATCHES contiguous batches of (work done / time spent)."""
    count = min(THROUGHPUT_BATCHES, len(records))
    rates = []
    for b in range(count):
        chunk = slice(b * len(records) // count, (b + 1) * len(records) // count)
        rates.append(sum(getattr(r, attr) for r in records[chunk]) / sum(walls[chunk]))
    return statistics.median(rates)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and its value.

    With too few samples for that, the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """(import seconds, kernel seconds) for importing ctorsim, which builds its
    tables, in each of `repeats` fresh interpreters. Each interpreter times
    the reference kernel itself, after the import, since it may run on
    another CPU than this process."""
    values = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        import_s, kernel_s = done.stdout.split()
        values.append((float(import_s), float(kernel_s)))
    return values


def manifest(args, workload, held_out_seed: int) -> dict:
    git = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
            if head.returncode == 0:
                git = {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "ctorsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "git": git,
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": held_out_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "argv": sys.argv,
        "workload_config": workload.describe(),
    }


def expect_same_outputs(record: OpRecord, hashes: dict[str, str], what: str) -> None:
    """Fail every operation of a call whose output hashes differ from `hashes`
    of another call with the same argv."""
    if record.hashes != hashes and record.failed < record.attempted:
        record.notes.append(f"output hashes differ from {what}")
        record.failed = record.attempted


def check_fingerprints(workload_name: str, records: list[OpRecord]) -> None:
    """Compare each call's output hashes with those of earlier runs in this checkout."""
    store_path = OUT / "fingerprints.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    for record in records:
        key = workload_name + " " + " ".join(record.argv)
        expect_same_outputs(record, store.setdefault(key, record.hashes), "an earlier run")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, store_path)


def timing_metrics(records: list[OpRecord], walls: list[float], setup: list[float]) -> dict:
    latencies = [w * 1000 for w in walls]
    return {
        "trials_per_s": batch_rate(records, walls, "trials"),
        "goodput_MBps": batch_rate(records, walls, "checked_bytes") / 1e6,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail(latencies)[1],
        "setup_s": statistics.median(setup),
    }


def e2e_metrics(records: list[OpRecord], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    values = timing_metrics(records, normalised_walls(records), [s * NOMINAL_S / k for s, k in setup])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    percentile, _ = tail([r.wall_s for r in records])
    extra = {
        "latency_tail_percentile": percentile,
        "latency_samples": len(records),
        "wall_time_metrics": timing_metrics(records, [r.wall_s for r in records], [s for s, _ in setup]),
        "kernel_s_median": statistics.median(r.kernel_s for r in records),
        "setup_samples": [{"import_s": s, "kernel_s": k} for s, k in setup],
    }
    return values, extra


def layer_metrics(tracer, traced: list[OpRecord], untraced: list[OpRecord]) -> tuple[dict, dict]:
    totals = tracer.layer_totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name: str) -> dict:
        return totals.get(name, zero)

    counters = tracer.counters
    trials = counters["campaign_trials"]
    pipeline_trials = get("censor.run_trial")["calls"]
    fast_trials = trials - pipeline_trials
    campaign_self_s = get("censor.run_campaign")["self_s"]
    transfer_s = get("onion.run_transfer")["s"]
    traced_wall = sum(r.wall_s for r in traced)
    covered = sum(entry["self_s"] for entry in totals.values())
    values = {
        "censor.fastpath_us_per_trial": campaign_self_s / fast_trials * 1e6 if fast_trials else 0.0,
        "censor.pipeline_fraction": pipeline_trials / trials if trials else 0.0,
        "onion.run_transfer.MBps": counters["message_bytes"] / transfer_s / 1e6 if transfer_s else 0.0,
        "onion.cells_offered": counters["cells_offered"],
        "onion.cells_delivered": counters["cells_delivered"],
        "codec.unrecoverable": counters["unrecoverable"],
        "gf256.xor_bytes.bytes": tracer.leaf_bytes("gf256.xor_bytes"),
        "gf256.scale_bytes.bytes": tracer.leaf_bytes("gf256.scale_bytes"),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": sum(normalised_walls(traced)) / sum(normalised_walls(untraced)) - 1.0,
        "trace.self_gap_frac": 1.0 - covered / traced_wall,
        "trace.unfired_bindings": len(tracer.unfired()),
    }
    # the rest are <layer>.calls, <layer>.s and <layer>.self_s straight from the spans
    for name, _, _ in LAYER_METRICS:
        if name not in values:
            layer, _, stat = name.rpartition(".")
            values[name] = get(layer)[stat]
    extra = {
        "unfired_bindings": tracer.unfired(),
        "binding_fires": tracer.fired,
        "layers": totals,
        "spans": len(tracer.name),
        "untraced_wall_s": sum(r.wall_s for r in untraced),
    }
    return values, extra


def run_workload(args) -> int:
    cli = import_ctorsim()
    workload = WORKLOADS[args.workload](OUT / args.workload, tiny=args.tiny)
    held_out_seed = args.seed + HELD_OUT_OFFSET
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)

    # untimed: the gate's reference outputs, then one warm-up call that fills
    # default_registry's cache; the first timed call repeats it, so their
    # outputs must match
    workload.prepare(cli.main)
    info = manifest(args, workload, held_out_seed)
    argvs = workload.operations(args.seed)
    warm_up = run_op(cli.main, workload, next(argvs))
    held_out = run_op(cli.main, workload, next(workload.operations(held_out_seed)))
    kernel_seconds()  # the kernel's first runs are slow (cold bytecode), so keep them out of the timings

    argvs = workload.operations(args.seed)
    notes = []
    if args.trace:
        from tracer import Tracer

        untraced = timed_ops(cli.main, workload, argvs, args.seconds / 2)
        tracer = Tracer()
        calls = iter(range(len(untraced)))
        with tracer.installed():
            traced = timed_ops(
                cli.main, workload, [r.argv for r in untraced],
                call=lambda argv: tracer.call_root(cli.main, argv, f"call:{next(calls)}"),
            )
        for before, after in zip(untraced, traced):
            expect_same_outputs(after, before.hashes, "the untraced call")
        records = untraced + traced
        metrics, extra = layer_metrics(tracer, traced, untraced)
        trace_path = OUT / args.workload / "trace-spans.csv"
        tracer.write(trace_path)
        extra["trace_file"] = str(trace_path)
        if metrics["trace.self_gap_frac"] > MAX_SELF_GAP:
            notes.append(f"layer self times miss {metrics['trace.self_gap_frac']:.1%} of the traced wall time")
        defined = LAYER_METRICS
    else:
        records = timed_ops(cli.main, workload, argvs, args.seconds)
        setup = measure_setup(3 if args.tiny else SETUP_REPEATS)
        metrics, extra = e2e_metrics(records, setup)
        defined = E2E_METRICS

    expect_same_outputs(warm_up, records[0].hashes, "the first timed call")
    checked = [warm_up, held_out] + records
    check_fingerprints(args.workload, checked)
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    correct = failed == 0 and not notes
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in defined},
    }

    details = {
        "manifest": info,
        "result": result,
        "failed_frac": failed / attempted,
        "held_out": {"seed": held_out_seed, "attempted": held_out.attempted, "failed": held_out.failed},
        "notes": notes,
        **extra,
        "operations": [vars(r) for r in checked],
    }
    details_path = OUT / args.workload / f"seed-{args.seed}-trace{args.trace}.json"
    details_path.write_text(json.dumps(details, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, {len(records)} timed calls, "
          f"{attempted} operations attempted, {failed} failed")
    for name, unit, _ in defined:
        print(f"  {name:32s} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed / attempted:>14.6g} fraction")
    if "latency_tail_percentile" in extra:
        print(f"  latency tail is p{extra['latency_tail_percentile']:.2f} of {extra['latency_samples']} calls")
    for record in checked:
        for note in record.notes:
            print(f"  FAILED {' '.join(record.argv)}: {note}")
    for note in notes:
        print(f"  FAILED {note}")
    print(f"details: {details_path}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table of end-to-end metrics."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail(f"workload {name} exited with {done.returncode}")
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(WORKLOADS)
    print(f"{'metric':20s} {'unit':6s}" + "".join(f"{n:>18s}" for n in names))
    for metric, unit, _ in E2E_METRICS:
        print(f"{metric:20s} {unit:6s}" + "".join(f"{rows[n]['metrics'][metric]['value']:>18.6g}" for n in names))
    print(f"{'failed_frac':20s} {'':6s}" + "".join(f"{rows[n]['failed'] / rows[n]['attempted']:>18.6g}" for n in names))
    print(f"{'correct':20s} {'':6s}" + "".join(f"{str(rows[n]['correct']):>18s}" for n in names))
    return 0 if all(row["correct"] for row in rows.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny operation sizes, for the harness self-test")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
