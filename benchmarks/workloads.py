"""The benchmark's workloads: the CLI calls each one makes and the check on each call's output.

An operation, for counting attempts and failures, is a grid point on the
grid workloads and a transfer on e2e-bulk.

- A grid point fails if it raises (ConsistencyError included) or if its
  simulated interruption count is implausible under the exact probability
  `ctorsim analytic` gives for the same point: an exact two-sided binomial
  tail below GATE_P_VALUE. At exact p = 0 or 1 any deviation fails.
- A transfer fails if its exit code disagrees with the blocked-count rule,
  if its report names other blocked circuits than were asked for, or if a
  surviving transfer's report lacks "byte-identical: yes".

Inputs come only from the workload seed: the same seed gives the same
sequence of CLI argument lists.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

GATE_P_VALUE = 1e-9
TRIAL_MESSAGE_BYTES = 1024  # the fixed payload censor.run_trial sends on each pipeline trial
TINY_GRID = ["--mknown", "0..2"]


@dataclass
class OpRecord:
    """One CLI call: its arguments, wall time, the outcome of its check and its output hashes."""

    argv: list[str]
    wall_s: float
    attempted: int  # grid points or transfers
    failed: int
    trials: int  # grid trials, or 1 per transfer
    checked_bytes: int  # message bytes the byte pipeline carried and the check covered
    hashes: dict[str, str]
    notes: list[str] = field(default_factory=list)
    kernel_s: float = 0.0  # reference kernel time around the call (see refkernel.py)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def binomial_two_sided(x: int, n: int, p: float) -> float:
    """Exact two-sided binomial p-value: twice the smaller tail at x, capped at 1."""
    if p <= 0.0:
        return 1.0 if x == 0 else 0.0
    if p >= 1.0:
        return 1.0 if x == n else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(n + 1)

    def pmf(k: int) -> float:
        return math.exp(base - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)

    # walk from x away from the mean; terms shrink geometrically out there
    ks = range(x, -1, -1) if x <= n * p else range(x, n + 1)
    total = 0.0
    for k in ks:
        term = pmf(k)
        total += term
        if term < total * 1e-17:
            break
    return min(1.0, 2.0 * total)


class GridWorkload:
    """A campaign grid: every call covers every point of the grid."""

    command: str
    trials: int
    tiny_trials: int
    pipeline_fraction: float

    def __init__(self, out_dir: Path, *, tiny: bool):
        self.out_dir = out_dir
        self.grid_flags = TINY_GRID if tiny else []
        self.trials = self.tiny_trials if tiny else self.trials
        self.reference: list[tuple[tuple[str, ...], Fraction]] = []
        self.reference_hash = ""

    def describe(self) -> dict:
        return {
            "command": self.command,
            "grid_flags": self.grid_flags,
            "trials_per_point": self.trials,
            "full_pipeline_fraction": self.pipeline_fraction,
            "points": len(self.reference),
        }

    def prepare(self, cli_main) -> None:
        """Compute the exact grid the gate compares against, with `ctorsim analytic`."""
        path = self.out_dir / "reference_analytic.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["analytic", *self.grid_flags, "--out", str(path)])
        if rc != 0:
            raise RuntimeError(f"ctorsim analytic exited with {rc}")
        self.reference_hash = sha256_file(path)
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["m_known"], row["variant"], row["n"], row["r"])
                self.reference.append((key, Fraction(int(row["p_exact_num"]), int(row["p_exact_den"]))))

    def operations(self, seed: int):
        rng = random.Random(f"{type(self).__name__}:{seed}")
        while True:
            yield self.argv(rng.randrange(2**31))

    def simulated_path(self) -> Path:
        raise NotImplementedError

    def output_paths(self) -> list[Path]:
        raise NotImplementedError

    def argv(self, cli_seed: int) -> list[str]:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        for path in self.output_paths():
            path.unlink(missing_ok=True)

    def check(self, argv, rc, exc, stdout: str, wall: float) -> OpRecord:
        hashes = {p.name: sha256_file(p) for p in self.output_paths() if p.is_file()}
        notes: list[str] = []
        failed = 0
        rows = []
        if self.simulated_path().is_file():
            with open(self.simulated_path(), newline="") as fh:
                rows = list(csv.DictReader(fh))
        for (key, p_exact), row in zip(self.reference, rows):
            got = (row["m_known"], row["variant"], row["n"], row["r"])
            trials = int(row["trials"])
            count = round(float(row["p_empirical"]) * trials)
            if got != key or trials != self.trials:
                failed += 1
                notes.append(f"point {got} with {trials} trials where {key} with {self.trials} was due")
            elif binomial_two_sided(count, trials, float(p_exact)) < GATE_P_VALUE:
                failed += 1
                notes.append(f"point {key}: {count}/{trials} interrupted is implausible at exact p={float(p_exact)!r}")
        attempted = min(len(rows), len(self.reference))
        if exc is not None:
            attempted += 1
            failed += 1
            notes.append(f"raised {type(exc).__name__}: {exc}")
        elif rc != 0 or attempted < len(self.reference):
            missing = len(self.reference) - attempted
            attempted += missing
            failed += missing
            notes.append(f"exit code {rc} with {missing} of {len(self.reference)} points missing")
        analytic = hashes.get("fig2_analytic.csv")
        if analytic is not None and analytic != self.reference_hash:
            failed = attempted
            notes.append("fig2_analytic.csv differs from `ctorsim analytic` on the same grid")
        completed = attempted - (1 if exc is not None else 0)
        return OpRecord(
            argv=list(argv),
            wall_s=wall,
            attempted=attempted,
            failed=min(failed, attempted),
            trials=completed * self.trials,
            checked_bytes=round(completed * self.trials * self.pipeline_fraction) * TRIAL_MESSAGE_BYTES,
            hashes=hashes,
            notes=notes,
        )


class Fig2Grid(GridWorkload):
    """`ctorsim fig2` on the default grid with the default 1% cross-check."""

    command = "fig2"
    trials = 100  # a multiple of 100, so the 1% cross-check runs exactly 1% of trials
    tiny_trials = 100
    pipeline_fraction = 0.01

    def simulated_path(self) -> Path:
        return self.out_dir / "fig2" / "fig2_simulated.csv"

    def output_paths(self) -> list[Path]:
        return [self.out_dir / "fig2" / "fig2_analytic.csv", self.simulated_path()]

    def argv(self, cli_seed: int) -> list[str]:
        return ["fig2", *self.grid_flags, "--trials", str(self.trials), "--seed", str(cli_seed),
                "--out", str(self.out_dir / "fig2")]


class CrosscheckGrid(GridWorkload):
    """`ctorsim simulate` on the default grid with every trial through the byte pipeline."""

    command = "simulate"
    trials = 3
    tiny_trials = 2
    pipeline_fraction = 1.0

    def simulated_path(self) -> Path:
        return self.out_dir / "simulated.csv"

    def output_paths(self) -> list[Path]:
        return [self.simulated_path()]

    def argv(self, cli_seed: int) -> list[str]:
        return ["simulate", *self.grid_flags, "--trials", str(self.trials), "--seed", str(cli_seed),
                "--full-pipeline-fraction", "1", "--out", str(self.simulated_path())]


class E2EBulk:
    """Repeated bulk `ctorsim e2e` transfers over ctor:10:4 with seeded block sets."""

    n, r = 10, 4
    message_size = 262144
    tiny_message_size = 16384

    def __init__(self, out_dir: Path, *, tiny: bool):
        self.out_dir = out_dir
        if tiny:
            self.message_size = self.tiny_message_size

    def describe(self) -> dict:
        return {"command": "e2e", "variant": f"ctor:{self.n}:{self.r}", "message_size": self.message_size,
                "blocked_per_transfer": f"0..{self.r}, uniform count, indices uniform"}

    def prepare(self, cli_main) -> None:
        pass

    def operations(self, seed: int):
        rng = random.Random(f"{type(self).__name__}:{seed}")
        while True:
            cli_seed = rng.randrange(2**31)
            blocked = sorted(rng.sample(range(self.n), rng.randint(0, self.r)))
            argv = ["e2e", "--variant", f"ctor:{self.n}:{self.r}", "--message-size", str(self.message_size),
                    "--seed", str(cli_seed)]
            if blocked:
                argv += ["--block", ",".join(map(str, blocked))]
            yield argv

    def clear_outputs(self) -> None:
        pass

    def check(self, argv, rc, exc, stdout: str, wall: float) -> OpRecord:
        blocked = [int(i) for i in argv[argv.index("--block") + 1].split(",")] if "--block" in argv else []
        survives = len(blocked) <= self.r
        lines = stdout.splitlines()
        notes = []
        if exc is not None:
            notes.append(f"raised {type(exc).__name__}: {exc}")
        elif rc != (0 if survives else 2):
            notes.append(f"exit code {rc} with {len(blocked)} of {self.n} circuits blocked, r={self.r}")
        elif f"blocked circuits: {blocked if blocked else 'none'}" not in lines:
            notes.append("report names other blocked circuits than were requested")
        elif survives and f"reassembled {self.message_size} bytes, byte-identical: yes" not in lines:
            notes.append("report lacks 'byte-identical: yes'")
        ok = not notes
        return OpRecord(
            argv=list(argv),
            wall_s=wall,
            attempted=1,
            failed=0 if ok else 1,
            trials=1,
            checked_bytes=self.message_size if ok and survives else 0,
            hashes={"report": hashlib.sha256(stdout.encode()).hexdigest()},
            notes=notes,
        )


WORKLOADS = {
    "fig2-grid": Fig2Grid,
    "crosscheck-grid": CrosscheckGrid,
    "e2e-bulk": E2EBulk,
}
