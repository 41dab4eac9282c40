"""Batch experiment driver.

Subcommands:
  analytic   exact interruption-probability grid as CSV
  simulate   Monte Carlo estimate of the same grid as CSV
  e2e        one full transfer with a report and outcome exit code
  fig2       preset emitting both grid CSVs in one invocation

Configuration comes from defaults, an optional `key = value` file, and
command-line flags, in increasing precedence. All CSV output is plain
comma-separated text with a header row and newline line endings, ordered
deterministically, so identical (config, seed) runs are byte-identical.

Exit codes: 0 success, 1 usage or configuration error, 2 transfer
interrupted (e2e only), 3 resource guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .analytics import (
    DEFAULT_CONFIGS,
    DEFAULT_KNOWN_RANGE,
    DEFAULT_UNKNOWN,
    ResourceLimitError,
    SweepRow,
    sweep,
)
from .censor import (
    DEFAULT_FULL_PIPELINE_FRACTION,
    BridgePool,
    CensorScenario,
    derive_rng,
    derive_seed,
    run_campaign,
    select_bridges,
)
from .codec import CodeParams
from .onion import (
    DEFAULT_EXIT_POOL,
    DEFAULT_MIDDLE_POOL,
    RouterRegistry,
    Variant,
    build_circuits,
    run_transfer,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERRUPTED = 2
EXIT_RESOURCE = 3

_DEFAULTS = {
    "mb": DEFAULT_UNKNOWN,
    "mknown": DEFAULT_KNOWN_RANGE,
    "variant": DEFAULT_CONFIGS,
    "trials": 10000,
    "seed": 0,
    "out": "-",
    "full_pipeline_fraction": DEFAULT_FULL_PIPELINE_FRACTION,
    "middles": DEFAULT_MIDDLE_POOL,
    "exits": DEFAULT_EXIT_POOL,
}


@dataclass(frozen=True)
class ExperimentConfig:
    mb: int
    mknown: tuple[int, ...]
    variants: tuple[CodeParams, ...]
    trials: int
    seed: int
    out: str
    full_pipeline_fraction: float
    middles: int
    exits: int


def parse_variant_spec(text: str) -> CodeParams:
    """Parse 'otor', 'mtor:<n>', or 'ctor:<n>:<r>' into the code shape it names.

    'mtor:1' is the same shape as 'otor', and Variant.of names it otor.
    """
    parts = text.strip().lower().split(":")
    try:
        if parts == ["otor"]:
            return CodeParams(1, 1, 0)
        if parts[0] == "mtor" and len(parts) == 2:
            n = int(parts[1])
            return CodeParams(n, n, 0)
        if parts[0] == "ctor" and len(parts) == 3:
            n, r = int(parts[1]), int(parts[2])
            if not 1 <= r < n:
                raise ValueError
            return CodeParams(n, n - r, r)
        raise ValueError
    except ValueError:
        raise ValueError(
            f"bad variant spec {text!r}: expected otor | mtor:<n> | ctor:<n>:<r> with 1 <= r < n"
        ) from None


def _parse_mknown(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            lo_s, _, hi_s = text.partition("..")
            lo, hi = int(lo_s), int(hi_s)
            if lo < 0 or hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        value = int(text)
        if value < 0:
            raise ValueError
        return (value,)
    except ValueError:
        raise ValueError(f"bad --mknown {text!r}: expected N or A..B with 0 <= A <= B") from None


def _load_config_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    unknown = set(values) - set(_DEFAULTS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return values


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    file_values = _load_config_file(Path(args.config)) if getattr(args, "config", None) else {}

    def raw(name: str):
        value = getattr(args, name, None)
        if value is not None:
            return value
        return file_values.get(name, _DEFAULTS[name])

    # flags and file values are text; the defaults are already parsed
    mknown = raw("mknown")
    variants = raw("variant")
    if isinstance(variants, str):
        variants = [s for s in variants.split(",") if s.strip()]
    variants = tuple(parse_variant_spec(s) if isinstance(s, str) else s for s in variants)
    if not variants:
        raise ValueError("at least one variant is required")

    cfg = ExperimentConfig(
        mb=int(raw("mb")),
        mknown=_parse_mknown(mknown) if isinstance(mknown, str) else tuple(mknown),
        variants=variants,
        trials=int(raw("trials")),
        seed=int(raw("seed")),
        out=str(raw("out")),
        full_pipeline_fraction=float(raw("full_pipeline_fraction")),
        middles=int(raw("middles")),
        exits=int(raw("exits")),
    )
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.mb < 0:
        raise ValueError("--mb must be non-negative")
    if cfg.trials < 1:
        raise ValueError("--trials must be >= 1")
    if not 0.0 <= cfg.full_pipeline_fraction <= 1.0:
        raise ValueError("--full-pipeline-fraction must be in [0, 1]")
    if cfg.middles < 1 or cfg.exits < 1:
        raise ValueError("--middles and --exits must be >= 1")
    smallest_pool = cfg.mb + min(cfg.mknown)
    for params in cfg.variants:
        if params.n > smallest_pool:
            raise ValueError(
                f"n={params.n} circuits cannot select from the smallest grid pool of {smallest_pool} bridges"
            )


@contextmanager
def _open_out(out: str) -> Iterator[TextIO]:
    if out == "-":
        yield sys.stdout
    else:
        with open(out, "w", newline="") as fh:
            yield fh


def _write_analytic_csv(rows: Sequence[SweepRow], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["m_known", "variant", "n", "r", "p_exact_num", "p_exact_den", "p_float"])
    for row in rows:
        p, params = row.probability, row.params
        writer.writerow(
            [row.m_known, Variant.of(params).value, params.n, params.r, p.numerator, p.denominator, repr(float(p))]
        )


def _grid_points(cfg: ExperimentConfig) -> list[tuple[int, CodeParams]]:
    points = [(m_known, params) for m_known in cfg.mknown for params in cfg.variants]
    points.sort(key=lambda t: (t[0], Variant.of(t[1]).value, t[1].n))
    return points


def _write_simulated_csv(cfg: ExperimentConfig, fh: TextIO) -> None:
    if max(params.n for params in cfg.variants) > cfg.middles:
        raise ValueError("--middles must cover the largest n in the variant list")
    registry = RouterRegistry.build(cfg.middles, cfg.exits)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["m_known", "variant", "n", "r", "p_empirical", "ci95", "trials", "seed"])
    for m_known, params in _grid_points(cfg):
        scenario = CensorScenario(BridgePool.build(cfg.mb, m_known), params)
        variant, n, r = scenario.variant.value, params.n, params.r
        point_seed = derive_seed(cfg.seed, f"point:{m_known}:{variant}:{n}:{r}")
        result = run_campaign(
            scenario,
            cfg.trials,
            point_seed,
            full_pipeline_fraction=cfg.full_pipeline_fraction,
            registry=registry,
        )
        writer.writerow(
            [m_known, variant, n, r, repr(result.p_empirical), repr(result.ci95), cfg.trials, cfg.seed]
        )


def cmd_analytic(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    rows = sweep(cfg.mb, cfg.mknown, cfg.variants)
    with _open_out(cfg.out) as fh:
        _write_analytic_csv(rows, fh)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    with _open_out(cfg.out) as fh:
        _write_simulated_csv(cfg, fh)
    return EXIT_OK


def cmd_fig2(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out_dir = Path("." if cfg.out == "-" else cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    analytic_path = out_dir / "fig2_analytic.csv"
    simulated_path = out_dir / "fig2_simulated.csv"
    rows = sweep(cfg.mb, cfg.mknown, cfg.variants)
    with open(analytic_path, "w", newline="") as fh:
        _write_analytic_csv(rows, fh)
    with open(simulated_path, "w", newline="") as fh:
        _write_simulated_csv(cfg, fh)
    print(f"wrote {analytic_path}")
    print(f"wrote {simulated_path}")
    return EXIT_OK


def _parse_block_list(text: str | None, n: int) -> list[int]:
    if not text:
        return ()
    try:
        indices = sorted({int(part) for part in text.split(",")})
    except ValueError:
        raise ValueError(f"bad --block {text!r}: expected comma-separated circuit indices") from None
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"--block index {i} outside 0..{n - 1}")
    return indices


def cmd_e2e(args: argparse.Namespace) -> int:
    specs = args.variant or ["ctor:4:1"]
    if len(specs) != 1:
        raise ValueError("e2e takes exactly one --variant")
    params = parse_variant_spec(specs[0])
    seed = args.seed if args.seed is not None else _DEFAULTS["seed"]
    middles = args.middles if args.middles is not None else _DEFAULTS["middles"]
    exits = args.exits if args.exits is not None else _DEFAULTS["exits"]
    if params.n > middles:
        raise ValueError(f"n={params.n} circuits need at least {params.n} middle relays")

    if args.message_file is not None and args.message_size is not None:
        raise ValueError("--message-file and --message-size are mutually exclusive")
    if args.message_file is not None:
        message = Path(args.message_file).read_bytes()
        if not message:
            raise ValueError(f"{args.message_file} is empty")
    else:
        size = args.message_size if args.message_size is not None else 4096
        if size < 1:
            raise ValueError("--message-size must be >= 1")
        message = hashlib.shake_256(f"e2e-message:{seed}".encode()).digest(size)

    if args.block is not None and args.scenario_seed is not None:
        raise ValueError("--block and --scenario-seed are mutually exclusive")

    if args.scenario_seed is not None:
        mb = args.mb if args.mb is not None else _DEFAULTS["mb"]
        if args.mknown is None:
            raise ValueError("--scenario-seed needs a single --mknown value")
        mknown_values = _parse_mknown(args.mknown)
        if len(mknown_values) != 1:
            raise ValueError("--scenario-seed needs a single --mknown value, not a range")
        pool = BridgePool.build(mb, mknown_values[0])
        bridges = select_bridges(pool, params.n, derive_rng(args.scenario_seed, "bridge-selection"))
        blocked = [i for i, b in enumerate(bridges) if b in pool.known]
    else:
        bridges = [f"bridge-{i:02d}" for i in range(params.n)]
        blocked = _parse_block_list(args.block, params.n)

    registry = RouterRegistry.build(middles, exits)
    circuits = build_circuits(bridges, registry, derive_rng(seed, "circuit-construction"))
    result = run_transfer(circuits, params, message, blocked)

    print(f"variant: {Variant.of(params).value} (n={params.n}, k={params.k}, r={params.r})")
    if args.scenario_seed is not None:
        known_chosen = sorted(bridges[i] for i in blocked)
        print(f"bridges: {', '.join(bridges)}")
        print(f"censor-known among them: {known_chosen if known_chosen else 'none'}")
    print(f"blocked circuits: {list(blocked) if blocked else 'none'}")
    print(f"message: {len(message)} bytes in {len(result.delivered_counts)} generation(s)")
    for gid, delivered in enumerate(result.delivered_counts):
        status = "unrecoverable" if gid in result.failed_generations else "decoded"
        print(f"generation {gid}: delivered {delivered}/{params.n} coded cells, {status}")
    if result.success:
        print(f"reassembled {len(result.data)} bytes, byte-identical: yes")
        print("outcome: SUCCESS")
        return EXIT_OK
    print("outcome: INTERRUPTED")
    return EXIT_INTERRUPTED


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, matching the documented code map
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    known = DEFAULT_KNOWN_RANGE
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mb", type=int, help=f"bridges unknown to the censor (default {DEFAULT_UNKNOWN})")
    common.add_argument(
        "--mknown",
        metavar="N|A..B",
        help=f"censor-known bridge count, single or range (default {known.start}..{known.stop - 1})",
    )
    common.add_argument(
        "--variant",
        action="append",
        metavar="SPEC",
        help="otor | mtor:<n> | ctor:<n>:<r>, repeatable (default: the standard curve set)",
    )
    common.add_argument("--middles", type=int, help=f"middle relay pool size (default {DEFAULT_MIDDLE_POOL})")
    common.add_argument("--exits", type=int, help=f"exit relay pool size (default {DEFAULT_EXIT_POOL})")

    # the grid commands only; e2e rejects both
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--config", metavar="FILE", help="key = value config file; explicit flags win")
    grid.add_argument("--out", metavar="PATH", help="output file, '-' for stdout (fig2: output directory)")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="master seed (default 0)")

    monte = argparse.ArgumentParser(add_help=False)
    monte.add_argument("--trials", type=int, help="Monte Carlo trials per grid point (default 10000)")
    monte.add_argument(
        "--full-pipeline-fraction",
        type=float,
        dest="full_pipeline_fraction",
        help=f"fraction of trials running the byte pipeline (default {DEFAULT_FULL_PIPELINE_FRACTION})",
    )

    parser = _Parser(prog="ctorsim", description="bridge-blocking resilience experiments")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analytic", parents=[common, grid], help="exact probability grid as CSV")
    p.set_defaults(handler=cmd_analytic)
    p = sub.add_parser("simulate", parents=[common, grid, seeded, monte], help="Monte Carlo grid as CSV")
    p.set_defaults(handler=cmd_simulate)
    p = sub.add_parser("fig2", parents=[common, grid, seeded, monte], help="emit analytic and simulated CSVs together")
    p.set_defaults(handler=cmd_fig2)
    p = sub.add_parser("e2e", parents=[common, seeded], help="run one transfer end to end")
    p.add_argument("--message-file", metavar="FILE", help="payload to send")
    p.add_argument("--message-size", type=int, metavar="N", help="generate an N-byte payload (default 4096)")
    p.add_argument("--block", metavar="I,J,...", help="circuit indices to block explicitly")
    p.add_argument("--scenario-seed", type=int, dest="scenario_seed", help="sample bridges from a pool instead of --block")
    p.set_defaults(handler=cmd_e2e)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
