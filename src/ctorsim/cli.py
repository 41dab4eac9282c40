"""Batch experiment driver.

Subcommands:
  analytic   exact interruption-probability grid as CSV
  simulate   Monte Carlo estimate of the same grid as CSV
  e2e        one full transfer with a report and outcome exit code
  fig2       preset emitting both grid CSVs in one invocation

Configuration comes from defaults, an optional `key = value` file (each
key at most once), and command-line flags, in increasing precedence. Each option has one default
and one parser (ExperimentConfig), which reads flag and file text alike.
Every check runs before any output is opened, so a rejected run leaves
existing outputs alone. e2e takes --mb and --mknown only with
--scenario-seed. All CSV output is plain
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
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .analytics import (
    DEFAULT_CONFIGS,
    DEFAULT_KNOWN_RANGE,
    DEFAULT_UNKNOWN,
    ResourceLimitError,
    SweepRow,
    grid_points,
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

_VARIANT_FORMS = "otor | mtor:<n> | ctor:<n>:<r> with 1 <= r < n"


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
        raise ValueError(f"bad variant spec {text!r}: expected {_VARIANT_FORMS}") from None


def _parse_mknown(text: str) -> tuple[int, ...]:
    lo_s, dots, hi_s = text.partition("..")
    lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    if not 0 <= lo <= hi:
        raise ValueError
    return tuple(range(lo, hi + 1))


def _option(default, parse, expects: str = "", *, repeatable: bool = False):
    """A field with its default and the parser of its flag and file text. A repeatable
    option is a repeated flag or a comma list in the file; its value is the parsed items."""
    return field(default=default, metadata={"parse": parse, "expects": expects, "repeatable": repeatable})


@dataclass(frozen=True)
class ExperimentConfig:
    """The options of every command, by config-file key (the flag is --key with '-' for '_')."""

    mb: int = _option(DEFAULT_UNKNOWN, int, "an integer")
    mknown: tuple[int, ...] = _option(tuple(DEFAULT_KNOWN_RANGE), _parse_mknown, "N or A..B with 0 <= A <= B")
    variant: tuple[CodeParams, ...] = _option(DEFAULT_CONFIGS, parse_variant_spec, _VARIANT_FORMS, repeatable=True)
    trials: int = _option(10000, int, "an integer")
    seed: int = _option(0, int, "an integer")
    out: str = _option("-", str)
    full_pipeline_fraction: float = _option(DEFAULT_FULL_PIPELINE_FRACTION, float, "a number")
    middles: int = _option(DEFAULT_MIDDLE_POOL, int, "an integer")
    exits: int = _option(DEFAULT_EXIT_POOL, int, "an integer")


_OPTIONS = {opt.name: opt for opt in fields(ExperimentConfig)}
# e2e runs one transfer, so its default is one variant rather than the curve set
_E2E_VARIANT = "ctor:4:1"
_E2E_DEFAULTS = ExperimentConfig(variant=(parse_variant_spec(_E2E_VARIANT),))


def _load_config_file(path: Path) -> dict[str, str | list[str]]:
    """Option texts by key, shaped as the flags give them: a list of items for
    a repeatable option, one string otherwise."""
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    values: dict[str, str | list[str]] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    unknown = set(values) - set(_OPTIONS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    for key in values:
        if _OPTIONS[key].metadata["repeatable"]:
            values[key] = [item for item in values[key].split(",") if item.strip()]
    return values


def _parse_option(opt: Field, text: str, where: str):
    try:
        return opt.metadata["parse"](text)
    except ValueError:
        raise ValueError(f"{where} {text!r}: expected {opt.metadata['expects']}") from None


def _resolve_config(args: argparse.Namespace, defaults: ExperimentConfig = ExperimentConfig()) -> ExperimentConfig:
    """Flags win over the config file and the file over `defaults`; the scalar checks run here."""
    path = getattr(args, "config", None)
    file_values = _load_config_file(Path(path)) if path else {}
    values = {}
    for name, opt in _OPTIONS.items():
        if getattr(args, name, None) is not None:
            text, where = getattr(args, name), "bad --" + name.replace("_", "-")
        elif name in file_values:
            text, where = file_values[name], f"{path}: bad {name}"
        else:
            continue
        if opt.metadata["repeatable"]:
            values[name] = tuple(_parse_option(opt, item, where) for item in text)
        else:
            values[name] = _parse_option(opt, text, where)
    cfg = replace(defaults, **values)
    if cfg.mb < 0:
        raise ValueError("--mb must be non-negative")
    if not cfg.variant:
        raise ValueError("at least one variant is required")
    if cfg.trials < 1:
        raise ValueError("--trials must be >= 1")
    if not 0.0 <= cfg.full_pipeline_fraction <= 1.0:
        raise ValueError("--full-pipeline-fraction must be in [0, 1]")
    if cfg.middles < 1 or cfg.exits < 1:
        raise ValueError("--middles and --exits must be >= 1")
    return cfg


def _grid_config(args: argparse.Namespace) -> ExperimentConfig:
    """The resolved config of a grid command, whose every point must be able to select its n bridges."""
    cfg = _resolve_config(args)
    largest_n = max(params.n for params in cfg.variant)
    smallest_pool = cfg.mb + min(cfg.mknown)
    if largest_n > smallest_pool:
        raise ValueError(
            f"n={largest_n} circuits cannot select from the smallest grid pool of {smallest_pool} bridges"
        )
    return cfg


def _registry(cfg: ExperimentConfig) -> RouterRegistry:
    """The relay pools for circuit sets of every configured variant, which need n distinct middles each."""
    largest_n = max(params.n for params in cfg.variant)
    if largest_n > cfg.middles:
        raise ValueError(
            f"n={largest_n} circuits need at least {largest_n} middle relays, got --middles {cfg.middles}"
        )
    return RouterRegistry.build(cfg.middles, cfg.exits)


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


def _write_simulated_csv(cfg: ExperimentConfig, registry: RouterRegistry, fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["m_known", "variant", "n", "r", "p_empirical", "ci95", "trials", "seed"])
    for m_known, params in grid_points(cfg.mknown, cfg.variant):
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
    cfg = _grid_config(args)
    rows = sweep(cfg.mb, cfg.mknown, cfg.variant)
    with _open_out(cfg.out) as fh:
        _write_analytic_csv(rows, fh)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _grid_config(args)
    registry = _registry(cfg)
    with _open_out(cfg.out) as fh:
        _write_simulated_csv(cfg, registry, fh)
    return EXIT_OK


def cmd_fig2(args: argparse.Namespace) -> int:
    cfg = _grid_config(args)
    registry = _registry(cfg)
    rows = sweep(cfg.mb, cfg.mknown, cfg.variant)
    out_dir = Path("." if cfg.out == "-" else cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    analytic_path = out_dir / "fig2_analytic.csv"
    simulated_path = out_dir / "fig2_simulated.csv"
    with open(analytic_path, "w", newline="") as fh:
        _write_analytic_csv(rows, fh)
    with open(simulated_path, "w", newline="") as fh:
        _write_simulated_csv(cfg, registry, fh)
    print(f"wrote {analytic_path}")
    print(f"wrote {simulated_path}")
    return EXIT_OK


def _parse_block_list(text: str | None, n: int) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        indices = tuple(sorted({int(part) for part in text.split(",")}))
    except ValueError:
        raise ValueError(f"bad --block {text!r}: expected comma-separated circuit indices") from None
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"--block index {i} outside 0..{n - 1}")
    return indices


def cmd_e2e(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, _E2E_DEFAULTS)
    if len(cfg.variant) != 1:
        raise ValueError("e2e takes exactly one --variant")
    [params] = cfg.variant
    registry = _registry(cfg)
    if args.scenario_seed is None:
        if args.mb is not None or args.mknown is not None:
            raise ValueError("--mb and --mknown apply only with --scenario-seed")
        bridges = [f"bridge-{i:02d}" for i in range(params.n)]
        blocked = _parse_block_list(args.block, params.n)
    else:
        if args.mknown is None or len(cfg.mknown) != 1:
            raise ValueError("--scenario-seed needs a single --mknown value")
        pool = BridgePool.build(cfg.mb, cfg.mknown[0])
        bridges = select_bridges(pool, params.n, derive_rng(args.scenario_seed, "bridge-selection"))
        blocked = tuple(i for i, b in enumerate(bridges) if b in pool.known)

    if args.message_file is not None:
        message = Path(args.message_file).read_bytes()
        if not message:
            raise ValueError(f"{args.message_file} is empty")
    else:
        if args.message_size < 1:
            raise ValueError("--message-size must be >= 1")
        message = hashlib.shake_256(f"e2e-message:{cfg.seed}".encode()).digest(args.message_size)

    circuits = build_circuits(bridges, registry, derive_rng(cfg.seed, "circuit-construction"))
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


def _common_options(*, mb_help: str, mknown_metavar: str, mknown_help: str, variant_help: str) -> argparse.ArgumentParser:
    """The pool, variant and relay flags, with the help text of one command family."""
    defaults = ExperimentConfig()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mb", help=mb_help)
    common.add_argument("--mknown", metavar=mknown_metavar, help=mknown_help)
    common.add_argument("--variant", action="append", metavar="SPEC", help=variant_help)
    common.add_argument("--middles", help=f"middle relay pool size (default {defaults.middles})")
    common.add_argument("--exits", help=f"exit relay pool size (default {defaults.exits})")
    return common


def _build_parser() -> argparse.ArgumentParser:
    # option flags keep their text; _resolve_config parses it and fills in the defaults
    defaults = ExperimentConfig()
    common = _common_options(
        mb_help=f"bridges unknown to the censor (default {defaults.mb})",
        mknown_metavar="N|A..B",
        mknown_help=f"censor-known bridge count, single or range (default {defaults.mknown[0]}..{defaults.mknown[-1]})",
        variant_help="otor | mtor:<n> | ctor:<n>:<r>, repeatable (default: the standard curve set)",
    )
    # e2e runs one variant and samples a pool only with --scenario-seed
    e2e_common = _common_options(
        mb_help=f"bridges unknown to the censor, only with --scenario-seed (default {defaults.mb})",
        mknown_metavar="N",
        mknown_help="censor-known bridge count, only with --scenario-seed and required there (no default)",
        variant_help=f"one spec: otor | mtor:<n> | ctor:<n>:<r> (default {_E2E_VARIANT})",
    )

    # the grid commands only; e2e rejects both
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--config", metavar="FILE", help="key = value config file; explicit flags win")
    grid.add_argument("--out", metavar="PATH", help="output file, '-' for stdout (fig2: output directory)")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", help=f"master seed (default {defaults.seed})")

    monte = argparse.ArgumentParser(add_help=False)
    monte.add_argument("--trials", help=f"Monte Carlo trials per grid point (default {defaults.trials})")
    monte.add_argument(
        "--full-pipeline-fraction",
        help=f"fraction of trials running the byte pipeline (default {defaults.full_pipeline_fraction})",
    )

    parser = _Parser(prog="ctorsim", description="bridge-blocking resilience experiments")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analytic", parents=[common, grid], help="exact probability grid as CSV")
    p.set_defaults(handler=cmd_analytic)
    p = sub.add_parser("simulate", parents=[common, grid, seeded, monte], help="Monte Carlo grid as CSV")
    p.set_defaults(handler=cmd_simulate)
    p = sub.add_parser("fig2", parents=[common, grid, seeded, monte], help="emit analytic and simulated CSVs together")
    p.set_defaults(handler=cmd_fig2)
    p = sub.add_parser("e2e", parents=[e2e_common, seeded], help="run one transfer end to end")
    message = p.add_mutually_exclusive_group()
    message.add_argument("--message-file", metavar="FILE", help="payload to send")
    message.add_argument(
        "--message-size", type=int, default=4096, metavar="N", help="generate an N-byte payload (default %(default)s)"
    )
    blocking = p.add_mutually_exclusive_group()
    blocking.add_argument("--block", metavar="I,J,...", help="circuit indices to block explicitly")
    blocking.add_argument("--scenario-seed", type=int, help="sample bridges from a pool instead of --block")
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
