"""Batch experiment driver.

Subcommands:
  analytic   exact interruption-probability grid as CSV
  simulate   Monte Carlo estimate of the same grid as CSV
  e2e        one full transfer with a report and outcome exit code
  fig2       preset emitting both grid CSVs in one invocation

Configuration comes from defaults, an optional `key = value` file (each
key at most once), and command-line flags, in increasing precedence. Each
option has one default and one parser, in the one option table that builds
ExperimentConfig, and the parser reads flag and file text alike. A value's
range is checked by the code that uses the value; a grid command builds
its CSV text first and writes nothing until every row is computed, so a
rejected or failing run leaves existing outputs alone. e2e takes --mb and
--mknown only with --scenario-seed. build_circuits draws each circuit's
middle and the shared exit from one relay pool of ids (onion.MIDDLES and
onion.EXITS), large enough for any legal code, so no option sizes it. All
CSV output is plain comma-separated text with a header row and newline
line endings, ordered deterministically, so identical (config, seed) runs
are byte-identical.

Exit codes: 0 success, 1 usage or configuration error, 2 transfer
interrupted (e2e only).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
from collections import namedtuple
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .analytics import (
    DEFAULT_CONFIGS,
    DEFAULT_KNOWN_RANGE,
    DEFAULT_UNKNOWN,
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
    pipeline_checks,
    run_campaign,
    run_pipeline_checks,
    select_bridges,
)
from .codec import MAX_N, CodeParams, Variant
from .onion import CodedMessage, build_circuits, run_transfer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERRUPTED = 2

_VARIANT_FORMS = f"otor | mtor:<n> | ctor:<n>:<r> with 1 <= n <= {MAX_N} and 1 <= r < n"


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
            if r < 1:
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


class _Option(NamedTuple):
    """An option's default and the parser of its flag and file text. A repeatable
    option is a repeated flag or a comma list in the file; its value is the parsed items."""

    default: object
    parse: Callable[[str], object]
    expects: str = ""
    repeatable: bool = False


# The options of every command, by config-file key (the flag is --key with '-' for '_').
_OPTIONS = {
    "mb": _Option(DEFAULT_UNKNOWN, int, "an integer"),
    "mknown": _Option(tuple(DEFAULT_KNOWN_RANGE), _parse_mknown, "N or A..B with 0 <= A <= B"),
    "variant": _Option(DEFAULT_CONFIGS, parse_variant_spec, _VARIANT_FORMS, repeatable=True),
    "trials": _Option(10000, int, "an integer"),
    "seed": _Option(0, int, "an integer"),
    "out": _Option("-", str),
    "full_pipeline_fraction": _Option(DEFAULT_FULL_PIPELINE_FRACTION, float, "a number"),
}
# A tuple record of every option's value, each defaulting to its table entry's default.
ExperimentConfig = namedtuple("ExperimentConfig", _OPTIONS, defaults=[opt.default for opt in _OPTIONS.values()])
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
        if _OPTIONS[key].repeatable:
            values[key] = [item for item in values[key].split(",") if item.strip()]
    return values


def _parse_option(opt: _Option, text: str, where: str):
    try:
        return opt.parse(text)
    except ValueError:
        raise ValueError(f"{where} {text!r}: expected {opt.expects}") from None


def _resolve_config(args: argparse.Namespace, defaults: ExperimentConfig = ExperimentConfig()) -> ExperimentConfig:
    """Flags win over the config file and the file over `defaults`. Only the
    variant list's own rules are checked here; each value's range is checked
    by the code that uses it."""
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
        if opt.repeatable:
            values[name] = tuple(_parse_option(opt, item, where) for item in text)
        else:
            values[name] = _parse_option(opt, text, where)
    cfg = defaults._replace(**values)
    if not cfg.variant:
        raise ValueError("at least one variant is required")
    # the analytic and simulated grids join on (m_known, variant, n, r), so each shape runs once
    for i, params in enumerate(cfg.variant):
        if params in cfg.variant[:i]:
            raise ValueError(
                f"variant shape {Variant.of(params).value} (n={params.n}, r={params.r}) is given more than once"
            )
    return cfg


def _csv_text(header: list[str], rows: Iterable[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_out(out: str, text: str) -> None:
    """Write a finished CSV to `out`, '-' meaning stdout."""
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="")


def _analytic_csv(rows: Sequence[SweepRow]) -> str:
    return _csv_text(
        ["m_known", "variant", "n", "r", "p_exact_num", "p_exact_den", "p_float"],
        (
            [row.m_known, Variant.of(row.params).value, row.params.n, row.params.r,
             row.probability.numerator, row.probability.denominator, repr(float(row.probability))]
            for row in rows
        ),
    )


def _simulated_rows(grid: Sequence[CensorScenario], trials: int, seed: int) -> Iterator[list]:
    # yielded, so each row becomes CSV text as soon as it is computed and no
    # list of rows stays alive across the campaigns
    for scenario in grid:
        params = scenario.params
        m_known, variant, n, r = len(scenario.pool.known), scenario.variant.value, params.n, params.r
        result = run_campaign(scenario, trials, derive_seed(seed, f"point:{m_known}:{variant}:{n}:{r}"))
        yield [m_known, variant, n, r, repr(result.p_empirical), repr(result.ci95), trials, seed]


def _simulated_csv(cfg: ExperimentConfig) -> str:
    """Every point's estimate, then the grid's pipeline checks, then the CSV
    text; the check count is computed first, so a bad fraction draws nothing."""
    checks = pipeline_checks(cfg.trials, cfg.full_pipeline_fraction)
    grid = [
        CensorScenario(BridgePool.build(cfg.mb, m_known), params)
        for m_known, params in grid_points(cfg.mknown, cfg.variant)
    ]
    header = ["m_known", "variant", "n", "r", "p_empirical", "ci95", "trials", "seed"]
    text = _csv_text(header, _simulated_rows(grid, cfg.trials, cfg.seed))
    run_pipeline_checks(grid, checks, cfg.seed)
    return text


def cmd_analytic(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _write_out(cfg.out, _analytic_csv(sweep(cfg.mb, cfg.mknown, cfg.variant)))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _write_out(cfg.out, _simulated_csv(cfg))
    return EXIT_OK


def cmd_fig2(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    analytic = _analytic_csv(sweep(cfg.mb, cfg.mknown, cfg.variant))
    simulated = _simulated_csv(cfg)
    out_dir = Path("." if cfg.out == "-" else cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, text in ((out_dir / "fig2_analytic.csv", analytic), (out_dir / "fig2_simulated.csv", simulated)):
        path.write_text(text, newline="")
        print(f"wrote {path}")
    return EXIT_OK


def _parse_block_list(text: str | None) -> tuple[int, ...]:
    """Circuit indices, sorted; transmit rejects any outside the circuit set."""
    if not text:
        return ()
    try:
        return tuple(sorted({int(part) for part in text.split(",")}))
    except ValueError:
        raise ValueError(f"bad --block {text!r}: expected comma-separated circuit indices") from None


def cmd_e2e(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, _E2E_DEFAULTS)
    if len(cfg.variant) != 1:
        raise ValueError("e2e takes exactly one --variant")
    [params] = cfg.variant
    if args.scenario_seed is None:
        if args.mb is not None or args.mknown is not None:
            raise ValueError("--mb and --mknown apply only with --scenario-seed")
        bridges = [f"bridge-{i:02d}" for i in range(params.n)]
        blocked = _parse_block_list(args.block)
    else:
        if args.mknown is None or len(cfg.mknown) != 1:
            raise ValueError("--scenario-seed needs a single --mknown value")
        pool = BridgePool.build(cfg.mb, cfg.mknown[0])
        bridges = select_bridges(pool, params.n, derive_rng(args.scenario_seed, "bridge-selection"))
        blocked = pool.blocked(bridges)

    if args.message_file is not None:
        message = Path(args.message_file).read_bytes()
        if not message:
            raise ValueError(f"{args.message_file} is empty")
    else:
        if args.message_size < 1:
            raise ValueError("--message-size must be >= 1")
        message = hashlib.shake_256(f"e2e-message:{cfg.seed}".encode()).digest(args.message_size)

    circuits = build_circuits(bridges, derive_rng(cfg.seed, "circuit-construction"))
    result = run_transfer(circuits, CodedMessage(params, message), message, blocked)

    print(f"variant: {Variant.of(params).value} (n={params.n}, k={params.k}, r={params.r})")
    if args.scenario_seed is not None:
        known_chosen = sorted(bridges[i] for i in blocked)
        print(f"bridges: {', '.join(bridges)}")
        print(f"censor-known among them: {known_chosen if known_chosen else 'none'}")
    print(f"blocked circuits: {sorted(blocked) if blocked else 'none'}")
    print(f"message: {len(message)} bytes in {result.generations} generation(s)")
    status = "decoded" if result.success else "unrecoverable"
    for gid in range(result.generations):
        print(f"generation {gid}: delivered {result.delivered}/{params.n} coded cells, {status}")
    if result.success:
        print(f"reassembled {len(message)} bytes, byte-identical: yes")
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
    """The pool and variant flags, with the help text of one command family."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mb", help=mb_help)
    common.add_argument("--mknown", metavar=mknown_metavar, help=mknown_help)
    common.add_argument("--variant", action="append", metavar="SPEC", help=variant_help)
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
    grid.add_argument(
        "--out",
        metavar="PATH",
        help="output file, '-' for stdout (default -); fig2: output directory, '-' for the current one",
    )

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", help=f"master seed (default {defaults.seed})")

    monte = argparse.ArgumentParser(add_help=False)
    monte.add_argument("--trials", help=f"Monte Carlo trials per grid point (default {defaults.trials})")
    monte.add_argument(
        "--full-pipeline-fraction",
        help=f"pipeline checks per point, as a fraction of --trials, run after the estimates"
        f" (default {defaults.full_pipeline_fraction})",
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
    # the parser is a cyclic structure: unreferenced before the command
    # runs, it is freed at the next young collection instead of being
    # promoted with the command's objects to wait for a full one
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
