"""CLI behavior: CSV schemas, determinism, config handling, exit codes."""

import csv
import importlib.metadata
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ctorsim import censor, cli, onion
from ctorsim.analytics import DEFAULT_CONFIGS, DEFAULT_KNOWN_RANGE, DEFAULT_UNKNOWN, sweep
from ctorsim.censor import ConsistencyError, run_campaign
from ctorsim.cli import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    main,
    parse_variant_spec,
)
from ctorsim.codec import CodeParams, Variant


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestVariantSpecs:
    def test_parses_all_forms(self):
        assert parse_variant_spec("otor") == CodeParams(1, 1, 0)
        assert parse_variant_spec("mtor:4") == CodeParams(4, 4, 0)
        assert parse_variant_spec("ctor:10:4") == CodeParams(10, 6, 4)

    def test_mtor_one_is_otor(self, capsys):
        assert parse_variant_spec("mtor:1") == parse_variant_spec("otor")
        assert Variant.of(parse_variant_spec("mtor:1")) is Variant.OTOR
        assert main(["analytic", "--mknown", "3", "--variant", "mtor:1"]) == EXIT_OK
        [_, row] = capsys.readouterr().out.strip().splitlines()
        assert row.split(",")[1:4] == ["otor", "1", "0"]

    @pytest.mark.parametrize(
        "bad", ["", "tor", "otor:2", "mtor", "ctor:4", "ctor:4:4", "ctor:4:0", "mtor:x", "mtor:0", "mtor:256", "ctor:256:1"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_variant_spec(bad)


class TestAnalytic:
    def test_default_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["analytic", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["m_known", "variant", "n", "r", "p_exact_num", "p_exact_den", "p_float"]
        assert len(rows) == 1 + 26 * 7
        keys = [(int(r[0]), r[1], int(r[2])) for r in rows[1:]]
        assert keys == sorted(keys)

    def test_no_flags_writes_the_library_default_grid(self, capsys):
        assert main(["analytic"]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        expected = [
            [str(row.m_known), Variant.of(row.params).value, str(row.params.n), str(row.params.r),
             str(row.probability.numerator), str(row.probability.denominator), repr(float(row.probability))]
            for row in sweep(DEFAULT_UNKNOWN, DEFAULT_KNOWN_RANGE, DEFAULT_CONFIGS)
        ]
        assert rows == expected

    def test_known_row_value(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["analytic", "--mknown", "5", "--variant", "mtor:4", "--out", str(out)]) == EXIT_OK
        [_, row] = read_csv(out)
        assert row[:4] == ["5", "mtor", "4", "0"]
        assert Fraction(int(row[4]), int(row[5])) == Fraction(14755, 27405)
        assert float(row[6]) == pytest.approx(0.538405400474366)

    def test_stdout_output(self, capsys):
        assert main(["analytic", "--mknown", "3", "--variant", "otor"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("m_known,")
        assert len(lines) == 2

    def test_r_at_least_n_fails_before_compute(self):
        assert main(["analytic", "--variant", "ctor:4:4"]) == EXIT_USAGE

    def test_n_above_field_bound_names_the_bound(self, capsys):
        assert main(["analytic", "--variant", "ctor:300:1"]) == EXIT_USAGE
        assert "255" in capsys.readouterr().err

    def test_pool_too_small_fails(self):
        assert main(["analytic", "--mb", "2", "--mknown", "0", "--variant", "mtor:4"]) == EXIT_USAGE


class TestSimulate:
    def test_csv_schema_and_determinism(self, tmp_path):
        args = [
            "simulate",
            "--mknown", "4..5",
            "--variant", "mtor:4",
            "--variant", "ctor:4:1",
            "--trials", "400",
            "--seed", "9",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        rows = read_csv(a)
        assert rows[0] == ["m_known", "variant", "n", "r", "p_empirical", "ci95", "trials", "seed"]
        assert len(rows) == 1 + 2 * 2
        for row in rows[1:]:
            assert 0.0 <= float(row[4]) <= 1.0
            assert row[6] == "400" and row[7] == "9"

    def test_single_trial_is_zero_or_one(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(
            ["simulate", "--mknown", "5", "--variant", "mtor:4", "--trials", "1", "--out", str(out)]
        ) == EXIT_OK
        [_, row] = read_csv(out)
        assert float(row[4]) in (0.0, 1.0)

    def test_grid_keys_match_analytic(self, tmp_path):
        args = ["--mknown", "2..3", "--variant", "mtor:5", "--variant", "ctor:5:2"]
        a_out, s_out = tmp_path / "a.csv", tmp_path / "s.csv"
        assert main(["analytic", *args, "--out", str(a_out)]) == EXIT_OK
        assert main(["simulate", *args, "--trials", "50", "--out", str(s_out)]) == EXIT_OK
        a_keys = [tuple(r[:4]) for r in read_csv(a_out)[1:]]
        s_keys = [tuple(r[:4]) for r in read_csv(s_out)[1:]]
        assert a_keys == s_keys

    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_shapes_that_share_variant_and_n_sort_by_r(self, command, tmp_path):
        # ctor:10:4 and ctor:10:2 tie on (m_known, variant, n); the flag order
        # must not decide their rows' order
        trials = ["--trials", "20"] if command == "simulate" else []
        outs = []
        for order in (["ctor:10:4", "ctor:10:2"], ["ctor:10:2", "ctor:10:4"]):
            out = tmp_path / f"{order[0].replace(':', '-')}.csv"
            flags = [arg for spec in order for arg in ("--variant", spec)]
            assert main([command, "--mknown", "4..5", *flags, *trials, "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        keys = [tuple(row[:4]) for row in read_csv(tmp_path / "ctor-10-4.csv")[1:]]
        assert keys == [(m, "ctor", "10", r) for m in ("4", "5") for r in ("2", "4")]


class TestLargestCode:
    """The relay pool covers every legal code, so n = 255 needs no relay flag."""

    def test_e2e(self, capsys):
        assert main(["e2e", "--variant", "mtor:255", "--message-size", "1"]) == EXIT_OK
        assert "outcome: SUCCESS" in capsys.readouterr().out

    def test_simulate_full_pipeline(self, tmp_path):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--mb", "255", "--mknown", "0..1", "--variant", "mtor:255", "--trials", "2",
                "--full-pipeline-fraction", "1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert [row[:4] for row in read_csv(out)[1:]] == [["0", "mtor", "255", "0"], ["1", "mtor", "255", "0"]]


class TestConfigFile:
    def test_file_values_apply_and_flags_win(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# sweep setup\n"
            "mb = 10\n"
            "mknown = 2..3\n"
            "variant = mtor:4, ctor:4:1\n"
            "trials = 100\n"
        )
        out = tmp_path / "o.csv"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(read_csv(out)) == 1 + 2 * 2

        out2 = tmp_path / "o2.csv"
        assert main(
            ["analytic", "--config", str(cfg), "--mknown", "5", "--out", str(out2)]
        ) == EXIT_OK
        rows = read_csv(out2)
        assert len(rows) == 1 + 2
        assert all(r[0] == "5" for r in rows[1:])

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["analytic", "--config", str(cfg)]) == EXIT_USAGE
        # the relay pool is built once per process, so no key sizes it
        cfg.write_text("middles = 6\n")
        assert main(["simulate", "--config", str(cfg), "--mknown", "3", "--variant", "mtor:4", "--trials", "5"]) == EXIT_USAGE

    def test_missing_file_rejected(self, tmp_path):
        assert main(["analytic", "--config", str(tmp_path / "nope.cfg")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "lines,key",
        [
            (["variant = otor", "mknown = 3", "variant = mtor:4"], "variant"),
            (["mb = 10", "# comment", "", "mb = 12"], "mb"),
            (["full-pipeline-fraction = 0.5", "full_pipeline_fraction = 0.5"], "full_pipeline_fraction"),
        ],
    )
    def test_repeated_key_rejected(self, tmp_path, capsys, lines, key):
        # the last line does not silently win: repeated --variant flags add
        # variants, so a repeated file key would disagree with them
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.csv"
        assert main(["analytic", "--config", str(cfg), "--mknown", "3", "--out", str(out)]) == EXIT_USAGE
        assert f"{cfg}:{len(lines)}: duplicate key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("mb 10", "{cfg}:1: expected 'key = value', got 'mb 10'"),
            ("variant =", "at least one variant is required"),
        ],
        ids=["no-equals", "empty-variant"],
    )
    def test_malformed_file_rejected(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o.csv"
        assert main(["analytic", "--config", str(cfg), "--mknown", "3", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not out.exists()

    def test_repeated_shape_rejected(self, tmp_path, capsys):
        # the grids join on their keys, so a shape named twice would write every row twice
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("variant = ctor:4:1, ctor:4:1\n")
        out = tmp_path / "o.csv"
        assert main(["analytic", "--config", str(cfg), "--mknown", "3", "--out", str(out)]) == EXIT_USAGE
        assert "variant shape ctor (n=4, r=1) is given more than once" in capsys.readouterr().err
        assert not out.exists()

    # one non-default value per option key; `out` is the output path itself
    KEY_VALUES = {
        "mb": "12",
        "mknown": "1..2",
        "variant": "mtor:5, ctor:5:2",
        "trials": "30",
        "seed": "9",
        "out": None,
        "full_pipeline_fraction": "0.5",
    }
    # small grid flags for every run, minus the key under test
    BASE = {
        "mknown": ["--mknown", "3..4"],
        "variant": ["--variant", "mtor:4", "--variant", "ctor:4:1"],
        "trials": ["--trials", "20"],
    }
    MONTE_CARLO_KEYS = {"trials", "seed", "full_pipeline_fraction"}  # analytic takes no such flag
    SHAPING_KEYS = {"analytic": {"mb", "mknown", "variant"}, "simulate": {"mb", "mknown", "variant", "trials", "seed"}}

    def test_key_values_cover_every_option(self):
        assert set(self.KEY_VALUES) == set(ExperimentConfig._fields)

    @pytest.mark.parametrize("key", sorted(KEY_VALUES))
    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_file_key_matches_its_flags(self, tmp_path, command, key):
        accepts = {k for k in self.KEY_VALUES if command == "simulate" or k not in self.MONTE_CARLO_KEYS}
        base = [arg for k, args in self.BASE.items() if k != key and k in accepts for arg in args]
        from_file, from_flags, from_base = tmp_path / "file.csv", tmp_path / "flags.csv", tmp_path / "base.csv"
        cfg = tmp_path / "exp.cfg"
        if key == "out":
            cfg.write_text(f"out = {from_file}\n")
            file_argv = [command, "--config", str(cfg), *base]
            flag_argv = [command, *base, "--out", str(from_flags)]
        else:
            value = self.KEY_VALUES[key]
            cfg.write_text(f"{key} = {value}\n")
            file_argv = [command, "--config", str(cfg), *base, "--out", str(from_file)]
            flags = [arg for item in value.split(",") for arg in ("--" + key.replace("_", "-"), item.strip())]
            flag_argv = [command, *base, *(flags if key in accepts else []), "--out", str(from_flags)]
        assert main(file_argv) == EXIT_OK
        assert main(flag_argv) == EXIT_OK
        assert from_file.read_bytes() == from_flags.read_bytes()
        if key in self.SHAPING_KEYS[command]:
            assert main([command, *base, "--out", str(from_base)]) == EXIT_OK
            assert from_base.read_bytes() != from_file.read_bytes()


def help_text(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    assert main([command, "--help"]) == EXIT_OK
    return capsys.readouterr().out


class TestHelp:
    GRID_HELP = [
        "--mb MB bridges unknown to the censor (default 25)",
        "--mknown N|A..B censor-known bridge count, single or range (default 0..25)",
        "--variant SPEC otor | mtor:<n> | ctor:<n>:<r>, repeatable (default: the standard curve set)",
    ]

    def test_e2e_describes_its_own_variant_and_mknown(self, capsys, monkeypatch):
        lines = [" ".join(line.split()) for line in help_text("e2e", capsys, monkeypatch).splitlines()]
        assert "--variant SPEC one spec: otor | mtor:<n> | ctor:<n>:<r> (default ctor:4:1)" in lines
        assert "--mknown N censor-known bridge count, only with --scenario-seed and required there (no default)" in lines
        assert "--mb MB bridges unknown to the censor, only with --scenario-seed (default 25)" in lines
        assert not set(self.GRID_HELP) & set(lines)

    @pytest.mark.parametrize("command", ["analytic", "simulate", "fig2"])
    def test_grid_commands_keep_the_curve_set_help(self, capsys, monkeypatch, command):
        lines = [" ".join(line.split()) for line in help_text(command, capsys, monkeypatch).splitlines()]
        assert [line for line in lines if line.startswith(("--mb ", "--mknown ", "--variant "))] == self.GRID_HELP

    @pytest.mark.parametrize("command", ["simulate", "fig2"])
    def test_full_pipeline_fraction_says_the_checks_come_after_the_estimates(self, capsys, monkeypatch, command):
        # the option and its help do not fit one line, so the text is read as one
        text = " ".join(help_text(command, capsys, monkeypatch).split())
        assert (
            "--full-pipeline-fraction FULL_PIPELINE_FRACTION pipeline checks per point,"
            " as a fraction of --trials, run after the estimates (default 0.01)"
        ) in text


class TestE2E:
    def test_tolerated_block_succeeds(self, capsys):
        rc = main(["e2e", "--variant", "ctor:4:1", "--block", "2", "--message-size", "2000"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "outcome: SUCCESS" in out
        assert "delivered 3/4" in out
        assert "byte-identical: yes" in out

    def test_uncoded_block_interrupts(self, capsys):
        rc = main(["e2e", "--variant", "mtor:4", "--block", "2", "--message-size", "100"])
        assert rc == EXIT_INTERRUPTED
        assert "outcome: INTERRUPTED" in capsys.readouterr().out

    def test_blocks_beyond_redundancy_interrupt(self):
        assert main(["e2e", "--variant", "ctor:4:1", "--block", "1,2"]) == EXIT_INTERRUPTED

    def test_message_file_round_trip(self, tmp_path, capsys):
        payload = tmp_path / "msg.bin"
        payload.write_bytes(b"payload-under-test" * 100)
        rc = main(["e2e", "--variant", "ctor:4:1", "--message-file", str(payload), "--block", "3"])
        assert rc == EXIT_OK
        assert "byte-identical: yes" in capsys.readouterr().out

    def test_scenario_seed_mode(self, capsys):
        rc = main(
            ["e2e", "--variant", "ctor:4:1", "--scenario-seed", "5", "--mknown", "5", "--message-size", "600"]
        )
        assert rc in (EXIT_OK, EXIT_INTERRUPTED)
        out = capsys.readouterr().out
        assert "bridges:" in out

    def test_bad_block_index(self):
        assert main(["e2e", "--variant", "mtor:4", "--block", "7"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--block", "1,x"], "bad --block '1,x': expected comma-separated circuit indices"),
            (["--variant", "otor", "--variant", "mtor:4"], "e2e takes exactly one --variant"),
            (["--message-file", "{empty}"], "{empty} is empty"),
            (["--message-size", "0"], "--message-size must be >= 1"),
        ],
        ids=["bad-block", "two-variants", "empty-message-file", "zero-message-size"],
    )
    def test_rejected_with_its_message(self, tmp_path, capsys, argv, message):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert main(["e2e", *(arg.format(empty=empty) for arg in argv)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(empty=empty)}\n"

    def test_block_and_scenario_seed_conflict(self):
        assert main(["e2e", "--block", "0", "--scenario-seed", "1", "--mknown", "5"]) == EXIT_USAGE

    def test_grid_only_flags_rejected(self, tmp_path):
        # --config and --out shape the grid commands; e2e must not accept and ignore them
        assert main(["e2e", "--config", str(tmp_path / "none.cfg")]) == EXIT_USAGE
        out = tmp_path / "report.txt"
        assert main(["e2e", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_pool_flags_rejected_without_scenario_seed(self, capsys):
        # --mb and --mknown describe the --scenario-seed pool; e2e must not accept and ignore them
        assert main(["e2e", "--mb", "5"]) == EXIT_USAGE
        assert main(["e2e", "--mknown", "5"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_message_file_and_size_conflict(self, tmp_path):
        payload = tmp_path / "msg.bin"
        payload.write_bytes(b"x")
        assert main(["e2e", "--message-file", str(payload), "--message-size", "10"]) == EXIT_USAGE

    def test_scenario_pool_smaller_than_the_code_rejected(self, capsys):
        argv = ["e2e", "--variant", "mtor:4", "--scenario-seed", "1", "--mb", "2", "--mknown", "1"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot select 4 bridges from a pool of 3" in captured.err

    def test_scenario_seed_requires_single_mknown(self):
        assert main(["e2e", "--scenario-seed", "1"]) == EXIT_USAGE
        assert main(["e2e", "--scenario-seed", "1", "--mknown", "2..5"]) == EXIT_USAGE


class TestFig2:
    def test_writes_both_csvs(self, tmp_path, capsys):
        out_dir = tmp_path / "fig2"
        rc = main(
            ["fig2", "--out", str(out_dir), "--trials", "200", "--seed", "1",
             "--mknown", "4..6", "--variant", "mtor:5", "--variant", "ctor:5:2"]
        )
        assert rc == EXIT_OK
        analytic = out_dir / "fig2_analytic.csv"
        simulated = out_dir / "fig2_simulated.csv"
        assert analytic.is_file() and simulated.is_file()
        assert len(read_csv(analytic)) == len(read_csv(simulated)) == 1 + 3 * 2

    def test_default_out_is_the_current_directory(self, tmp_path, capsys, monkeypatch):
        # --out defaults to '-', which for fig2 names the current directory
        monkeypatch.chdir(tmp_path)
        assert main(["fig2", "--trials", "20", "--mknown", "4", "--variant", "mtor:5"]) == EXIT_OK
        assert sorted(path.name for path in tmp_path.iterdir()) == ["fig2_analytic.csv", "fig2_simulated.csv"]
        assert capsys.readouterr().out == "wrote fig2_analytic.csv\nwrote fig2_simulated.csv\n"


class TestChecksBeforeOutput:
    """A rejected grid run exits 1 and leaves existing outputs alone: the CLI
    writes nothing until every row is computed, whichever layer rejects."""

    REJECTED = {
        "middles-flag": ["--middles", "60", "--variant", "mtor:4", "--mknown", "5"],
        "n-above-smallest-pool": ["--mb", "1", "--mknown", "0..3", "--variant", "mtor:4"],
        # mtor:1 is otor's shape, so both would write the same CSV keys
        "repeated-shape": ["--variant", "otor", "--variant", "mtor:1", "--mknown", "5"],
        # rejected by censor (pipeline_checks, run_campaign, the bridge draws) or BridgePool.build, not by the CLI
        "trials-zero": ["--trials", "0", "--variant", "mtor:4", "--mknown", "5"],
        "fraction-above-one": ["--full-pipeline-fraction", "1.5", "--variant", "mtor:4", "--mknown", "5"],
        "negative-mb": ["--mb", "-1", "--variant", "mtor:4", "--mknown", "5"],
    }

    # the case's flags come last, so a case's own --trials wins over the base one
    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_simulate_keeps_existing_out(self, tmp_path, case):
        out = tmp_path / "earlier.csv"
        out.write_bytes(b"earlier,results\n")
        assert main(["simulate", "--trials", "5", *self.REJECTED[case], "--out", str(out)]) == EXIT_USAGE
        assert out.read_bytes() == b"earlier,results\n"

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_fig2_writes_no_csv(self, tmp_path, case):
        out_dir = tmp_path / "fig2"
        out_dir.mkdir()
        assert main(["fig2", "--trials", "5", *self.REJECTED[case], "--out", str(out_dir)]) == EXIT_USAGE
        assert list(out_dir.iterdir()) == []


class TestPoolRule:
    """The pool rule has two homes, analytics' and censor's, and every
    command that takes a pool gives each fault the same message."""

    COMMANDS = {
        "analytic": ["analytic", "--out", "{out}"],
        "simulate": ["simulate", "--trials", "5", "--out", "{out}"],
        "fig2": ["fig2", "--trials", "5", "--out", "{out}"],
        "e2e": ["e2e", "--scenario-seed", "1"],
    }
    FAULTS = {
        "negative-mb": (["--mb", "-1", "--mknown", "0"], "bridge counts must be non-negative"),
        "n-above-pool": (["--mb", "1", "--mknown", "2", "--variant", "mtor:4"], "cannot select 4 bridges from a pool of 3"),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_command_rejects_with_one_message(self, tmp_path, capsys, command, fault):
        flags, message = self.FAULTS[fault]
        out = tmp_path / "out"
        argv = [arg.format(out=out) for arg in self.COMMANDS[command]]
        assert main([*argv, *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()


class TestFailureMidGrid:
    """A grid that fails after some of its rows are computed writes none of them."""

    ARGV = ["--mknown", "0..1", "--trials", "5"]  # the default curve set: 14 points

    @pytest.fixture
    def campaigns(self, monkeypatch):
        calls = []

        def third_point_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise ConsistencyError("pipeline and blocked-count rule disagree")
            return run_campaign(*args, **kwargs)

        monkeypatch.setattr(cli, "run_campaign", third_point_fails)
        return calls

    def test_simulate_keeps_existing_out(self, tmp_path, campaigns):
        out = tmp_path / "earlier.csv"
        out.write_bytes(b"earlier,results\n")
        with pytest.raises(ConsistencyError):
            main(["simulate", *self.ARGV, "--out", str(out)])
        assert len(campaigns) == 3
        assert out.read_bytes() == b"earlier,results\n"

    def test_simulate_prints_no_row_to_stdout(self, capsys, campaigns):
        with pytest.raises(ConsistencyError):
            main(["simulate", *self.ARGV])
        assert capsys.readouterr().out == ""

    def test_fig2_writes_no_csv(self, tmp_path, campaigns):
        out_dir, fresh_dir = tmp_path / "fig2", tmp_path / "new"
        out_dir.mkdir()
        with pytest.raises(ConsistencyError):
            main(["fig2", *self.ARGV, "--out", str(out_dir)])
        assert list(out_dir.iterdir()) == []
        campaigns.clear()
        with pytest.raises(ConsistencyError):
            main(["fig2", *self.ARGV, "--out", str(fresh_dir)])
        assert not fresh_dir.exists()

    def test_a_failing_check_surfaces_after_every_estimate(self, tmp_path, monkeypatch):
        # a pipeline that loses every transfer disagrees with the rule at
        # m_known 0; the checks run only once all 14 estimates are in
        campaigns = []

        def counted(*args):
            campaigns.append(args)
            return run_campaign(*args)

        monkeypatch.setattr(cli, "run_campaign", counted)
        monkeypatch.setattr(censor, "run_transfer", lambda *args: onion.TransferResult(False, 1, 0))
        out = tmp_path / "earlier.csv"
        out.write_bytes(b"earlier,results\n")
        with pytest.raises(ConsistencyError, match="interrupted=True but blocked_count=0"):
            main(["simulate", *self.ARGV, "--out", str(out)])
        assert len(campaigns) == 14
        assert out.read_bytes() == b"earlier,results\n"



class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["analytic", "--bogus"]) == EXIT_USAGE

    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_bad_mknown(self):
        assert main(["analytic", "--mknown", "5..2"]) == EXIT_USAGE
        assert main(["analytic", "--mknown", "abc"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["e2e", "--message-file", "{tmp}/missing.bin"],
            ["simulate", "--mknown", "1", "--trials", "5", "--variant", "otor", "--out", "{tmp}/missing/x.csv"],
            ["fig2", "--mknown", "1", "--trials", "5", "--variant", "otor", "--out", "{tmp}/taken"],
        ],
        ids=["e2e-missing-message-file", "simulate-out-in-missing-dir", "fig2-out-is-a-file"],
    )
    def test_an_os_error_exits_1_and_writes_nothing(self, tmp_path, capsys, argv):
        taken = tmp_path / "taken"
        taken.write_bytes(b"a file, not a directory\n")
        assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_bytes() == b"a file, not a directory\n"


class TestConsoleScript:
    """The `ctorsim` command an install makes: the entry point pyproject.toml
    names, called as a console script calls it, sys.exit(entry())."""

    @pytest.fixture
    def entry(self):
        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
        pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
        value = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ctorsim"]
        return importlib.metadata.EntryPoint(name="ctorsim", value=value, group="console_scripts").load()

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["e2e", "--variant", "ctor:4:1", "--block", "2", "--message-size", "600"], EXIT_OK),
            (["e2e", "--variant", "mtor:4", "--block", "2", "--message-size", "600"], EXIT_INTERRUPTED),
            (["analytic", "--bogus"], EXIT_USAGE),
        ],
        ids=["ok", "interrupted", "usage"],
    )
    def test_exit_status_is_the_command_exit_code(self, entry, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["ctorsim", *argv])
        with pytest.raises(SystemExit) as exc:
            sys.exit(entry())
        assert exc.value.code == code


def other_interpreters() -> list[str]:
    """The first python3.N (N >= 10) on PATH for each N other than this
    interpreter's, among those that start and report that version."""
    minors = {
        int(match[1])
        for directory in os.get_exec_path()
        if os.path.isdir(directory)
        for match in map(re.compile(r"python3\.(\d+)").fullmatch, os.listdir(directory))
        if match and int(match[1]) >= 10
    }
    found = []
    for minor in sorted(minors - {sys.version_info.minor}):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        try:
            probe = subprocess.run(
                [exe, "-c", "import sys; print(*sys.version_info[:2])"], capture_output=True, text=True, timeout=60
            )
        except OSError:
            continue
        if probe.returncode == 0 and probe.stdout.split() == ["3", str(minor)]:
            found.append(exe)
    return found


class TestOtherInterpreters:
    """A CSV and an e2e report are the same bytes under every interpreter:
    a CSV rests on random.Random's streams, which the fast path reads
    through getrandbits alone, and on SHAKE-256; an e2e report also rests on
    select_bridges' sample() drawing alike on every interpreter."""

    RUNS = [
        ["simulate", "--trials", "60", "--mknown", "3..5", "--seed", "7", "--full-pipeline-fraction", "0.2",
         "--variant", "otor", "--variant", "mtor:5", "--variant", "ctor:10:4"],
        ["e2e", "--variant", "ctor:6:2", "--scenario-seed", "3", "--mknown", "12", "--message-size", "3000"],
    ]
    PROGRAM = "import sys\nsys.path.insert(0, sys.argv[1])\nfrom ctorsim.cli import main\nsys.exit(main(sys.argv[2:]))"

    def test_outputs_match_the_running_interpreter(self, capsys):
        interpreters = other_interpreters()
        if not interpreters:
            pytest.skip("no other python3.N (N >= 10) runs on PATH")
        src = str(Path(cli.__file__).resolve().parents[1])
        for argv in self.RUNS:
            code = main(argv)
            expected = capsys.readouterr().out
            for exe in interpreters:
                done = subprocess.run(
                    [exe, "-c", self.PROGRAM, src, *argv], capture_output=True, text=True, timeout=300
                )
                assert (exe, done.returncode, done.stdout) == (exe, code, expected), done.stderr
