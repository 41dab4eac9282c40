"""Censorship model: bridge selection, trials, campaigns, consistency."""

import functools
import itertools
import math
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ctorsim import censor, cli, onion
from ctorsim.analytics import DEFAULT_CONFIGS, DEFAULT_KNOWN_RANGE, DEFAULT_UNKNOWN, blocked_counts, p_block_lnc
from ctorsim.censor import (
    BridgePool,
    CensorScenario,
    ConsistencyError,
    TrialOutcome,
    derive_rng,
    derive_seed,
    interrupted_by_rule,
    pipeline_checks,
    run_campaign,
    run_pipeline_checks,
    run_trial,
    select_bridges,
)
from ctorsim.codec import CodeParams, Variant
from ctorsim.onion import CodedMessage, build_circuits, default_registry, transmit


def scenario(num_unknown, num_known, n, r=0) -> CensorScenario:
    return CensorScenario(BridgePool.build(num_unknown, num_known), CodeParams(n, n - r, r))


class TestBridgePool:
    def test_build_counts(self):
        pool = BridgePool.build(25, 5)
        assert len(pool.ordered) == len(set(pool.ordered)) == 30
        assert len(set(pool.ordered) - pool.known) == 25
        assert len(pool.known) == 5
        assert pool.known <= set(pool.ordered)

    def test_every_grid_pool_is_disjoint_and_ordered(self):
        # build is the one constructor, so every pool a default grid runs on
        # is checked here: known ids among the pool's, the canonical order,
        # mb + m_known distinct ids
        for m_known in DEFAULT_KNOWN_RANGE:
            pool = BridgePool.build(DEFAULT_UNKNOWN, m_known)
            assert pool.known <= set(pool.ordered)
            assert pool.ordered == tuple(sorted(set(pool.ordered)))
            assert len(pool.ordered) == DEFAULT_UNKNOWN + m_known
            assert len(pool.known) == m_known

    def test_make_and_replace_keep_the_fields_as_given(self):
        # a plain tuple record: nothing is checked or sorted again on rebuild
        pool = BridgePool.build(3, 2)
        assert pool._replace(ordered=pool.ordered[::-1]).ordered == pool.ordered[::-1]
        assert BridgePool._make(pool) == pool and len(pool) == 2
        assert pickle.loads(pickle.dumps(pool)) == pool

    def test_ordered_is_canonical(self):
        pool = BridgePool.build(3, 2)
        assert pool.ordered == ("k000", "k001", "u000", "u001", "u002")
        assert pool.known == frozenset({"k000", "k001"})

    def test_pools_share_their_id_sets(self, tmp_path):
        # build is cached: equal counts give one pool object, so a default
        # grid builds one pool per m_known row in any point order
        assert BridgePool.build(25, 3) is BridgePool.build(25, 3)
        assert BridgePool.build(25, 3).known == frozenset({"k000", "k001", "k002"})
        assert BridgePool.build.cache_info().maxsize == 64
        BridgePool.build.cache_clear()
        argv = ["simulate", "--trials", "1", "--full-pipeline-fraction", "0", "--out", str(tmp_path / "grid.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        info = BridgePool.build.cache_info()
        assert info.misses == info.currsize == len(DEFAULT_KNOWN_RANGE) == 26
        assert info.hits == len(DEFAULT_KNOWN_RANGE) * (len(DEFAULT_CONFIGS) - 1)

    def test_blocked_are_the_indices_of_chosen_known_bridges(self):
        pool = BridgePool.build(3, 2)
        assert pool.blocked(["k001", "u000", "u002", "k000"]) == {0, 3}
        assert pool.blocked(["u001", "u000"]) == frozenset()


class TestSelectBridges:
    def test_selecting_whole_pool(self):
        s = scenario(3, 2, 5)
        assert set(select_bridges(s, random.Random(0))) == set(s.pool.ordered)

    def test_deterministic_for_fixed_seed(self):
        s = scenario(25, 5, 4)
        assert select_bridges(s, random.Random(9)) == select_bridges(s, random.Random(9))

    def test_draw_is_a_sample_of_the_ordered_pool(self):
        # the scenario only supplies the pool and n, so the draw is the
        # same bytes as a plain sample of the canonical order
        s = scenario(25, 5, 4, 1)
        assert select_bridges(s, random.Random(9)) == random.Random(9).sample(s.pool.ordered, 4)

    def test_per_bridge_inclusion_is_uniform(self):
        # every bridge should appear with frequency n / pool within 3 sigma
        s = scenario(25, 5, 4)
        pool = s.pool
        n, trials = 4, 100_000
        rng = derive_rng(0, "uniformity-check")
        counts = {b: 0 for b in pool.ordered}
        for _ in range(trials):
            for b in select_bridges(s, rng):
                counts[b] += 1
        p = n / len(pool.ordered)
        sigma = math.sqrt(p * (1 - p) * trials)
        for bridge, count in counts.items():
            assert abs(count - p * trials) <= 3 * sigma, bridge


NO_HANG_PROGRAM = """
import random, sys
sys.path.insert(0, sys.argv[1])
from ctorsim import censor
from ctorsim.censor import BridgePool, CensorScenario, run_campaign, run_trial, select_bridges
from ctorsim.codec import CodeParams
s = CensorScenario(BridgePool.build(2, 1), CodeParams(4, 3, 1))
for call in (
    lambda: censor._fast_blocked_counts(random.Random(1), 3, 0, 4, 1),
    lambda: select_bridges(s, random.Random(1)),
    lambda: run_trial(s, random.Random(1)),
    lambda: run_campaign(s, 10, 1),
):
    try:
        call()
    except ValueError as error:
        print(f"ValueError: {error}")
"""


class TestScenario:
    def test_variant_named_from_params(self):
        assert scenario(25, 5, 1).variant is Variant.OTOR
        assert scenario(25, 5, 4).variant is Variant.MTOR
        assert scenario(25, 5, 4, 1).variant is Variant.CTOR

    def test_pool_too_small_rejected(self):
        # the scenario checks nothing; the draws check the pool against n
        s = scenario(2, 1, 4)
        assert s._replace(params=CodeParams(3, 2, 1)).variant is Variant.CTOR
        assert pickle.loads(pickle.dumps(s)) == s
        for draw in (select_bridges, run_trial):
            with pytest.raises(ValueError, match="cannot select 4 bridges from a pool of 3"):
                draw(s, random.Random(0))

    def test_no_draw_spins_on_a_pool_smaller_than_n(self):
        # run apart under a timeout, so an urn that redraws forever fails
        # in seconds instead of hanging the suite
        result = subprocess.run(
            [sys.executable, "-c", NO_HANG_PROGRAM, str(Path(censor.__file__).resolve().parents[1])],
            capture_output=True, text=True, timeout=20, check=True,
        )
        assert result.stdout == "ValueError: cannot select 4 bridges from a pool of 3\n" * 4

    def test_rule(self):
        params = CodeParams(4, 3, 1)
        assert not interrupted_by_rule(0, params)
        assert not interrupted_by_rule(1, params)
        assert interrupted_by_rule(2, params)


class TestRunTrial:
    def test_no_known_bridges_never_interrupts(self):
        s = scenario(10, 0, 4)
        for i in range(20):
            assert not run_trial(s, derive_rng(i, "t")).interrupted

    def test_all_known_bridges_always_interrupt(self):
        s = scenario(0, 10, 4)
        for i in range(20):
            outcome = run_trial(s, derive_rng(i, "t"))
            assert outcome.interrupted
            assert outcome.blocked_count == 4

    def test_ctor_tolerates_exactly_one_known_bridge(self):
        s = scenario(25, 5, 4, 1)
        rng = derive_rng(1, "hunt")
        seen_single = 0
        for _ in range(200):
            outcome = run_trial(s, rng)
            if outcome.blocked_count == 1:
                seen_single += 1
                assert not outcome.interrupted
        assert seen_single > 0  # the hunt actually exercised the case

    def test_outcome_fields(self):
        s = scenario(25, 5, 4)
        # run_trial selects with select_bridges before it builds circuits, so
        # a twin stream names its bridges
        chosen = select_bridges(s, derive_rng(3, "t"))
        outcome = run_trial(s, derive_rng(3, "t"))
        assert isinstance(outcome, TrialOutcome)
        assert outcome.blocked_count == sum(1 for b in chosen if b in s.pool.known)
        assert outcome.interrupted == (outcome.blocked_count >= 1)
        assert type(outcome.blocked_count) is int
        assert type(outcome.interrupted) is bool


class TestTrialCells:
    """Pipeline trials share one encoding of the trial message per code shape."""

    @pytest.mark.parametrize("params", [CodeParams(1, 1, 0), CodeParams(4, 4, 0), CodeParams(10, 6, 4)])
    def test_cells_are_a_fresh_encoding(self, params):
        cells = censor._trial_cells(params)
        assert isinstance(cells, CodedMessage)
        fresh = CodedMessage(params, censor._DEFAULT_MESSAGE)
        assert (cells.params, cells.subflows, cells.subflow_size, cells.cells) == (
            fresh.params, fresh.subflows, fresh.subflow_size, fresh.cells
        )
        assert censor._trial_cells(params) is cells
        assert all(type(subflow) is tuple for subflow in cells.cells)

    def test_cache_is_bounded(self):
        assert censor._trial_cells.cache_info().maxsize == 32


class TestExitStreamMemory:
    """Pipeline trials keep short exit streams across transfers and parse
    each trial message only when it is encoded; what they keep is bounded by
    the grid, and a long transfer keeps nothing."""

    def test_grid_trials_keep_only_short_streams_of_unknown_bridges(self, monkeypatch):
        derived = []

        def recording(key, circuit_id, depth, size):
            derived.append((circuit_id, depth, size))
            return onion._derive_keystream(key, circuit_id, depth, size)

        cache = functools.lru_cache(maxsize=onion._exit_keystream.cache_info().maxsize)(recording)
        monkeypatch.setattr(onion, "_exit_keystream", cache)
        for m_known in (0, 12, 25):
            pool = BridgePool.build(DEFAULT_UNKNOWN, m_known)
            for params in DEFAULT_CONFIGS:
                run_pipeline_checks([CensorScenario(pool, params)], 30, m_known)
        info = cache.cache_info()
        assert info.hits > 0
        assert info.currsize == info.misses == len(derived)  # nothing evicted
        assert all(depth == 1 and size <= onion._SHORT_SUBFLOW for _, depth, size in derived)
        # known bridges are always blocked, so they never carry a sub-flow
        pool = BridgePool.build(DEFAULT_UNKNOWN, 0)
        assert {cid for cid, _, _ in derived} <= set(pool.ordered) - pool.known
        exits = default_registry()[1]
        assert info.currsize <= len(exits) * DEFAULT_UNKNOWN * len(DEFAULT_CONFIGS)
        # an e2e-sized transfer (86 generations, 45 KB sub-flows) adds nothing
        coded = CodedMessage(CodeParams(10, 6, 4), bytes(256 * 1024))
        assert len(coded.cells[0]) == 86
        transmit(build_circuits([f"u{i:03d}" for i in range(10)], random.Random(0)), coded, {1, 4})
        assert cache.cache_info() == info

    def test_grid_trials_parse_each_short_subflow_once(self, parser_calls):
        censor._trial_cells.cache_clear()
        for m_known in (0, 12, 25):
            pool = BridgePool.build(DEFAULT_UNKNOWN, m_known)
            for params in DEFAULT_CONFIGS:
                run_pipeline_checks([CensorScenario(pool, params)], 30, m_known)
        # encoding a shape's trial message parses each of its sub-flows back
        # once; every trial's exit peels those same bytes and gets the
        # checked cells, so it parses nothing
        assert len(parser_calls) == sum(params.n for params in DEFAULT_CONFIGS) == 43
        assert all("__init__" in callers and "transmit" not in callers for _, callers in parser_calls)

    def test_the_shortcut_cannot_hide_a_corrupted_transfer(self, monkeypatch, parser_calls):
        s = scenario(25, 0, 4)
        rng = random.Random(1)
        run_trial(s, rng)  # warm: the trial message is encoded
        parser_calls.clear()
        peel = onion.peel_layer
        flipped = []

        def corrupting_peel(cell, router):
            # the first exit peel flips byte 100 of its first cell's payload,
            # past the 6-byte header and the k = 4 row
            peeled = peel(cell, router)
            if peeled.layers_remaining or flipped:
                return peeled
            peeled = peeled._replace(value=peeled.value ^ (1 << 8 * (6 + 4 + 100)))
            flipped.append(peeled.payload)
            return peeled

        monkeypatch.setattr(onion, "peel_layer", corrupting_peel)
        # the corrupted bytes differ from the sub-flow sent, so the exit's
        # check raises before anything parses or decodes them
        with pytest.raises(ValueError, match="^sub-flow 0 did not peel back to the wire that was sent$"):
            run_trial(s, rng)
        assert len(flipped) == 1
        assert parser_calls == []


class TestRunCampaign:
    def test_impossible_event_is_exactly_zero(self):
        result = run_campaign(scenario(10, 0, 4), 2000, seed=0)
        assert result.p_empirical == 0.0
        assert result.interruptions == 0

    def test_certain_event_is_exactly_one(self):
        result = run_campaign(scenario(0, 10, 4), 2000, seed=0)
        assert result.p_empirical == 1.0

    def test_deterministic_for_fixed_seed(self):
        s = scenario(25, 5, 4)
        assert run_campaign(s, 5000, seed=11) == run_campaign(s, 5000, seed=11)

    def test_selection_stream_independent_of_pipeline_fraction(self):
        # the pipeline checks draw from streams of their own, so the
        # estimate must not move when the cross-check fraction changes
        s = scenario(25, 5, 4)
        a = run_campaign(s, 4000, seed=2)
        for fraction in (0.0, 0.05):
            run_pipeline_checks([s], pipeline_checks(4000, fraction), 2)
            assert run_campaign(s, 4000, seed=2) == a

    def test_matches_exact_value_within_three_sigma(self):
        exact = float(p_block_lnc(25, 5, 4, 0))
        assert abs(exact - 0.53841) < 5e-6  # frozen from exhaustive enumeration
        result = run_campaign(scenario(25, 5, 4), 100_000, seed=0)
        sigma = math.sqrt(exact * (1 - exact) / result.trials)
        assert abs(result.p_empirical - exact) <= 3 * sigma

    def test_ci_formula(self):
        result = run_campaign(scenario(25, 5, 4), 1000, seed=5)
        p = result.p_empirical
        assert result.ci95 == pytest.approx(1.96 * math.sqrt(p * (1 - p) / 1000))

    def test_empirical_monotonicity_in_known_bridges(self):
        # coarse check: widely separated knowledge levels, generous margin
        lo = run_campaign(scenario(25, 2, 4), 20_000, seed=4)
        hi = run_campaign(scenario(25, 12, 4), 20_000, seed=4)
        assert hi.p_empirical > lo.p_empirical

    def test_rejects_bad_arguments(self):
        s = scenario(25, 5, 4)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_campaign(s, 0, seed=0)
        for fraction in (1.5, -0.01, math.nan):
            with pytest.raises(ValueError, match=r"^full_pipeline_fraction must be in \[0, 1\]$"):
                pipeline_checks(10, fraction)

    @pytest.mark.parametrize(
        "trials,fraction,expected",
        [(1000, 0.6, 600), (1000, 0.7, 700), (100, 0.29, 29), (10, 0.01, 1), (100, 0, 0), (3, 1, 3)],
    )
    def test_pipeline_runs_the_fraction_it_names(self, monkeypatch, trials, fraction, expected):
        calls = []

        def counting_run_trial(*args, **kwargs):
            calls.append(1)
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(censor, "run_trial", counting_run_trial)
        run_pipeline_checks([scenario(25, 5, 1)], pipeline_checks(trials, fraction), seed=1)
        assert len(calls) == expected


class TestCrossCheckStream:
    # a two-shape grid of three points each; ctor sorts before mtor
    GRID = ["--mknown", "3..5", "--variant", "mtor:4", "--variant", "ctor:5:2", "--seed", "9"]
    SHAPES = [("pipeline-checks:ctor:5:2", CodeParams(5, 3, 2)), ("pipeline-checks:mtor:4:0", CodeParams(4, 4, 0))]

    def grid_run(self, monkeypatch, capsys, trials, fraction) -> tuple[list[tuple], list[tuple]]:
        """Run `simulate` on GRID, checking that each check is handed its
        shape's stream. Return its events in call order, each estimate as
        ("estimate", m_known, params), each stream censor derives as
        ("stream", label), and each check as ("check", m_known, params);
        and, for each check, its params and its stream's state on entry."""
        events, entries, streams = [], [], {}

        def recording_run_campaign(s, *args):
            events.append(("estimate", len(s.pool.known), s.params))
            return run_campaign(s, *args)

        def recording_derive_rng(seed, label):
            events.append(("stream", label))
            streams[label] = derive_rng(seed, label)
            return streams[label]

        def recording_run_trial(s, rng):
            events.append(("check", len(s.pool.known), s.params))
            entries.append((rng, rng.getstate()))
            return run_trial(s, rng)

        monkeypatch.setattr(cli, "run_campaign", recording_run_campaign)
        monkeypatch.setattr(censor, "derive_rng", recording_derive_rng)
        monkeypatch.setattr(censor, "run_trial", recording_run_trial)
        argv = ["simulate", *self.GRID, "--trials", str(trials), "--full-pipeline-fraction", str(fraction)]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        shapes = [(label, params) for label, params in self.SHAPES for _ in range(len(entries) // 2)]
        assert [rng for rng, _ in entries] == [streams[label] for label, _ in shapes]
        return events, [(params, state) for (_, params), (_, state) in zip(shapes, entries)]

    @pytest.mark.parametrize(
        "trials,fraction", [(7, 0.3), (10, 0.25), (1, 0.01), (3, 1.0), (250, 0.013), (500, 0)]
    )
    def test_checks_run_after_every_estimate_on_one_stream_per_shape(self, monkeypatch, capsys, trials, fraction):
        events, states = self.grid_run(monkeypatch, capsys, trials, fraction)
        expected = [
            event
            for m_known in (3, 4, 5)
            for _, params in self.SHAPES
            for event in (("estimate", m_known, params), ("stream", "bridge-selection"))
        ]
        per_point = pipeline_checks(trials, fraction)
        for label, params in self.SHAPES:
            expected.append(("stream", label))
            expected += [("check", m_known, params) for m_known in (3, 4, 5) for _ in range(per_point)]
        assert events == expected
        # each shape's first check starts its fresh stream
        for (label, params), first in zip(self.SHAPES, states[:: max(1, 3 * per_point)]):
            assert first == (params, derive_rng(9, label).getstate())

        # an estimate that draws one more word moves no check's draws
        fast = censor._fast_blocked_counts

        def one_word_more(rng, *args):
            rng.getrandbits(32)
            return fast(rng, *args)

        monkeypatch.setattr(censor, "_fast_blocked_counts", one_word_more)
        assert self.grid_run(monkeypatch, capsys, trials, fraction) == (events, states)

    def test_a_disagreeing_check_fails_the_campaign(self, monkeypatch):
        # a pipeline that loses every transfer disagrees with the rule on a
        # pool with no known bridges, where nothing is ever blocked
        s = scenario(25, 0, 4)
        calls = []

        def failing_run_transfer(circuits, coded, message, blocked):
            calls.append(blocked)
            return onion.TransferResult(False, 1, 0)

        monkeypatch.setattr(censor, "run_transfer", failing_run_transfer)
        assert run_campaign(s, 200, seed=4).interruptions == 0
        run_pipeline_checks([s], pipeline_checks(200, 0), 4)
        assert calls == []
        with pytest.raises(ConsistencyError, match="interrupted=True but blocked_count=0"):
            run_pipeline_checks([s], pipeline_checks(200, 0.01), 4)
        assert calls == [set()]


def urn_draw(population: list[str], n: int, rng: random.Random) -> list[str]:
    """n bridge ids drawn without replacement: each pick takes the j-th
    remaining bridge, j drawn below the m left with getrandbits(m.bit_length())
    and redrawn while j >= m."""
    remaining = population[:]
    chosen = []
    for m in range(len(remaining), len(remaining) - n, -1):
        j = rng.getrandbits(m.bit_length())
        while j >= m:
            j = rng.getrandbits(m.bit_length())
        chosen.append(remaining.pop(j))
    return chosen


def known_first(pool: BridgePool) -> list[str]:
    """The pool's ids with the known bridges in front, as the fast path's urn keeps them."""
    return sorted(pool.known) + sorted(set(pool.ordered) - pool.known)


def reference_fast_path(s: CensorScenario, trials: int, seed: int) -> int:
    """The fast path as a set lookup per drawn bridge id: interruptions counted."""
    rng = derive_rng(seed, "bridge-selection")
    population = known_first(s.pool)
    interruptions = 0
    for _ in range(trials):
        blocked = sum(1 for b in urn_draw(population, s.params.n, rng) if b in s.pool.known)
        interruptions += blocked > s.params.r
    return interruptions


POOLS = [
    (25, 5, 4),
    (25, 0, 1),
    (0, 10, 4),
    (25, 25, 10),
    (3, 2, 5),
    (40, 7, 9),
    (25, 5, 5),
    (25, 5, 6),
    (90, 10, 21),
    (90, 10, 22),
    (16, 5, 5),
    (17, 5, 5),
    # n equal to the pool size
    (6, 4, 10),
    # 32 bridges: the first pick draws one bit more than the second
    (24, 8, 4),
]


class TestFlagSumFastPath:
    """The fast path must count exactly what drawing bridge ids and looking them up counts."""

    @pytest.mark.parametrize("num_unknown,num_known,n", POOLS)
    def test_flag_sum_equals_set_lookup_count(self, num_unknown, num_known, n):
        pool = BridgePool.build(num_unknown, num_known)
        population = known_first(pool)
        by_count, by_id = random.Random(n), random.Random(n)

        def histogram_by_id(trials):
            counts = [0] * (n + 1)
            for _ in range(trials):
                counts[sum(1 for b in urn_draw(population, n, by_id) if b in pool.known)] += 1
            return counts

        # one trial per call
        for _ in range(5_000):
            assert censor._fast_blocked_counts(by_count, len(pool.ordered), num_known, n, 1) == histogram_by_id(1)
        # one batch per call, as run_campaign makes them
        for _ in range(3):
            expected = histogram_by_id(1_000)
            assert censor._fast_blocked_counts(by_count, len(pool.ordered), num_known, n, 1_000) == expected
        assert censor._fast_blocked_counts(by_count, len(pool.ordered), num_known, n, 0) == [0] * (n + 1)
        # both drew the same words
        assert by_count.getstate() == by_id.getstate()

    @pytest.mark.parametrize("num_unknown,num_known,n", POOLS)
    def test_empty_batch_draws_nothing(self, num_unknown, num_known, n):
        rng = random.Random(n)
        state = rng.getstate()
        assert censor._fast_blocked_counts(rng, num_unknown + num_known, num_known, n, 0) == [0] * (n + 1)
        assert rng.getstate() == state

    @pytest.mark.parametrize("num_unknown,num_known,n", POOLS)
    def test_campaign_matches_reference_fast_path(self, num_unknown, num_known, n):
        s = scenario(num_unknown, num_known, n, r=n // 3)
        result = run_campaign(s, 3000, seed=8)
        assert result.interruptions == reference_fast_path(s, 3000, 8)


class ScriptedBits:
    """A getrandbits stand-in that hands out scripted (m, word) pairs in order
    and fails unless each word is asked for with exactly m.bit_length() bits."""

    def __init__(self, script):
        self.words = list(reversed(script))

    def getrandbits(self, bits):
        m, word = self.words.pop()
        assert bits == m.bit_length(), (bits, m)
        return word


def rejected(m: int, index: int) -> int:
    """A word getrandbits(m.bit_length()) can return that is not below m,
    cycling over all of them as `index` grows."""
    return m + index % ((1 << m.bit_length()) - m)


# (unknown, known, n); each pool enumerates size! / (size - n)! sequences
LAW_POOLS = [
    (3, 2, 5),  # n equal to the pool size
    (6, 3, 1),  # n = 1
    (7, 0, 3),  # no known bridge
    (0, 6, 3),  # every bridge known
    (8, 2, 4),  # fewer known bridges than circuits
    (11, 5, 4),  # 16 bridges, a power of two
    (12, 5, 4),  # 17 bridges, just past one
    (4, 3, 5),
    (9, 6, 3),
]


class TestUrnLaw:
    """The fast path's law is the hypergeometric blocked-count law, proved by
    walking every accepted draw sequence of one trial. Each selection of n
    bridges is drawn in n! orders, so the summed histogram is n! times
    blocked_counts, bin by bin, which covers every r at once. The proof
    assumes that getrandbits gives uniform words (MT19937), so each accepted
    sequence is equally likely; it needs neither random.sample nor the rule."""

    @pytest.mark.parametrize("unknown,known,n", LAW_POOLS)
    def test_law_is_the_blocked_count_law(self, unknown, known, n):
        size = unknown + known
        bounds = range(size, size - n, -1)
        histogram = [0] * (n + 1)
        for index, picks in enumerate(itertools.product(*map(range, bounds))):
            script = list(zip(bounds, picks))
            # a word the draw must reject, before the pick at a cycling step
            m = bounds[index % n]
            script.insert(index % n, (m, rejected(m, index)))
            bits = ScriptedBits(script)
            for b, count in enumerate(censor._fast_blocked_counts(bits, size, known, n, 1)):
                histogram[b] += count
            assert bits.words == []
        assert index + 1 == math.perm(size, n)
        assert histogram == [count * math.factorial(n) for count in blocked_counts(unknown, known, n)]

    def test_rejections_are_redrawn_not_used(self):
        unknown, known, n = 4, 3, 3
        size = unknown + known
        bounds = range(size, size - n, -1)
        for index, picks in enumerate(itertools.product(*map(range, bounds))):
            script = list(zip(bounds, picks))
            expected = censor._fast_blocked_counts(ScriptedBits(script), size, known, n, 1)
            for step, m in enumerate(bounds):
                # one to three rejected words before the pick at `step`
                extra = [(m, rejected(m, index + i)) for i in range(1 + index % 3)]
                bits = ScriptedBits(script[:step] + extra + script[step:])
                assert censor._fast_blocked_counts(bits, size, known, n, 1) == expected
                assert bits.words == []


class TestOneDrawRule:
    """The fast path never calls random.sample, and the pipeline checks draw
    from streams of their own, so no sample() can move the estimate."""

    def test_a_changed_sample_cannot_move_the_estimate(self, monkeypatch):
        # an interpreter whose sample() draws otherwise: pipeline checks still
        # select bridges and build circuits, but the estimate must not depend
        # on the cross-check fraction
        def changed_sample(self, population, k):
            self.getrandbits(32)
            return list(population)[::-1][:k]

        s = scenario(25, 5, 4, r=1)
        expected = run_campaign(s, 400, seed=3).interruptions
        monkeypatch.setattr(random.Random, "sample", changed_sample)
        for fraction in (0, 0.1, 1):
            assert run_campaign(s, 400, seed=3).interruptions == expected
            run_pipeline_checks([s], pipeline_checks(400, fraction), 3)
            assert run_campaign(s, 400, seed=3).interruptions == expected


class TestSeedDerivation:
    def test_labels_give_independent_streams(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")

    def test_derive_rng_reproducible(self):
        assert derive_rng(7, "x").random() == derive_rng(7, "x").random()
