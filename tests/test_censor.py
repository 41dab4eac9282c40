"""Censorship model: bridge selection, trials, campaigns, consistency."""

import math
import random
from fractions import Fraction

import pytest

from ctorsim import censor
from ctorsim.analytics import p_block_lnc
from ctorsim.censor import (
    BridgePool,
    CensorScenario,
    TrialOutcome,
    derive_rng,
    derive_seed,
    interrupted_by_rule,
    run_campaign,
    run_trial,
    select_bridges,
)
from ctorsim.codec import CodeParams, Variant
from ctorsim.onion import encode_message


def scenario(num_unknown, num_known, n, r=0) -> CensorScenario:
    return CensorScenario(BridgePool.build(num_unknown, num_known), CodeParams(n, n - r, r))


class TestBridgePool:
    def test_build_counts(self):
        pool = BridgePool.build(25, 5)
        assert len(pool) == 30
        assert len(pool.unknown) == 25
        assert len(pool.known) == 5
        assert not pool.unknown & pool.known

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            BridgePool(frozenset({"a"}), frozenset({"a"}))

    def test_ordered_is_canonical(self):
        pool = BridgePool.build(3, 2)
        assert pool.ordered == tuple(sorted(pool.unknown | pool.known))


class TestSelectBridges:
    def test_selecting_whole_pool(self):
        pool = BridgePool.build(3, 2)
        assert set(select_bridges(pool, 5, random.Random(0))) == set(pool.ordered)

    def test_deterministic_for_fixed_seed(self):
        pool = BridgePool.build(25, 5)
        assert select_bridges(pool, 4, random.Random(9)) == select_bridges(pool, 4, random.Random(9))

    def test_oversized_selection_rejected(self):
        with pytest.raises(ValueError):
            select_bridges(BridgePool.build(2, 1), 4, random.Random(0))

    def test_per_bridge_inclusion_is_uniform(self):
        # every bridge should appear with frequency n / pool within 3 sigma
        pool = BridgePool.build(25, 5)
        n, trials = 4, 100_000
        rng = derive_rng(0, "uniformity-check")
        counts = {b: 0 for b in pool.ordered}
        for _ in range(trials):
            for b in rng.sample(pool.ordered, n):
                counts[b] += 1
        p = n / len(pool)
        sigma = math.sqrt(p * (1 - p) * trials)
        for bridge, count in counts.items():
            assert abs(count - p * trials) <= 3 * sigma, bridge


class TestScenario:
    def test_variant_named_from_params(self):
        assert scenario(25, 5, 1).variant is Variant.OTOR
        assert scenario(25, 5, 4).variant is Variant.MTOR
        assert scenario(25, 5, 4, 1).variant is Variant.CTOR

    def test_pool_too_small_rejected(self):
        with pytest.raises(ValueError):
            scenario(2, 1, 4)

    def test_rule(self):
        params = CodeParams(4, 3, 1)
        assert not interrupted_by_rule(0, params)
        assert not interrupted_by_rule(1, params)
        assert interrupted_by_rule(2, params)


class TestRunTrial:
    def test_no_known_bridges_never_interrupts(self):
        s = scenario(10, 0, 4)
        for i in range(20):
            assert not run_trial(s, derive_rng(i, "t"), circuit_rng=derive_rng(i, "c")).interrupted

    def test_all_known_bridges_always_interrupt(self):
        s = scenario(0, 10, 4)
        for i in range(20):
            outcome = run_trial(s, derive_rng(i, "t"), circuit_rng=derive_rng(i, "c"))
            assert outcome.interrupted
            assert outcome.blocked_count == 4

    def test_ctor_tolerates_exactly_one_known_bridge(self):
        s = scenario(25, 5, 4, 1)
        rng, circuit_rng = derive_rng(1, "hunt"), derive_rng(1, "hunt-circuits")
        seen_single = 0
        for _ in range(200):
            outcome = run_trial(s, rng, circuit_rng=circuit_rng)
            if outcome.blocked_count == 1:
                seen_single += 1
                assert not outcome.interrupted
        assert seen_single > 0  # the hunt actually exercised the case

    def test_outcome_fields(self):
        s = scenario(25, 5, 4)
        # run_trial selects with select_bridges, so a twin stream names its bridges
        chosen = select_bridges(s.pool, 4, derive_rng(3, "t"))
        outcome = run_trial(s, derive_rng(3, "t"), circuit_rng=derive_rng(3, "c"))
        assert isinstance(outcome, TrialOutcome)
        assert outcome.blocked_count == sum(1 for b in chosen if b in s.pool.known)
        assert outcome.interrupted == (outcome.blocked_count >= 1)


class TestTrialCells:
    """Pipeline trials share one encoding of the trial message per code shape."""

    @pytest.mark.parametrize("params", [CodeParams(1, 1, 0), CodeParams(4, 4, 0), CodeParams(10, 6, 4)])
    def test_cells_are_a_fresh_encoding(self, params):
        cells = censor._trial_cells(params)
        assert cells == encode_message(params, censor._DEFAULT_MESSAGE)
        assert censor._trial_cells(params) is cells
        assert all(type(gen) is tuple for gen in cells)

    def test_cache_is_bounded(self):
        assert censor._trial_cells.cache_info().maxsize == 32


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
        # substreams are derived separately, so the estimate must not move
        # when the cross-check fraction changes
        s = scenario(25, 5, 4)
        a = run_campaign(s, 4000, seed=2, full_pipeline_fraction=0.0)
        b = run_campaign(s, 4000, seed=2, full_pipeline_fraction=0.05)
        assert a.interruptions == b.interruptions

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
        with pytest.raises(ValueError):
            run_campaign(s, 0, seed=0)
        with pytest.raises(ValueError):
            run_campaign(s, 10, seed=0, full_pipeline_fraction=1.5)

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
        run_campaign(scenario(25, 5, 1), trials, seed=1, full_pipeline_fraction=fraction)
        assert len(calls) == expected


def stride_campaign(s: CensorScenario, trials: int, seed: int, fraction: float) -> int:
    """The campaign loop as a stride test at every trial, with sample() over
    known-bridge flags on the fast path: the reference for where pipeline
    trials fall. It reaches derive_rng and run_trial through the censor
    module, so a test that patches them there sees both loops alike."""
    select_rng = censor.derive_rng(seed, "bridge-selection")
    circuit_rng = censor.derive_rng(seed, "circuit-construction")
    quota = round(trials * fraction)
    if fraction > 0:
        quota = max(quota, 1)
    flags = tuple(int(b in s.pool.known) for b in s.pool.ordered)
    interruptions = 0
    for i in range(trials):
        if (i + 1) * quota // trials > i * quota // trials:
            outcome = censor.run_trial(s, select_rng, circuit_rng=circuit_rng)
            interruptions += outcome.interrupted
        else:
            interruptions += sum(select_rng.sample(flags, s.params.n)) > s.params.r
    return interruptions


class TestPipelinePlacement:
    @pytest.mark.parametrize(
        "trials,fraction", [(7, 0.3), (10, 0.25), (1, 0.01), (3, 1.0), (250, 0.013), (500, 0)]
    )
    def test_pipeline_trials_fall_where_the_stride_rule_puts_them(self, monkeypatch, trials, fraction):
        s = scenario(25, 5, 4, r=1)

        def traced(campaign):
            streams, trial_entries = {}, []

            def recording_derive_rng(seed, label):
                streams[label] = derive_rng(seed, label)
                return streams[label]

            # both paths consume the selection stream alike, so only its state
            # as each pipeline trial starts pins that trial's index
            def recording_run_trial(trial_scenario, rng, **kwargs):
                trial_entries.append(rng.getstate())
                return run_trial(trial_scenario, rng, **kwargs)

            monkeypatch.setattr(censor, "derive_rng", recording_derive_rng)
            monkeypatch.setattr(censor, "run_trial", recording_run_trial)
            interruptions = campaign()
            final = {label: rng.getstate() for label, rng in streams.items()}
            return interruptions, trial_entries, final

        expected = traced(lambda: stride_campaign(s, trials, 9, fraction))
        actual = traced(lambda: run_campaign(s, trials, 9, full_pipeline_fraction=fraction).interruptions)
        assert actual == expected
        assert sorted(actual[2]) == ["bridge-selection", "circuit-construction"]


def reference_fast_path(s: CensorScenario, trials: int, seed: int) -> int:
    """The fast path as a set lookup per drawn bridge id: interruptions counted."""
    sample = derive_rng(seed, "bridge-selection").sample
    interruptions = 0
    for _ in range(trials):
        blocked = sum(1 for b in sample(s.pool.ordered, s.params.n) if b in s.pool.known)
        interruptions += blocked > s.params.r
    return interruptions


POOLS = [
    (25, 5, 4),
    (25, 0, 1),
    (0, 10, 4),
    (25, 25, 10),
    (3, 2, 5),
    (40, 7, 9),
    # random.sample's branch edges: n = 5 keeps a seen set, n = 6 a pool list
    (25, 5, 5),
    (25, 5, 6),
    # setsize 85 (n = 21) vs 277 (n = 22) on 100 bridges
    (90, 10, 21),
    (90, 10, 22),
    # n = 5: a pool list up to 21 bridges, a seen set from 22
    (16, 5, 5),
    (17, 5, 5),
    # n equal to the pool size
    (6, 4, 10),
    # a seen set over 32 bridges, where size.bit_length() != (size - 1).bit_length()
    (24, 8, 4),
]


class TestFlagSumFastPath:
    """The fast path must count exactly what drawing bridge ids and looking them up counts."""

    @pytest.mark.parametrize("num_unknown,num_known,n", POOLS)
    def test_flag_sum_equals_set_lookup_count(self, num_unknown, num_known, n):
        pool = BridgePool.build(num_unknown, num_known)
        flags = tuple(int(b in pool.known) for b in pool.ordered)
        by_flag, by_id = random.Random(n), random.Random(n)

        def blocked_by_id():
            return sum(1 for b in by_id.sample(pool.ordered, n) if b in pool.known)

        # one trial per call, the threshold cycling over 0..n-1
        for i in range(5_000):
            r = i % n
            assert censor._fast_interruptions(by_flag, flags, n, r, 1) == (blocked_by_id() > r)
        # one batch per call, as run_campaign makes them
        for r in range(n):
            expected = sum(blocked_by_id() > r for _ in range(1_000))
            assert censor._fast_interruptions(by_flag, flags, n, r, 1_000) == expected
        assert censor._fast_interruptions(by_flag, flags, n, 0, 0) == 0
        assert by_flag.getstate() == by_id.getstate()

    @pytest.mark.parametrize("num_unknown,num_known,n", POOLS)
    def test_pool_flags_mark_known_bridges(self, num_unknown, num_known, n):
        pool = BridgePool.build(num_unknown, num_known)
        assert pool.flags == tuple(int(b in pool.known) for b in pool.ordered)

    @pytest.mark.parametrize("num_unknown,num_known,n", POOLS)
    def test_campaign_matches_reference_fast_path(self, num_unknown, num_known, n):
        s = scenario(num_unknown, num_known, n, r=n // 3)
        result = run_campaign(s, 3000, seed=8, full_pipeline_fraction=0)
        assert result.interruptions == reference_fast_path(s, 3000, 8)


class TestSeedDerivation:
    def test_labels_give_independent_streams(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")

    def test_derive_rng_reproducible(self):
        assert derive_rng(7, "x").random() == derive_rng(7, "x").random()
