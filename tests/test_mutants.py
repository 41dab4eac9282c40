"""Mutants: a wrong program must fail a check, not agree with itself.

Each test swaps one src function for a wrong one with monkeypatch and shows
which results move and which check catches it.
"""

import random
from fractions import Fraction

import pytest

from ctorsim import analytics, censor
from ctorsim.analytics import p_block_lnc
from ctorsim.censor import BridgePool, CensorScenario, ConsistencyError, derive_rng, run_campaign, run_trial
from ctorsim.codec import CodeParams


def test_rule_as_b_at_least_r_moves_every_law_and_fails_the_pipeline(monkeypatch):
    """The blocked-count rule has one home: with the bound off by one where
    analytics and censor import it, the exact tail, the campaign count and the
    pipeline check all move with it."""
    params = CodeParams(4, 3, 1)
    s = CensorScenario(BridgePool.build(25, 5), params)
    trials, seed = 2_000, 11
    counts = censor._fast_blocked_counts(derive_rng(seed, "bridge-selection"), 30, 5, 4, trials)
    tail_from_1 = p_block_lnc(25, 5, 4, 0)
    interruptions = run_campaign(s, trials, seed, full_pipeline_fraction=0).interruptions
    assert interruptions == sum(counts[2:])
    # every bridge of this pool is chosen, and exactly one is known: b = r
    at_r = CensorScenario(BridgePool.build(3, 1), params)
    assert not run_trial(at_r, random.Random(0)).interrupted

    def mutant(blocked_count, params):
        return blocked_count >= params.r

    monkeypatch.setattr(analytics, "interrupted_by_rule", mutant)
    monkeypatch.setattr(censor, "interrupted_by_rule", mutant)
    assert p_block_lnc(25, 5, 4, 1) == tail_from_1 == Fraction(14755, 27405)
    mutated = run_campaign(s, trials, seed, full_pipeline_fraction=0).interruptions
    assert mutated == interruptions + counts[1]
    with pytest.raises(ConsistencyError, match="interrupted=False but blocked_count=1"):
        run_trial(at_r, random.Random(0))
