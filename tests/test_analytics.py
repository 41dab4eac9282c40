"""Exact probability machinery against enumeration and algebraic identities."""

import math
from fractions import Fraction

import pytest

from ctorsim.analytics import (
    DEFAULT_CONFIGS,
    DEFAULT_KNOWN_RANGE,
    DEFAULT_UNKNOWN,
    ResourceLimitError,
    blocked_counts,
    enumerate_oracle,
    p_block_lnc,
    sweep,
)
from ctorsim.codec import CodeParams, Variant


class TestPlainBlocking:
    def test_no_known_bridges_means_zero(self):
        assert p_block_lnc(25, 0, 4, 0) == 0

    def test_single_circuit_is_known_share(self):
        assert p_block_lnc(25, 5, 1, 0) == Fraction(1, 6)

    def test_reference_point(self):
        # frozen from exhaustive enumeration of all C(30, 4) selections
        assert p_block_lnc(25, 5, 4, 0) == Fraction(14755, 27405)
        assert float(p_block_lnc(25, 5, 4, 0)) == pytest.approx(0.53841, abs=5e-6)

    def test_complement_identity_on_grid(self):
        for known in range(0, 26):
            for n in (1, 4, 5, 8, 10):
                p = p_block_lnc(25, known, n, 0)
                assert p == 1 - Fraction(math.comb(25, n), math.comb(25 + known, n))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            p_block_lnc(25, 5, 0, 0)
        with pytest.raises(ValueError):
            p_block_lnc(2, 1, 4, 0)
        with pytest.raises(ValueError):
            p_block_lnc(-1, 5, 1, 0)
        # p_block_lnc(25, 5, 0, 0) fails in CodeParams first, so ask the law itself
        with pytest.raises(ValueError, match="at least one circuit is required"):
            blocked_counts(25, 5, 0)


class TestCodedBlocking:
    def test_zero_when_censor_knows_at_most_r_bridges(self):
        for r in range(1, 4):
            for known in range(0, r + 1):
                assert p_block_lnc(25, known, 5, r) == 0

    def test_reference_point(self):
        assert p_block_lnc(25, 5, 4, 1) == Fraction(3255, 27405)
        assert float(p_block_lnc(25, 5, 4, 1)) == pytest.approx(0.11878, abs=1e-5)

    def test_redundancy_bounds(self):
        with pytest.raises(ValueError):
            p_block_lnc(25, 5, 4, 4)
        with pytest.raises(ValueError):
            p_block_lnc(25, 5, 4, -1)

    def test_dominance_over_plain(self):
        for known in range(0, 26):
            for n, r in ((4, 1), (5, 2), (10, 4)):
                assert p_block_lnc(25, known, n, r) <= p_block_lnc(25, known, n, 0)

    def test_monotone_in_redundancy(self):
        for known in range(0, 16):
            for n in (4, 6, 10):
                values = [p_block_lnc(25, known, n, r) for r in range(0, n)]
                assert values == sorted(values, reverse=True)

    def test_monotone_in_known_bridges(self):
        for n, r in ((4, 0), (4, 1), (10, 4)):
            values = [p_block_lnc(25, known, n, r) for known in range(0, 26)]
            assert values == sorted(values)


class TestEnumerationOracle:
    def test_zero_without_known_bridges(self):
        assert enumerate_oracle(10, 0, 3) == [math.comb(10, 3), 0, 0, 0]

    def test_matches_formulas_on_small_grid(self):
        for unknown in range(0, 9):
            for known in range(0, 9):
                for n in range(1, 5):
                    if n > unknown + known:
                        continue
                    counts = enumerate_oracle(unknown, known, n)
                    assert blocked_counts(unknown, known, n) == counts
                    assert sum(counts) == math.comb(unknown + known, n)
                    for r in range(0, n):
                        # the tail is the share of selections blocking more than r
                        assert p_block_lnc(unknown, known, n, r) == Fraction(sum(counts[r + 1 :]), sum(counts))

    def test_hypergeometric_completeness(self):
        # all selection sizes together cover the whole space (Vandermonde)
        for unknown in range(0, 13):
            for known in range(0, 13):
                for n in range(1, 7):
                    if n > unknown + known:
                        continue
                    total = sum(
                        math.comb(unknown, n - i) * math.comb(known, i)
                        for i in range(0, min(n, known) + 1)
                    )
                    assert total == math.comb(unknown + known, n)

    def test_subset_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_oracle(30, 30, 10)  # C(60, 10) ~ 7.5e10 subsets


class TestSweep:
    def test_default_grid_shape_and_order(self):
        rows = sweep(DEFAULT_UNKNOWN, DEFAULT_KNOWN_RANGE, DEFAULT_CONFIGS)
        assert len(rows) == 26 * len(DEFAULT_CONFIGS)
        keys = [(r.m_known, Variant.of(r.params).value, r.params.n) for r in rows]
        assert keys == sorted(keys)

    def test_single_point_matches_point_operation(self):
        [row] = sweep(25, [5], [CodeParams(4, 4, 0)])
        assert row.probability == p_block_lnc(25, 5, 4, 0)
        [row] = sweep(25, [5], [CodeParams(4, 3, 1)])
        assert row.probability == p_block_lnc(25, 5, 4, 1)

    def test_coded_rows_never_exceed_uncoded_rows(self):
        rows = sweep(DEFAULT_UNKNOWN, DEFAULT_KNOWN_RANGE, DEFAULT_CONFIGS)
        table = {(r.m_known, Variant.of(r.params), r.params.n): r.probability for r in rows}
        for m_known in DEFAULT_KNOWN_RANGE:
            for n in (5, 10):
                assert table[(m_known, Variant.CTOR, n)] <= table[(m_known, Variant.MTOR, n)]

    def test_bad_config_rejected(self):
        # the shape itself is checked by CodeParams; sweep checks it against the pool
        with pytest.raises(ValueError):
            sweep(2, [1], [CodeParams(4, 3, 1)])
        with pytest.raises(ValueError):
            sweep(25, [-1], [CodeParams(1, 1, 0)])
