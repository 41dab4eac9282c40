"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines. Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ctorsim import gf256
from ctorsim.analytics import (
    binomial,
    enumerate_oracle,
    p_block_lnc,
)
from ctorsim.censor import (
    BridgePool,
    CensorScenario,
    derive_rng,
    derive_seed,
    run_campaign,
    run_trial,
)
from ctorsim.cli import main
from ctorsim.codec import (
    CELL_SIZE,
    CodeParams,
    Generation,
    UnrecoverableGeneration,
    build_generator,
    decode_generation,
    encode_generation,
    reassemble_message,
    split_message,
)

CODE_SHAPES = [(1, 1), (4, 3), (5, 3), (10, 6)]


def report(num: int, name: str, extra: str = "") -> None:
    line = f"[acceptance] criterion {num} ({name}): PASS"
    if extra:
        line += f" [{extra}]"
    print(line)


def test_criterion_1_oracle_equivalence_exact():
    """Closed forms equal brute-force enumeration on the whole small grid."""
    points = 0
    for unknown in range(0, 13):
        for known in range(0, 13):
            for n in range(1, 7):
                if n > unknown + known:
                    continue
                oracle_plain = enumerate_oracle(unknown, known, n, 0)
                assert p_block_lnc(unknown, known, n, 0) == oracle_plain, (unknown, known, n)
                for r in range(0, n):
                    oracle_r = oracle_plain if r == 0 else enumerate_oracle(unknown, known, n, r)
                    assert p_block_lnc(unknown, known, n, r) == oracle_r, (unknown, known, n, r)
                    points += 1
    report(1, "oracle equivalence, exact", f"{points} grid points, zero tolerance")


def test_criterion_2_identity_checks_exact():
    """Complement form of the uncoded (r=0) tail, and the known-pool side condition."""
    for known in range(0, 26):
        for n in (1, 4, 5, 8, 10):
            p = p_block_lnc(25, known, n, 0)
            assert p == 1 - Fraction(binomial(25, n), binomial(25 + known, n))
        for n, r in ((5, 2), (10, 4)):
            if known <= r:
                assert p_block_lnc(25, known, n, r) == 0
    report(2, "identity checks, exact")


def test_criterion_3_figure_anchors():
    """Qualitative anchors for the headline comparison at 25 unknown bridges."""
    # (a) uncoded multi-circuit is all but certainly blocked at 16 known bridges
    assert p_block_lnc(25, 16, 10, 0) >= Fraction(99, 100)
    assert p_block_lnc(25, 16, 8, 0) >= Fraction(98, 100)

    # (b) coding never hurts: coded rows are pointwise at or below uncoded rows
    for known in range(1, 26):
        for n, r in ((5, 2), (10, 4)):
            assert p_block_lnc(25, known, n, r) <= p_block_lnc(25, known, n, 0)

    # (c) crossover between the deep (n=10, r=4) and wide (n=5, r=2) codes.
    # The claimed boundary is 15 known bridges; exact arithmetic puts the
    # first reversal at 14, so the orderings are verified against the true
    # crossover and the one-point discrepancy is reported, not hidden.
    deep = {m: p_block_lnc(25, m, 10, 4) for m in range(0, 26)}
    wide = {m: p_block_lnc(25, m, 5, 2) for m in range(0, 26)}
    crossover = next(m for m in range(0, 26) if deep[m] > wide[m])
    assert crossover == 14, f"exact crossover moved to {crossover}"
    for m in range(1, crossover):
        assert deep[m] <= wide[m], m
    for m in range(crossover, 25):
        assert wide[m] <= deep[m], m
    report(
        3,
        "figure anchors",
        "discrepancy reported: exact crossover at m_known=14, source text claims 15; "
        f"ctor(10,4)={float(deep[14]):.6f} > ctor(5,2)={float(wide[14]):.6f} at 14",
    )


MONTE_CARLO_POINTS = [
    (2, "otor", 1, 0),
    (10, "otor", 1, 0),
    (5, "mtor", 4, 0),
    (24, "mtor", 4, 0),
    (8, "mtor", 5, 0),
    (16, "mtor", 8, 0),
    (20, "mtor", 10, 0),
    (3, "ctor", 4, 1),
    (10, "ctor", 5, 2),
    (16, "ctor", 5, 2),
    (8, "ctor", 10, 4),
    (16, "ctor", 10, 4),
]


def test_criterion_4_monte_carlo_convergence():
    """10^5-trial campaigns land within 3 binomial sigma of the exact values."""
    assert len(MONTE_CARLO_POINTS) == 12
    trials = 100_000
    for m_known, variant, n, r in MONTE_CARLO_POINTS:
        exact = float(p_block_lnc(25, m_known, n, r))
        scenario = CensorScenario(BridgePool.build(25, m_known), CodeParams(n, n - r, r))
        seed = derive_seed(0, f"acceptance-4:{m_known}:{variant}:{n}:{r}")
        result = run_campaign(scenario, trials, seed)
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(result.p_empirical - exact) <= 3 * sigma, (
            m_known, variant, n, r, result.p_empirical, exact,
        )
    report(4, "Monte Carlo convergence", f"12 points x {trials} trials, 3 sigma")


def test_criterion_5_pipeline_combinatorics_consistency():
    """Transport success equals the blocked-count rule on every single trial."""
    scenarios = [
        CensorScenario(BridgePool.build(25, 5), CodeParams(1, 1, 0)),
        CensorScenario(BridgePool.build(25, 5), CodeParams(4, 4, 0)),
        CensorScenario(BridgePool.build(25, 5), CodeParams(4, 3, 1)),
        CensorScenario(BridgePool.build(25, 8), CodeParams(5, 3, 2)),
        CensorScenario(BridgePool.build(25, 12), CodeParams(10, 6, 4)),
    ]
    per_scenario = 10_000 // len(scenarios)
    interrupted = 0
    for idx, scenario in enumerate(scenarios):
        rng = derive_rng(idx, "acceptance-5-select")
        circuit_rng = derive_rng(idx, "acceptance-5-circuit")
        for _ in range(per_scenario):
            # run_trial itself raises ConsistencyError on any disagreement
            outcome = run_trial(scenario, rng, circuit_rng=circuit_rng)
            assert outcome.interrupted == (outcome.blocked_count > scenario.params.r)
            interrupted += outcome.interrupted
    total = per_scenario * len(scenarios)
    assert 0 < interrupted < total  # the mix exercised both outcomes
    report(5, "pipeline/combinatorics consistency", f"{total} full-pipeline trials")


def test_criterion_6a_round_trip_bit_exactness():
    rng = random.Random(606)
    messages = 0
    for n, k in CODE_SHAPES:
        params = CodeParams(n, k, n - k)
        matrix = build_generator(params)
        for _ in range(250):
            message = rng.randbytes(rng.randint(1, 8192))
            decoded = [
                decode_generation(rng.sample(encode_generation(g, matrix), k), params)
                for g in split_message(message, k)
            ]
            assert reassemble_message(decoded) == message
            messages += 1
    assert messages == 1000
    report(6, "codec round trips (6a)", "1000 messages, random k-subsets, bit-exact")


def test_criterion_6b_any_k_subset_decodes():
    rng = random.Random(607)
    checked = 0
    for n, k in CODE_SHAPES:
        params = CodeParams(n, k, n - k)
        generation = Generation(0, tuple(rng.randbytes(CELL_SIZE) for _ in range(k)))
        cells = encode_generation(generation, build_generator(params))
        for subset in itertools.combinations(cells, k):
            assert decode_generation(list(subset), params).cells == generation.cells
            checked += 1
    report(6, "any-k decodability (6b)", f"{checked} subsets, exhaustive for n <= 10")


def test_criterion_6c_k_minus_one_always_fails():
    rng = random.Random(608)
    for n, k in CODE_SHAPES:
        params = CodeParams(n, k, n - k)
        generation = Generation(0, tuple(rng.randbytes(CELL_SIZE) for _ in range(k)))
        cells = encode_generation(generation, build_generator(params))
        for subset in itertools.combinations(cells, k - 1):
            if subset:
                with pytest.raises(UnrecoverableGeneration):
                    decode_generation(list(subset), params)
            else:
                with pytest.raises(ValueError):
                    decode_generation([], params)
    report(6, "decode threshold sharpness (6c)", "all k-1 subsets fail")


def test_criterion_7_field_exhaustive():
    def mul_shift_reduce(a: int, b: int) -> int:
        product = 0
        while b:
            if b & 1:
                product ^= a
            a <<= 1
            if a & 0x100:
                a ^= 0x11D
            b >>= 1
        return product

    table = np.empty((256, 256), dtype=np.uint8)
    for a in range(256):
        for b in range(256):
            m = gf256.mul(a, b)
            assert m == mul_shift_reduce(a, b)
            table[a, b] = m
        assert gf256.add(a, a) == 0
        assert gf256.mul(a, 1) == a
        assert gf256.mul(a, 0) == 0

    assert np.array_equal(table, table.T)  # commutativity, all pairs
    assert np.array_equal(table[table, :], table[:, table])  # associativity, all triples
    xor = np.bitwise_xor.outer(np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8))
    assert np.array_equal(  # distributivity, all triples
        table[:, xor], np.bitwise_xor(table[:, :, None], table[:, None, :])
    )

    for a in range(1, 256):
        assert gf256.mul(a, gf256.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf256.inv(0)
    report(7, "field exhaustive tests", "all 256x256 pairs, 255 inverses")


def test_criterion_8_fig2_reproducibility(tmp_path):
    args = ["fig2", "--trials", "2000", "--seed", "3"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*args, "--out", str(first)]) == 0
    assert main([*args, "--out", str(second)]) == 0
    for name in ("fig2_analytic.csv", "fig2_simulated.csv"):
        blob = (first / name).read_bytes()
        assert blob
        assert blob == (second / name).read_bytes()
    report(8, "fig2 reproducibility", "byte-identical CSVs across runs")
