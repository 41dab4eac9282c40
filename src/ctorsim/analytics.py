"""Exact interruption probabilities via hypergeometric tail sums.

Selecting n bridges uniformly without replacement from a pool with
`known` censor-known members, the chance that i of them are known is
C(unknown, n-i) * C(known, i) / C(unknown+known, n). Communication is
interrupted when i exceeds what the code absorbs: i >= 1 for the
uncoded variants, i > r with redundancy r. Everything is computed in
exact rational arithmetic (fractions.Fraction); floats appear only when
callers convert at the output boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .codec import CodeParams, Variant

ORACLE_SUBSET_LIMIT = 10**7

DEFAULT_UNKNOWN = 25
DEFAULT_KNOWN_RANGE = range(0, 26)
# otor, mtor:4, mtor:5, mtor:8, mtor:10, ctor:5:2, ctor:10:4
DEFAULT_CONFIGS: tuple[CodeParams, ...] = (
    CodeParams(1, 1, 0),
    CodeParams(4, 4, 0),
    CodeParams(5, 5, 0),
    CodeParams(8, 8, 0),
    CodeParams(10, 10, 0),
    CodeParams(5, 3, 2),
    CodeParams(10, 6, 4),
)


class ResourceLimitError(RuntimeError):
    """An enumeration request exceeds the subset guard."""


def binomial(a: int, b: int) -> int:
    """C(a, b); zero outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _check_pool(unknown: int, known: int, circuits: int) -> None:
    if unknown < 0 or known < 0:
        raise ValueError("bridge counts must be non-negative")
    if circuits < 1:
        raise ValueError("at least one circuit is required")
    if circuits > unknown + known:
        raise ValueError(
            f"cannot select {circuits} bridges from a pool of {unknown + known}"
        )


def p_block_lnc(unknown: int, known: int, circuits: int, redundancy: int) -> Fraction:
    """Probability that more than `redundancy` selected bridges are censor-known.

    With r redundant cells per generation the transfer survives up to r
    blocked circuits, so only deeper blocking interrupts it. Zero whenever
    the censor knows at most r bridges in total. For the uncoded variants
    (r = 0) one blocked circuit already kills the transfer.
    """
    _check_pool(unknown, known, circuits)
    if not 0 <= redundancy < circuits:
        raise ValueError(f"redundancy must satisfy 0 <= r < n, got r={redundancy}, n={circuits}")
    hits = sum(
        binomial(unknown, circuits - i) * binomial(known, i)
        for i in range(redundancy + 1, min(circuits, known) + 1)
    )
    return Fraction(hits, binomial(unknown + known, circuits))


def enumerate_oracle(unknown: int, known: int, circuits: int, threshold: int) -> Fraction:
    """Brute-force ground truth: walk every bridge selection and count the
    ones with more than `threshold` known bridges.

    Deliberately avoids the closed form so it can validate it. Guarded to
    at most ORACLE_SUBSET_LIMIT subsets.
    """
    _check_pool(unknown, known, circuits)
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if binomial(unknown + known, circuits) > ORACLE_SUBSET_LIMIT:
        raise ResourceLimitError(
            f"C({unknown + known}, {circuits}) subsets exceed the {ORACLE_SUBSET_LIMIT} guard"
        )
    flags = (1,) * known + (0,) * unknown
    total = 0
    blocked = 0
    for combo in itertools.combinations(flags, circuits):
        total += 1
        if sum(combo) > threshold:
            blocked += 1
    return Fraction(blocked, total)


@dataclass(frozen=True)
class SweepRow:
    m_known: int
    params: CodeParams
    probability: Fraction


def grid_points(known_range: Iterable[int], configs: Sequence[CodeParams]) -> list[tuple[int, CodeParams]]:
    """The (m_known, params) grid every CSV walks, sorted by (m_known, variant, n, r)."""
    points = [(m_known, params) for m_known in known_range for params in configs]
    points.sort(key=lambda point: (point[0], Variant.of(point[1]).value, point[1].n, point[1].r))
    return points


def sweep(unknown: int, known_range: Iterable[int], configs: Sequence[CodeParams]) -> list[SweepRow]:
    """Exact probability grid over known-bridge counts and code shapes, in
    grid_points order."""
    return [
        SweepRow(m_known, params, p_block_lnc(unknown, m_known, params.n, params.r))
        for m_known, params in grid_points(known_range, configs)
    ]
