"""Exact interruption probabilities from the hypergeometric blocked-count law.

Selecting n bridges uniformly without replacement from a pool with
`known` censor-known members, C(unknown, n-b) * C(known, b) of the
C(unknown+known, n) selections block b circuits (blocked_counts). A
probability is the share of selections whose blocked count interrupts
the transfer (count_interrupted, which censor's campaigns share with the
pool checks); codec.interrupted_by_rule alone says which counts do. All
arithmetic is exact (fractions.Fraction); callers convert to floats at output.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .codec import CodeParams, Variant, interrupted_by_rule

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


def check_bridge_counts(unknown: int, known: int) -> None:
    """A pool's unknown and known bridge counts must be non-negative."""
    if unknown < 0 or known < 0:
        raise ValueError("bridge counts must be non-negative")


def check_pool_size(n: int, size: int) -> None:
    """n bridges drawn without replacement need a pool of at least n."""
    if n > size:
        raise ValueError(f"cannot select {n} bridges from a pool of {size}")


def _check_pool(unknown: int, known: int, circuits: int) -> None:
    check_bridge_counts(unknown, known)
    if circuits < 1:
        raise ValueError("at least one circuit is required")
    check_pool_size(circuits, unknown + known)


def blocked_counts(unknown: int, known: int, circuits: int) -> list[int]:
    """The blocked-count law: entry b, for b = 0..circuits, is how many
    bridge selections hold b censor-known bridges, C(unknown, n-b) * C(known, b)."""
    _check_pool(unknown, known, circuits)
    return [math.comb(unknown, circuits - b) * math.comb(known, b) for b in range(circuits + 1)]


def p_block_lnc(unknown: int, known: int, circuits: int, redundancy: int) -> Fraction:
    """Probability that more than `redundancy` selected bridges are censor-known.

    With r redundant cells per generation the transfer survives up to r
    blocked circuits, so only deeper blocking interrupts it. Zero whenever
    the censor knows at most r bridges in total. For the uncoded variants
    (r = 0) one blocked circuit already kills the transfer. CodeParams checks r.
    """
    params = CodeParams(circuits, circuits - redundancy, redundancy)
    law = blocked_counts(unknown, known, circuits)
    return Fraction(count_interrupted(law, params), sum(law))


def count_interrupted(law: Sequence[int], params: CodeParams) -> int:
    """Σ_b law[b] over the blocked counts b the rule interrupts, for a law per
    blocked count: blocked_counts' selections or a campaign's histogram."""
    return sum(count for b, count in enumerate(law) if interrupted_by_rule(b, params))


def enumerate_oracle(unknown: int, known: int, circuits: int) -> list[int]:
    """Brute-force blocked-count law: walk every bridge selection and count
    the ones holding b known bridges, for b = 0..circuits.

    Deliberately avoids the closed form so it can validate it. Guarded to
    at most ORACLE_SUBSET_LIMIT subsets.
    """
    _check_pool(unknown, known, circuits)
    if math.comb(unknown + known, circuits) > ORACLE_SUBSET_LIMIT:
        raise ResourceLimitError(
            f"C({unknown + known}, {circuits}) subsets exceed the {ORACLE_SUBSET_LIMIT} guard"
        )
    flags = (1,) * known + (0,) * unknown
    counts = [0] * (circuits + 1)
    for combo in itertools.combinations(flags, circuits):
        counts[sum(combo)] += 1
    return counts


class SweepRow(NamedTuple):
    m_known: int
    params: CodeParams
    probability: Fraction


def grid_points(known_range: Iterable[int], configs: Sequence[CodeParams]) -> list[tuple[int, CodeParams]]:
    """The (m_known, params) grid every CSV walks, sorted by (m_known, variant, n, r)."""
    points = [(m_known, params) for m_known in known_range for params in configs]
    # a Variant is a str enum, so it sorts by its name
    points.sort(key=lambda point: (point[0], Variant.of(point[1]), point[1].n, point[1].r))
    return points


def sweep(unknown: int, known_range: Iterable[int], configs: Sequence[CodeParams]) -> list[SweepRow]:
    """Exact probability grid over known-bridge counts and code shapes, in
    grid_points order."""
    return [
        SweepRow(m_known, params, p_block_lnc(unknown, m_known, params.n, params.r))
        for m_known, params in grid_points(known_range, configs)
    ]
