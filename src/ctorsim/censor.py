"""Bridge pools, the censor's knowledge set, and the Monte Carlo trial engine.

The censor model is static: a fixed subset of the bridge pool is known to
the censor, and every circuit whose entry bridge is known gets blocked.
The client samples bridges uniformly without replacement and cannot tell
known from unknown; BridgePool.build and both draws, the fast path's urn
and select_bridges, check the pool with analytics' pool rule. The engine
only counts blocked circuits, per fast-path batch as a histogram with one
bin per count and per pipeline trial as one count; analytics.count_interrupted
sums a histogram's bins where codec.interrupted_by_rule interrupts.

Randomness is Python's random.Random (MT19937), each stream seeded from
SHAKE-256 over (seed, label), so results are bit-reproducible for a fixed
seed. A campaign is the estimate alone: the fast path draws all of it from
the "bridge-selection" stream of the point's seed. The full-pipeline trials
are a phase of their own that runs after every estimate of a grid, one code
shape at a time on that shape's "pipeline-checks" stream, as checks that
count for nothing; so neither the estimate nor the checks can move with the
other's draws. pipeline_checks is the one home of the fraction's range and
of how many checks a point gets. The fast path draws with getrandbits
alone, so a CSV is the same bytes on any interpreter; select_bridges calls
random.sample.
"""

from __future__ import annotations

import hashlib
import math
import random
from functools import lru_cache
from typing import Iterable, NamedTuple

from .analytics import check_bridge_counts, check_pool_size, count_interrupted
from .codec import CodeParams, Variant, interrupted_by_rule
from .onion import CodedMessage, build_circuits, run_transfer

DEFAULT_FULL_PIPELINE_FRACTION = 0.01

# fixed payload for trials that only need the interruption bit
_DEFAULT_MESSAGE = hashlib.shake_256(b"trial-payload").digest(1024)


# run_transfer sends a coded message, and every pipeline trial of a shape
# sends the same one, so it is encoded, serialised and parsed once per shape;
# it is immutable, so trials can share it. Bounded because --variant takes any
# number of shapes.
@lru_cache(maxsize=32)
def _trial_cells(params: CodeParams) -> CodedMessage:
    return CodedMessage(params, _DEFAULT_MESSAGE)


class ConsistencyError(RuntimeError):
    """The transport pipeline and the blocked-count rule disagreed on a trial."""


class BridgePool(NamedTuple):
    """The bridges the censor knows, and `ordered`, every id of the pool in
    the canonical selection order, sorted once because every pipeline trial
    reads it; len(pool.ordered) is the pool's size.

    build is the one constructor, its `k…` ids the known ones. It is cached
    (bounded: --mb and --mknown take any count), so equal counts give one
    pool object and a grid builds one pool per m_known.
    """

    known: frozenset[str]
    ordered: tuple[str, ...]

    @classmethod
    @lru_cache(maxsize=64)
    def build(cls, num_unknown: int, num_known: int) -> "BridgePool":
        check_bridge_counts(num_unknown, num_known)
        known = frozenset([f"k{i:03d}" for i in range(num_known)])
        return cls(known, tuple(sorted(known.union([f"u{i:03d}" for i in range(num_unknown)]))))

    def blocked(self, chosen: list[str]) -> frozenset[int]:
        """Indices of the chosen bridges the censor knows: the circuits it blocks."""
        known = self.known
        return frozenset(i for i, bridge in enumerate(chosen) if bridge in known)


class CensorScenario(NamedTuple):
    """One experiment point: a bridge pool plus the code shape the client
    runs. Nothing is checked here: the draws check that the pool holds n."""

    pool: BridgePool
    params: CodeParams

    @property
    def variant(self) -> Variant:
        return Variant.of(self.params)


class CampaignResult(NamedTuple):
    trials: int
    interruptions: int
    p_empirical: float
    ci95: float


def derive_seed(seed: int, label: str) -> int:
    """Deterministic sub-seed for a named substream of a campaign seed."""
    return int.from_bytes(hashlib.shake_256(f"{seed}:{label}".encode()).digest(16), "big")


def derive_rng(seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(seed, label))


def select_bridges(pool: BridgePool, n: int, rng: random.Random) -> list[str]:
    """Uniform sample of n bridges without replacement over the whole pool,
    drawn with ``rng.sample`` over `pool.ordered`; raises ValueError if the
    pool holds fewer than n."""
    ordered = pool.ordered
    check_pool_size(n, len(ordered))
    return rng.sample(ordered, n)


def run_trial(scenario: CensorScenario, rng: random.Random) -> None:
    """One full trial, a check that returns nothing: select bridges, then
    build circuits over the relay pool, both from `rng`, and carry the fixed
    trial message through the byte pipeline; the transfer decodes it and
    compares the result with the message.

    Raises ConsistencyError if the transport outcome ever disagrees with
    the blocked-count rule; the two models must be interchangeable.
    """
    pool, params = scenario.pool, scenario.params
    chosen = select_bridges(pool, params.n, rng)
    blocked = pool.blocked(chosen)
    circuits = build_circuits(chosen, rng)
    interrupted = not run_transfer(circuits, _trial_cells(params), _DEFAULT_MESSAGE, blocked).success
    blocked_count = len(blocked)
    if interrupted != interrupted_by_rule(blocked_count, params):
        raise ConsistencyError(
            f"pipeline interrupted={interrupted} but blocked_count={blocked_count} with r={params.r}"
        )


def run_campaign(scenario: CensorScenario, trials: int, seed: int) -> CampaignResult:
    """Estimate the interruption probability over many independent trials.

    The fast path (an urn count of the known bridges each trial draws; see
    _fast_blocked_counts) runs all `trials` on the point's "bridge-selection"
    stream; analytics.count_interrupted counts the trials in the bins of its
    blocked-count histogram where the rule interrupts. No pipeline trial runs
    here: run_pipeline_checks cross-checks a grid after its estimates. The
    empirical fraction comes with the Wald 95% half-width
    1.96 * sqrt(p(1 - p) / trials), which is 0 whenever no trial or every
    trial is interrupted, even where the exact p lies strictly between 0 and
    1 (ROADMAP item 3). A pool smaller than n raises ValueError from the fast
    path, before any trial runs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = derive_rng(seed, "bridge-selection")
    params = scenario.params
    pool = scenario.pool
    counts = _fast_blocked_counts(rng, len(pool.ordered), len(pool.known), params.n, trials)
    interruptions = count_interrupted(counts, params)
    p = interruptions / trials
    ci95 = 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return CampaignResult(trials, interruptions, p, ci95)


def pipeline_checks(trials: int, full_pipeline_fraction: float) -> int:
    """How many full-pipeline checks a point of `trials` estimate trials
    gets: round(trials * full_pipeline_fraction), and at least one when the
    fraction is positive. Raises ValueError unless the fraction is in [0, 1]."""
    if not 0.0 <= full_pipeline_fraction <= 1.0:
        raise ValueError("full_pipeline_fraction must be in [0, 1]")
    checks = round(trials * full_pipeline_fraction)
    return max(checks, 1) if full_pipeline_fraction > 0 else checks


def run_pipeline_checks(grid: Iterable[CensorScenario], checks: int, seed: int) -> None:
    """Cross-check a grid's estimates with `checks` full select/encode/
    transmit/decode trials per point, after every estimate has run.

    The points are taken one code shape at a time, in the order the shapes
    first appear in `grid`. Each shape draws from its own stream,
    derive_rng(seed, "pipeline-checks:<variant>:<n>:<r>"), which its points
    use one after another in grid order, m_known order for a grid_points
    grid; so the checks draw nothing from an estimate's stream, and no
    estimate's draw count moves them. Each trial raises ConsistencyError if
    the pipeline disagrees with the rule; none is counted.
    """
    shapes: dict[CodeParams, list[CensorScenario]] = {}
    for scenario in grid:
        shapes.setdefault(scenario.params, []).append(scenario)
    for params, points in shapes.items():
        rng = derive_rng(seed, f"pipeline-checks:{Variant.of(params).value}:{params.n}:{params.r}")
        for scenario in points:
            for _ in range(checks):
                run_trial(scenario, rng)


def _fast_blocked_counts(rng: random.Random, size: int, known: int, n: int, count: int) -> list[int]:
    """Run `count` fast-path trials; entry b of the result is how many block b circuits.

    Each trial draws n of the `size` bridges without replacement as an urn
    with the `known` censor-known bridges kept in front: the pick below m
    (m = size, size - 1, ...) is j = getrandbits(m.bit_length()), redrawn
    while j >= m, and is a known bridge when j is below the known bridges
    left. Only the two counts matter, so no bridge id is drawn. Raises
    ValueError if n exceeds `size` (analytics.check_pool_size; the counts
    were checked when the pool was built): the urn would reach m = 0 and spin.
    """
    check_pool_size(n, size)
    getrandbits = rng.getrandbits
    draws = [(m, m.bit_length()) for m in range(size, size - n, -1)]
    counts = [0] * (n + 1)
    for _ in range(count):
        left = known
        for m, bits in draws:
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            if j < left:
                left -= 1
        counts[known - left] += 1
    return counts
