"""Bridge pools, the censor's knowledge set, and the Monte Carlo trial engine.

The censor model is static: a fixed subset of the bridge pool is known to
the censor, and every circuit whose entry bridge is known gets blocked.
The client samples bridges uniformly without replacement and cannot tell
known from unknown. A trial is interrupted when more circuits are blocked
than the code can absorb (any blocking at all for otor/mtor).

Randomness is Python's random.Random (MT19937). Campaign substreams are
derived by seeding fresh generators from SHAKE-256 over (seed, label), so
results are bit-reproducible for a fixed seed and the bridge-selection
stream does not shift when the full-pipeline fraction changes. Fast-path
trials replay random.sample's draw inline over known-bridge flags, one
getrandbits call per pick, so they consume that stream word for word as
select_bridges does.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .codec import CodeParams, CodedCell, Variant
from .onion import build_circuits, encode_message, run_transfer

DEFAULT_FULL_PIPELINE_FRACTION = 0.01

# fixed payload for trials that only need the interruption bit
_DEFAULT_MESSAGE = hashlib.shake_256(b"trial-payload").digest(1024)


# Every pipeline trial of a shape sends the same coded cells, so they are
# encoded once per shape; the cells are frozen, so trials can share them.
# Bounded because --variant takes any number of shapes.
@lru_cache(maxsize=32)
def _trial_cells(params: CodeParams) -> tuple[tuple[CodedCell, ...], ...]:
    return encode_message(params, _DEFAULT_MESSAGE)


class ConsistencyError(RuntimeError):
    """The transport pipeline and the blocked-count rule disagreed on a trial."""


@dataclass(frozen=True)
class BridgePool:
    """Disjoint sets of bridges the censor does not / does know about."""

    unknown: frozenset[str]
    known: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "unknown", frozenset(self.unknown))
        object.__setattr__(self, "known", frozenset(self.known))
        if self.unknown & self.known:
            raise ValueError("a bridge cannot be both known and unknown to the censor")

    @classmethod
    def build(cls, num_unknown: int, num_known: int) -> "BridgePool":
        if num_unknown < 0 or num_known < 0:
            raise ValueError("bridge counts must be non-negative")
        return cls(
            unknown=frozenset(f"u{i:03d}" for i in range(num_unknown)),
            known=frozenset(f"k{i:03d}" for i in range(num_known)),
        )

    @cached_property
    def ordered(self) -> tuple[str, ...]:
        """Canonical selection order, so sampling is reproducible."""
        return tuple(sorted(self.unknown | self.known))

    @cached_property
    def flags(self) -> tuple[int, ...]:
        """1 for each censor-known bridge of `ordered`, 0 for the others."""
        known = self.known
        return tuple(int(b in known) for b in self.ordered)

    def __len__(self) -> int:
        return len(self.unknown) + len(self.known)


@dataclass(frozen=True)
class CensorScenario:
    """One experiment point: a bridge pool plus the code shape the client runs."""

    pool: BridgePool
    params: CodeParams

    def __post_init__(self):
        if self.params.n > len(self.pool):
            raise ValueError(
                f"cannot select {self.params.n} bridges from a pool of {len(self.pool)}"
            )

    @property
    def variant(self) -> Variant:
        return Variant.of(self.params)


@dataclass(frozen=True)
class TrialOutcome:
    blocked_count: int
    interrupted: bool


@dataclass(frozen=True)
class CampaignResult:
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
    """Uniform sample of n bridges without replacement over the whole pool."""
    if n < 1:
        raise ValueError("must select at least one bridge")
    if n > len(pool):
        raise ValueError(f"cannot select {n} bridges from a pool of {len(pool)}")
    return rng.sample(pool.ordered, n)


def interrupted_by_rule(blocked_count: int, params: CodeParams) -> bool:
    """Communication is lost once more circuits are blocked than the code absorbs."""
    return blocked_count > params.r


def run_trial(scenario: CensorScenario, rng: random.Random, *, circuit_rng: random.Random) -> TrialOutcome:
    """One full trial: select bridges with `rng`, build circuits over the
    default relay pool with `circuit_rng`, and carry the fixed trial message
    through the byte pipeline; the transfer decodes it and compares the
    result with the message.

    Raises ConsistencyError if the transport outcome ever disagrees with
    the blocked-count rule; the two models must be interchangeable.
    """
    chosen = select_bridges(scenario.pool, scenario.params.n, rng)
    blocked = {i for i, b in enumerate(chosen) if b in scenario.pool.known}
    blocked_count = len(blocked)
    circuits = build_circuits(chosen, circuit_rng)
    result = run_transfer(
        circuits, scenario.params, _DEFAULT_MESSAGE, blocked, coded=_trial_cells(scenario.params)
    )
    interrupted = not result.success
    if interrupted != interrupted_by_rule(blocked_count, scenario.params):
        raise ConsistencyError(
            f"pipeline interrupted={interrupted} but blocked_count={blocked_count} "
            f"with r={scenario.params.r}"
        )
    return TrialOutcome(blocked_count, interrupted)


def run_campaign(
    scenario: CensorScenario,
    trials: int,
    seed: int,
    *,
    full_pipeline_fraction: float = DEFAULT_FULL_PIPELINE_FRACTION,
) -> CampaignResult:
    """Estimate the interruption probability over many independent trials.

    Most trials take the fast path (bridge selection and the blocked-count
    rule only), which replays random.sample's draw over known-bridge flags
    (see _fast_interruptions); round(trials * full_pipeline_fraction) of
    them, at least one when the fraction is positive, spread evenly over the
    campaign, run the full encode/transmit/decode pipeline instead, which
    cross-checks the rule on every such trial. The empirical fraction comes
    with the Wald 95% half-width 1.96 * sqrt(p(1 - p) / trials), which is 0
    whenever no trial or every trial is interrupted, even where the exact p
    lies strictly between 0 and 1 (ROADMAP item 3).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= full_pipeline_fraction <= 1.0:
        raise ValueError("full_pipeline_fraction must be in [0, 1]")
    select_rng = derive_rng(seed, "bridge-selection")
    circuit_rng = derive_rng(seed, "circuit-construction")
    quota = round(trials * full_pipeline_fraction)
    if full_pipeline_fraction > 0:
        quota = max(quota, 1)

    flags = scenario.pool.flags
    n = scenario.params.n
    absorbable = scenario.params.r
    interruptions = 0
    done = 0
    # the j-th of quota pipeline trials is trial ceil(j * trials / quota) - 1,
    # the one where (i + 1) * quota // trials first reaches j
    for j in range(1, quota + 1):
        i = -(-j * trials // quota) - 1
        interruptions += _fast_interruptions(select_rng, flags, n, absorbable, i - done)
        outcome = run_trial(scenario, select_rng, circuit_rng=circuit_rng)
        interruptions += outcome.interrupted
        done = i + 1
    interruptions += _fast_interruptions(select_rng, flags, n, absorbable, trials - done)
    p = interruptions / trials
    ci95 = 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return CampaignResult(trials, interruptions, p, ci95)


def _fast_interruptions(
    rng: random.Random, flags: tuple[int, ...], n: int, r: int, count: int
) -> int:
    """Run `count` fast-path trials; return how many block more than r circuits.

    Each trial replays ``rng.sample(flags, n)`` pick for pick: the same
    branch, the same getrandbits width and the same rejections, so `rng`
    ends exactly where `count` sample calls would leave it. sample() picks
    positions whatever the population holds, so summing the drawn
    known-bridge flags counts what drawing bridge ids would.
    """
    size = len(flags)
    setsize = 21  # random.sample's own choice between a pool list and a seen set
    if n > 5:
        setsize += 4 ** math.ceil(math.log(n * 3, 4))
    getrandbits = rng.getrandbits
    interrupted = 0
    if size <= setsize:
        # swap-remove from a copy of the population, drawing below m = size, size-1, ...
        draws = [(m, m.bit_length()) for m in range(size, size - n, -1)]
        population = list(flags)
        for _ in range(count):
            pool = population[:]
            blocked = 0
            for m, bits in draws:
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                blocked += pool[j]
                pool[j] = pool[m - 1]
            interrupted += blocked > r
    else:
        # draw below size, redrawing positions already taken
        bits = size.bit_length()
        for _ in range(count):
            seen = set()
            blocked = 0
            for _ in range(n):
                j = getrandbits(bits)
                while j >= size or j in seen:
                    j = getrandbits(bits)
                seen.add(j)
                blocked += flags[j]
            interrupted += blocked > r
    return interrupted
