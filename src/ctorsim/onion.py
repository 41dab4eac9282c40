"""Transport model: the relay pool, three-hop circuits sharing one exit, layered
stream encryption, and the client-to-exit pipeline for all three variants.

The single-circuit (otor), multi-circuit (mtor), and coded multi-circuit
(ctor) variants share one code path and differ only in their CodeParams:
otor is (n=1, k=1, r=0), mtor is (n=k, r=0), ctor has r >= 1.

Layer encryption is a keyed pseudorandom stream XOR, not real cryptography:
the keystream is SHAKE-256 over (router key, circuit id, sequence number,
layer position). Binding the layer position is what makes out-of-order
peeling detectable; bare XOR layers would commute. As with Tor's per-hop
counter-mode cipher, transmit runs each hop's stream across a whole
sub-flow: the cells a circuit carries are joined, wrapped and peeled once,
with the sub-flow's first generation id as the sequence number, so a
transfer derives one stream per (circuit, hop).
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from typing import Collection, Iterator, NamedTuple, Sequence

from .codec import (
    MAX_N,
    CodeParams,
    CodedCell,
    Generation,
    UnrecoverableGeneration,
    build_generator,
    decode_generation,
    encode_generation,
    reassemble_message,
    split_message,
)
from .gf256 import xor_bytes


@dataclass(frozen=True)
class OnionRouter:
    router_id: str
    layer_key: bytes


def derive_layer_key(router_id: str) -> bytes:
    """Deterministic per-router key material; stands in for real key exchange."""
    return hashlib.shake_256(b"layer-key:" + router_id.encode()).digest(16)


# OnionRouter is frozen, so every circuit that names a relay can share one
# instance; bounded because bridge ids grow with --mb.
@functools.lru_cache(maxsize=1024)
def relay(router_id: str) -> OnionRouter:
    """A bridge or pool relay, keyed by its id."""
    return OnionRouter(router_id, derive_layer_key(router_id))


@dataclass(frozen=True)
class RouterRegistry:
    """Immutable pool of middle and exit relays available to a client."""

    middles: tuple[OnionRouter, ...]
    exits: tuple[OnionRouter, ...]


@functools.cache
def default_registry() -> RouterRegistry:
    """The one relay pool of the process, built on first use. The censor
    blocks only entry bridges, so the middles and exit a circuit draws never
    decide an outcome; the pool only needs enough middles for any legal code.
    The pool sizes are an operational stand-in, not a measured topology."""
    return RouterRegistry(
        middles=tuple(relay(f"middle-{i:03d}") for i in range(MAX_N)),
        exits=tuple(relay(f"exit-{i:02d}") for i in range(10)),
    )


@dataclass(frozen=True)
class Circuit:
    """entry -> middle -> exit relay chain."""

    entry: OnionRouter
    middle: OnionRouter
    exit: OnionRouter

    @property
    def circuit_id(self) -> str:
        # entries are unique within a circuit set, so the entry id names the circuit
        return self.entry.router_id


@dataclass(frozen=True)
class CircuitSet:
    """n disjoint circuits sharing exactly one exit: 2n+1 distinct relays."""

    circuits: tuple[Circuit, ...]

    def __post_init__(self):
        if not self.circuits:
            raise ValueError("a circuit set holds at least one circuit")
        entries = {c.entry.router_id for c in self.circuits}
        middles = {c.middle.router_id for c in self.circuits}
        exits = {c.exit.router_id for c in self.circuits}
        n = len(self.circuits)
        if len(entries) != n:
            raise ValueError("entry relays must be pairwise distinct")
        if len(middles) != n:
            raise ValueError("middle relays must be pairwise distinct")
        if len(exits) != 1:
            raise ValueError("all circuits must share one exit relay")
        if entries & middles or exits & (entries | middles):
            raise ValueError("relay roles must not overlap within a circuit set")

    def __len__(self) -> int:
        return len(self.circuits)

    def __iter__(self) -> Iterator[Circuit]:
        return iter(self.circuits)

    def __getitem__(self, i: int) -> Circuit:
        return self.circuits[i]


def build_circuits(bridge_ids: Sequence[str], rng: random.Random) -> CircuitSet:
    """Build one circuit per chosen bridge, middles and the shared exit drawn
    uniformly without replacement from the default relay pool. CircuitSet
    rejects an empty or repeated bridge list."""
    if len(bridge_ids) > MAX_N:
        raise ValueError(f"{len(bridge_ids)} bridges, but a code has at most {MAX_N} circuits")
    pool = default_registry()
    middles = rng.sample(pool.middles, len(bridge_ids))
    shared_exit = rng.choice(pool.exits)
    return CircuitSet(
        tuple(
            Circuit(relay(bridge_id), middle, shared_exit)
            for bridge_id, middle in zip(bridge_ids, middles)
        )
    )


class LayeredCell(NamedTuple):
    """Wire bytes under 0..3 encryption layers, tagged with routing context."""

    payload: bytes
    layers_remaining: int
    circuit_id: str
    seq: int


# The three layer streams of a wrapped payload (one cell, or a whole sub-flow
# in transmit) are derived in wrap_layers and consumed again, in reverse
# order, by the three peel_layer calls that follow it, so a cache of three
# streams makes that one SHAKE call per (payload, hop).
@functools.lru_cache(maxsize=3)
def _keystream(key: bytes, circuit_id: str, seq: int, depth: int, size: int) -> bytes:
    if not key:
        raise ValueError("router layer key must be non-empty")
    cid = circuit_id.encode()
    return hashlib.shake_256(b"%b%b%b%b%b%c" % (
        len(key).to_bytes(2, "big"), key, len(cid).to_bytes(2, "big"), cid, seq.to_bytes(8, "big"), depth
    )).digest(size)


def wrap_layers(cell_bytes: bytes, circuit: Circuit, seq: int = 0) -> LayeredCell:
    """Apply the exit, middle, and entry stream layers, in that order, so that
    peeling proceeds entry -> middle -> exit."""
    size = len(cell_bytes)
    cid = circuit.circuit_id
    acc = (
        int.from_bytes(cell_bytes, "big")
        ^ int.from_bytes(_keystream(circuit.exit.layer_key, cid, seq, 1, size), "big")
        ^ int.from_bytes(_keystream(circuit.middle.layer_key, cid, seq, 2, size), "big")
        ^ int.from_bytes(_keystream(circuit.entry.layer_key, cid, seq, 3, size), "big")
    )
    return LayeredCell(acc.to_bytes(size, "big"), 3, cid, seq)


def peel_layer(cell: LayeredCell, router: OnionRouter) -> LayeredCell:
    """Remove one layer with the router's key."""
    payload, depth, cid, seq = cell
    if depth <= 0:
        raise ValueError("no encryption layers left to peel")
    data = xor_bytes(payload, _keystream(router.layer_key, cid, seq, depth, len(payload)))
    return LayeredCell(data, depth - 1, cid, seq)


def transmit(
    circuits: CircuitSet,
    coded_generations: Sequence[Sequence[CodedCell]],
    blocked: Collection[int] = frozenset(),
) -> list[CodedCell]:
    """Carry every generation across the circuit set; sub-flow i rides circuit i.

    The circuits whose indices are in `blocked` drop their whole sub-flow
    silently. Each surviving sub-flow is joined into one byte stream,
    wrapped once, peeled hop by hop, and reparsed cell by cell by the
    headers in the wire bytes, so the returned cells are exactly what the
    exit relay can see.
    They come back generation by generation, in circuit order within each.
    Every generation is checked before anything is wrapped.
    """
    n = len(circuits)
    if not all(0 <= i < n for i in blocked):
        raise ValueError(f"blocked circuit indices {sorted(blocked)} outside 0..{n - 1}")
    for gen_cells in coded_generations:
        if len(gen_cells) != n:
            raise ValueError(f"generation carries {len(gen_cells)} cells for {n} circuits")
        for idx, cell in enumerate(gen_cells):
            if cell.subflow_index != idx:
                raise ValueError(
                    f"sub-flow {cell.subflow_index} offered to circuit {idx}; order mismatch"
                )
    if not coded_generations:
        return []
    subflows: list[list[CodedCell]] = []
    for idx, circuit in enumerate(circuits):
        if idx in blocked:
            continue
        wire = b"".join(gen_cells[idx].to_wire() for gen_cells in coded_generations)
        layered = wrap_layers(wire, circuit, seq=coded_generations[0][idx].generation_id)
        for router in (circuit.entry, circuit.middle, circuit.exit):
            layered = peel_layer(layered, router)
        subflows.append(CodedCell.from_wire_stream(layered.payload))
    return [cell for gen_cells in zip(*subflows) for cell in gen_cells]


@dataclass(frozen=True)
class TransferResult:
    success: bool
    data: bytes | None
    failed_generations: tuple[int, ...]
    delivered_counts: tuple[int, ...]


def run_transfer(
    circuits: CircuitSet,
    params: CodeParams,
    message: bytes,
    blocked: Collection[int] = frozenset(),
) -> TransferResult:
    """One full client-to-exit transfer of a message over a circuit set.

    Success means every generation decoded and the reassembled bytes equal
    the message; for otor and mtor that reduces to no circuit in `blocked`.
    """
    if len(circuits) != params.n:
        raise ValueError(f"{len(circuits)} circuits for code with n={params.n}")
    matrix = build_generator(params)

    generations = split_message(message, params.k)
    coded = [encode_generation(g, matrix) for g in generations]
    arrived = transmit(circuits, coded, blocked)

    by_generation: dict[int, list[CodedCell]] = {}
    for cell in arrived:
        by_generation.setdefault(cell.generation_id, []).append(cell)

    decoded: list[Generation] = []
    failed: list[int] = []
    counts: list[int] = []
    for generation in generations:
        cells = by_generation.get(generation.generation_id, [])
        counts.append(len(cells))
        if len(cells) < params.k:
            failed.append(generation.generation_id)
            continue
        try:
            decoded.append(decode_generation(cells, params))
        except UnrecoverableGeneration:
            failed.append(generation.generation_id)
    if failed:
        return TransferResult(False, None, tuple(failed), tuple(counts))
    recovered = reassemble_message(decoded)
    return TransferResult(recovered == bytes(message), recovered, (), tuple(counts))
