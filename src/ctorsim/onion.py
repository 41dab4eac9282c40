"""Transport model: relays, three-hop circuits sharing one exit, layered
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
from enum import Enum
from typing import Collection, Iterator, Sequence

from .codec import (
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

DEFAULT_MIDDLE_POOL = 50
DEFAULT_EXIT_POOL = 10


class Variant(str, Enum):
    OTOR = "otor"
    MTOR = "mtor"
    CTOR = "ctor"

    @classmethod
    def of(cls, params: CodeParams) -> "Variant":
        """Name a code shape: one circuit is otor, no redundancy is mtor, else ctor."""
        if params.n == 1:
            return cls.OTOR
        return cls.MTOR if params.r == 0 else cls.CTOR


class RouterKind(str, Enum):
    BRIDGE = "bridge"
    MIDDLE = "middle"
    EXIT = "exit"


@dataclass(frozen=True)
class OnionRouter:
    router_id: str
    kind: RouterKind
    layer_key: bytes


def derive_layer_key(router_id: str) -> bytes:
    """Deterministic per-router key material; stands in for real key exchange."""
    return hashlib.shake_256(b"layer-key:" + router_id.encode()).digest(16)


def bridge_router(bridge_id: str) -> OnionRouter:
    return OnionRouter(bridge_id, RouterKind.BRIDGE, derive_layer_key(bridge_id))


@dataclass(frozen=True)
class RouterRegistry:
    """Immutable pool of middle and exit relays available to a client."""

    middles: tuple[OnionRouter, ...]
    exits: tuple[OnionRouter, ...]

    @classmethod
    def build(cls, middles: int = DEFAULT_MIDDLE_POOL, exits: int = DEFAULT_EXIT_POOL) -> "RouterRegistry":
        """Registry with generated relays; the default pool sizes are an
        operational stand-in, not a measured network topology."""
        if middles < 1 or exits < 1:
            raise ValueError("registry needs at least one middle and one exit")
        return cls(
            middles=tuple(
                OnionRouter(f"middle-{i:03d}", RouterKind.MIDDLE, derive_layer_key(f"middle-{i:03d}"))
                for i in range(middles)
            ),
            exits=tuple(
                OnionRouter(f"exit-{i:02d}", RouterKind.EXIT, derive_layer_key(f"exit-{i:02d}"))
                for i in range(exits)
            ),
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


def build_circuits(
    bridge_ids: Sequence[str], registry: RouterRegistry, rng: random.Random
) -> CircuitSet:
    """Build one circuit per chosen bridge, middles and the shared exit drawn
    uniformly without replacement from the registry."""
    n = len(bridge_ids)
    if n < 1:
        raise ValueError("need at least one bridge")
    if len(set(bridge_ids)) != n:
        raise ValueError("bridge ids must be distinct")
    if len(registry.middles) < n:
        raise ValueError(f"registry has {len(registry.middles)} middles, need {n}")
    if not registry.exits:
        raise ValueError("registry has no exit relays")
    middles = rng.sample(registry.middles, n)
    shared_exit = rng.choice(registry.exits)
    return CircuitSet(
        tuple(
            Circuit(bridge_router(bridge_id), middle, shared_exit)
            for bridge_id, middle in zip(bridge_ids, middles)
        )
    )


@dataclass(frozen=True)
class LayeredCell:
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
    return hashlib.shake_256(
        b"".join((
            len(key).to_bytes(2, "big"),
            key,
            len(cid).to_bytes(2, "big"),
            cid,
            seq.to_bytes(8, "big"),
            bytes([depth]),
        ))
    ).digest(size)


def wrap_layers(cell_bytes: bytes, circuit: Circuit, seq: int = 0) -> LayeredCell:
    """Apply the exit, middle, and entry stream layers, in that order, so that
    peeling proceeds entry -> middle -> exit."""
    size = len(cell_bytes)
    acc = int.from_bytes(cell_bytes, "big")
    for depth, router in ((1, circuit.exit), (2, circuit.middle), (3, circuit.entry)):
        acc ^= int.from_bytes(_keystream(router.layer_key, circuit.circuit_id, seq, depth, size), "big")
    return LayeredCell(acc.to_bytes(size, "big"), 3, circuit.circuit_id, seq)


def peel_layer(cell: LayeredCell, router: OnionRouter) -> LayeredCell:
    """Remove one layer with the router's key."""
    if cell.layers_remaining <= 0:
        raise ValueError("no encryption layers left to peel")
    data = xor_bytes(
        cell.payload,
        _keystream(router.layer_key, cell.circuit_id, cell.seq, cell.layers_remaining, len(cell.payload)),
    )
    return LayeredCell(data, cell.layers_remaining - 1, cell.circuit_id, cell.seq)


def transmit(
    circuits: CircuitSet,
    coded_generations: Sequence[Sequence[CodedCell]],
    blocked: Collection[int] = frozenset(),
) -> list[CodedCell]:
    """Carry every generation across the circuit set; sub-flow i rides circuit i.

    The circuits whose indices are in `blocked` drop their whole sub-flow
    silently. Each surviving sub-flow is joined into one byte stream,
    wrapped once, peeled hop by hop, and reparsed cell by cell from the wire
    bytes, so the returned cells are exactly what the exit relay can see.
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
        wires = [gen_cells[idx].to_wire() for gen_cells in coded_generations]
        layered = wrap_layers(b"".join(wires), circuit, seq=coded_generations[0][idx].generation_id)
        for router in (circuit.entry, circuit.middle, circuit.exit):
            layered = peel_layer(layered, router)
        stream, pos, cells = layered.payload, 0, []
        for wire in wires:
            cells.append(CodedCell.from_wire(stream[pos : pos + len(wire)]))
            pos += len(wire)
        subflows.append(cells)
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
