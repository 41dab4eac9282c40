"""Transport model: the relay pool, three-hop circuits sharing one exit, layered
stream encryption, and the client-to-exit pipeline for all three variants.

The single-circuit (otor), multi-circuit (mtor), and coded multi-circuit
(ctor) variants share one code path and differ only in their CodeParams:
otor is (n=1, k=1, r=0), mtor is (n=k, r=0), ctor has r >= 1.

Layer encryption is a keyed pseudorandom stream XOR, not real cryptography:
the keystream is SHAKE-256 over (router key, circuit id, layer position).
Binding the layer position is what makes out-of-order peeling detectable;
bare XOR layers would commute. As with Tor's per-hop counter-mode cipher,
transmit runs each hop's stream across a whole sub-flow: the cells a
circuit carries are wrapped and peeled as one wire string. Between wrap
and the last peel a sub-flow is one little-endian int plus its byte size,
so each layer is a single int XOR and the bytes are rebuilt once, for the
exit. XOR acts byte by byte, so the byte order of these ints moves no
output byte; little-endian is the cheaper conversion.

A message is coded once by encode_message into a CodedMessage, which
carries the CodeParams that built it, checks the generations against them,
joins each sub-flow's wire bytes once and parses each joined sub-flow back
once; run_transfer sends a CodedMessage and decodes by the params it
carries. The censor sends one fixed message per code shape, so a pipeline
trial pays only for what differs between trials: the circuits, the blocked
set, the wrap and peels and the decode. An entry hop's stream depends only
on the bridge and the sub-flow, and an exit hop's only on the exit relay,
the bridge and the sub-flow, so both are cached across transfers (exit
streams only for short sub-flows such as a trial's); middle streams, and
the exit streams of long sub-flows, are derived per transfer. One function,
_layer_stream, picks the cache for a hop. The exit compares the peeled
bytes with the sub-flow that was sent: equal bytes give that sub-flow's
cells, which the message's own parse checked, and bytes that differ in any
position are parsed in full.

CircuitSet and CodedMessage check their invariants in their constructors,
and build_circuits and encode_message build through them, so each rule is
checked in one place.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field
from operator import index
from typing import Collection, Iterator, NamedTuple, Sequence

from .codec import (
    MAX_N,
    CodeParams,
    CodedCell,
    build_generator,
    decode_generations,
    encode_generations,
    reassemble_message,
    split_message,
)
# A message is coded in one batch, so onion never calls the per-generation
# codec functions; the names stay bound because the benchmark tracer wraps
# `onion.encode_generation` and `onion.decode_generation` and fails without them.
from .codec import decode_generation, encode_generation  # noqa: F401
# Layers XOR as ints, so onion never calls xor_bytes; the name stays bound
# because the benchmark tracer wraps `onion.xor_bytes` and fails without it.
from .gf256 import xor_bytes  # noqa: F401


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


@functools.cache
def default_registry() -> tuple[tuple[OnionRouter, ...], tuple[OnionRouter, ...]]:
    """The one relay pool of the process, as (middles, exits), built on first
    use. The censor blocks only entry bridges, so the middles and exit a
    circuit draws never decide an outcome; the pool only needs enough middles
    for any legal code. The pool sizes are an operational stand-in, not a
    measured topology."""
    return (
        tuple(relay(f"middle-{i:03d}") for i in range(MAX_N)),
        tuple(relay(f"exit-{i:02d}") for i in range(10)),
    )


@functools.cache
def _pool_relay_ids() -> frozenset[str]:
    middles, exits = default_registry()
    return frozenset(router.router_id for router in middles + exits)


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
        relay_ids = {c.exit.router_id for c in self.circuits}
        if len(relay_ids) != 1:
            raise ValueError("all circuits must share one exit relay")
        relay_ids.update([c.entry.router_id for c in self.circuits], [c.middle.router_id for c in self.circuits])
        if len(relay_ids) != 2 * len(self.circuits) + 1:
            raise ValueError("entry and middle relays must be pairwise distinct and differ from the exit")

    def __len__(self) -> int:
        return len(self.circuits)

    def __iter__(self) -> Iterator[Circuit]:
        return iter(self.circuits)

    def __getitem__(self, i: int) -> Circuit:
        return self.circuits[i]


def build_circuits(bridge_ids: Sequence[str], rng: random.Random) -> CircuitSet:
    """Build one circuit per chosen bridge, middles and the shared exit drawn
    uniformly without replacement from the default relay pool.

    CircuitSet checks the result. Two checks come first, because they must
    not depend on what the seed draws: at most MAX_N bridges, so the pool has
    a middle for each, and no bridge id naming a pool relay, which CircuitSet
    would catch only when the draw picks that relay.
    """
    n = len(bridge_ids)
    if n > MAX_N:
        raise ValueError(f"{n} bridges, but a code has at most {MAX_N} circuits")
    if not _pool_relay_ids().isdisjoint(bridge_ids):
        raise ValueError("relay roles must not overlap within a circuit set")
    pool_middles, pool_exits = default_registry()
    middles = rng.sample(pool_middles, n)
    shared_exit = rng.choice(pool_exits)
    return CircuitSet(tuple(
        Circuit(relay(bridge_id), middle, shared_exit)
        for bridge_id, middle in zip(bridge_ids, middles)
    ))


class LayeredCell(NamedTuple):
    """Wire bytes under 0..3 encryption layers, tagged with routing context.

    The bytes are held as one little-endian int of `size` bytes, so a layer
    is one int XOR; `payload` gives them back as bytes, trailing zeros
    included.
    """

    value: int
    size: int
    layers_remaining: int
    circuit_id: str

    @property
    def payload(self) -> bytes:
        return self.value.to_bytes(self.size, "little")


# wrap and peel build a LayeredCell per hop; the C tuple constructor skips
# the NamedTuple's Python-level __new__ and builds the same instance
_new_layered = tuple.__new__


def _derive_keystream(key: bytes, circuit_id: str, depth: int, size: int) -> int:
    """One layer stream, as the little-endian int both wrap and peel XOR in."""
    if not key:
        raise ValueError("router layer key must be non-empty")
    cid = circuit_id.encode()
    return int.from_bytes(hashlib.shake_256(b"%b%b%b%b%c" % (
        len(key).to_bytes(2, "big"), key, len(cid).to_bytes(2, "big"), cid, depth
    )).digest(size), "little")


# The middle stream (depth 2) of a wrapped payload (one cell, or a whole
# sub-flow in transmit), and the exit stream (depth 1) of a long one, are
# derived in wrap_layers and consumed again by the peel_layer calls that
# follow it, so a cache of two streams makes that one SHAKE call per
# (payload, hop). A middle stream names the middle a circuit drew (~44k keys
# on the default grid), so keeping it longer would reuse little and hold much.
_keystream = functools.lru_cache(maxsize=2)(_derive_keystream)

# The entry stream (depth 3) is keyed by the bridge, whose id is also the
# circuit id, and the sub-flow's size: every pipeline trial that draws a
# bridge for a code shape derives the same one. The default grid has 50
# bridges and 7 shapes, whose trial sub-flows differ in size; a known bridge
# is always blocked, so only the 25 unknown bridges' 175 streams are ever
# derived, well within 350 entries. A stream is as long as its sub-flow, so
# a large e2e message keeps up to n of them.
_entry_keystream = functools.lru_cache(maxsize=350)(_derive_keystream)

# The exit stream (depth 1) is keyed by the exit relay, the bridge and the
# sub-flow, so trials that draw the same exit for a bridge and shape share
# it: the default grid derives 10 exits x 25 unknown bridges x 7 shapes =
# 1,750 of them, about 1.2 MB of ints. Only sub-flows of at most
# _SHORT_SUBFLOW bytes are kept (a 1 KiB trial message's longest, otor's,
# is 1,557 bytes), so the 45 KB sub-flows of an e2e transfer stay in
# _keystream and hold no memory after it.
_SHORT_SUBFLOW = 4096
_exit_keystream = functools.lru_cache(maxsize=2048)(_derive_keystream)


def _layer_stream(key: bytes, circuit_id: str, depth: int, size: int) -> int:
    """The stream of the hop at `depth`, from the cache that keeps it."""
    if depth == 3:
        return _entry_keystream(key, circuit_id, 3, size)
    if depth == 1 and size <= _SHORT_SUBFLOW:
        return _exit_keystream(key, circuit_id, 1, size)
    return _keystream(key, circuit_id, depth, size)


def wrap_layers(cell_bytes: bytes, circuit: Circuit) -> LayeredCell:
    """Apply the exit, middle, and entry stream layers, in that order, so that
    peeling proceeds entry -> middle -> exit."""
    size = len(cell_bytes)
    cid = circuit.circuit_id
    acc = (
        int.from_bytes(cell_bytes, "little")
        ^ _layer_stream(circuit.exit.layer_key, cid, 1, size)
        ^ _layer_stream(circuit.middle.layer_key, cid, 2, size)
        ^ _layer_stream(circuit.entry.layer_key, cid, 3, size)
    )
    return _new_layered(LayeredCell, (acc, size, 3, cid))


def peel_layer(cell: LayeredCell, router: OnionRouter) -> LayeredCell:
    """Remove one layer with the router's key."""
    value, size, depth, cid = cell
    if depth <= 0:
        raise ValueError("no encryption layers left to peel")
    return _new_layered(LayeredCell, (value ^ _layer_stream(router.layer_key, cid, depth, size), size, depth - 1, cid))


@dataclass(frozen=True)
class CodedMessage:
    """A message's coded generations under one code, checked and serialised once.

    Generation g holds params.n cells, cell i riding sub-flow i, each with
    id g and a coefficient row of params.k bytes; the constructor rejects
    any other width, order, id or row length. `subflows` holds each
    sub-flow's wire bytes, its cells' joined in generation order, so any
    number of transfers can send the message without re-checking or
    re-serialising its frozen cells. Each joined sub-flow is parsed back
    once, and a wire that does not give back its sub-flow's cells is
    rejected, so transmit can hand those cells to an exit that peels the
    same bytes. Iterating gives the generations.
    """

    params: CodeParams
    generations: tuple[tuple[CodedCell, ...], ...]
    subflows: tuple[bytes, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        generations = tuple(tuple(gen_cells) for gen_cells in self.generations)
        if not generations:
            raise ValueError("a coded message holds at least one generation")
        n, k = self.params.n, self.params.k
        for generation_id, gen_cells in enumerate(generations):
            if len(gen_cells) != n:
                raise ValueError(f"generation {generation_id} carries {len(gen_cells)} cells, the code has n={n}")
            for idx, cell in enumerate(gen_cells):
                if cell.subflow_index != idx:
                    raise ValueError(f"sub-flow {cell.subflow_index} offered to circuit {idx}; order mismatch")
                if cell.generation_id != generation_id:
                    raise ValueError(
                        f"sub-flow {idx} carries generation {cell.generation_id} at position {generation_id}; "
                        "ids must run 0, 1, 2, ..."
                    )
                if len(cell.coefficients) != k:
                    raise ValueError(
                        f"generation {generation_id} sub-flow {idx} coded with k={len(cell.coefficients)}, "
                        f"the code has k={k}"
                    )
        subflows = tuple(b"".join(gen_cells[idx].to_wire() for gen_cells in generations) for idx in range(n))
        for idx, wire in enumerate(subflows):
            if CodedCell.from_wire_stream(wire) != [gen_cells[idx] for gen_cells in generations]:
                raise ValueError(f"sub-flow {idx}'s wire bytes do not parse back to its cells")
        object.__setattr__(self, "generations", generations)
        object.__setattr__(self, "subflows", subflows)

    def __iter__(self) -> Iterator[tuple[CodedCell, ...]]:
        return iter(self.generations)


def transmit(
    circuits: CircuitSet,
    coded: CodedMessage,
    blocked: Collection[int] = frozenset(),
) -> list[CodedCell]:
    """Carry a coded message across the circuit set; sub-flow i rides circuit i.

    The circuits whose indices are in `blocked` drop their whole sub-flow
    silently. Each surviving sub-flow's wire bytes are wrapped once, peeled
    by three peel_layer calls (entry, middle, exit), turned back into bytes
    once, and compared with the sub-flow that was sent: equal bytes give
    that sub-flow's own cells, which CodedMessage parsed back from the same
    bytes, and bytes that differ in any position are parsed cell by cell by
    the headers in them, so the returned cells are exactly what the exit
    relay can see.
    They come back generation by generation, in circuit order within each.
    The message checked its own shape, so only its code's n against the
    circuit count and the blocked indices are checked here, before anything
    is wrapped: each index goes through operator.index, like CodeParams'
    fields and the cell ids, so one that is not an integer (1.5, 1.0)
    raises TypeError, and all must lie within 0..n-1.
    """
    generations, subflows = coded.generations, coded.subflows
    n = len(circuits.circuits)
    if coded.params.n != n:
        raise ValueError(f"message coded for n={coded.params.n} circuits, got {n} circuits")
    if blocked:
        blocked = frozenset(map(index, blocked))
        if min(blocked) < 0 or max(blocked) >= n:
            raise ValueError(f"blocked circuit indices {sorted(blocked)} outside 0..{n - 1}")
    arrived: list[list[CodedCell]] = []
    for idx, circuit in enumerate(circuits.circuits):
        if idx in blocked:
            continue
        layered = wrap_layers(subflows[idx], circuit)
        layered = peel_layer(layered, circuit.entry)
        layered = peel_layer(layered, circuit.middle)
        layered = peel_layer(layered, circuit.exit)
        wire = layered.payload
        arrived.append(
            [gen_cells[idx] for gen_cells in generations] if wire == subflows[idx] else CodedCell.from_wire_stream(wire)
        )
    return [cell for gen_cells in zip(*arrived) for cell in gen_cells]


@dataclass(frozen=True)
class TransferResult:
    success: bool
    failed_generations: tuple[int, ...]
    delivered_counts: tuple[int, ...]


def encode_message(params: CodeParams, message: bytes) -> CodedMessage:
    """Split a message into generations and code them in one batch: n coded
    cells per generation, in generation order. Frozen, so one encoding can
    serve any number of transfers."""
    return CodedMessage(params, encode_generations(split_message(message, params.k), build_generator(params)))


def run_transfer(
    circuits: CircuitSet,
    coded: CodedMessage,
    message: bytes,
    blocked: Collection[int] = frozenset(),
) -> TransferResult:
    """One full client-to-exit transfer of a coded message over a circuit set.

    `coded` is encode_message(params, message) for the code the circuits
    run; transmit checks it against the circuit count and `blocked`, and
    decoding uses its params. Success means every generation decoded and the
    reassembled bytes equal `message`; for otor and mtor that reduces to no
    circuit in `blocked`.
    """
    params = coded.params
    arrived = transmit(circuits, coded, blocked)

    by_generation: dict[int, list[CodedCell]] = {}
    for cell in arrived:
        by_generation.setdefault(cell.generation_id, []).append(cell)

    decodable: list[list[CodedCell]] = []
    failed: list[int] = []
    counts: list[int] = []
    for generation_id in range(len(coded.generations)):
        cells = by_generation.get(generation_id, [])
        counts.append(len(cells))
        if len(cells) < params.k:
            failed.append(generation_id)
        else:
            decodable.append(cells)
    decoded, unrecoverable = decode_generations(decodable, params)
    if failed or unrecoverable:
        return TransferResult(False, tuple(sorted(failed + unrecoverable)), tuple(counts))
    return TransferResult(reassemble_message(decoded) == bytes(message), (), tuple(counts))
