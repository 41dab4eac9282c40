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
circuit carries are wrapped and peeled as one wire string. From wrap to
the last peel a sub-flow is one little-endian int plus its byte size, so
each layer is a single int XOR. XOR acts byte by byte, so the byte order of
these ints moves no output byte; little-endian is the cheaper conversion.

A message is coded once, by building a CodedMessage(params, message): the
constructor splits the message, has the encoder write its sub-flow wires in
one batch, keeps the CodeParams that built it, and holds the message once
per sub-flow: the int its circuit wraps, and the cells parsed from
its wire. No cells can be passed in, so every CodedMessage has the shape
its code gives. run_transfer sends a CodedMessage and decodes by the params
it carries. The censor sends one fixed message per code shape, so a
pipeline trial pays only for what differs between trials: the circuits, the
blocked set, the wrap and peels and the decode. An entry hop's stream
depends only on the bridge and the sub-flow, and an exit hop's only on the
exit relay, the bridge and the sub-flow, so both are cached across
transfers (exit streams only for short sub-flows such as a trial's); middle
streams, and the exit streams of long sub-flows, are derived per transfer.
wrap_layers and peel_layer call the cache of each hop's stream themselves.
As in the paper's model, a sub-flow arrives whole or not at all: the exit
checks that its layers cancel, comparing the peeled int and size with the
sub-flow that was sent, raises ValueError if they do not, and hands on the
cells the message parsed from that same wire.

OnionRouter, Circuit, LayeredCell and TransferResult are plain tuple
records, and a CircuitSet is the tuple of its circuits: the pipeline builds
each from values it has just made, and their invariants are tested on what
build_circuits and run_transfer return. build_circuits checks the bridge
ids it is given; the middles and the exit it draws are distinct by
construction. A CodedMessage is a small immutable class: the trials of a
code shape share one by identity, so it defines no equality or hash of its
own, and its guard against setting a field also refuses copy and pickle.
"""

from __future__ import annotations

import functools
import hashlib
import random
from itertools import repeat
from operator import index
from typing import Collection, Iterator, NamedTuple, Sequence

from .codec import (
    MAX_N,
    CodeParams,
    CodedCell,
    build_generator,
    decode_generations,
    encode_subflows,
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


class OnionRouter(NamedTuple):
    router_id: str
    layer_key: bytes


def derive_layer_key(router_id: str) -> bytes:
    """Deterministic per-router key material; stands in for real key exchange."""
    return hashlib.shake_256(b"layer-key:" + router_id.encode()).digest(16)


# OnionRouter is an immutable tuple record, so every circuit that names a
# relay can share one instance; bounded because bridge ids grow with --mb.
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


# A trial builds n circuits and four layered cells per surviving circuit, so
# those skip the NamedTuple's generated Python __new__ for the C one
_new_tuple = tuple.__new__


@functools.cache
def _pool_relay_ids() -> frozenset[str]:
    middles, exits = default_registry()
    return frozenset(router.router_id for router in middles + exits)


class Circuit(NamedTuple):
    """entry -> middle -> exit relay chain."""

    entry: OnionRouter
    middle: OnionRouter
    exit: OnionRouter

    @property
    def circuit_id(self) -> str:
        # entries are unique within a circuit set, so the entry id names the circuit
        return self[0].router_id


# n disjoint circuits sharing exactly one exit, 2n+1 distinct relays: the
# tuple of the circuits, circuit i carrying sub-flow i
CircuitSet = tuple[Circuit, ...]


def build_circuits(bridge_ids: Sequence[str], rng: random.Random) -> CircuitSet:
    """Build one circuit per chosen bridge, middles and the shared exit drawn
    uniformly without replacement from the default relay pool.

    The draws are distinct by construction, so only the bridge ids are
    checked, whatever the seed would draw: 1..MAX_N of them, so the pool
    has a middle for each, none repeated and none naming a pool relay.
    """
    n = len(bridge_ids)
    if not 0 < n <= MAX_N:
        raise ValueError(f"{n} bridges, but a code has at least 1 and at most {MAX_N} circuits")
    distinct = set(bridge_ids)
    if len(distinct) != n:
        raise ValueError("bridge ids must be distinct")
    if not _pool_relay_ids().isdisjoint(distinct):
        raise ValueError("relay roles must not overlap within a circuit set")
    pool_middles, pool_exits = default_registry()
    middles = rng.sample(pool_middles, n)
    shared_exit = rng.choice(pool_exits)
    hops = zip(map(relay, bridge_ids), middles, repeat(shared_exit, n))
    return tuple(map(_new_tuple, repeat(Circuit, n), hops))


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


def _derive_keystream(key: bytes, circuit_id: str, depth: int, size: int) -> int:
    """One layer stream, as the little-endian int both wrap and peel XOR in."""
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


def wrap_layers(value: int, size: int, circuit: Circuit) -> LayeredCell:
    """Apply the exit, middle, and entry stream layers, in that order, to
    the `size` bytes held as the little-endian int `value`, so that peeling
    proceeds entry -> middle -> exit."""
    entry, middle, exit = circuit
    cid = entry.router_id
    value ^= (
        (_exit_keystream if size <= _SHORT_SUBFLOW else _keystream)(exit.layer_key, cid, 1, size)
        ^ _keystream(middle.layer_key, cid, 2, size)
        ^ _entry_keystream(entry.layer_key, cid, 3, size)
    )
    return _new_tuple(LayeredCell, (value, size, 3, cid))


def peel_layer(cell: LayeredCell, router: OnionRouter) -> LayeredCell:
    """Remove one layer with the router's key."""
    value, size, depth, cid = cell
    if depth == 3:
        stream = _entry_keystream(router.layer_key, cid, 3, size)
    elif depth == 1 and size <= _SHORT_SUBFLOW:
        stream = _exit_keystream(router.layer_key, cid, 1, size)
    else:
        stream = _keystream(router.layer_key, cid, depth, size)
    return _new_tuple(LayeredCell, (value ^ stream, size, depth - 1, cid))


class CodedMessage:
    """A message coded under one code, held once per sub-flow.

    CodedMessage(params, message) splits the message into generations of
    params.k cells and has the encoder write its params.n sub-flow wires in
    one batch, wire i holding coded cell i of every generation in order. It
    keeps `subflows[i]`, wire i as the little-endian int circuit i wraps,
    `subflow_size`, the byte size all the wires share, and `cells[i]`, the
    parse of wire i that circuit i's exit hands on; the wires are dropped.
    It is immutable, so the trials of a code shape share one instance by
    identity, and iterating gives each sub-flow's cells.
    """

    __slots__ = ("params", "subflows", "subflow_size", "cells")

    def __init__(self, params: CodeParams, message: bytes):
        wires = encode_subflows(split_message(message, params), build_generator(params))
        size = len(wires[0])
        subflows, cells = [], []
        while wires:
            # one wire at a time, so the wires and what is kept of them never all coexist
            wire = wires.pop(0)
            subflows.append(int.from_bytes(wire, "little"))
            cells.append(tuple(CodedCell.from_wire_stream(wire)))
        for name, value in zip(self.__slots__, (params, tuple(subflows), size, tuple(cells))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"CodedMessage is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CodedMessage is immutable: cannot delete {name!r}")

    def __iter__(self) -> Iterator[tuple[CodedCell, ...]]:
        return iter(self.cells)


def transmit(
    circuits: CircuitSet,
    coded: CodedMessage,
    blocked: Collection[int] = frozenset(),
) -> list[CodedCell]:
    """Carry a coded message across the circuit set; sub-flow i rides circuit i.

    The circuits whose indices are in `blocked` drop their whole sub-flow
    silently; every other sub-flow arrives whole. Its int is wrapped once
    and peeled by three peel_layer calls (entry, middle, exit), and the
    exit checks that the peeled int and size (an int drops trailing zero
    bytes) are the sub-flow that was sent, raising ValueError naming it
    otherwise, and hands on the cells CodedMessage parsed from that wire.
    They come back sub-flow by sub-flow, in circuit order, each in
    generation order.
    The message has its code's shape, so only its code's n against the
    circuit count and the blocked indices are checked here, before anything
    is wrapped: each index goes through operator.index, like CodeParams'
    fields and the cell ids, so one that is not an integer (1.5, 1.0)
    raises TypeError, and all must lie within 0..n-1.
    """
    cells, subflows, size = coded.cells, coded.subflows, coded.subflow_size
    n = len(circuits)
    if coded.params.n != n:
        raise ValueError(f"message coded for n={coded.params.n} circuits, got {n} circuits")
    if blocked:
        blocked = frozenset(map(index, blocked))
        if min(blocked) < 0 or max(blocked) >= n:
            raise ValueError(f"blocked circuit indices {sorted(blocked)} outside 0..{n - 1}")
    arrived: list[CodedCell] = []
    for idx, circuit in enumerate(circuits):
        if idx in blocked:
            continue
        entry, middle, exit = circuit
        sent = subflows[idx]
        value, peeled, _, _ = peel_layer(peel_layer(peel_layer(wrap_layers(sent, size, circuit), entry), middle), exit)
        if value != sent or peeled != size:
            raise ValueError(f"sub-flow {idx} did not peel back to the wire that was sent")
        arrived += cells[idx]
    return arrived


class TransferResult(NamedTuple):
    """A transfer's outcome: whether the message came back, how many
    generations it was cut into, and how many sub-flows arrived, which is
    how many cells every generation received."""

    success: bool
    generations: int
    delivered: int


def run_transfer(
    circuits: CircuitSet,
    coded: CodedMessage,
    message: bytes,
    blocked: Collection[int] = frozenset(),
) -> TransferResult:
    """One full client-to-exit transfer of a coded message over a circuit set.

    `coded` is CodedMessage(params, message) for the code the circuits
    run; transmit checks it against the circuit count and `blocked`, and
    decoding uses its params. Every arrived sub-flow is whole, G cells in
    generation order, so generation g's cells are every G-th arrived cell
    from the g-th, in circuit order, and every generation receives the
    same cells of the same sub-flows. Below k nothing decodes; otherwise
    the G generations decode as one batch, and success means the
    reassembled bytes equal `message`; for otor and mtor that reduces to
    no circuit in `blocked`.
    """
    arrived = transmit(circuits, coded, blocked)
    generations = len(coded.cells[0])
    delivered = len(arrived) // generations
    if delivered < coded.params.k:
        return TransferResult(False, generations, delivered)
    decoded = decode_generations([arrived[g::generations] for g in range(generations)], coded.params)
    return TransferResult(reassemble_message(decoded) == bytes(message), generations, delivered)
