"""Transport model: circuit construction, layering, delivery, transfers."""

import copy
import hashlib
import itertools
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ctorsim import onion
from ctorsim.analytics import DEFAULT_CONFIGS
from ctorsim.codec import (
    CELL_SIZE,
    MAX_N,
    CodeParams,
    CodedCell,
    Generation,
    Variant,
    build_generator,
    encode_generation,
    encode_subflows,
    split_message,
)
from ctorsim.gf256 import xor_bytes
from ctorsim.onion import (
    CircuitSet,
    Circuit,
    CodedMessage,
    LayeredCell,
    OnionRouter,
    build_circuits,
    default_registry,
    peel_layer,
    relay,
    run_transfer,
    transmit,
    wrap_layers,
)
from wire_layout import subflow_wires, to_wire


def circuits_for(n: int, seed: int = 0) -> CircuitSet:
    return build_circuits([f"b{i}" for i in range(n)], random.Random(seed))


def wrap_bytes(wire: bytes, circuit: Circuit) -> LayeredCell:
    """wrap_layers of a byte string, held as the little-endian int transmit wraps."""
    return wrap_layers(int.from_bytes(wire, "little"), len(wire), circuit)


def wire_of(coded: CodedMessage, idx: int) -> bytes:
    """Sub-flow idx of a coded message as the bytes its circuit carries."""
    return coded.subflows[idx].to_bytes(coded.subflow_size, "little")


def distinct_router_ids(cs: CircuitSet) -> set[str]:
    ids = set()
    for c in cs:
        ids.update((c.entry.router_id, c.middle.router_id, c.exit.router_id))
    return ids


class TestBuildCircuits:
    def test_single_circuit_uses_three_relays(self):
        assert len(distinct_router_ids(circuits_for(1))) == 3

    def test_four_circuits_use_nine_relays(self):
        assert len(distinct_router_ids(circuits_for(4))) == 2 * 4 + 1

    def test_same_seed_same_circuits(self):
        assert circuits_for(4, seed=5) == circuits_for(4, seed=5)

    def test_duplicate_bridges_rejected(self):
        with pytest.raises(ValueError):
            build_circuits(["b0", "b0"], random.Random(0))

    def test_insufficient_middles_rejected(self):
        with pytest.raises(ValueError, match=f"at most {MAX_N} circuits"):
            build_circuits([f"b{i}" for i in range(MAX_N + 1)], random.Random(0))

    def test_shared_exit(self):
        cs = circuits_for(6)
        assert len({c.exit.router_id for c in cs}) == 1

    def test_circuits_are_frozen(self):
        # a tuple record: its fields cannot be set
        circuit = circuits_for(1)[0]
        with pytest.raises(AttributeError):
            circuit.entry = relay("other")

    def test_a_circuit_is_a_record_named_by_its_entry(self):
        circuit = circuits_for(1)[0]
        assert type(circuit) is Circuit
        assert circuit.circuit_id == circuit.entry.router_id
        assert circuit._replace(entry=relay("b9")) == Circuit(relay("b9"), circuit.middle, circuit.exit)

    @pytest.mark.parametrize(
        "bridge_ids",
        [[], ["b0", "b1", "b0"], ["b0", "middle-000"], ["middle-254"], ["b0", "exit-09"]],
        ids=["none", "repeated", "names-a-middle", "names-the-last-middle", "names-an-exit"],
    )
    def test_bridge_id_faults_raise_from_build_circuits(self, bridge_ids):
        # rejected whichever middles and exit the seed would draw
        for seed in range(20):
            with pytest.raises(ValueError):
                build_circuits(bridge_ids, random.Random(seed))


class TestDefaultRegistry:
    def test_one_pool_covers_every_legal_code(self):
        assert default_registry() is default_registry()
        middles, exits = default_registry()
        assert len(middles) == MAX_N
        assert len(exits) == 10

    def test_pool_holds_the_cached_routers(self):
        # rebuild, so relays other tests churned through the bounded cache cannot matter
        default_registry.cache_clear()
        middles, exits = default_registry()
        for router in middles + exits:
            assert relay(router.router_id) is router
            assert len(router.layer_key) == 16

    def test_importing_the_cli_builds_no_relay(self):
        # the benchmark's setup_s times this import, so the caches must fill on first use
        probe = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import ctorsim.cli\n"
            "from ctorsim import onion\n"
            "print(onion.default_registry.cache_info().currsize, onion.relay.cache_info().currsize)"
        )
        src = str(Path(onion.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["0", "0"]


def test_relay_shares_one_router_per_id_from_a_bounded_cache():
    assert relay("bridge-07") is relay("bridge-07")
    assert relay("bridge-07") == OnionRouter("bridge-07", onion.derive_layer_key("bridge-07"))
    assert relay.cache_info().maxsize is not None


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10))
def test_circuit_sets_always_disjoint(seed, n):
    cs = build_circuits([f"b{i}" for i in range(n)], random.Random(seed))
    assert len(distinct_router_ids(cs)) == 2 * n + 1
    assert type(cs) is tuple and len(cs) == n


DRAWN_SIZES = (1, 4, 5, 8, 10, 40, MAX_N)


@pytest.mark.parametrize("first_seed,n", enumerate(DRAWN_SIZES), ids=[f"n{n}" for n in DRAWN_SIZES])
def test_every_drawn_circuit_set_is_n_disjoint_circuits_sharing_one_exit(first_seed, n):
    # the topology of the model, over 1,000 seeds in all, each size taking
    # every 7th: n circuits of three routers, entry i the i-th bridge, no
    # relay in two roles or two circuits, and one exit shared by all
    pool_middles, pool_exits = default_registry()
    for seed in range(first_seed, 1000, len(DRAWN_SIZES)):
        bridges = [f"b{i}" for i in range(n)]
        cs = build_circuits(bridges, random.Random(seed))
        assert type(cs) is tuple and len(cs) == n
        assert all(type(c) is Circuit and all(type(hop) is OnionRouter for hop in c) for c in cs)
        assert [c.entry.router_id for c in cs] == bridges
        assert len({c.exit for c in cs}) == 1 and cs[0].exit in pool_exits
        assert len({c.middle for c in cs}) == n and all(c.middle in pool_middles for c in cs)
        assert len(distinct_router_ids(cs)) == 2 * n + 1


class TestLayering:
    def test_wrap_then_peel_in_order_restores_bytes(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(1).randbytes(520)
        cell = wrap_bytes(wire, circuit)
        assert cell.layers_remaining == 3
        assert cell.payload != wire
        for router in (circuit.entry, circuit.middle, circuit.exit):
            cell = peel_layer(cell, router)
        assert cell.layers_remaining == 0
        assert cell.payload == wire

    def test_wrap_and_peel_return_layered_cells(self):
        circuit = circuits_for(1)[0]
        cell = wrap_bytes(random.Random(2).randbytes(520), circuit)
        peeled = peel_layer(cell, circuit.entry)
        for layered, depth in ((cell, 3), (peeled, 2)):
            assert type(layered) is LayeredCell
            assert (layered.layers_remaining, layered.circuit_id, layered.size) == (depth, circuit.circuit_id, 520)

    def test_wrap_is_deterministic(self):
        circuit = circuits_for(1)[0]
        wire = bytes(range(256))
        assert wrap_bytes(wire, circuit) == wrap_bytes(wire, circuit)

    def test_peel_out_of_order_garbles_bytes(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(2).randbytes(520)
        cell = wrap_bytes(wire, circuit)
        for router in (circuit.middle, circuit.entry, circuit.exit):  # wrong order
            cell = peel_layer(cell, router)
        assert cell.payload != wire

    def test_wrong_router_key_garbles_bytes(self):
        circuit = circuits_for(1)[0]
        imposter = relay("someone-else")
        wire = random.Random(3).randbytes(520)
        cell = wrap_bytes(wire, circuit)
        cell = peel_layer(cell, imposter)
        for router in (circuit.middle, circuit.exit):
            cell = peel_layer(cell, router)
        assert cell.payload != wire



def reference_keystream(key: bytes, circuit_id: str, depth: int, size: int) -> bytes:
    """Uncached layer stream, absorbed field by field."""
    h = hashlib.shake_256()
    h.update(len(key).to_bytes(2, "big"))
    h.update(key)
    cid = circuit_id.encode()
    h.update(len(cid).to_bytes(2, "big"))
    h.update(cid)
    h.update(bytes([depth]))
    return h.digest(size)


def reference_wrap(cell_bytes: bytes, circuit: Circuit) -> bytes:
    """wrap_layers as three bytes-domain XORs over uncached streams."""
    data = bytes(cell_bytes)
    for depth, router in ((1, circuit.exit), (2, circuit.middle), (3, circuit.entry)):
        data = xor_bytes(data, reference_keystream(router.layer_key, circuit.circuit_id, depth, len(data)))
    return data


STREAM_CACHES = (onion._keystream, onion._exit_keystream, onion._entry_keystream)


def clear_stream_caches() -> None:
    """Empty the layer stream caches."""
    for cache in STREAM_CACHES:
        cache.cache_clear()


def stream_traffic() -> dict[str, tuple[int, int]]:
    """(misses, hits) of each stream cache: per transfer, exit, entry."""
    return {
        name: (info.misses, info.hits)
        for name, info in zip(("inner", "exit", "entry"), (cache.cache_info() for cache in STREAM_CACHES))
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    cell=st.binary(max_size=700),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10),
    data=st.data(),
)
def test_wrap_matches_reference(cell, seed, n, data):
    circuits = build_circuits([f"b{i}" for i in range(n)], random.Random(seed))
    circuit = circuits[data.draw(st.integers(0, n - 1))]
    layered = wrap_bytes(cell, circuit)
    assert layered.payload == reference_wrap(cell, circuit)
    assert (layered.layers_remaining, layered.circuit_id) == (3, circuit.circuit_id)


@pytest.mark.parametrize(
    "wire",
    [b"", b"\x00", bytes(16), bytes(4) + random.Random(8).randbytes(520), random.Random(9).randbytes(520) + bytes(4)],
    ids=["empty", "one-zero", "all-zero", "leading-zeros", "trailing-zeros"],
)
def test_int_layers_keep_every_byte(wire):
    # layers are XORed as little-endian ints, which drop trailing zero bytes;
    # the size kept beside the int must bring them back
    circuit = circuits_for(1)[0]
    cell = wrap_bytes(wire, circuit)
    assert cell.payload == reference_wrap(wire, circuit)
    for router in (circuit.entry, circuit.middle, circuit.exit):
        cell = peel_layer(cell, router)
    assert cell.payload == wire


class TestKeystreamCache:
    """The stream cache saves SHAKE calls and must never change a byte."""

    def test_circuits_sharing_an_exit_get_distinct_streams(self):
        first, second = circuits_for(2)
        assert first.exit == second.exit
        wire = random.Random(4).randbytes(520)
        a = wrap_bytes(wire, first)
        b = wrap_bytes(wire, second)
        assert a.payload != b.payload
        assert a.payload == reference_wrap(wire, first)
        assert b.payload == reference_wrap(wire, second)

    def test_peeling_with_the_other_circuits_routers_garbles(self):
        first, second = circuits_for(2)
        wire = random.Random(5).randbytes(520)
        wrap_bytes(wire, second)  # leave the other circuit's streams cached
        cell = wrap_bytes(wire, first)
        for router in (second.entry, second.middle, second.exit):
            cell = peel_layer(cell, router)
        assert cell.payload != wire

    def test_out_of_order_and_wrong_key_peels_garble_right_after_wrap(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(6).randbytes(520)
        cell = wrap_bytes(wire, circuit)
        for router in (circuit.exit, circuit.middle, circuit.entry):  # reversed
            cell = peel_layer(cell, router)
        assert cell.payload != wire
        cell = wrap_bytes(wire, circuit)
        cell = peel_layer(cell, relay("someone-else"))
        for router in (circuit.middle, circuit.exit):
            cell = peel_layer(cell, router)
        assert cell.payload != wire

    def test_peel_streams_match_reference(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(7).randbytes(520)
        cell = wrap_bytes(wire, circuit)
        expected = cell.payload
        for depth, router in ((3, circuit.entry), (2, circuit.middle), (1, circuit.exit)):
            expected = xor_bytes(expected, reference_keystream(router.layer_key, circuit.circuit_id, depth, 520))
            cell = peel_layer(cell, router)
            assert cell.payload == expected
        assert cell.payload == wire

    def test_results_survive_cache_clear(self):
        params = CodeParams(4, 3, 1)
        coded = CodedMessage(params, bytes(range(256)) * 9)
        circuits = circuits_for(4)
        warm = transmit(circuits, coded, {1})
        wrapped = wrap_bytes(b"cell", circuits[0])
        message = random.Random(9).randbytes(3000)
        sent = CodedMessage(params, message)
        transfer = run_transfer(circuits, sent, message, {2})
        for clear in (cache.cache_clear for cache in STREAM_CACHES):
            clear()
            assert transmit(circuits, coded, {1}) == warm
            clear()
            assert wrap_bytes(b"cell", circuits[0]) == wrapped
            clear()
            assert run_transfer(circuits, sent, message, {2}) == transfer

    def test_cache_is_bounded(self):
        assert onion._keystream.cache_info().maxsize == 2
        # room for one entry stream per (bridge, shape) on the default grid,
        # 50 x 7; only the 25 unknown bridges are ever drawn unblocked, so
        # trials derive 25 x 7 = 175 of them
        assert onion._entry_keystream.cache_info().maxsize == 350
        # the default grid's trials derive 10 exits x 25 unknown bridges x 7
        # shapes = 1,750 exit streams; only sub-flows of at most 4 KiB are kept
        assert onion._exit_keystream.cache_info().maxsize == 2048
        assert onion._SHORT_SUBFLOW == 4096

    def test_circuits_on_one_bridge_share_only_the_entry_stream(self):
        # the same bridge drawn in two trials, with another middle and exit each time
        first = circuits_for(1, seed=0)[0]
        second = next(
            c for seed in range(1, 50) for c in circuits_for(1, seed=seed)
            if c.middle != first.middle and c.exit != first.exit
        )
        assert first.entry is second.entry
        wire = random.Random(10).randbytes(524)
        clear_stream_caches()
        a = wrap_bytes(wire, first)
        b = wrap_bytes(wire, second)
        assert stream_traffic() == {"inner": (2, 0), "exit": (2, 0), "entry": (1, 1)}
        assert a.payload == reference_wrap(wire, first)
        assert b.payload == reference_wrap(wire, second)
        for depth, hop in ((3, "entry"), (2, "middle"), (1, "exit")):
            streams = {
                reference_keystream(getattr(c, hop).layer_key, c.circuit_id, depth, len(wire))
                for c in (first, second)
            }
            assert len(streams) == (1 if hop == "entry" else 2), hop

    def test_circuits_on_one_exit_and_bridge_share_the_exit_stream(self):
        # the same bridge and exit drawn in two trials, with another middle
        first = circuits_for(1, seed=1)[0]
        second = circuits_for(1, seed=6)[0]
        assert (first.entry, first.exit) == (second.entry, second.exit)
        assert first.middle != second.middle
        wire = random.Random(11).randbytes(524)
        clear_stream_caches()
        a = wrap_bytes(wire, first)
        b = wrap_bytes(wire, second)
        assert stream_traffic() == {"inner": (2, 0), "exit": (1, 1), "entry": (1, 1)}
        assert a.payload == reference_wrap(wire, first)
        assert b.payload == reference_wrap(wire, second)
        assert a.payload != b.payload


class TestTransmit:
    def test_lossless_delivers_everything(self):
        params = CodeParams(4, 3, 1)
        coded = CodedMessage(params, bytes(2000))
        delivered = transmit(circuits_for(4), coded)
        assert len(coded.cells[0]) == 2
        assert len(delivered) == 4 * 2
        # cells come back exactly as sent, sub-flow by sub-flow
        assert delivered == [cell for cells in coded for cell in cells]

    def test_blocked_circuit_drops_whole_subflow(self):
        params = CodeParams(4, 3, 1)
        coded = CodedMessage(params, bytes(3000))
        delivered = transmit(circuits_for(4), coded, {2})
        assert len(delivered) == 3 * len(coded.cells[0])
        assert all(cell.subflow_index != 2 for cell in delivered)

    def test_total_blocking_delivers_nothing(self):
        params = CodeParams(2, 1, 1)
        coded = CodedMessage(params, bytes(100))
        assert transmit(circuits_for(2), coded, {0, 1}) == []

    def test_blocked_index_outside_circuit_set_rejected(self):
        params = CodeParams(2, 2, 0)
        coded = CodedMessage(params, bytes(100))
        with pytest.raises(ValueError):
            transmit(circuits_for(2), coded, {2})

    @pytest.mark.parametrize("blocked", [{-1}, {0, -1}, {2}, {1, 2}])
    def test_blocked_index_below_or_above_the_set_rejected_before_any_wrap(self, blocked, monkeypatch):
        coded = CodedMessage(CodeParams(2, 2, 0), bytes(100))
        wrapped = []
        monkeypatch.setattr(onion, "wrap_layers", lambda *args: wrapped.append(args))
        with pytest.raises(ValueError, match="outside 0..1"):
            transmit(circuits_for(2), coded, blocked)
        assert wrapped == []

    @pytest.mark.parametrize("blocked", [{1.5}, {1.0}, {0, 1.0}, {"1"}, {None}])
    def test_blocked_index_that_is_not_an_integer_rejected_before_any_wrap(self, blocked, monkeypatch):
        # {1.5} used to block nothing and {1.0} to block circuit 1
        coded = CodedMessage(CodeParams(2, 1, 1), bytes(100))
        wrapped = []
        monkeypatch.setattr(onion, "wrap_layers", lambda *args: wrapped.append(args))
        with pytest.raises(TypeError):
            transmit(circuits_for(2), coded, blocked)
        assert wrapped == []

    def test_blocked_index_goes_through_index(self):
        class Index:
            def __index__(self):
                return 1

        coded = CodedMessage(CodeParams(2, 1, 1), bytes(100))
        expected = transmit(circuits_for(2), coded, {1})
        assert [cell.subflow_index for cell in expected] == [0]
        assert transmit(circuits_for(2), coded, [Index()]) == transmit(circuits_for(2), coded, {True}) == expected

    def test_three_peels_per_surviving_circuit_in_hop_order(self, monkeypatch):
        coded = CodedMessage(CodeParams(4, 3, 1), bytes(3000))
        circuits = circuits_for(4)
        peels = []

        def recording_peel(cell, router):
            peels.append((cell.circuit_id, cell.layers_remaining, router))
            return peel_layer(cell, router)

        monkeypatch.setattr(onion, "peel_layer", recording_peel)
        transmit(circuits, coded, {2})
        assert peels == [
            (c.circuit_id, depth, router)
            for idx, c in enumerate(circuits)
            if idx != 2
            for depth, router in ((3, c.entry), (2, c.middle), (1, c.exit))
        ]

    def test_generation_width_mismatch_rejected(self):
        # a message of another width fails when it meets the circuits
        coded = CodedMessage(CodeParams(2, 2, 0), bytes(2000))
        with pytest.raises(ValueError, match="coded for n=2 circuits, got 3 circuits"):
            transmit(circuits_for(3), coded)


class TestCodedMessage:
    """A coded message is encoded, converted and parsed once, for any number of transfers."""

    @pytest.mark.parametrize("params", [CodeParams(1, 1, 0), CodeParams(4, 4, 0), CodeParams(10, 6, 4)])
    def test_each_wire_is_its_subflows_joined_cells(self, params):
        coded = CodedMessage(params, random.Random(11).randbytes(5000))
        assert coded.params is params
        assert len(coded.subflows) == params.n
        for idx in range(params.n):
            assert wire_of(coded, idx) == b"".join(to_wire(cell) for cell in coded.cells[idx])

    @pytest.mark.parametrize(
        "params", [CodeParams(1, 1, 0), CodeParams(4, 4, 0), CodeParams(10, 6, 4)], ids=["otor", "mtor-4", "ctor-10-4"]
    )
    def test_each_subflow_parses_to_its_column_of_the_batch_encoding(self, params):
        # the round trip of record: what each sub-flow's wire parses to is
        # exactly coded cell i of each generation, encoded one at a time
        message = message_of(params, 3)
        coded = CodedMessage(params, message)
        matrix = build_generator(params)
        generations = [encode_generation(generation, matrix) for generation in split_message(message, params)]
        assert len(coded.cells) == params.n
        for idx, cells in enumerate(coded.cells):
            assert cells == tuple(gen[idx] for gen in generations)
            assert len(cells) == 3

    @pytest.mark.parametrize("extra,generations", [(b"", 2), (b"\x01", 3)], ids=["fills-two", "one-byte-over"])
    @pytest.mark.parametrize(
        "params",
        [CodeParams(1, 1, 0), CodeParams(4, 4, 0), CodeParams(4, 3, 1), CodeParams(10, 6, 4)],
        ids=["otor", "mtor-4", "ctor-4-1", "ctor-10-4"],
    )
    def test_every_encoding_has_the_code_shape(self, params, extra, generations):
        # no cells can be passed in, so the shape the constructor once checked
        # holds by construction: ids run 0, 1, 2, ..., each generation carries
        # n cells in sub-flow order, every cell is coded with k coefficients,
        # and the first k cells are the message's own framed cells
        message = message_of(params, 2) + extra
        coded = CodedMessage(params, message)
        assert [len(cells) for cells in coded.cells] == [generations] * params.n
        for gen_id, (gen, plain) in enumerate(zip(zip(*coded.cells), split_message(message, params), strict=True)):
            assert [cell.generation_id for cell in gen] == [gen_id] * params.n
            assert [cell.subflow_index for cell in gen] == list(range(params.n))
            assert all(len(cell.coefficients) == params.k for cell in gen)
            assert tuple(cell.payload for cell in gen[: params.k]) == plain.cells

    def test_holds_frozen_tuples_and_iterates_the_subflows(self):
        params = CodeParams(4, 3, 1)
        coded = CodedMessage(params, message_of(params, 3))
        assert coded.params is params
        assert all(type(cells) is tuple for cells in coded.cells)
        assert list(coded) == list(coded.cells)
        assert not hasattr(coded, "generations")
        # immutable: no field can be set or deleted, and no attribute added
        for name in ("params", "subflows", "subflow_size", "cells", "generations"):
            with pytest.raises(AttributeError):
                setattr(coded, name, ())
            with pytest.raises(AttributeError):
                delattr(coded, name)
        # trials share one instance by identity; copy and pickle would restore
        # the fields by setting them, which the same guard refuses
        for duplicate in (copy.copy, copy.deepcopy, lambda coded: pickle.loads(pickle.dumps(coded))):
            with pytest.raises(AttributeError, match="CodedMessage is immutable: cannot set 'params'"):
                duplicate(coded)

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError, match="empty message"):
            CodedMessage(CodeParams(1, 1, 0), b"")

    def test_cells_cannot_be_passed_in(self):
        # the constructor takes the message's bytes, so every CodedMessage is an encoding
        params = CodeParams(2, 1, 1)
        message = message_of(params, 2)
        coded = CodedMessage(params, message)
        for cells in (coded.cells, [list(subflow) for subflow in coded.cells], coded):
            with pytest.raises(TypeError):
                CodedMessage(params, cells)
        with pytest.raises(TypeError):
            CodedMessage(params, message, coded.cells)
        # nor any field the constructor derives, and no _replace swaps one in
        for name in ("cells", "subflows", "subflow_size"):
            with pytest.raises(TypeError):
                CodedMessage(params, message, **{name: getattr(coded, name)})
        assert not hasattr(coded, "_replace")
        # a fresh encoding of the same message holds the same sub-flows and cells
        again = CodedMessage(params, message)
        assert coded_fields(again) == coded_fields(coded)
        assert coded_fields(CodedMessage(params, message + b"\x00")) != coded_fields(coded)

    @pytest.mark.parametrize("params", [CodeParams(1, 1, 0), CodeParams(10, 6, 4)], ids=["otor", "ctor-10-4"])
    def test_the_cells_of_one_subflow_share_one_row(self, params):
        coded = CodedMessage(params, message_of(params, 3))
        for cells in coded.cells:
            assert len({id(cell.coefficients) for cell in cells}) == 1

    @pytest.mark.parametrize("params", [CodeParams(1, 1, 0), CodeParams(10, 6, 4)], ids=["otor", "ctor-10-4"])
    def test_building_parses_each_subflow_once(self, params, parser_calls):
        message = message_of(params, 3)
        parser_calls.clear()
        coded = CodedMessage(params, message)
        assert [wire for wire, _ in parser_calls] == [wire_of(coded, idx) for idx in range(params.n)]

    # a wire that parses to other cells builds, and the transfer catches it:
    # see the flipped-byte row in tests/test_mutants.py
    @pytest.mark.parametrize("fault", ["drop-last-byte"])
    def test_a_wire_that_does_not_parse_back_is_rejected(self, fault, monkeypatch):
        monkeypatch.setattr(onion, "encode_subflows", lambda *args: [wire[:-1] for wire in encode_subflows(*args)])
        clear_stream_caches()
        message = random.Random(14).randbytes(1000)
        with pytest.raises(ValueError, match="is not whole cells of k=3"):
            run_transfer(circuits_for(4), CodedMessage(CodeParams(4, 3, 1), message), message)
        assert [cache.cache_info().misses for cache in STREAM_CACHES] == [0, 0, 0]


def coded_fields(coded: CodedMessage) -> tuple:
    """What a coded message holds: its sub-flows, their byte size and their cells."""
    return coded.subflows, coded.subflow_size, coded.cells


def message_of(params: CodeParams, generations: int) -> bytes:
    """A message that splits into exactly `generations` generations under the
    code: the 8-byte length prefix and the message fill them."""
    return random.Random(generations).randbytes(generations * params.k * CELL_SIZE - 8)


class TestSubflowStreams:
    """transmit wraps and peels each surviving circuit's whole sub-flow at once."""

    PARAMS = CodeParams(10, 6, 4)
    BLOCKED = {1, 4}

    @pytest.mark.parametrize("generations", [1, 86])
    def test_one_stream_per_circuit_and_hop(self, generations):
        coded = CodedMessage(self.PARAMS, message_of(self.PARAMS, generations))
        circuits = circuits_for(10)
        clear_stream_caches()
        transmit(circuits, coded, self.BLOCKED)
        surviving = 10 - len(self.BLOCKED)
        if generations == 1:
            # 524-byte sub-flows: each stream is derived by the wrap and
            # reused by the peels; the exit streams are kept across transfers
            assert coded.subflow_size <= onion._SHORT_SUBFLOW
            assert stream_traffic() == {
                "inner": (surviving, surviving), "exit": (surviving, surviving), "entry": (surviving, surviving)
            }
            # a second transfer over the same exit and bridges, other middles, derives only the middles'
            same_exit = circuits_for(10, seed=4)
            assert same_exit[0].exit == circuits[0].exit and same_exit[0].middle != circuits[0].middle
            transmit(same_exit, coded, self.BLOCKED)
            assert stream_traffic() == {
                "inner": (2 * surviving, 2 * surviving),
                "exit": (surviving, 3 * surviving),
                "entry": (surviving, 3 * surviving),
            }
            # a transfer over another exit derives one exit stream per surviving circuit
            transmit(circuits_for(10, seed=1), coded, self.BLOCKED)
            assert stream_traffic() == {
                "inner": (3 * surviving, 3 * surviving),
                "exit": (2 * surviving, 4 * surviving),
                "entry": (surviving, 5 * surviving),
            }
            return
        assert coded.subflow_size > onion._SHORT_SUBFLOW
        inner = onion._keystream.cache_info()
        entry = onion._entry_keystream.cache_info()
        # the exit and middle streams: derived by the wrap, reused by the peels
        assert (inner.misses, inner.hits) == (2 * surviving, 2 * surviving)
        assert (entry.misses, entry.hits) == (surviving, surviving)
        # a second transfer over other middles and exits derives only theirs
        transmit(circuits_for(10, seed=1), coded, self.BLOCKED)
        assert onion._entry_keystream.cache_info().misses == surviving
        assert onion._keystream.cache_info().misses == 4 * surviving
        assert onion._exit_keystream.cache_info().currsize == 0

    @pytest.mark.parametrize("generations", [1, 86])
    def test_each_subflow_is_the_int_of_its_wire(self, generations):
        # the encoder's wire i, as the little-endian int transmit wraps, with
        # the size that keeps its trailing zero bytes
        message = message_of(self.PARAMS, generations)
        coded = CodedMessage(self.PARAMS, message)
        wires = encode_subflows(split_message(message, self.PARAMS), build_generator(self.PARAMS))
        assert coded.subflows == tuple(int.from_bytes(wire, "little") for wire in wires)
        assert {len(wire) for wire in wires} == {coded.subflow_size}
        assert coded.subflow_size == generations * (4 + 1 + 1 + self.PARAMS.k + CELL_SIZE)

    def test_one_wrap_per_surviving_circuit(self, monkeypatch):
        coded = CodedMessage(self.PARAMS, message_of(self.PARAMS, 5))
        circuits = circuits_for(10)
        calls = []

        def recording_wrap(value, size, circuit):
            calls.append((value.to_bytes(size, "little"), circuit))
            return wrap_layers(value, size, circuit)

        monkeypatch.setattr(onion, "wrap_layers", recording_wrap)
        delivered = transmit(circuits, coded, self.BLOCKED)
        assert calls == [
            (b"".join(to_wire(cell) for cell in coded.cells[idx]), circuits[idx])
            for idx in range(10)
            if idx not in self.BLOCKED
        ]
        assert delivered == [cell for idx, cells in enumerate(coded) if idx not in self.BLOCKED for cell in cells]

    @pytest.mark.parametrize("blocked", [set(), {0}, {1}])
    def test_mixed_wire_lengths_come_back_intact(self, blocked):
        # one k = 1 generation (519-byte wire cells), then one k = 2 generation
        # (520 bytes); a CodedMessage holds one k, so each unblocked circuit's
        # stream is wrapped and peeled directly, as transmit does. The bytes
        # come back intact, and the parser rejects them: a circuit carries
        # one code's cells, so a wire of two k is not a sub-flow
        rng = random.Random(30)
        narrow, wide = CodeParams(2, 1, 1), CodeParams(2, 2, 0)
        coded = [
            encode_generation(Generation(0, (rng.randbytes(CELL_SIZE),)), build_generator(narrow)),
            encode_generation(Generation(1, (rng.randbytes(CELL_SIZE), rng.randbytes(CELL_SIZE))), build_generator(wide)),
        ]
        wires = subflow_wires(coded)
        for idx, circuit in enumerate(circuits_for(2)):
            if idx in blocked:
                continue
            layered = wrap_bytes(wires[idx], circuit)
            for router in (circuit.entry, circuit.middle, circuit.exit):
                layered = peel_layer(layered, router)
            assert layered.payload == wires[idx]
            with pytest.raises(ValueError, match="^wire of 1039 bytes is not whole cells of k=1, "):
                CodedCell.from_wire_stream(layered.payload)


class TestExitParse:
    """The exit hands on an unaltered sub-flow's own cells, parsing nothing,
    and raises on any other bytes: a sub-flow arrives whole or not at all."""

    PARAMS = CodeParams(10, 6, 4)
    BLOCKED = {1, 4}

    @pytest.mark.parametrize("generations", [1, 86])
    def test_an_unaltered_subflow_comes_back_as_its_parse(self, generations, parser_calls, monkeypatch):
        coded = CodedMessage(self.PARAMS, message_of(self.PARAMS, generations))
        assert (coded.subflow_size <= onion._SHORT_SUBFLOW) == (generations == 1)
        peeled = []

        def recording_peel(cell, router):
            cell = peel_layer(cell, router)
            if not cell.layers_remaining:
                peeled.append(cell.payload)
            return cell

        monkeypatch.setattr(onion, "peel_layer", recording_peel)
        parser_calls.clear()
        delivered = transmit(circuits_for(10), coded, self.BLOCKED)
        assert parser_calls == []
        assert peeled == [wire_of(coded, idx) for idx in range(10) if idx not in self.BLOCKED]
        arrived = [CodedCell.from_wire_stream(wire) for wire in peeled]
        assert delivered == [cell for cells in arrived for cell in cells]
        assert len(delivered) == 8 * generations

    def test_a_subflow_cut_short_raises_at_the_exit(self, parser_calls, monkeypatch):
        # circuit 3's exit loses the last wire cell of its two: the sub-flow
        # is not whole, so the transfer raises instead of decoding what came
        message = message_of(self.PARAMS, 2)
        coded = CodedMessage(self.PARAMS, message)
        circuits = circuits_for(10)
        cell_size = coded.subflow_size // 2

        def cutting_peel(cell, router):
            cell = peel_layer(cell, router)
            if cell.layers_remaining or cell.circuit_id != circuits[3].circuit_id:
                return cell
            size = cell.size - cell_size
            return cell._replace(value=cell.value & ((1 << 8 * size) - 1), size=size)

        monkeypatch.setattr(onion, "peel_layer", cutting_peel)
        parser_calls.clear()
        for send in (transmit, lambda circuits, coded: run_transfer(circuits, coded, message)):
            with pytest.raises(ValueError, match="^sub-flow 3 did not peel back to the wire that was sent$"):
                send(circuits, coded)
        assert parser_calls == []

    @pytest.mark.parametrize("fault", ["cut-payload", "cut-header", "k-zero"])
    @pytest.mark.parametrize("generations", [1, 86])
    def test_a_malformed_subflow_raises_on_every_call(self, generations, fault, parser_calls, monkeypatch):
        coded = CodedMessage(self.PARAMS, message_of(self.PARAMS, generations))
        wire = wire_of(coded, 0)
        malformed = {"cut-payload": wire[:-1], "cut-header": wire + bytes(3), "k-zero": wire + bytes(600)}[fault]
        circuits = circuits_for(10)

        def malforming_peel(cell, router):
            # circuit 0's exit peel hands the exit the malformed bytes
            cell = peel_layer(cell, router)
            if cell.layers_remaining or cell.circuit_id != circuits[0].circuit_id:
                return cell
            return cell._replace(value=int.from_bytes(malformed, "little"), size=len(malformed))

        monkeypatch.setattr(onion, "peel_layer", malforming_peel)
        parser_calls.clear()
        for _ in range(3):
            # the exit's check rejects the bytes before anything parses them
            with pytest.raises(ValueError, match="^sub-flow 0 did not peel back to the wire that was sent$"):
                transmit(circuits, coded, self.BLOCKED)
        assert parser_calls == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 10),
    size=st.integers(1, 20_000),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_transmit_returns_the_offered_cells_of_unblocked_circuits(n, size, seed, data):
    r = data.draw(st.integers(0, n - 1))
    blocked = data.draw(st.sets(st.integers(0, n - 1)))
    params = CodeParams(n, n - r, r)
    rng = random.Random(seed)
    coded = CodedMessage(params, rng.randbytes(size))
    circuits = build_circuits([f"b{i}" for i in range(n)], rng)
    assert transmit(circuits, coded, blocked) == [cell for idx, cells in enumerate(coded) if idx not in blocked for cell in cells]


class TestVariantValidation:
    """Variant.of is the one place a code shape gets its name."""

    @pytest.mark.parametrize(
        "variant,params",
        [
            (Variant.OTOR, CodeParams(1, 1, 0)),
            (Variant.MTOR, CodeParams(4, 4, 0)),
            (Variant.CTOR, CodeParams(4, 3, 1)),
        ],
    )
    def test_accepts_consistent(self, variant, params):
        assert Variant.of(params) is variant

    @pytest.mark.parametrize(
        "variant,params",
        [
            (Variant.OTOR, CodeParams(2, 2, 0)),
            (Variant.OTOR, CodeParams(2, 1, 1)),
            (Variant.MTOR, CodeParams(4, 3, 1)),
            (Variant.CTOR, CodeParams(4, 4, 0)),
        ],
    )
    def test_rejects_mismatch(self, variant, params):
        assert Variant.of(params) is not variant


class TestRunTransfer:
    def test_ctor_survives_single_blocked_circuit(self):
        message = random.Random(20).randbytes(4000)
        result = run_transfer(circuits_for(4), CodedMessage(CodeParams(4, 3, 1), message), message, {2})
        assert result == (True, 3, 3)

    def test_mtor_fails_on_single_blocked_circuit(self):
        result = run_transfer(circuits_for(4), CodedMessage(CodeParams(4, 4, 0), bytes(1000)), bytes(1000), {2})
        assert result == (False, 1, 3)

    def test_ctor_fails_beyond_redundancy(self):
        result = run_transfer(circuits_for(4), CodedMessage(CodeParams(4, 3, 1), bytes(1000)), bytes(1000), {1, 2})
        assert not result.success

    def test_otor_round_trip(self):
        message = random.Random(21).randbytes(600)
        result = run_transfer(circuits_for(1), CodedMessage(CodeParams(1, 1, 0), message), message)
        assert result.success

    def test_circuit_count_must_match_params(self):
        # transmit owns the check, and makes it before any stream is derived
        coded = CodedMessage(CodeParams(4, 4, 0), bytes(10))
        clear_stream_caches()
        with pytest.raises(ValueError, match="message coded for n=4 circuits, got 3 circuits"):
            run_transfer(circuits_for(3), coded, bytes(10))
        assert [cache.cache_info().misses for cache in STREAM_CACHES] == [0, 0, 0]

    @pytest.mark.parametrize("blocked", [set(), {2}], ids=["unblocked", "circuit-2-blocked"])
    def test_success_is_the_byte_comparison(self, blocked):
        # every generation of another message of the same length decodes, so
        # only comparing the decoded bytes with the message can fail it
        params = CodeParams(4, 3, 1)
        message = random.Random(23).randbytes(2000)
        other = CodedMessage(params, random.Random(24).randbytes(2000))
        result = run_transfer(circuits_for(4), other, message, blocked)
        assert result == (False, 2, 4 - len(blocked))
        assert run_transfer(circuits_for(4), CodedMessage(params, message), message, blocked).success

    @pytest.mark.parametrize(
        "params", (*DEFAULT_CONFIGS, CodeParams(4, 3, 1)), ids=lambda params: f"{params.n}-{params.k}-{params.r}"
    )
    def test_success_iff_blocking_within_redundancy(self, params):
        # every blocked-subset pattern, not just single losses, for every
        # default shape and ctor:4:1, on a message of one generation and on
        # one of at least three
        circuits = circuits_for(params.n)
        for length in (1500, 3 * params.k * CELL_SIZE):
            message = random.Random(22).randbytes(length)
            coded = CodedMessage(params, message)
            generations = len(coded.cells[0])
            assert length == 1500 or generations >= 3
            for size in range(params.n + 1):
                for blocked in itertools.combinations(range(params.n), size):
                    result = run_transfer(circuits, coded, message, blocked)
                    assert result.success == (size <= params.r), blocked
                    # every generation receives a cell from each arrived sub-flow
                    assert (result.generations, result.delivered) == (generations, params.n - size)
                    assert type(result.success) is bool

    @pytest.mark.parametrize("blocked", [(), (1,), (1, 4), (0, 2, 5, 9)])
    def test_decode_scales_each_missing_original_once_per_transfer(self, blocked, scale_calls):
        # timing-free guard on the column-wise decode: a transfer with fixed
        # blocking scales at most k whole columns per missing original,
        # whatever the number of generations
        params = CodeParams(10, 6, 4)
        message = random.Random(25).randbytes(64 * 1024)
        coded = CodedMessage(params, message)
        assert len(coded.cells[0]) > 20
        scale_calls.clear()
        assert run_transfer(circuits_for(params.n), coded, message, blocked).success
        missing = sum(1 for idx in blocked if idx < params.k)
        assert len(scale_calls) <= params.k * missing
        assert set(scale_calls) <= {len(coded.cells[0]) * CELL_SIZE}
