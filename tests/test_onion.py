"""Transport model: circuit construction, layering, delivery, transfers."""

import dataclasses
import hashlib
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ctorsim import onion
from ctorsim.codec import (
    CELL_SIZE,
    MAX_N,
    CodeParams,
    CodedCell,
    Generation,
    Variant,
    build_generator,
    encode_generation,
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
    encode_message,
    peel_layer,
    relay,
    run_transfer,
    transmit,
    wrap_layers,
)


def circuits_for(n: int, seed: int = 0) -> CircuitSet:
    return build_circuits([f"b{i}" for i in range(n)], random.Random(seed))


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
        circuit = circuits_for(1)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            circuit.entry = relay("other")

    def test_disjointness_enforced_by_circuit_set(self):
        c = circuits_for(2)[0]
        with pytest.raises(ValueError):
            CircuitSet((c, c))

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
    assert CircuitSet(cs.circuits) == cs


class TestLayering:
    def test_wrap_then_peel_in_order_restores_bytes(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(1).randbytes(520)
        cell = wrap_layers(wire, circuit)
        assert cell.layers_remaining == 3
        assert cell.payload != wire
        for router in (circuit.entry, circuit.middle, circuit.exit):
            cell = peel_layer(cell, router)
        assert cell.layers_remaining == 0
        assert cell.payload == wire

    def test_wrap_and_peel_return_layered_cells(self):
        circuit = circuits_for(1)[0]
        cell = wrap_layers(random.Random(2).randbytes(520), circuit)
        peeled = peel_layer(cell, circuit.entry)
        for layered, depth in ((cell, 3), (peeled, 2)):
            assert type(layered) is LayeredCell
            assert (layered.layers_remaining, layered.circuit_id, layered.size) == (depth, circuit.circuit_id, 520)

    def test_wrap_is_deterministic(self):
        circuit = circuits_for(1)[0]
        wire = bytes(range(256))
        assert wrap_layers(wire, circuit) == wrap_layers(wire, circuit)

    def test_peel_out_of_order_garbles_bytes(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(2).randbytes(520)
        cell = wrap_layers(wire, circuit)
        for router in (circuit.middle, circuit.entry, circuit.exit):  # wrong order
            cell = peel_layer(cell, router)
        assert cell.payload != wire

    def test_wrong_router_key_garbles_bytes(self):
        circuit = circuits_for(1)[0]
        imposter = relay("someone-else")
        wire = random.Random(3).randbytes(520)
        cell = wrap_layers(wire, circuit)
        cell = peel_layer(cell, imposter)
        for router in (circuit.middle, circuit.exit):
            cell = peel_layer(cell, router)
        assert cell.payload != wire

    def test_peel_without_layers_rejected(self):
        circuit = circuits_for(1)[0]
        cell = wrap_layers(b"\x00" * 16, circuit)
        for router in (circuit.entry, circuit.middle, circuit.exit):
            cell = peel_layer(cell, router)
        with pytest.raises(ValueError):
            peel_layer(cell, circuit.entry)

    def test_empty_layer_key_rejected(self):
        bad = Circuit(
            entry=OnionRouter("e", b""),
            middle=OnionRouter("m", b"k"),
            exit=OnionRouter("x", b"k2"),
        )
        with pytest.raises(ValueError):
            wrap_layers(b"\x00" * 16, bad)


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
    layered = wrap_layers(cell, circuit)
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
    cell = wrap_layers(wire, circuit)
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
        a = wrap_layers(wire, first)
        b = wrap_layers(wire, second)
        assert a.payload != b.payload
        assert a.payload == reference_wrap(wire, first)
        assert b.payload == reference_wrap(wire, second)

    def test_peeling_with_the_other_circuits_routers_garbles(self):
        first, second = circuits_for(2)
        wire = random.Random(5).randbytes(520)
        wrap_layers(wire, second)  # leave the other circuit's streams cached
        cell = wrap_layers(wire, first)
        for router in (second.entry, second.middle, second.exit):
            cell = peel_layer(cell, router)
        assert cell.payload != wire

    def test_out_of_order_and_wrong_key_peels_garble_right_after_wrap(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(6).randbytes(520)
        cell = wrap_layers(wire, circuit)
        for router in (circuit.exit, circuit.middle, circuit.entry):  # reversed
            cell = peel_layer(cell, router)
        assert cell.payload != wire
        cell = wrap_layers(wire, circuit)
        cell = peel_layer(cell, relay("someone-else"))
        for router in (circuit.middle, circuit.exit):
            cell = peel_layer(cell, router)
        assert cell.payload != wire

    def test_peel_streams_match_reference(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(7).randbytes(520)
        cell = wrap_layers(wire, circuit)
        expected = cell.payload
        for depth, router in ((3, circuit.entry), (2, circuit.middle), (1, circuit.exit)):
            expected = xor_bytes(expected, reference_keystream(router.layer_key, circuit.circuit_id, depth, 520))
            cell = peel_layer(cell, router)
            assert cell.payload == expected
        assert cell.payload == wire

    def test_results_survive_cache_clear(self):
        params = CodeParams(4, 3, 1)
        coded = encode_message(params, bytes(range(256)) * 9)
        circuits = circuits_for(4)
        warm = transmit(circuits, coded, {1})
        wrapped = wrap_layers(b"cell", circuits[0])
        message = random.Random(9).randbytes(3000)
        sent = encode_message(params, message)
        transfer = run_transfer(circuits, sent, message, {2})
        for clear in (cache.cache_clear for cache in STREAM_CACHES):
            clear()
            assert transmit(circuits, coded, {1}) == warm
            clear()
            assert wrap_layers(b"cell", circuits[0]) == wrapped
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
        a = wrap_layers(wire, first)
        b = wrap_layers(wire, second)
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
        a = wrap_layers(wire, first)
        b = wrap_layers(wire, second)
        assert stream_traffic() == {"inner": (2, 0), "exit": (1, 1), "entry": (1, 1)}
        assert a.payload == reference_wrap(wire, first)
        assert b.payload == reference_wrap(wire, second)
        assert a.payload != b.payload


class TestTransmit:
    def make_coded(self, params: CodeParams, message: bytes) -> CodedMessage:
        return encode_message(params, message)

    def test_lossless_delivers_everything(self):
        params = CodeParams(4, 3, 1)
        coded = self.make_coded(params, bytes(2000))
        delivered = transmit(circuits_for(4), coded)
        assert len(delivered) == 4 * len(coded.generations)
        # cells come back exactly as sent
        assert delivered == [cell for gen in coded for cell in gen]

    def test_blocked_circuit_drops_whole_subflow(self):
        params = CodeParams(4, 3, 1)
        coded = self.make_coded(params, bytes(3000))
        delivered = transmit(circuits_for(4), coded, {2})
        assert len(delivered) == 3 * len(coded.generations)
        assert all(cell.subflow_index != 2 for cell in delivered)

    def test_total_blocking_delivers_nothing(self):
        params = CodeParams(2, 1, 1)
        coded = self.make_coded(params, bytes(100))
        assert transmit(circuits_for(2), coded, {0, 1}) == []

    def test_blocked_index_outside_circuit_set_rejected(self):
        params = CodeParams(2, 2, 0)
        coded = self.make_coded(params, bytes(100))
        with pytest.raises(ValueError):
            transmit(circuits_for(2), coded, {2})

    @pytest.mark.parametrize("blocked", [{-1}, {0, -1}, {2}, {1, 2}])
    def test_blocked_index_below_or_above_the_set_rejected_before_any_wrap(self, blocked, monkeypatch):
        coded = self.make_coded(CodeParams(2, 2, 0), bytes(100))
        wrapped = []
        monkeypatch.setattr(onion, "wrap_layers", lambda *args: wrapped.append(args))
        with pytest.raises(ValueError, match="outside 0..1"):
            transmit(circuits_for(2), coded, blocked)
        assert wrapped == []

    @pytest.mark.parametrize("blocked", [{1.5}, {1.0}, {0, 1.0}, {"1"}, {None}])
    def test_blocked_index_that_is_not_an_integer_rejected_before_any_wrap(self, blocked, monkeypatch):
        # {1.5} used to block nothing and {1.0} to block circuit 1
        coded = self.make_coded(CodeParams(2, 1, 1), bytes(100))
        wrapped = []
        monkeypatch.setattr(onion, "wrap_layers", lambda *args: wrapped.append(args))
        with pytest.raises(TypeError):
            transmit(circuits_for(2), coded, blocked)
        assert wrapped == []

    def test_blocked_index_goes_through_index(self):
        class Index:
            def __index__(self):
                return 1

        coded = self.make_coded(CodeParams(2, 1, 1), bytes(100))
        expected = transmit(circuits_for(2), coded, {1})
        assert [cell.subflow_index for cell in expected] == [0]
        assert transmit(circuits_for(2), coded, [Index()]) == transmit(circuits_for(2), coded, {True}) == expected

    def test_three_peels_per_surviving_circuit_in_hop_order(self, monkeypatch):
        coded = self.make_coded(CodeParams(4, 3, 1), bytes(3000))
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

    def test_subflow_circuit_order_mismatch_rejected(self):
        # a coded message checks its sub-flow order when it is built
        params = CodeParams(2, 2, 0)
        coded = self.make_coded(params, bytes(100))
        gen = coded.generations[0]
        with pytest.raises(ValueError, match="order mismatch"):
            CodedMessage(params, [[gen[1], gen[0]]])

    def test_generation_width_mismatch_rejected(self):
        # a ragged message fails when it is built, a message of another
        # width when it meets the circuits
        params = CodeParams(2, 2, 0)
        coded = self.make_coded(params, bytes(2000))
        with pytest.raises(ValueError, match="generation 1 carries 1 cells, the code has n=2"):
            CodedMessage(params, [coded.generations[0], coded.generations[1][:1]])
        with pytest.raises(ValueError, match="coded for n=2 circuits, got 3 circuits"):
            transmit(circuits_for(3), coded)


class TestCodedMessage:
    """A coded message is checked and serialised once, for any number of transfers."""

    @pytest.mark.parametrize("params", [CodeParams(1, 1, 0), CodeParams(4, 4, 0), CodeParams(10, 6, 4)])
    def test_each_wire_is_its_subflows_joined_cells(self, params):
        coded = encode_message(params, random.Random(11).randbytes(5000))
        assert coded.params is params
        assert len(coded.subflows) == params.n
        for idx, wire in enumerate(coded.subflows):
            assert wire == b"".join(gen[idx].to_wire() for gen in coded.generations)

    def test_holds_frozen_tuples_and_iterates_them(self):
        params = CodeParams(4, 3, 1)
        listed = coded_generations(params, 3)
        coded = CodedMessage(params, listed)
        assert coded.params is params
        assert coded.generations == tuple(tuple(gen) for gen in listed)
        assert list(coded) == list(coded.generations)
        assert coded == encode_message(params, random.Random(3).randbytes(3 * params.k * CELL_SIZE - 8))
        with pytest.raises(dataclasses.FrozenInstanceError):
            coded.generations = ()

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError, match="at least one generation"):
            CodedMessage(CodeParams(1, 1, 0), [])

    def test_empty_generation_rejected(self):
        with pytest.raises(ValueError, match="generation 0 carries 0 cells, the code has n=1"):
            CodedMessage(CodeParams(1, 1, 0), [[]])

    def test_generation_of_mixed_ids_rejected(self):
        # sub-flow 1's cell would land in generation 7's bucket, so a lossless
        # transfer would fail generation 0
        params = CodeParams(2, 2, 0)
        first, second = coded_generations(params, 2)[0]
        stray = second._replace(generation_id=7)
        with pytest.raises(ValueError, match="carries generation 7 at position 0"):
            CodedMessage(params, [[first, stray]])

    @pytest.mark.parametrize("picks", [(0, 0), (0, 2), (1, 0), (0, 1, 1)], ids=["repeat", "skip", "fall", "repeat-last"])
    def test_generation_ids_must_rise_by_one(self, picks):
        params = CodeParams(2, 1, 1)
        generations = coded_generations(params, 3)
        with pytest.raises(ValueError, match=r"ids must run 0, 1, 2, \.\.\."):
            CodedMessage(params, [generations[i] for i in picks])

    def test_a_window_starting_later_is_rejected(self):
        # every message starts at generation 0
        params = CodeParams(2, 2, 0)
        coded = encode_message(params, random.Random(12).randbytes(3000))
        with pytest.raises(ValueError, match="carries generation 1 at position 0"):
            CodedMessage(params, coded.generations[1:])

    def test_a_message_of_mixed_k_is_rejected(self):
        # a k = 1 generation, then a k = 2 one: decode used to raise only after the whole transmit
        rng = random.Random(31)
        narrow, wide = CodeParams(2, 1, 1), CodeParams(2, 2, 0)
        generations = [
            encode_generation(Generation(0, (rng.randbytes(CELL_SIZE),)), build_generator(narrow)),
            encode_generation(Generation(1, (rng.randbytes(CELL_SIZE),) * 2), build_generator(wide)),
        ]
        with pytest.raises(ValueError, match="generation 1 sub-flow 0 coded with k=2, the code has k=1"):
            CodedMessage(narrow, generations)

    def test_generations_of_another_width_are_rejected(self):
        generations = coded_generations(CodeParams(2, 2, 0), 2)
        with pytest.raises(ValueError, match="generation 0 carries 2 cells, the code has n=3"):
            CodedMessage(CodeParams(3, 2, 1), generations)

    @pytest.mark.parametrize("params", [CodeParams(1, 1, 0), CodeParams(10, 6, 4)], ids=["otor", "ctor-10-4"])
    def test_building_parses_each_subflow_once(self, params, parser_calls):
        generations = coded_generations(params, 3)
        parser_calls.clear()
        coded = CodedMessage(params, generations)
        assert [wire for wire, _ in parser_calls] == list(coded.subflows)
        assert len(parser_calls) == params.n

    @pytest.mark.parametrize(
        "fault,error",
        [("drop-last-byte", "wire cell of"), ("flip-last-byte", "sub-flow 0's wire bytes do not parse back")],
        ids=["drop-last-byte", "flip-last-byte"],
    )
    def test_a_wire_that_does_not_parse_back_is_rejected(self, fault, error, monkeypatch):
        to_wire = CodedCell.to_wire
        cut = {"drop-last-byte": lambda wire: wire[:-1], "flip-last-byte": lambda wire: wire[:-1] + bytes([wire[-1] ^ 1])}
        monkeypatch.setattr(CodedCell, "to_wire", lambda cell: cut[fault](to_wire(cell)))
        clear_stream_caches()
        message = random.Random(14).randbytes(1000)
        with pytest.raises(ValueError, match=error):
            run_transfer(circuits_for(4), encode_message(CodeParams(4, 3, 1), message), message)
        assert [cache.cache_info().misses for cache in STREAM_CACHES] == [0, 0, 0]


def coded_generations(params: CodeParams, generations: int) -> list:
    """Coded cells of a message that splits into exactly `generations` generations."""
    message = random.Random(generations).randbytes(generations * params.k * CELL_SIZE - 8)
    matrix = build_generator(params)
    coded = [encode_generation(g, matrix) for g in split_message(message, params.k)]
    assert len(coded) == generations
    return coded


class TestSubflowStreams:
    """transmit wraps and peels each surviving circuit's whole sub-flow at once."""

    PARAMS = CodeParams(10, 6, 4)
    BLOCKED = {1, 4}

    @pytest.mark.parametrize("generations", [1, 86])
    def test_one_stream_per_circuit_and_hop(self, generations):
        coded = CodedMessage(self.PARAMS, coded_generations(self.PARAMS, generations))
        circuits = circuits_for(10)
        clear_stream_caches()
        transmit(circuits, coded, self.BLOCKED)
        surviving = 10 - len(self.BLOCKED)
        if generations == 1:
            # 524-byte sub-flows: each stream is derived by the wrap and
            # reused by the peels; the exit streams are kept across transfers
            assert len(coded.subflows[0]) <= onion._SHORT_SUBFLOW
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
        assert len(coded.subflows[0]) > onion._SHORT_SUBFLOW
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

    def test_one_wrap_per_surviving_circuit(self, monkeypatch):
        coded = CodedMessage(self.PARAMS, coded_generations(self.PARAMS, 5))
        circuits = circuits_for(10)
        calls = []

        def recording_wrap(cell_bytes, circuit):
            calls.append((cell_bytes, circuit))
            return wrap_layers(cell_bytes, circuit)

        monkeypatch.setattr(onion, "wrap_layers", recording_wrap)
        delivered = transmit(circuits, coded, self.BLOCKED)
        assert calls == [
            (b"".join(gen[idx].to_wire() for gen in coded.generations), circuits[idx])
            for idx in range(10)
            if idx not in self.BLOCKED
        ]
        assert delivered == [
            cell for gen in coded.generations for cell in gen if cell.subflow_index not in self.BLOCKED
        ]

    @pytest.mark.parametrize("fault", ["width", "order"])
    def test_malformed_last_generation_raises_before_any_stream(self, fault):
        coded = coded_generations(self.PARAMS, 4)
        last = list(coded[-1])
        if fault == "width":
            last.pop()
        else:
            last[3], last[4] = last[4], last[3]
        # the message checks its shape when it is built, before any transfer
        clear_stream_caches()
        with pytest.raises(ValueError):
            CodedMessage(self.PARAMS, coded[:-1] + [last])
        assert [cache.cache_info().misses for cache in STREAM_CACHES] == [0, 0, 0]

    @pytest.mark.parametrize("blocked", [set(), {0}, {1}])
    def test_mixed_wire_lengths_come_back_intact(self, blocked):
        # one k = 1 generation (518-byte wire cells), then one k = 2 generation
        # (519 bytes); a CodedMessage holds one k, so each unblocked circuit's
        # stream is wrapped and peeled directly, as transmit does
        rng = random.Random(30)
        narrow, wide = CodeParams(2, 1, 1), CodeParams(2, 2, 0)
        coded = [
            encode_generation(Generation(0, (rng.randbytes(CELL_SIZE),)), build_generator(narrow)),
            encode_generation(Generation(1, (rng.randbytes(CELL_SIZE), rng.randbytes(CELL_SIZE))), build_generator(wide)),
        ]
        arrived = []
        for idx, circuit in enumerate(circuits_for(2)):
            if idx in blocked:
                continue
            layered = wrap_layers(b"".join(gen[idx].to_wire() for gen in coded), circuit)
            for router in (circuit.entry, circuit.middle, circuit.exit):
                layered = peel_layer(layered, router)
            arrived.append(CodedCell.from_wire_stream(layered.payload))
        delivered = [cell for gen_cells in zip(*arrived) for cell in gen_cells]
        assert delivered == [cell for gen in coded for cell in gen if cell.subflow_index not in blocked]


class TestExitParse:
    """The exit hands back an unaltered sub-flow's own cells and parses any other bytes in full."""

    PARAMS = CodeParams(10, 6, 4)
    BLOCKED = {1, 4}

    @pytest.mark.parametrize("generations", [1, 86])
    def test_an_unaltered_subflow_comes_back_as_its_parse(self, generations, parser_calls, monkeypatch):
        coded = CodedMessage(self.PARAMS, coded_generations(self.PARAMS, generations))
        assert (len(coded.subflows[0]) <= onion._SHORT_SUBFLOW) == (generations == 1)
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
        assert peeled == [wire for idx, wire in enumerate(coded.subflows) if idx not in self.BLOCKED]
        arrived = [CodedCell.from_wire_stream(wire) for wire in peeled]
        assert delivered == [cell for gen_cells in zip(*arrived) for cell in gen_cells]
        assert len(delivered) == 8 * generations

    @pytest.mark.parametrize(
        "fault,error",
        [("cut-payload", "wire cell of"), ("cut-header", "wire cell too short"), ("k-zero", "coefficient vector")],
        ids=["cut-payload", "cut-header", "k-zero"],
    )
    @pytest.mark.parametrize("generations", [1, 86])
    def test_a_malformed_subflow_raises_on_every_call(self, generations, fault, error, parser_calls, monkeypatch):
        coded = CodedMessage(self.PARAMS, coded_generations(self.PARAMS, generations))
        wire = coded.subflows[0]
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
        for attempt in (1, 2, 3):
            with pytest.raises(ValueError, match=error):
                transmit(circuits, coded, self.BLOCKED)
            assert [wire for wire, _ in parser_calls] == [malformed] * attempt


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
    matrix = build_generator(params)
    rng = random.Random(seed)
    coded = [encode_generation(g, matrix) for g in split_message(rng.randbytes(size), params.k)]
    circuits = build_circuits([f"b{i}" for i in range(n)], rng)
    assert transmit(circuits, CodedMessage(params, coded), blocked) == [
        cell for gen in coded for cell in gen if cell.subflow_index not in blocked
    ]


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
        result = run_transfer(circuits_for(4), encode_message(CodeParams(4, 3, 1), message), message, {2})
        assert result.success
        assert result.failed_generations == ()
        assert all(count == 3 for count in result.delivered_counts)

    def test_mtor_fails_on_single_blocked_circuit(self):
        result = run_transfer(circuits_for(4), encode_message(CodeParams(4, 4, 0), bytes(1000)), bytes(1000), {2})
        assert not result.success
        assert len(result.failed_generations) == len(result.delivered_counts)

    def test_ctor_fails_beyond_redundancy(self):
        result = run_transfer(circuits_for(4), encode_message(CodeParams(4, 3, 1), bytes(1000)), bytes(1000), {1, 2})
        assert not result.success

    def test_otor_round_trip(self):
        message = random.Random(21).randbytes(600)
        result = run_transfer(circuits_for(1), encode_message(CodeParams(1, 1, 0), message), message)
        assert result.success

    def test_circuit_count_must_match_params(self):
        # transmit owns the check, and makes it before any stream is derived
        coded = encode_message(CodeParams(4, 4, 0), bytes(10))
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
        other = encode_message(params, random.Random(24).randbytes(2000))
        result = run_transfer(circuits_for(4), other, message, blocked)
        assert not result.success
        assert result.failed_generations == ()
        assert run_transfer(circuits_for(4), encode_message(params, message), message, blocked).success

    @pytest.mark.parametrize(
        "variant,params",
        [
            (Variant.OTOR, CodeParams(1, 1, 0)),
            (Variant.MTOR, CodeParams(4, 4, 0)),
            (Variant.CTOR, CodeParams(4, 3, 1)),
            (Variant.CTOR, CodeParams(5, 3, 2)),
        ],
    )
    def test_success_iff_blocking_within_redundancy(self, variant, params):
        # every blocked-subset pattern, not just single losses
        assert Variant.of(params) is variant
        message = random.Random(22).randbytes(1500)
        circuits = circuits_for(params.n)
        coded = encode_message(params, message)
        for size in range(params.n + 1):
            for blocked in itertools.combinations(range(params.n), size):
                result = run_transfer(circuits, coded, message, blocked)
                assert result.success == (size <= params.r), blocked

    @pytest.mark.parametrize("blocked", [(), (1,), (1, 4), (0, 2, 5, 9)])
    def test_decode_scales_each_missing_original_once_per_transfer(self, blocked, scale_calls):
        # timing-free guard on the column-wise decode: a transfer with fixed
        # blocking scales at most k whole columns per missing original,
        # whatever the number of generations
        params = CodeParams(10, 6, 4)
        message = random.Random(25).randbytes(64 * 1024)
        coded = encode_message(params, message)
        assert len(coded.generations) > 20
        scale_calls.clear()
        assert run_transfer(circuits_for(params.n), coded, message, blocked).success
        missing = sum(1 for idx in blocked if idx < params.k)
        assert len(scale_calls) <= params.k * missing
        assert set(scale_calls) <= {len(coded.generations) * CELL_SIZE}
