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


class TestDefaultRegistry:
    def test_one_pool_covers_every_legal_code(self):
        assert default_registry() is default_registry()
        assert len(default_registry().middles) == MAX_N
        assert len(default_registry().exits) == 10

    def test_pool_holds_the_cached_routers(self):
        # rebuild, so relays other tests churned through the bounded cache cannot matter
        default_registry.cache_clear()
        pool = default_registry()
        for router in pool.middles + pool.exits:
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


class TestLayering:
    def test_wrap_then_peel_in_order_restores_bytes(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(1).randbytes(520)
        cell = wrap_layers(wire, circuit, seq=9)
        assert cell.layers_remaining == 3
        assert cell.payload != wire
        for router in (circuit.entry, circuit.middle, circuit.exit):
            cell = peel_layer(cell, router)
        assert cell.layers_remaining == 0
        assert cell.payload == wire

    def test_wrap_is_deterministic(self):
        circuit = circuits_for(1)[0]
        wire = bytes(range(256))
        assert wrap_layers(wire, circuit, seq=3) == wrap_layers(wire, circuit, seq=3)

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


def reference_keystream(key: bytes, circuit_id: str, seq: int, depth: int, size: int) -> bytes:
    """Uncached layer stream, absorbed field by field."""
    h = hashlib.shake_256()
    h.update(len(key).to_bytes(2, "big"))
    h.update(key)
    cid = circuit_id.encode()
    h.update(len(cid).to_bytes(2, "big"))
    h.update(cid)
    h.update(seq.to_bytes(8, "big"))
    h.update(bytes([depth]))
    return h.digest(size)


def reference_wrap(cell_bytes: bytes, circuit: Circuit, seq: int) -> bytes:
    """wrap_layers as three bytes-domain XORs over uncached streams."""
    data = bytes(cell_bytes)
    for depth, router in ((1, circuit.exit), (2, circuit.middle), (3, circuit.entry)):
        data = xor_bytes(data, reference_keystream(router.layer_key, circuit.circuit_id, seq, depth, len(data)))
    return data


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    cell=st.binary(max_size=700),
    seq=st.integers(0, 2**64 - 1),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10),
    data=st.data(),
)
def test_wrap_matches_reference(cell, seq, seed, n, data):
    circuits = build_circuits([f"b{i}" for i in range(n)], random.Random(seed))
    circuit = circuits[data.draw(st.integers(0, n - 1))]
    layered = wrap_layers(cell, circuit, seq=seq)
    assert layered.payload == reference_wrap(cell, circuit, seq)
    assert (layered.layers_remaining, layered.circuit_id, layered.seq) == (3, circuit.circuit_id, seq)


@pytest.mark.parametrize(
    "wire", [b"", b"\x00", bytes(16), bytes(4) + random.Random(8).randbytes(520)],
    ids=["empty", "one-zero", "all-zero", "leading-zeros"],
)
def test_int_layers_keep_every_byte(wire):
    # layers are XORed as ints, which drop leading zero bytes; the size kept
    # beside the int must bring them back
    circuit = circuits_for(1)[0]
    cell = wrap_layers(wire, circuit, seq=4)
    assert cell.payload == reference_wrap(wire, circuit, 4)
    for router in (circuit.entry, circuit.middle, circuit.exit):
        cell = peel_layer(cell, router)
    assert cell.payload == wire


class TestKeystreamCache:
    """The stream cache saves SHAKE calls and must never change a byte."""

    def test_circuits_sharing_an_exit_get_distinct_streams(self):
        first, second = circuits_for(2)
        assert first.exit == second.exit
        wire = random.Random(4).randbytes(520)
        a = wrap_layers(wire, first, seq=7)
        b = wrap_layers(wire, second, seq=7)
        assert a.payload != b.payload
        assert a.payload == reference_wrap(wire, first, 7)
        assert b.payload == reference_wrap(wire, second, 7)

    def test_peeling_with_the_other_circuits_routers_garbles(self):
        first, second = circuits_for(2)
        wire = random.Random(5).randbytes(520)
        wrap_layers(wire, second, seq=7)  # leave the other circuit's streams cached
        cell = wrap_layers(wire, first, seq=7)
        for router in (second.entry, second.middle, second.exit):
            cell = peel_layer(cell, router)
        assert cell.payload != wire

    def test_out_of_order_and_wrong_key_peels_garble_right_after_wrap(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(6).randbytes(520)
        cell = wrap_layers(wire, circuit, seq=1)
        for router in (circuit.exit, circuit.middle, circuit.entry):  # reversed
            cell = peel_layer(cell, router)
        assert cell.payload != wire
        cell = wrap_layers(wire, circuit, seq=1)
        cell = peel_layer(cell, relay("someone-else"))
        for router in (circuit.middle, circuit.exit):
            cell = peel_layer(cell, router)
        assert cell.payload != wire

    def test_peel_streams_match_reference(self):
        circuit = circuits_for(1)[0]
        wire = random.Random(7).randbytes(520)
        cell = wrap_layers(wire, circuit, seq=2)
        expected = cell.payload
        for depth, router in ((3, circuit.entry), (2, circuit.middle), (1, circuit.exit)):
            expected = xor_bytes(expected, reference_keystream(router.layer_key, circuit.circuit_id, 2, depth, 520))
            cell = peel_layer(cell, router)
            assert cell.payload == expected
        assert cell.payload == wire

    def test_results_survive_cache_clear(self):
        params = CodeParams(4, 3, 1)
        matrix = build_generator(params)
        coded = [encode_generation(g, matrix) for g in split_message(bytes(range(256)) * 9, params.k)]
        circuits = circuits_for(4)
        warm = transmit(circuits, coded, {1})
        wrapped = wrap_layers(b"cell", circuits[0], seq=3)
        onion._keystream.cache_clear()
        assert transmit(circuits, coded, {1}) == warm
        onion._keystream.cache_clear()
        assert wrap_layers(b"cell", circuits[0], seq=3) == wrapped

    def test_cache_is_bounded(self):
        assert onion._keystream.cache_info().maxsize == 3


class TestTransmit:
    def make_coded(self, params: CodeParams, message: bytes):
        matrix = build_generator(params)
        return [encode_generation(g, matrix) for g in split_message(message, params.k)]

    def test_lossless_delivers_everything(self):
        params = CodeParams(4, 3, 1)
        coded = self.make_coded(params, bytes(2000))
        delivered = transmit(circuits_for(4), coded)
        assert len(delivered) == 4 * len(coded)
        # cells come back exactly as sent
        assert delivered == [cell for gen in coded for cell in gen]

    def test_blocked_circuit_drops_whole_subflow(self):
        params = CodeParams(4, 3, 1)
        coded = self.make_coded(params, bytes(3000))
        delivered = transmit(circuits_for(4), coded, {2})
        assert len(delivered) == 3 * len(coded)
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

    def test_subflow_circuit_order_mismatch_rejected(self):
        params = CodeParams(2, 2, 0)
        coded = self.make_coded(params, bytes(100))
        swapped = [[coded[0][1], coded[0][0]]]
        with pytest.raises(ValueError):
            transmit(circuits_for(2), swapped)

    def test_generation_width_mismatch_rejected(self):
        params = CodeParams(2, 2, 0)
        coded = self.make_coded(params, bytes(100))
        with pytest.raises(ValueError):
            transmit(circuits_for(3), coded)


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
        coded = coded_generations(self.PARAMS, generations)
        circuits = circuits_for(10)
        onion._keystream.cache_clear()
        transmit(circuits, coded, self.BLOCKED)
        info = onion._keystream.cache_info()
        surviving = 10 - len(self.BLOCKED)
        assert (info.misses, info.hits) == (3 * surviving, 3 * surviving)

    def test_one_wrap_per_surviving_circuit(self, monkeypatch):
        coded = coded_generations(self.PARAMS, 5)[2:]  # sub-flows start at generation 2
        circuits = circuits_for(10)
        calls = []

        def recording_wrap(cell_bytes, circuit, seq=0):
            calls.append((cell_bytes, circuit, seq))
            return wrap_layers(cell_bytes, circuit, seq)

        monkeypatch.setattr(onion, "wrap_layers", recording_wrap)
        delivered = transmit(circuits, coded, self.BLOCKED)
        assert calls == [
            (b"".join(gen[idx].to_wire() for gen in coded), circuits[idx], 2)
            for idx in range(10)
            if idx not in self.BLOCKED
        ]
        assert delivered == [cell for gen in coded for cell in gen if cell.subflow_index not in self.BLOCKED]

    @pytest.mark.parametrize("fault", ["width", "order"])
    def test_malformed_last_generation_raises_before_any_stream(self, fault):
        coded = coded_generations(self.PARAMS, 4)
        last = list(coded[-1])
        if fault == "width":
            last.pop()
        else:
            last[3], last[4] = last[4], last[3]
        onion._keystream.cache_clear()
        with pytest.raises(ValueError):
            transmit(circuits_for(10), coded[:-1] + [last], self.BLOCKED)
        assert onion._keystream.cache_info().misses == 0

    @pytest.mark.parametrize("blocked", [set(), {0}, {1}])
    def test_mixed_wire_lengths_come_back_intact(self, blocked):
        # one k = 1 generation (518-byte wire cells), then one k = 2 generation (519 bytes)
        rng = random.Random(30)
        narrow, wide = CodeParams(2, 1, 1), CodeParams(2, 2, 0)
        coded = [
            encode_generation(Generation(0, (rng.randbytes(CELL_SIZE),)), build_generator(narrow)),
            encode_generation(Generation(1, (rng.randbytes(CELL_SIZE), rng.randbytes(CELL_SIZE))), build_generator(wide)),
        ]
        delivered = transmit(circuits_for(2), coded, blocked)
        assert delivered == [cell for gen in coded for cell in gen if cell.subflow_index not in blocked]


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
    assert transmit(circuits, coded, blocked) == [
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
        result = run_transfer(circuits_for(4), CodeParams(4, 3, 1), message, {2})
        assert result.success
        assert result.data == message
        assert result.failed_generations == ()
        assert all(count == 3 for count in result.delivered_counts)

    def test_mtor_fails_on_single_blocked_circuit(self):
        result = run_transfer(circuits_for(4), CodeParams(4, 4, 0), bytes(1000), {2})
        assert not result.success
        assert result.data is None
        assert len(result.failed_generations) == len(result.delivered_counts)

    def test_ctor_fails_beyond_redundancy(self):
        result = run_transfer(circuits_for(4), CodeParams(4, 3, 1), bytes(1000), {1, 2})
        assert not result.success

    def test_otor_round_trip(self):
        message = random.Random(21).randbytes(600)
        result = run_transfer(circuits_for(1), CodeParams(1, 1, 0), message)
        assert result.success and result.data == message

    def test_circuit_count_must_match_params(self):
        with pytest.raises(ValueError):
            run_transfer(circuits_for(3), CodeParams(4, 4, 0), bytes(10))

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
                result = run_transfer(circuits, params, message, blocked)
                assert result.success == (size <= params.r), blocked
                # a ready-made encoding of the message gives the same transfer
                assert run_transfer(circuits, params, message, blocked, coded=coded) == result
