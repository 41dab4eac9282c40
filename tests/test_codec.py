"""Codec contracts: generator construction, encode/decode, framing."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ctorsim import gf256
from ctorsim.analytics import DEFAULT_CONFIGS
from ctorsim.codec import (
    CELL_SIZE,
    CodedCell,
    CodeParams,
    Generation,
    GeneratorMatrix,
    UnrecoverableGeneration,
    _decode_plan,
    build_generator,
    decode_generation,
    encode_generation,
    reassemble_message,
    split_message,
)
from ctorsim.onion import build_circuits, run_transfer


def rank_of(rows: list[bytes], k: int) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(k):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        s = gf256.inv(mat[rank][col])
        mat[rank] = [gf256.mul(s, v) for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a ^ gf256.mul(f, b) for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def random_generation(k: int, rng: random.Random, generation_id: int = 0) -> Generation:
    return Generation(generation_id, tuple(rng.randbytes(CELL_SIZE) for _ in range(k)))


class TestCodeParams:
    def test_accepts_consistent_shape(self):
        p = CodeParams(4, 3, 1)
        assert (p.n, p.k, p.r) == (4, 3, 1)

    @pytest.mark.parametrize("n,k,r", [(4, 3, 0), (3, 0, 3), (2, 3, -1), (256, 255, 1)])
    def test_rejects_bad_shape(self, n, k, r):
        with pytest.raises(ValueError):
            CodeParams(n, k, r)


class TestBuildGenerator:
    def test_no_redundancy_is_identity(self):
        m = build_generator(CodeParams(3, 3, 0))
        assert m.rows == (b"\x01\x00\x00", b"\x00\x01\x00", b"\x00\x00\x01")

    def test_single_parity_row_is_all_ones(self):
        m = build_generator(CodeParams(4, 3, 1))
        assert m.rows[3] == b"\x01\x01\x01"

    def test_deterministic(self):
        p = CodeParams(10, 6, 4)
        assert build_generator(p) == build_generator(p)

    def test_one_shared_instance_per_shape(self):
        p = CodeParams(10, 6, 4)
        assert build_generator(p) is build_generator(p)
        assert build_generator(p) == build_generator.__wrapped__(p)

    def test_rebuilt_after_eviction_equals_the_first(self):
        p = CodeParams(10, 6, 4)
        first = build_generator(p)
        maxsize = build_generator.cache_info().maxsize
        for k in range(1, maxsize + 2):
            build_generator(CodeParams(k + 1, k, 1))
        again = build_generator(p)
        assert again is not first  # the cache is bounded and p was evicted
        assert again == first

    @pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (10, 6), (9, 4)])
    def test_every_k_row_subset_invertible(self, n, k):
        m = build_generator(CodeParams(n, k, n - k))
        for subset in itertools.combinations(range(n), k):
            assert rank_of([m.rows[i] for i in subset], k) == k, subset

    def test_field_size_bound(self):
        with pytest.raises(ValueError):
            build_generator(CodeParams(256, 200, 56))

    def test_systematic_form_enforced(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(CodeParams(2, 2, 0), (b"\x01\x01", b"\x00\x01"))


class TestEncode:
    def test_identity_code_passes_cell_through(self):
        gen = random_generation(1, random.Random(1))
        [cell] = encode_generation(gen, build_generator(CodeParams(1, 1, 0)))
        assert cell.payload == gen.cells[0]
        assert cell.coefficients == b"\x01"

    def test_parity_cell_is_xor_of_data_cells(self):
        gen = random_generation(2, random.Random(2))
        cells = encode_generation(gen, build_generator(CodeParams(3, 2, 1)))
        assert cells[2].payload == gf256.xor_bytes(gen.cells[0], gen.cells[1])

    def test_systematic_transparency(self):
        gen = random_generation(3, random.Random(3))
        cells = encode_generation(gen, build_generator(CodeParams(4, 3, 1)))
        for j in range(3):
            assert cells[j].payload == gen.cells[j]
            assert cells[j].subflow_index == j

    def test_any_single_loss_still_decodable(self):
        # the walk-through shape: n=4, k=3, r=1, one sub-flow lost
        params = CodeParams(4, 3, 1)
        gen = random_generation(3, random.Random(4))
        cells = encode_generation(gen, build_generator(params))
        for lost in range(4):
            survivors = [c for c in cells if c.subflow_index != lost]
            assert decode_generation(survivors, params).cells == gen.cells

    def test_cell_count_mismatch(self):
        gen = random_generation(2, random.Random(5))
        with pytest.raises(ValueError):
            encode_generation(gen, build_generator(CodeParams(4, 3, 1)))

    def test_encoding_is_linear(self):
        params = CodeParams(5, 3, 2)
        matrix = build_generator(params)
        rng = random.Random(6)
        a = random_generation(3, rng)
        b = random_generation(3, rng)
        both = Generation(0, tuple(gf256.xor_bytes(x, y) for x, y in zip(a.cells, b.cells)))
        enc_a = encode_generation(a, matrix)
        enc_b = encode_generation(b, matrix)
        enc_both = encode_generation(both, matrix)
        for ca, cb, cab in zip(enc_a, enc_b, enc_both):
            assert cab.payload == gf256.xor_bytes(ca.payload, cb.payload)


class TestDecode:
    def test_all_systematic_cells_short_circuit(self):
        params = CodeParams(4, 3, 1)
        gen = random_generation(3, random.Random(7))
        cells = encode_generation(gen, build_generator(params))
        assert decode_generation(cells[:3], params).cells == gen.cells

    def test_parity_algebra_recovers_missing_cell(self):
        params = CodeParams(4, 3, 1)
        gen = random_generation(3, random.Random(8))
        cells = encode_generation(gen, build_generator(params))
        received = [cells[0], cells[1], cells[3]]  # m1, m2, parity
        expected = gf256.xor_bytes(gf256.xor_bytes(cells[3].payload, cells[0].payload), cells[1].payload)
        decoded = decode_generation(received, params)
        assert decoded.cells[2] == expected == gen.cells[2]

    def test_below_threshold_raises(self):
        params = CodeParams(4, 3, 1)
        gen = random_generation(3, random.Random(9))
        cells = encode_generation(gen, build_generator(params))
        with pytest.raises(UnrecoverableGeneration) as exc:
            decode_generation(cells[:2], params)
        assert exc.value.generation_id == 0

    def test_duplicate_cells_do_not_fake_rank(self):
        params = CodeParams(4, 3, 1)
        cells = encode_generation(random_generation(3, random.Random(10)), build_generator(params))
        with pytest.raises(UnrecoverableGeneration):
            decode_generation([cells[0], cells[1], cells[1]], params)

    def test_mixed_generations_rejected(self):
        params = CodeParams(2, 1, 1)
        matrix = build_generator(params)
        rng = random.Random(11)
        a = encode_generation(random_generation(1, rng, generation_id=0), matrix)
        b = encode_generation(random_generation(1, rng, generation_id=1), matrix)
        with pytest.raises(ValueError):
            decode_generation([a[0], b[1]], params)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            decode_generation([], CodeParams(4, 3, 1))

    @pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (6, 4)])
    def test_every_k_subset_decodes(self, n, k):
        params = CodeParams(n, k, n - k)
        gen = random_generation(k, random.Random(12))
        cells = encode_generation(gen, build_generator(params))
        for subset in itertools.combinations(cells, k):
            assert decode_generation(list(subset), params).cells == gen.cells


class TestRandomCoefficientMode:
    def test_decodes_from_full_rank_subsets(self):
        # elimination is not tied to the Cauchy rows: any full-rank subset decodes
        params = CodeParams(5, 3, 2)
        rng = random.Random(13)
        parity = tuple(bytes(rng.randrange(256) for _ in range(3)) for _ in range(2))
        matrix = GeneratorMatrix(params, (b"\x01\x00\x00", b"\x00\x01\x00", b"\x00\x00\x01") + parity)
        gen = random_generation(3, random.Random(14))
        cells = encode_generation(gen, matrix)
        decoded = decode_generation([cells[0], cells[3], cells[4]], params)
        assert decoded.cells == gen.cells

    def test_singular_subset_reports_failure_instead_of_misdecoding(self):
        # a legal but degenerate matrix: both parity rows identical
        params = CodeParams(4, 2, 2)
        matrix = GeneratorMatrix(
            params, (b"\x01\x00", b"\x00\x01", b"\x05\x07", b"\x05\x07")
        )
        gen = random_generation(2, random.Random(15))
        cells = encode_generation(gen, matrix)
        with pytest.raises(UnrecoverableGeneration):
            decode_generation([cells[2], cells[3]], params)


class TestWireFormat:
    def test_layout_is_bit_exact(self):
        cell = CodedCell(0x01020304, 7, b"\x01\x01\x01", bytes(range(256)) * 2)
        wire = cell.to_wire()
        assert wire[:4] == b"\x01\x02\x03\x04"
        assert wire[4] == 7
        assert wire[5] == 3
        assert wire[6:9] == b"\x01\x01\x01"
        assert wire[9:] == cell.payload
        assert len(wire) == 4 + 1 + 1 + 3 + CELL_SIZE

    def test_round_trip(self):
        cell = CodedCell(42, 3, b"\x01\x02\x03\x04", random.Random(16).randbytes(CELL_SIZE))
        assert CodedCell.from_wire(cell.to_wire()) == cell

    def test_short_wire_rejected(self):
        with pytest.raises(ValueError):
            CodedCell.from_wire(bytes(100))

    def test_cells_cut_by_one_byte_are_rejected(self):
        # without k in the header, three (4,4,0) cells each cut by one byte
        # would parse as (3,3,0) cells and decode to shifted bytes
        params = CodeParams(4, 4, 0)
        cells = encode_generation(random_generation(4, random.Random(17)), build_generator(params))
        for cell in cells[:3]:
            with pytest.raises(ValueError):
                CodedCell.from_wire(cell.to_wire()[:-1])

    def test_stream_parses_by_each_cells_header(self):
        rng = random.Random(19)
        cells = [
            CodedCell(gid, idx, rng.randbytes(k), rng.randbytes(CELL_SIZE))
            for gid, idx, k in ((0, 0, 1), (1, 2, 3), (2, 1, 255), (3, 0, 2))
        ]
        stream = b"".join(cell.to_wire() for cell in cells)
        assert CodedCell.from_wire_stream(stream) == cells
        assert CodedCell.from_wire_stream(b"") == []
        for cut in (1, 5, CELL_SIZE + 1):
            with pytest.raises(ValueError):
                CodedCell.from_wire_stream(stream[:-cut])
        with pytest.raises(ValueError):
            CodedCell.from_wire_stream(stream + b"\x00")

    def test_parsed_cells_equal_public_cells_and_hold_bytes(self):
        rng = random.Random(20)
        cells = [CodedCell(7, idx, rng.randbytes(3), rng.randbytes(CELL_SIZE)) for idx in range(3)]
        stream = b"".join(cell.to_wire() for cell in cells)
        first = len(cells[0].to_wire())
        for data in (stream, bytearray(stream), memoryview(stream)):
            parsed = CodedCell.from_wire_stream(data) + [CodedCell.from_wire(data[:first])]
            assert parsed == cells + cells[:1]
            for cell in parsed:
                assert type(cell.coefficients) is bytes and type(cell.payload) is bytes

    def test_from_wire_rejects_k_zero_short_and_long_cells(self):
        wire = CodedCell(5, 1, b"\x01\x02", bytes(CELL_SIZE)).to_wire()
        zero_k = wire[:5] + b"\x00" + wire[6:]
        # the last one is exactly as long as a k = 0 cell would be
        for bad in (wire[:-1], wire + b"\x00", wire[:5], zero_k, zero_k[: 6 + CELL_SIZE]):
            with pytest.raises(ValueError):
                CodedCell.from_wire(bad)
        with pytest.raises(ValueError):
            CodedCell.from_wire_stream(wire + zero_k[: 6 + CELL_SIZE])


class TestPublicConstructors:
    """Parsing and decoding build cells and generations past __post_init__;
    anything built by hand is still checked."""

    @pytest.mark.parametrize(
        "generation_id,subflow_index,coefficients,payload",
        [
            (-1, 0, b"\x01", bytes(CELL_SIZE)),
            (2**32, 0, b"\x01", bytes(CELL_SIZE)),
            (0, 256, b"\x01", bytes(CELL_SIZE)),
            (0, 0, b"", bytes(CELL_SIZE)),
            (0, 0, bytes(256), bytes(CELL_SIZE)),
            (0, 0, b"\x01", bytes(CELL_SIZE - 1)),
        ],
    )
    def test_coded_cell_rejects_out_of_range_fields(self, generation_id, subflow_index, coefficients, payload):
        with pytest.raises(ValueError):
            CodedCell(generation_id, subflow_index, coefficients, payload)

    @pytest.mark.parametrize(
        "generation_id,cells", [(-1, (bytes(CELL_SIZE),)), (0, ()), (0, (bytes(CELL_SIZE), bytes(CELL_SIZE + 1)))]
    )
    def test_generation_rejects_bad_cells(self, generation_id, cells):
        with pytest.raises(ValueError):
            Generation(generation_id, cells)

    def test_decoded_generation_equals_public_one(self):
        params = CodeParams(5, 3, 2)
        gen = random_generation(3, random.Random(21), generation_id=4)
        cells = encode_generation(gen, build_generator(params))
        for received in (cells[:3], cells[2:]):  # systematic, then through the inverse
            assert decode_generation(received, params) == gen


class TestFraming:
    def test_minimal_message_fills_one_generation(self):
        gens = split_message(b"\x42", 3)
        assert len(gens) == 1
        assert len(gens[0].cells) == 3
        stream = b"".join(gens[0].cells)
        assert stream[:8] == (1).to_bytes(8, "big")
        assert stream[8] == 0x42
        assert set(stream[9:]) == {0}

    def test_exact_cell_multiple_spills_into_second_generation(self):
        # the 8-byte length prefix rides inside the cell stream, so a
        # 512*k-byte message needs one extra cell
        gens = split_message(b"\xaa" * (CELL_SIZE * 3), 3)
        assert len(gens) == 2

    def test_cell_arithmetic_10000_bytes(self):
        gens = split_message(bytes(10000), 3)
        # ceil((10000 + 8) / 512) = 20 cells, rounded up to 21 = 7 generations
        assert len(gens) == 7

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError):
            split_message(b"", 3)

    def test_contiguous_ids_from_zero(self):
        gens = split_message(bytes(5000), 2)
        assert [g.generation_id for g in gens] == list(range(len(gens)))

    def test_reassemble_requires_contiguous_ids(self):
        gens = split_message(bytes(5000), 2)
        with pytest.raises(ValueError):
            reassemble_message(gens[1:])
        with pytest.raises(ValueError):
            reassemble_message([])

    def test_reassemble_accepts_any_order(self):
        message = random.Random(17).randbytes(4000)
        gens = split_message(message, 3)
        assert reassemble_message(list(reversed(gens))) == message

    @pytest.mark.parametrize("length", [1, 503, 504, 505, 512, 1528, 1529, 1536, 5000])
    def test_round_trip_boundary_lengths(self, length):
        message = random.Random(length).randbytes(length)
        assert reassemble_message(split_message(message, 3)) == message


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.binary(min_size=1, max_size=5000),
    shape=st.sampled_from([(1, 1), (4, 3), (5, 3), (10, 6)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_through_random_k_subsets(data, shape, seed):
    n, k = shape
    params = CodeParams(n, k, n - k)
    matrix = build_generator(params)
    rng = random.Random(seed)
    decoded = []
    for gen in split_message(data, k):
        cells = encode_generation(gen, matrix)
        survivors = rng.sample(cells, k)
        decoded.append(decode_generation(survivors, params))
    assert reassemble_message(decoded) == data


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.binary(min_size=1, max_size=3000), k=st.integers(1, 8))
def test_split_reassemble_is_identity(data, k):
    assert reassemble_message(split_message(data, k)) == data


_WIRE_HEADER = 4 + 1 + 1  # generation id, sub-flow index, k


@settings(max_examples=80, deadline=None, derandomize=True)
@given(k=st.integers(0, 255), data=st.data())
def test_from_wire_round_trips_or_rejects(k, data):
    # a wire cell parses exactly when its length is the one its header's k
    # gives and k >= 1; any other length or k is rejected
    exact = _WIRE_HEADER + k + CELL_SIZE
    size = data.draw(st.one_of(st.integers(0, _WIRE_HEADER), st.integers(exact - 2, exact + 2)))
    wire = bytearray(data.draw(st.binary(min_size=size, max_size=size)))
    if size >= _WIRE_HEADER:
        wire[5] = k
    if size == exact and k >= 1:
        assert CodedCell.from_wire(bytes(wire)).to_wire() == wire
    else:
        with pytest.raises(ValueError):
            CodedCell.from_wire(bytes(wire))


# Faulty cells the decoder must catch: one of another generation, one of a
# code with another k, and a wire cell with bytes cut off its end. Faults the
# wire format cannot show (a corrupted payload byte) are out of scope for an
# erasure code.
FAULTS = st.tuples(
    st.sampled_from(["other_generation", "wider_k", "narrower_k", "truncated"]),
    st.integers(0, 255),
    st.integers(1, 8),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from([(1, 1), (2, 1), (4, 3), (5, 3), (6, 6), (10, 6)]),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 255), max_size=12),  # repeats duplicate a cell
    faults=st.lists(FAULTS, max_size=3),
    data=st.data(),
)
def test_decode_raises_or_returns_the_generation(shape, seed, picks, faults, data):
    n, k = shape
    params = CodeParams(n, k, n - k)
    rng = random.Random(seed)
    generations = {3: random_generation(k, rng, 3), 4: random_generation(k, rng, 4)}
    coded = encode_generation(generations[3], build_generator(params))
    other_k = k - 1 if k > 1 and seed % 2 else k + 1
    sources = {
        "other_generation": encode_generation(generations[4], build_generator(params)),
        "wider_k": encode_generation(random_generation(k + 1, rng, 3), build_generator(CodeParams(n + 1, k + 1, n - k))),
        "narrower_k": encode_generation(
            random_generation(other_k, rng, 3), build_generator(CodeParams(other_k + n - k, other_k, n - k))
        ),
    }
    wires = [(coded[i % n].to_wire(), False) for i in picks]
    for kind, index, cut in faults:
        if kind == "truncated":
            wires.append((coded[index % n].to_wire()[:-cut], True))
        else:
            wires.append((sources[kind][index % len(sources[kind])].to_wire(), False))
    wires = data.draw(st.permutations(wires))
    received = []
    for wire, truncated in wires:
        if truncated:
            with pytest.raises(ValueError):
                CodedCell.from_wire(wire)
        else:
            received.append(CodedCell.from_wire(wire))
    if not received or any(
        cell.generation_id != received[0].generation_id or len(cell.coefficients) != k for cell in received
    ):
        with pytest.raises(ValueError):
            decode_generation(received, params)
    elif len({cell.subflow_index for cell in received}) >= k:
        assert decode_generation(received, params) == generations[received[0].generation_id]
    else:
        with pytest.raises(UnrecoverableGeneration):
            decode_generation(received, params)


def unit_rows(k: int) -> tuple[bytes, ...]:
    return tuple(bytes(i) + b"\x01" + bytes(k - i - 1) for i in range(k))


def elimination_decode(received, params: CodeParams) -> Generation:
    """Reference decoder: Gaussian elimination with the payloads as the
    augmented part, redone for every generation."""
    generation_id = received[0].generation_id
    k = params.k
    originals = {
        cell.subflow_index: cell.payload
        for cell in received
        if cell.subflow_index < k and cell.coefficients == unit_rows(k)[cell.subflow_index]
    }
    if len(originals) == k:
        return Generation(generation_id, tuple(originals[i] for i in range(k)))
    reduced: list[tuple[list[int], bytes]] = []
    pivot_of: dict[int, int] = {}
    for cell in received:
        coeffs = list(cell.coefficients)
        payload = cell.payload
        for col, ridx in pivot_of.items():
            f = coeffs[col]
            if f:
                prow, ppay = reduced[ridx]
                coeffs = [a ^ gf256.mul(f, b) for a, b in zip(coeffs, prow)]
                payload = gf256.xor_bytes(payload, gf256.scale_bytes(ppay, f))
        lead = next((j for j in range(k) if coeffs[j]), None)
        if lead is None:
            continue
        s = gf256.inv(coeffs[lead])
        pivot_of[lead] = len(reduced)
        reduced.append(([gf256.mul(s, a) for a in coeffs], gf256.scale_bytes(payload, s)))
        if len(reduced) == k:
            break
    if len(reduced) < k:
        raise UnrecoverableGeneration(generation_id, received=len(received))
    for col in sorted(pivot_of, reverse=True):
        prow, ppay = reduced[pivot_of[col]]
        for i, (coeffs, payload) in enumerate(reduced):
            f = coeffs[col]
            if i != pivot_of[col] and f:
                reduced[i] = (
                    [a ^ gf256.mul(f, b) for a, b in zip(coeffs, prow)],
                    gf256.xor_bytes(payload, gf256.scale_bytes(ppay, f)),
                )
    return Generation(generation_id, tuple(reduced[pivot_of[col]][1] for col in range(k)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.integers(1, 8), r=st.integers(0, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_cached_inverse_matches_elimination(k, r, seed, data):
    # parity rows are arbitrary bytes, not Cauchy rows: zeros, repeats and
    # singular subsets all occur
    params = CodeParams(k + r, k, r)
    parity = data.draw(st.lists(st.binary(min_size=k, max_size=k), min_size=r, max_size=r))
    generation = random_generation(k, random.Random(seed), generation_id=seed % 1000)
    coded = encode_generation(generation, GeneratorMatrix(params, unit_rows(k) + tuple(parity)))
    # up to r + 1 erased sub-flows, duplicated survivors, and cells that
    # depend on two coded cells
    index = st.integers(0, params.n - 1)
    most = min(r + 1, params.n - 1)
    erased = data.draw(st.sets(index, min_size=min(1, most), max_size=most))
    received = [cell for cell in coded if cell.subflow_index not in erased]
    received += data.draw(st.lists(st.sampled_from(received), max_size=3))
    mixes = data.draw(st.lists(st.tuples(index, index, st.integers(0, 255)), max_size=2))
    for j, (a, b, c) in enumerate(mixes):
        received.append(CodedCell(
            coded[a].generation_id,
            params.n + j,
            bytes(x ^ gf256.mul(c, y) for x, y in zip(coded[a].coefficients, coded[b].coefficients)),
            gf256.xor_bytes(coded[a].payload, gf256.scale_bytes(coded[b].payload, c)),
        ))
    received = data.draw(st.permutations(received))
    try:
        expected = elimination_decode(received, params)
    except UnrecoverableGeneration as exc:
        with pytest.raises(UnrecoverableGeneration) as got:
            decode_generation(received, params)
        assert (got.value.generation_id, got.value.received) == (exc.generation_id, exc.received)
    else:
        assert expected == generation
        assert decode_generation(received, params) == expected


class TestDecodePlanCache:
    def test_one_inversion_per_transfer_with_fixed_blocking(self):
        params = CodeParams(10, 6, 4)
        circuits = build_circuits([f"b{i}" for i in range(10)], random.Random(0))
        message = random.Random(18).randbytes(256 * 1024)
        generations = len(split_message(message, params.k))
        _decode_plan.cache_clear()
        result = run_transfer(circuits, params, message, blocked={0, 3, 7})
        assert result.success and result.data == message
        info = _decode_plan.cache_info()
        assert (info.misses, info.hits) == (1, generations - 1)

    def test_same_subflows_of_another_generator_decode_by_their_own_rows(self):
        # the plan is keyed by coefficient rows, not sub-flow indices: two
        # codes of one shape lose the same sub-flows, one of them singularly
        params = CodeParams(4, 2, 2)
        gen = random_generation(2, random.Random(19))
        singular = GeneratorMatrix(params, unit_rows(2) + (b"\x05\x07", b"\x05\x07"))
        for first, second in ((build_generator(params), singular), (singular, build_generator(params))):
            for matrix in (first, second):
                cells = encode_generation(gen, matrix)
                if matrix is singular:
                    with pytest.raises(UnrecoverableGeneration):
                        decode_generation([cells[2], cells[3]], params)
                else:
                    assert decode_generation([cells[2], cells[3]], params) == gen

    def test_default_grid_survivor_sets_fit_the_bound(self):
        # sets holding all k originals take the systematic shortcut, so only
        # 12 (ctor:5:2) + 370 (ctor:10:4) reach the cache
        _decode_plan.cache_clear()
        for params in DEFAULT_CONFIGS:
            gen = random_generation(params.k, random.Random(params.n))
            coded = encode_generation(gen, build_generator(params))
            for size in range(params.k, params.n + 1):
                for received in itertools.combinations(coded, size):
                    assert decode_generation(list(received), params) == gen
        info = _decode_plan.cache_info()
        assert info.currsize == info.misses == 382 <= info.maxsize

    def test_one_shared_plan_per_row_set(self):
        rows = build_generator(CodeParams(10, 6, 4)).rows[4:]
        assert _decode_plan(rows) is _decode_plan(rows)
        assert _decode_plan(rows) == _decode_plan.__wrapped__(rows)

    def test_rebuilt_after_eviction_equals_the_first(self):
        params = CodeParams(10, 6, 4)
        gen = random_generation(6, random.Random(20))
        received = encode_generation(gen, build_generator(params))[3:]
        rows = tuple(cell.coefficients for cell in received)
        first = _decode_plan(rows)
        maxsize = _decode_plan.cache_info().maxsize
        for i in range(maxsize + 1):
            _decode_plan((bytes([1, i >> 8, i & 255]),))
        misses = _decode_plan.cache_info().misses
        assert decode_generation(received, params) == gen
        assert _decode_plan.cache_info().misses == misses + 1  # the cache is bounded and rows were evicted
        again = _decode_plan(rows)
        assert again is not first
        assert again == first
