"""Codec contracts: generator construction, encode/decode, framing."""

import copy
import itertools
import math
import pickle
import random
import re
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from ctorsim import codec, gf256
from ctorsim.analytics import DEFAULT_CONFIGS
from ctorsim.codec import (
    CELL_SIZE,
    MAX_N,
    CodedCell,
    CodeParams,
    Generation,
    UnrecoverableGeneration,
    _decode_plan,
    build_generator,
    decode_generation,
    decode_generations,
    encode_generation,
    encode_subflows,
    reassemble_message,
    split_message,
)
from ctorsim.onion import CodedMessage, build_circuits, run_transfer
from wire_layout import from_wire, mixed_k_cells, subflow_wires, to_wire


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


def parse_one(data: bytes) -> CodedCell:
    """The one wire cell `data` holds; any other count of cells is a ValueError."""
    cells = CodedCell.from_wire_stream(data)
    if len(cells) != 1:
        raise ValueError(f"expected one wire cell, got {len(cells)}")
    return cells[0]


class TestCodeParams:
    def test_accepts_consistent_shape(self):
        p = CodeParams(4, 3, 1)
        assert (p.n, p.k, p.r) == (4, 3, 1)

    @pytest.mark.parametrize("n,k,r", [(4, 3, 0), (3, 0, 3), (2, 3, -1), (256, 255, 1)])
    def test_rejects_bad_shape(self, n, k, r):
        with pytest.raises(ValueError):
            CodeParams(n, k, r)

    @pytest.mark.parametrize(
        "n,k,r", [(4.0, 3.0, 1), (4, 3.0, 1.0), (4, 3, 1.0), ("4", 3, 1), (4, None, 1)],
        ids=["float-n-k", "float-k-r", "float-r", "str-n", "none-k"],
    )
    def test_rejects_fields_that_are_not_integers(self, n, k, r):
        # a float shape used to construct and fail only in split_message
        with pytest.raises(TypeError):
            CodeParams(n, k, r)

    def test_integer_fields_are_stored_as_ints(self):
        class Index:
            def __index__(self):
                return 3

        p = CodeParams(4, Index(), True)
        assert (p.n, p.k, p.r) == (4, 3, 1)
        assert all(type(value) is int for value in (p.n, p.k, p.r))
        assert repr(p) == "CodeParams(n=4, k=3, r=1)"
        assert p == CodeParams(4, 3, 1) and hash(p) == hash(CodeParams(4, 3, 1))

    def test_pickle_round_trips(self):
        p = CodeParams(4, 3, 1)
        assert pickle.loads(pickle.dumps(p)) == p


class TestBuildGenerator:
    def test_no_redundancy_is_identity(self):
        rows = build_generator(CodeParams(3, 3, 0))
        assert rows == (b"\x01\x00\x00", b"\x00\x01\x00", b"\x00\x00\x01")

    def test_single_parity_row_is_all_ones(self):
        rows = build_generator(CodeParams(4, 3, 1))
        assert rows[3] == b"\x01\x01\x01"

    def test_deterministic(self):
        p = CodeParams(10, 6, 4)
        assert build_generator(p) == build_generator(p)

    @pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (10, 6), (9, 4)])
    def test_every_k_row_subset_invertible(self, n, k):
        rows = build_generator(CodeParams(n, k, n - k))
        for subset in itertools.combinations(range(n), k):
            assert rank_of([rows[i] for i in subset], k) == k, subset

    def test_field_size_bound(self):
        with pytest.raises(ValueError):
            build_generator(CodeParams(256, 200, 56))


def test_every_generator_up_to_40_circuits_is_systematic_with_invertible_k_subsets():
    # every shape with n <= 40: n rows of length k, the first k the unit rows,
    # and every k-row subset invertible. A subset is invertible exactly when
    # its parity rows, cut to the columns its unit rows miss, are; all
    # subsets are tried where C(n, k) <= 10, else 10 seeded ones and the k
    # last rows, which hold the most parity rows
    rng = random.Random(0)
    for n in range(1, 41):
        for k in range(1, n + 1):
            params = CodeParams(n, k, n - k)
            matrix = build_generator(params)
            assert len(matrix) == n
            assert matrix[:k] == unit_rows(k)
            assert all(type(row) is bytes and len(row) == k for row in matrix)
            if math.comb(n, k) <= 10:
                subsets = list(itertools.combinations(range(n), k))
            else:
                subsets = [rng.sample(range(n), k) for _ in range(10)] + [range(n - k, n)]
            for subset in subsets:
                parity = [i for i in subset if i >= k]
                missing = sorted(set(range(k)) - set(subset))
                cut = [bytes(matrix[i][col] for col in missing) for i in parity]
                assert rank_of(cut, len(missing)) == len(missing), (params, subset)


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

    @pytest.mark.parametrize("zeros", [1, 8, CELL_SIZE], ids=["one", "eight", "all"])
    def test_cells_ending_in_zero_bytes_keep_them(self, zeros):
        # payloads combine as little-endian ints, which drop trailing zero
        # bytes; a parity cell and a decoded cell must still be whole
        params = CodeParams(3, 2, 1)
        rng = random.Random(5)
        gen = Generation(0, tuple(rng.randbytes(CELL_SIZE - zeros) + bytes(zeros) for _ in range(2)))
        cells = encode_generation(gen, build_generator(params))
        # the first parity row is all ones: the parity cell is the XOR of the data cells
        assert cells[2].payload == bytes(a ^ b for a, b in zip(*gen.cells))
        assert cells[2].payload.endswith(bytes(zeros))
        for received in ([cells[1], cells[2]], [cells[0], cells[2]]):
            assert decode_generation(received, params) == gen

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
        decoded = decode_generation(cells[:3], params)
        assert decoded.cells == gen.cells
        # the inverse of the unit rows is the identity, so each cell is the payload itself
        assert all(out is cell.payload for out, cell in zip(decoded.cells, cells))

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
        with pytest.raises(UnrecoverableGeneration, match=r"^generation 0 cannot be recovered \(2 cells received\)$"):
            decode_generation(cells[:2], params)

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


def hand_made_rows() -> tuple[bytes, ...]:
    """The rows of a (5, 3, 2) generator whose parity rows are random bytes, not Cauchy rows."""
    rng = random.Random(13)
    parity = tuple(bytes(rng.randrange(256) for _ in range(3)) for _ in range(2))
    return (b"\x01\x00\x00", b"\x00\x01\x00", b"\x00\x00\x01") + parity


class TestRandomCoefficientMode:
    def test_decodes_from_full_rank_subsets(self):
        # elimination is not tied to the Cauchy rows: any full-rank subset decodes
        matrix = hand_made_rows()
        params = CodeParams(5, 3, 2)
        gen = random_generation(3, random.Random(14))
        cells = encode_generation(gen, matrix)
        decoded = decode_generation([cells[0], cells[3], cells[4]], params)
        assert decoded.cells == gen.cells

    def test_singular_subset_reports_failure_instead_of_misdecoding(self):
        # a legal but degenerate matrix: both parity rows identical
        params = CodeParams(4, 2, 2)
        matrix = (b"\x01\x00", b"\x00\x01", b"\x05\x07", b"\x05\x07")
        gen = random_generation(2, random.Random(15))
        cells = encode_generation(gen, matrix)
        with pytest.raises(UnrecoverableGeneration):
            decode_generation([cells[2], cells[3]], params)


class TestWireFormat:
    def test_layout_is_bit_exact(self):
        # wire i holds coded cell i of each generation in turn: generation id
        # (4B BE), sub-flow index, k, the k coefficients, the payload
        matrix = build_generator(CodeParams(4, 3, 1))
        rng = random.Random(44)
        generations = [random_generation(3, rng, 0x01020304), random_generation(3, rng, 9)]
        wires = encode_subflows(generations, matrix)
        size = 4 + 1 + 1 + 3 + CELL_SIZE
        assert [len(wire) for wire in wires] == [2 * size] * 4
        for i, wire in enumerate(wires):
            for t, generation in enumerate(generations):
                cell = wire[t * size : (t + 1) * size]
                assert cell[:4] == generation.generation_id.to_bytes(4, "big")
                assert cell[4:6] == bytes([i, 3])
                assert cell[6:9] == matrix[i]
                assert cell[9:] == (generation.cells[i] if i < 3 else reference_combine(matrix[i], generation.cells))
        assert wires[0][:4] == b"\x01\x02\x03\x04"
        # the tests' own writer spells out the same layout
        assert wires == subflow_wires([reference_encode(generation, matrix) for generation in generations])

    def test_round_trip(self):
        cell = CodedCell(42, 3, b"\x01\x02\x03\x04", random.Random(16).randbytes(CELL_SIZE))
        assert parse_one(to_wire(cell)) == cell

    def test_short_wire_rejected(self):
        with pytest.raises(ValueError):
            parse_one(bytes(100))

    def test_cells_cut_by_one_byte_are_rejected(self):
        # without k in the header, three (4,4,0) cells each cut by one byte
        # would parse as (3,3,0) cells and decode to shifted bytes
        params = CodeParams(4, 4, 0)
        cells = encode_generation(random_generation(4, random.Random(17)), build_generator(params))
        for cell in cells[:3]:
            with pytest.raises(ValueError):
                parse_one(to_wire(cell)[:-1])

    def test_stream_parses_by_each_cells_header(self):
        # each header gives its cell's ids, and every header must give the
        # k the first one gives: a stream of cells of several k is rejected
        rng = random.Random(19)
        cells = [
            CodedCell(gid, idx, rng.randbytes(3), rng.randbytes(CELL_SIZE)) for gid, idx in ((0, 0), (1, 2), (2, 1), (3, 0))
        ]
        stream = b"".join(to_wire(cell) for cell in cells)
        assert CodedCell.from_wire_stream(stream) == cells == [CodedCell(*fields) for fields in from_wire(stream)]
        for cut in (1, 5, CELL_SIZE + 1):
            with pytest.raises(ValueError):
                CodedCell.from_wire_stream(stream[:-cut])
        with pytest.raises(ValueError):
            CodedCell.from_wire_stream(stream + b"\x00")
        mixed = [
            CodedCell(gid, idx, rng.randbytes(k), rng.randbytes(CELL_SIZE))
            for gid, idx, k in ((0, 0, 1), (1, 2, 3), (2, 1, 255), (3, 0, 2))
        ]
        with pytest.raises(ValueError, match="^wire of 2333 bytes is not whole cells of k=1, "):
            CodedCell.from_wire_stream(b"".join(map(to_wire, mixed)))

    def test_parsed_cells_equal_public_cells_and_hold_bytes(self):
        rng = random.Random(20)
        cells = [CodedCell(7, idx, rng.randbytes(3), rng.randbytes(CELL_SIZE)) for idx in range(3)]
        stream = b"".join(to_wire(cell) for cell in cells)
        first = len(to_wire(cells[0]))
        for data in (stream, bytearray(stream), memoryview(stream)):
            parsed = CodedCell.from_wire_stream(data) + [parse_one(data[:first])]
            assert parsed == cells + cells[:1]
            for cell in parsed:
                assert type(cell.coefficients) is bytes and type(cell.payload) is bytes

    def test_from_wire_rejects_k_zero_short_and_long_cells(self):
        wire = to_wire(CodedCell(5, 1, b"\x01\x02", bytes(CELL_SIZE)))
        zero_k = wire[:5] + b"\x00" + wire[6:]
        # the last but one is exactly as long as a k = 0 cell would be; the
        # last is two whole cells back to back
        for bad in (wire[:-1], wire + b"\x00", wire[:5], zero_k, zero_k[: 6 + CELL_SIZE], wire + wire):
            with pytest.raises(ValueError):
                parse_one(bad)
        with pytest.raises(ValueError):
            CodedCell.from_wire_stream(wire + zero_k[: 6 + CELL_SIZE])

    @pytest.mark.parametrize(
        "generation_id,subflow_index,coefficients,payload,stage",
        [
            (-1, 0, b"\x01", bytes(CELL_SIZE), "header"),
            (2**32, 0, b"\x01", bytes(CELL_SIZE), "header"),
            (0, 256, b"\x01", bytes(CELL_SIZE), "header"),
            (0, 0, b"", bytes(CELL_SIZE), "parse"),
            (0, 0, bytes(256), bytes(CELL_SIZE), "header"),
            (0, 0, b"\x01", bytes(CELL_SIZE - 1), "parse"),
        ],
        ids=["id-negative", "id-wide", "subflow-wide", "empty-row", "row-wide", "short-payload"],
    )
    def test_a_cell_outside_the_field_ranges_never_crosses_the_wire(
        self, generation_id, subflow_index, coefficients, payload, stage
    ):
        # the ranges a CodedCell once checked in its constructor: the codec's
        # header cannot pack an id, sub-flow index or k too wide for its
        # bytes, and the parser rejects a cell with k = 0 or a short payload
        if stage == "header":
            with pytest.raises(struct.error):
                codec._HEADER.pack(generation_id, subflow_index, len(coefficients))
        else:
            with pytest.raises(ValueError):
                parse_one(codec._HEADER.pack(generation_id, subflow_index, len(coefficients)) + coefficients + payload)


class TestCodedCellHoldsBytes:
    """A cell parsed from any bytes-like wire holds its row and payload as
    bytes, whether the wire's cells share one row or not, so a cell and the
    decoder's cache key built from its row are always hashable."""

    @pytest.mark.parametrize("make", [bytearray, memoryview])
    def test_bytes_like_fields_are_stored_as_bytes(self, make):
        rng = random.Random(40)
        one_row = [CodedCell(generation_id, 0, b"\x01\x02", rng.randbytes(CELL_SIZE)) for generation_id in range(3)]
        rows = [CodedCell(generation_id, 0, rng.randbytes(2), rng.randbytes(CELL_SIZE)) for generation_id in range(3)]
        for cells in (one_row, rows):
            buffer = bytearray(b"".join(map(to_wire, cells)))
            parsed = CodedCell.from_wire_stream(buffer if make is bytearray else make(buffer))
            # the cells keep their bytes when the caller's buffer changes
            buffer[:] = bytes(len(buffer))
            assert parsed == cells and hash(tuple(parsed)) == hash(tuple(cells))
            for cell in parsed:
                assert type(cell.coefficients) is bytes and type(cell.payload) is bytes

    def test_decoded_generation_holds_bytes(self):
        params = CodeParams(5, 3, 2)
        gen = random_generation(3, random.Random(41))
        wires = encode_subflows([gen], build_generator(params))
        cells = [CodedCell.from_wire_stream(bytearray(wire))[0] for wire in wires]
        for received in (cells[:3], cells[2:]):  # identity inverse, then a combining one
            decoded = decode_generation(received, params)
            assert decoded == gen
            assert all(type(cell) is bytes for cell in decoded.cells)


def default_shape_wires(params: CodeParams, generations: int) -> list[bytes]:
    """The sub-flow wires of a message exactly `generations` generations long."""
    message = random.Random(params.n * 1000 + generations).randbytes(generations * params.k * CELL_SIZE - 8)
    split = split_message(message, params)
    assert len(split) == generations
    return encode_subflows(split, build_generator(params))


def assert_wire_fields(cells, subflow_index: int, k: int) -> None:
    """The field ranges every parsed cell of sub-flow `subflow_index` of a
    k-wide code has: the ids its header bounds, the row its k frames and a
    payload of CELL_SIZE bytes, as ints and bytes, the cells in generation
    order and all sharing one row object."""
    assert [cell.generation_id for cell in cells] == list(range(len(cells)))
    for cell in cells:
        assert type(cell) is CodedCell
        generation_id, index, row, payload = cell
        assert type(generation_id) is type(index) is int and 0 <= generation_id < 2**32
        assert index == subflow_index <= 255
        assert type(row) is bytes and len(row) == k
        assert type(payload) is bytes and len(payload) == CELL_SIZE
    assert len({id(cell.coefficients) for cell in cells}) == 1


def not_whole_cells(size: int, k: int) -> str:
    return f"wire of {size} bytes is not whole cells of k={k}, the k its first header gives"


# Each fault malformed_wire can make, with the text the parser raises for it.
MALFORMED = {
    "empty": "wire cell too short: 0 bytes",
    "header-only": not_whole_cells(6, 3),
    "cut-header": not_whole_cells(1046, 3),
    "first-k-zero": f"coefficient vector must hold 1..{MAX_N} bytes, got 0",
    "later-k-zero": not_whole_cells(1042, 3),
    "trailing-byte": not_whole_cells(1043, 3),
    "later-k-wider": not_whole_cells(1042, 3),
    "every-k-zero": f"coefficient vector must hold 1..{MAX_N} bytes, got 0",
    "mixed-k": not_whole_cells(1560, 2),
}


def malformed_wire(fault: str) -> bytes:
    """Two cells of a ctor:5:3 sub-flow, 521 bytes each with the k at
    offset 5, with `fault` made in them; for every-k-zero, two cells with
    k = 0, each exactly as long as a k = 0 cell would be; for header-only,
    the first header alone; for mixed-k, the cells of mixed_k_cells, a whole
    number of cells of their first k, whose later headers give other k."""
    if fault == "empty":
        return b""
    if fault == "every-k-zero":
        return b"".join(to_wire((generation_id, 4, b"", bytes(CELL_SIZE))) for generation_id in range(2))
    if fault == "mixed-k":
        return b"".join(map(to_wire, mixed_k_cells()))
    wire = bytearray(default_shape_wires(CodeParams(5, 3, 2), 2)[4])
    size = len(wire) // 2
    if fault == "header-only":
        del wire[6:]
    elif fault == "cut-header":
        wire += wire[:4]
    elif fault == "first-k-zero":
        wire[5] = 0
    elif fault == "later-k-zero":
        wire[size + 5] = 0
    elif fault == "trailing-byte":
        wire.append(0)
    else:
        wire[size + 5] = 4
    return bytes(wire)


class TestBatchedParse:
    """A wire holds cells of one k: the parser unpacks a whole number of
    cells of its first header's k, with that k in every header, in one pass,
    and rejects any other stream. Its cells are those a field-by-field
    reader of each cell's own header gives."""

    @pytest.mark.parametrize("generations", [1, 86], ids=["G1", "G86"])
    @pytest.mark.parametrize("params", DEFAULT_CONFIGS, ids=lambda params: f"{params.n}-{params.k}-{params.r}")
    def test_matches_the_per_cell_parse_on_every_default_shape(self, params, generations):
        for i, wire in enumerate(default_shape_wires(params, generations)):
            cells = CodedCell.from_wire_stream(wire)
            assert cells == [CodedCell(*fields) for fields in from_wire(wire)]
            assert_wire_fields(cells, i, params.k)
            for data in (bytearray(wire), memoryview(wire)):
                assert CodedCell.from_wire_stream(data) == cells

    def test_a_stream_of_one_k_and_mixed_rows_is_framed_cell_by_cell(self):
        # the joined one-generation wires of a code: one k frames every cell,
        # and each cell keeps the row it carries
        params = CodeParams(5, 3, 2)
        rng = random.Random(45)
        generations = [random_generation(3, rng, generation_id) for generation_id in range(4)]
        cells = [cell for generation in generations for cell in encode_generation(generation, build_generator(params))]
        stream = b"".join(map(to_wire, cells))
        assert cells == [CodedCell(*fields) for fields in from_wire(stream)]
        assert len({cell.coefficients for cell in cells}) == params.n
        for data in (stream, bytearray(stream), memoryview(stream)):
            assert CodedCell.from_wire_stream(data) == cells

    def test_a_stream_with_mixed_k_parses_by_each_header(self):
        # three cells with k = 2, 1 and 3 span exactly three cells of k = 2,
        # and the bytes where a k = 2 row would lie in each repeat the first
        # row: only the k in every header tells this stream from a wire of
        # one k, and the parser reads it there and rejects the stream
        cells = [CodedCell(*fields) for fields in mixed_k_cells()]
        stream = b"".join(map(to_wire, cells))
        size = len(to_wire(cells[0]))
        assert len(stream) == 3 * size
        assert [stream[start + 6 : start + 8] for start in range(0, len(stream), size)] == [cells[0].coefficients] * 3
        assert [CodedCell(*fields) for fields in from_wire(stream)] == cells
        for data in (stream, bytearray(stream), memoryview(stream)):
            with pytest.raises(ValueError, match=f"^{re.escape(not_whole_cells(len(stream), 2))}$"):
                CodedCell.from_wire_stream(data)

    @pytest.mark.parametrize("k", [1, 2, 127, 254, MAX_N])
    def test_a_uniform_wire_of_any_k_matches_the_per_cell_parse(self, k):
        # up to the widest row a header's k byte can give, each k unpacked
        # by its own cached layout
        rng = random.Random(46 + k)
        row = rng.randbytes(k)
        cells = [CodedCell(generation_id, 3, row, rng.randbytes(CELL_SIZE)) for generation_id in range(5)]
        wire = b"".join(map(to_wire, cells))
        assert codec._wire_cell(k).size == 6 + k + CELL_SIZE
        parsed = CodedCell.from_wire_stream(wire)
        assert parsed == cells == [CodedCell(*fields) for fields in from_wire(wire)]
        assert_wire_fields(parsed, 3, k)

    @pytest.mark.parametrize("fault", MALFORMED)
    def test_a_malformed_stream_raises_its_framing_error(self, fault):
        # a header alone is shorter than its cell; the mixed-k stream is a
        # whole number of cells of its first k, whose later headers differ
        with pytest.raises(ValueError, match=f"^{re.escape(MALFORMED[fault])}$"):
            CodedCell.from_wire_stream(malformed_wire(fault))

    @pytest.mark.parametrize("fault", MALFORMED)
    def test_the_fast_path_takes_only_a_stream_it_frames_whole(self, fault, monkeypatch):
        # the one unpack pass runs only once the framing rule holds: no cell
        # is unpacked from a malformed stream, and the wire it was made from
        # is unpacked whole, once
        unpacked = []

        class RecordedLayout:
            def __init__(self, layout):
                self.layout, self.size = layout, layout.size

            def iter_unpack(self, stream):
                unpacked.append(len(stream))
                return self.layout.iter_unpack(stream)

        wire_cell = codec._wire_cell
        monkeypatch.setattr(codec, "_wire_cell", lambda k: RecordedLayout(wire_cell(k)))
        with pytest.raises(ValueError):
            CodedCell.from_wire_stream(malformed_wire(fault))
        assert unpacked == []
        wire = default_shape_wires(CodeParams(5, 3, 2), 2)[4]
        assert CodedCell.from_wire_stream(wire) == [CodedCell(*fields) for fields in from_wire(wire)]
        assert unpacked == [len(wire)]


class TestRecords:
    """CodedCell and Generation are plain records: the parser, the decoder
    and split_message build every instance the pipeline uses, and what those
    return is checked here and above."""

    def test_decoded_generation_equals_public_one(self):
        params = CodeParams(5, 3, 2)
        gen = random_generation(3, random.Random(21), generation_id=4)
        cells = encode_generation(gen, build_generator(params))
        for received in (cells[:3], cells[2:]):  # identity inverse, then a combining one
            assert decode_generation(received, params) == gen

    @pytest.mark.parametrize("params", DEFAULT_CONFIGS, ids=lambda params: f"{params.n}-{params.k}-{params.r}")
    def test_split_and_decoded_generations_hold_k_cells_of_bytes(self, params):
        # the fields a Generation once checked itself: a non-negative int id
        # and a tuple of k cells of CELL_SIZE bytes, for a message split and
        # for one decoded from parsed cells with the first r sub-flows lost
        message = random.Random(params.n).randbytes(20_000)
        split = split_message(message, params)
        received = [list(cells) for cells in zip(*map(CodedCell.from_wire_stream, encode_subflows(split, build_generator(params))))]
        decoded = decode_generations([cells[params.r :] for cells in received], params)
        assert decoded == split
        for generation in split + decoded:
            assert type(generation.generation_id) is int and generation.generation_id >= 0
            assert type(generation.cells) is tuple and len(generation.cells) == params.k
            assert all(type(cell) is bytes and len(cell) == CELL_SIZE for cell in generation.cells)

    def test_fields_cannot_be_assigned(self):
        cell = CodedCell(3, 1, b"\x01\x02", bytes(CELL_SIZE))
        for name, value in zip(CodedCell._fields, (4, 2, b"\x01", bytes(CELL_SIZE))):
            with pytest.raises(AttributeError):
                setattr(cell, name, value)
        with pytest.raises(AttributeError):
            cell.extra = 1
        assert cell == CodedCell(3, 1, b"\x01\x02", bytes(CELL_SIZE))

    def test_compared_and_hashed_by_fields(self):
        cell = CodedCell(3, 1, b"\x01\x02", bytes(CELL_SIZE))
        assert cell == CodedCell(3, 1, b"\x01\x02", bytes(CELL_SIZE))
        assert hash(cell) == hash(CodedCell(3, 1, b"\x01\x02", bytes(CELL_SIZE)))
        for name, value in zip(CodedCell._fields, (4, 0, b"\x01\x03", bytes(CELL_SIZE - 1) + b"\x01")):
            assert cell != cell._replace(**{name: value})

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda cell: pickle.loads(pickle.dumps(cell))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_cells(self, clone):
        cell = CodedCell.from_wire_stream(default_shape_wires(CodeParams(5, 3, 2), 1)[3])[0]
        copied = clone(cell)
        assert copied == cell and type(copied) is CodedCell


class TestFraming:
    def test_minimal_message_fills_one_generation(self):
        gens = split_message(b"\x42", CodeParams(3, 3, 0))
        assert len(gens) == 1
        assert len(gens[0].cells) == 3
        stream = b"".join(gens[0].cells)
        assert stream[:8] == (1).to_bytes(8, "big")
        assert stream[8] == 0x42
        assert set(stream[9:]) == {0}

    def test_exact_cell_multiple_spills_into_second_generation(self):
        # the 8-byte length prefix rides inside the cell stream, so a
        # 512*k-byte message needs one extra cell
        gens = split_message(b"\xaa" * (CELL_SIZE * 3), CodeParams(3, 3, 0))
        assert len(gens) == 2

    def test_cell_arithmetic_10000_bytes(self):
        gens = split_message(bytes(10000), CodeParams(3, 3, 0))
        # ceil((10000 + 8) / 512) = 20 cells, rounded up to 21 = 7 generations
        assert len(gens) == 7

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError):
            split_message(b"", CodeParams(3, 3, 0))

    def test_contiguous_ids_from_zero(self):
        gens = split_message(bytes(5000), CodeParams(2, 2, 0))
        assert [g.generation_id for g in gens] == list(range(len(gens)))

    def test_reassemble_requires_contiguous_ids(self):
        gens = split_message(bytes(5000), CodeParams(2, 2, 0))
        with pytest.raises(ValueError):
            reassemble_message(gens[1:])
        with pytest.raises(ValueError):
            reassemble_message([])

    @pytest.mark.parametrize(
        "length,k",
        [(CELL_SIZE - 8, 2), (100, 3), (5000, 2)],
        ids=["ends-on-a-cell-boundary", "ends-inside-the-first-cell", "spans-generations"],
    )
    def test_reassemble_cuts_exactly_the_prefixed_length(self, length, k):
        # fill the cells past the message with nonzero bytes, so any byte read
        # past its end or before its start would show
        rng = random.Random(length)
        gens = split_message(rng.randbytes(length), CodeParams(k, k, 0))
        stream = b"".join(cell for g in gens for cell in g.cells)
        stream = stream[: 8 + length] + bytes(b | 1 for b in rng.randbytes(len(stream) - 8 - length))
        cells = [stream[i : i + CELL_SIZE] for i in range(0, len(stream), CELL_SIZE)]
        filled = [Generation(g, tuple(cells[g * k : (g + 1) * k])) for g in range(len(gens))]
        assert reassemble_message(filled) == stream[8 : 8 + length]
        longest = (len(stream) - 8).to_bytes(8, "big")
        assert reassemble_message([Generation(0, (longest + cells[0][8:], *cells[1:k])), *filled[1:]]) == stream[8:]
        too_long = (len(stream) - 7).to_bytes(8, "big")
        with pytest.raises(ValueError, match="exceeds"):
            reassemble_message([Generation(0, (too_long + cells[0][8:], *cells[1:k])), *filled[1:]])

    def test_reassemble_rejects_generations_out_of_order(self):
        # the generations are joined in the order given, so ids out of order
        # fail the contiguity check instead of being sorted
        gens = split_message(random.Random(17).randbytes(4000), CodeParams(3, 3, 0))
        with pytest.raises(ValueError, match=r"^generation ids must be contiguous from 0, got \[2, 1, 0\]$"):
            reassemble_message(list(reversed(gens)))

    @pytest.mark.parametrize("length", [1, 503, 504, 505, 512, 1528, 1529, 1536, 5000])
    def test_round_trip_boundary_lengths(self, length):
        message = random.Random(length).randbytes(length)
        assert reassemble_message(split_message(message, CodeParams(3, 3, 0))) == message


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
    for gen in split_message(data, params):
        cells = encode_generation(gen, matrix)
        survivors = rng.sample(cells, k)
        decoded.append(decode_generation(survivors, params))
    assert reassemble_message(decoded) == data


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.binary(min_size=1, max_size=3000), k=st.integers(1, 8))
def test_split_reassemble_is_identity(data, k):
    assert reassemble_message(split_message(data, CodeParams(k, k, 0))) == data


_WIRE_HEADER = 4 + 1 + 1  # generation id, sub-flow index, k
_LONGEST_DRAWN = _WIRE_HEADER + 255 + CELL_SIZE + 2
_MIXED_K = [to_wire(cell) for cell in mixed_k_cells()]


@settings(max_examples=80, deadline=None, derandomize=True)
# a whole 518-byte cell with k = 0, which only the k >= 1 test rejects, on every run
@example(k=0, cut=None, offset=0, body=bytes(_LONGEST_DRAWN), before=b"")
# the mixed_k_cells stream, cells of k = 2 and 1 before one of k = 3, three
# cells of k = 2 long, which only the compare of every header's k rejects
@example(k=3, cut=None, offset=0, body=_MIXED_K[2].ljust(_LONGEST_DRAWN, b"\x00"), before=b"".join(_MIXED_K[:2]))
@given(
    k=st.integers(0, 255),
    cut=st.none() | st.integers(1, _WIRE_HEADER),
    offset=st.integers(-2, 2),
    body=st.binary(min_size=_LONGEST_DRAWN, max_size=_LONGEST_DRAWN),
    before=st.just(b"") | st.integers(1, 255).map(lambda k: to_wire((1, 0, bytes([k]) * k, bytes(CELL_SIZE)))),
)
def test_from_wire_round_trips_or_rejects(k, cut, offset, body, before):
    # a stream parses exactly when it is whole cells of one k >= 1; a cell
    # of another length than its header's k gives, or with k = 0, or joined
    # after whole cells of another k, is rejected. The last cell is a header
    # cut to `cut` >= 1 bytes, or `offset` bytes off that length (the empty
    # stream is MALFORMED's)
    exact = _WIRE_HEADER + k + CELL_SIZE
    wire = bytearray(body[: exact + offset if cut is None else cut])
    if len(wire) >= _WIRE_HEADER:
        wire[5] = k
    stream = before + wire
    if len(wire) == exact and k >= 1 and all(len(row) == k for _, _, row, _ in from_wire(before)):
        assert b"".join(map(to_wire, CodedCell.from_wire_stream(stream))) == stream
    else:
        with pytest.raises(ValueError):
            CodedCell.from_wire_stream(stream)


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
    wires = [(to_wire(coded[i % n]), False) for i in picks]
    for kind, index, cut in faults:
        if kind == "truncated":
            wires.append((to_wire(coded[index % n])[:-cut], True))
        else:
            wires.append((to_wire(sources[kind][index % len(sources[kind])]), False))
    wires = data.draw(st.permutations(wires))
    received = []
    for wire, truncated in wires:
        if truncated:
            with pytest.raises(ValueError):
                parse_one(wire)
        else:
            received.append(parse_one(wire))
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
        raise UnrecoverableGeneration(f"generation {generation_id} cannot be recovered ({len(received)} cells received)")
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
    coded = encode_generation(generation, unit_rows(k) + tuple(parity))
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
        assert str(got.value) == str(exc)
    else:
        assert expected == generation
        assert decode_generation(received, params) == expected


class TestDecodePlanCache:
    def test_one_inversion_per_transfer_with_fixed_blocking(self):
        params = CodeParams(10, 6, 4)
        circuits = build_circuits([f"b{i}" for i in range(10)], random.Random(0))
        message = random.Random(18).randbytes(256 * 1024)
        generations = len(split_message(message, params))
        _decode_plan.cache_clear()
        result = run_transfer(circuits, CodedMessage(params, message), message, blocked={0, 3, 7})
        assert result.success
        # the generations share one set of received rows, so the transfer
        # decodes them as one batch: one inversion and no other lookup
        assert generations > 1
        info = _decode_plan.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    def test_same_subflows_of_another_generator_decode_by_their_own_rows(self):
        # the plan is keyed by coefficient rows, not sub-flow indices: two
        # codes of one shape lose the same sub-flows, one of them singularly
        params = CodeParams(4, 2, 2)
        gen = random_generation(2, random.Random(19))
        singular = unit_rows(2) + (b"\x05\x07", b"\x05\x07")
        for first, second in ((build_generator(params), singular), (singular, build_generator(params))):
            for matrix in (first, second):
                cells = encode_generation(gen, matrix)
                if matrix is singular:
                    with pytest.raises(UnrecoverableGeneration):
                        decode_generation([cells[2], cells[3]], params)
                else:
                    assert decode_generation([cells[2], cells[3]], params) == gen

    def test_default_grid_survivor_sets_fit_the_bound(self):
        # every survivor set of k or more cells reaches the cache, those that
        # hold all k originals included: 407 on the default grid
        survivor_sets = sum(
            math.comb(params.n, size) for params in DEFAULT_CONFIGS for size in range(params.k, params.n + 1)
        )
        _decode_plan.cache_clear()
        for params in DEFAULT_CONFIGS:
            gen = random_generation(params.k, random.Random(params.n))
            coded = encode_generation(gen, build_generator(params))
            for size in range(params.k, params.n + 1):
                for received in itertools.combinations(coded, size):
                    assert decode_generation(list(received), params) == gen
        info = _decode_plan.cache_info()
        assert info.currsize == info.misses == survivor_sets <= info.maxsize

    def test_one_shared_plan_per_row_set(self):
        rows = build_generator(CodeParams(10, 6, 4))[4:]
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


def reference_combine(coefficients, payloads) -> bytes:
    """One cell's GF(2^8) combination, a scale per cell and coefficient."""
    acc = 0
    for c, data in zip(coefficients, payloads):
        if c:
            acc ^= int.from_bytes(gf256.scale_bytes(data, c), "little")
    return acc.to_bytes(CELL_SIZE, "little")


def reference_encode(generation: Generation, rows: tuple[bytes, ...]) -> list[CodedCell]:
    """Per-generation encoder: each parity cell combines the generation's own cells."""
    k = len(rows[0])
    return [
        CodedCell(generation.generation_id, idx, row, generation.cells[idx] if idx < k else reference_combine(row, generation.cells))
        for idx, row in enumerate(rows)
    ]


def reference_decode(received, params: CodeParams) -> Generation | None:
    """Per-generation decoder: elimination over the generation's own cells;
    None for a set of rank below k."""
    try:
        return elimination_decode(received, params)
    except UnrecoverableGeneration:
        return None


def check_batch_against_reference(received, params: CodeParams, originals: dict[int, Generation]) -> None:
    # the generations arrived over one set of sub-flows, so the reference
    # decodes all of them or none; the batch returns them in the order given,
    # or raises for the first
    expected = [reference_decode(cells, params) for cells in received]
    if expected[0] is None:
        assert expected == [None] * len(received)
        with pytest.raises(UnrecoverableGeneration) as exc:
            decode_generations(received, params)
        first = received[0]
        assert str(exc.value) == f"generation {first[0].generation_id} cannot be recovered ({len(first)} cells received)"
    else:
        decoded = decode_generations(received, params)
        assert decoded == expected
        assert all(generation == originals[generation.generation_id] for generation in decoded)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 6),
    r=st.integers(0, 4),
    count=st.integers(1, 10),
    cauchy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batched_codec_matches_per_generation_reference(k, r, count, cauchy, seed, data):
    # parity rows are Cauchy rows or arbitrary bytes (zeros, repeats and
    # singular subsets occur); one survivor pattern, an ordered list of
    # sub-flows with repeats, is shared by generations given in any order,
    # so a batch decodes whole, or raises when its rows are rank-deficient
    # or below k
    params = CodeParams(k + r, k, r)
    if cauchy:
        matrix = build_generator(params)
    else:
        parity = data.draw(st.lists(st.binary(min_size=k, max_size=k), min_size=r, max_size=r))
        matrix = unit_rows(k) + tuple(parity)
    ids = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=count, max_size=count, unique=True))
    rng = random.Random(seed)
    generations = [random_generation(k, rng, generation_id) for generation_id in ids]
    coded = [reference_encode(generation, matrix) for generation in generations]
    assert encode_subflows(generations, matrix) == subflow_wires(coded)

    index = st.integers(0, params.n - 1)
    pattern = data.draw(st.lists(index, min_size=1, max_size=params.n + 1))
    received = data.draw(st.permutations([[cells[i] for i in pattern] for cells in coded]))
    check_batch_against_reference(received, params, {generation.generation_id: generation for generation in generations})


class TestColumnWise:
    """A batch of generations is coded column by column: one scale per
    coefficient and column, whatever the number of generations."""

    def test_each_survivor_pattern_is_one_call_and_a_mixed_call_raises(self):
        matrix = hand_made_rows()
        params = CodeParams(5, 3, 2)
        rng = random.Random(27)
        generations = [random_generation(3, rng, generation_id) for generation_id in range(9)]
        coded = [reference_encode(generation, matrix) for generation in generations]
        assert encode_subflows(generations, matrix) == subflow_wires(coded)

        def mix(cells):
            # a cell that depends on the two parity cells: with them, rank 2 of k = 3
            a, b = cells[3], cells[4]
            return CodedCell(
                a.generation_id, 5,
                bytes(x ^ gf256.mul(9, y) for x, y in zip(a.coefficients, b.coefficients)),
                gf256.xor_bytes(a.payload, gf256.scale_bytes(b.payload, 9)),
            )

        patterns = [
            lambda cells: [cells[0], cells[3], cells[4]],  # the full-rank subset of the hand-made rows
            lambda cells: cells[:3],  # every original
            lambda cells: [cells[4], cells[1], cells[2], cells[3]],
            lambda cells: [cells[3], cells[4], mix(cells)],  # rank-deficient
            lambda cells: [cells[2], cells[4]],  # below k
        ]
        originals = dict(enumerate(generations))
        for pattern in patterns:
            # the generations in reverse, so the batch keeps the order given
            received = [pattern(cells) for cells in reversed(coded)]
            check_batch_against_reference(received, params, originals)
        assert reference_decode(patterns[3](coded[0]), params) is None  # rank-deficient, not only short
        # one batch of two survivor patterns is refused before any decode
        with pytest.raises(ValueError, match="^generations of one batch arrived with other coefficient rows$"):
            decode_generations([pattern(cells) for pattern, cells in zip(patterns, coded)], params)

    @pytest.mark.parametrize("shape", [(4, 3, 1), (10, 6, 4), (5, 5, 0)])
    def test_encode_scales_each_coefficient_once_per_message(self, shape, scale_calls):
        # timing-free guard on the column-wise encode: at most r·k scales,
        # each over a whole column, however many generations the message has
        params = CodeParams(*shape)
        coded = CodedMessage(params, random.Random(26).randbytes(100_000))
        assert len(coded.cells[0]) > 10
        assert len(scale_calls) <= params.r * params.k
        assert set(scale_calls) <= {len(coded.cells[0]) * CELL_SIZE}

    def test_per_generation_functions_are_the_batch_of_one(self):
        matrix = hand_made_rows()
        params = CodeParams(5, 3, 2)
        generation = random_generation(3, random.Random(28), generation_id=7)
        cells = encode_generation(generation, matrix)
        assert cells == CodedCell.from_wire_stream(b"".join(encode_subflows([generation], matrix)))
        assert subflow_wires([cells]) == encode_subflows([generation], matrix)
        for received in ([cells[0], cells[3], cells[4]], cells[:3]):
            assert decode_generations([received], params) == [decode_generation(received, params)] == [generation]
        for decode in (decode_generation, lambda received, params: decode_generations([received], params)):
            with pytest.raises(UnrecoverableGeneration, match=r"^generation 7 cannot be recovered \(2 cells received\)$"):
                decode(cells[3:], params)

    def test_empty_batch(self):
        assert encode_subflows([], hand_made_rows()) == [b""] * 5
        assert decode_generations([], CodeParams(5, 3, 2)) == []

    @pytest.mark.parametrize("fault", ["empty", "mixed", "short-row", "long-row", "mixed-rows"])
    def test_a_malformed_cell_list_raises_before_any_decode(self, fault, monkeypatch):
        # every generation is checked before the one plan is looked up, so a
        # fault in the last generation stops the whole batch; a row of
        # another length there is also another row than the first's
        params = CodeParams(5, 3, 2)
        matrix = build_generator(params)
        rng = random.Random(32)
        first, second, last = (encode_generation(random_generation(3, rng, g), matrix) for g in range(3))
        bad = {
            "empty": [],
            "mixed": [last[0], second[1], last[2]],
            "short-row": [last[0], last[1], last[3]._replace(coefficients=last[3].coefficients[:2])],
            "long-row": [last[0], last[1], last[4]._replace(coefficients=last[4].coefficients + b"\x01")],
            "mixed-rows": last[2:],
        }[fault]
        planned = []
        monkeypatch.setattr(codec, "_decode_plan", planned.append)
        with pytest.raises(ValueError):
            decode_generations([first[:3], second[:3], bad], params)
        assert planned == []

    def test_encode_rejects_a_generation_of_another_width(self):
        rng = random.Random(30)
        with pytest.raises(ValueError, match="generation has 2 cells, code expects 3"):
            encode_subflows([random_generation(3, rng, 0), random_generation(2, rng, 1)], hand_made_rows())

    def test_encode_rejects_an_id_its_header_cannot_hold(self):
        # the header packs the id into 4 bytes, so a larger one never reaches a wire
        rng = random.Random(31)
        with pytest.raises(struct.error):
            encode_subflows([random_generation(3, rng, 0), random_generation(3, rng, 2**32)], hand_made_rows())

