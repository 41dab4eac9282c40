"""Codec contracts: generator construction, encode/decode, framing."""

import copy
import itertools
import math
import pickle
import random
from collections import Counter

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
    decode_generations,
    encode_generation,
    encode_generations,
    reassemble_message,
    split_message,
)
from ctorsim.onion import CircuitSet, build_circuits, encode_message, run_transfer


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


def hand_made_matrix() -> GeneratorMatrix:
    """A (5, 3, 2) generator whose parity rows are random bytes, not Cauchy rows."""
    rng = random.Random(13)
    parity = tuple(bytes(rng.randrange(256) for _ in range(3)) for _ in range(2))
    return GeneratorMatrix(CodeParams(5, 3, 2), (b"\x01\x00\x00", b"\x00\x01\x00", b"\x00\x00\x01") + parity)


class TestRandomCoefficientMode:
    def test_decodes_from_full_rank_subsets(self):
        # elimination is not tied to the Cauchy rows: any full-rank subset decodes
        matrix = hand_made_matrix()
        params = matrix.params
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
        assert parse_one(cell.to_wire()) == cell

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
                parse_one(cell.to_wire()[:-1])

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
            parsed = CodedCell.from_wire_stream(data) + [parse_one(data[:first])]
            assert parsed == cells + cells[:1]
            for cell in parsed:
                assert type(cell.coefficients) is bytes and type(cell.payload) is bytes

    def test_from_wire_rejects_k_zero_short_and_long_cells(self):
        wire = CodedCell(5, 1, b"\x01\x02", bytes(CELL_SIZE)).to_wire()
        zero_k = wire[:5] + b"\x00" + wire[6:]
        # the last but one is exactly as long as a k = 0 cell would be; the
        # last is two whole cells back to back
        for bad in (wire[:-1], wire + b"\x00", wire[:5], zero_k, zero_k[: 6 + CELL_SIZE], wire + wire):
            with pytest.raises(ValueError):
                parse_one(bad)
        with pytest.raises(ValueError):
            CodedCell.from_wire_stream(wire + zero_k[: 6 + CELL_SIZE])


class TestPublicConstructors:
    """Each type checks its fields in its constructor, and the parser, the
    decoder and build_circuits build through it, so a value from the pipeline
    is checked exactly like one built by hand."""

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
        "generation_id,subflow_index", [(1.5, 0), (2, 1.0), (0.0, 0), ("1", 0), (0, None)]
    )
    def test_coded_cell_rejects_ids_that_are_not_integers(self, generation_id, subflow_index):
        # a float id used to pass the range checks and fail only in to_wire
        with pytest.raises(TypeError):
            CodedCell(generation_id, subflow_index, b"\x01", bytes(CELL_SIZE))

    @pytest.mark.parametrize("generation_id", [0.5, 1.0, "0", None])
    def test_generation_rejects_an_id_that_is_not_an_integer(self, generation_id):
        with pytest.raises(TypeError):
            Generation(generation_id, (bytes(CELL_SIZE),))

    def test_integer_ids_are_stored_as_ints(self):
        class Index:
            def __index__(self):
                return 2

        cell = CodedCell(True, Index(), b"\x01", bytes(CELL_SIZE))
        assert (cell.generation_id, cell.subflow_index) == (1, 2)
        assert type(cell.generation_id) is type(cell.subflow_index) is int
        generation = Generation(Index(), (bytes(CELL_SIZE),))
        assert generation.generation_id == 2 and type(generation.generation_id) is int

    @pytest.mark.parametrize(
        "generation_id,cells", [(-1, (bytes(CELL_SIZE),)), (0, ()), (0, (bytes(CELL_SIZE), bytes(CELL_SIZE + 1)))]
    )
    def test_generation_rejects_bad_cells(self, generation_id, cells):
        with pytest.raises(ValueError):
            Generation(generation_id, cells)

    @pytest.mark.parametrize("cell", ["\x00" * CELL_SIZE, CELL_SIZE, None], ids=["str", "int", "none"])
    def test_generation_rejects_a_cell_that_is_not_bytes_like(self, cell):
        # a 512-char str used to pass as a cell
        with pytest.raises(TypeError):
            Generation(0, (bytes(CELL_SIZE), cell))

    def test_generation_holds_bytes_not_the_callers_buffer(self):
        # a bytearray used to be kept by reference, so mutating it changed the cell
        buffer = bytearray(CELL_SIZE)
        view = memoryview(bytearray(b"\x07" * CELL_SIZE))
        generation = Generation(0, [buffer, view, bytes(CELL_SIZE)])
        buffer[0] = 1
        view[0] = 1
        assert generation.cells == (bytes(CELL_SIZE), b"\x07" * CELL_SIZE, bytes(CELL_SIZE))
        assert all(type(cell) is bytes for cell in generation.cells)
        assert hash(generation) == hash(Generation(0, generation.cells))

    def test_decoded_generation_equals_public_one(self):
        params = CodeParams(5, 3, 2)
        gen = random_generation(3, random.Random(21), generation_id=4)
        cells = encode_generation(gen, build_generator(params))
        for received in (cells[:3], cells[2:]):  # identity inverse, then a combining one
            assert decode_generation(received, params) == gen

    def test_pipeline_values_run_their_own_checks(self, monkeypatch):
        params = CodeParams(5, 3, 2)
        gen = random_generation(3, random.Random(22), generation_id=6)
        cells = encode_generation(gen, build_generator(params))
        stream = b"".join(cell.to_wire() for cell in cells)
        checked = Counter()
        for cls in (Generation, CircuitSet):
            def counting(obj, check=cls.__post_init__, name=cls.__name__):
                checked[name] += 1
                check(obj)
            monkeypatch.setattr(cls, "__post_init__", counting)
        monkeypatch.setattr(CodedCell, "__new__", counting_new(lambda fields: checked.update(["CodedCell"])))

        assert CodedCell.from_wire_stream(stream) == cells
        assert checked == {"CodedCell": len(cells)}
        checked.clear()
        assert parse_one(cells[0].to_wire()) == cells[0]
        assert checked == {"CodedCell": 1}
        for received in (cells[:3], cells[2:], cells):
            checked.clear()
            assert decode_generation(received, params) == gen
            assert checked == {"Generation": 1}
        checked.clear()
        assert len(build_circuits([f"b{i}" for i in range(5)], random.Random(23))) == 5
        assert checked == {"CircuitSet": 1}


def counting_new(record):
    """A stand-in for CodedCell.__new__ that hands `record` each call's
    fields, then builds the cell through the checks."""
    new = CodedCell.__new__

    def counting(cls, *fields):
        record(fields)
        return new(cls, *fields)

    return staticmethod(counting)


class TestCodedCellIsBuiltThroughItsChecks:
    """A CodedCell is a tuple record whose __new__ holds the checks: every
    way of building one runs them, and no field can be reassigned."""

    FIELDS = (3, 1, b"\x01\x02", bytes(CELL_SIZE))
    BUILDERS = {
        "call": lambda cell, changes: CodedCell(*{**cell._asdict(), **changes}.values()),
        "_make": lambda cell, changes: CodedCell._make({**cell._asdict(), **changes}.values()),
        "_replace": lambda cell, changes: cell._replace(**changes),
    }
    if hasattr(copy, "replace"):
        BUILDERS["copy.replace"] = lambda cell, changes: copy.replace(cell, **changes)

    @pytest.mark.parametrize("builder", list(BUILDERS))
    @pytest.mark.parametrize(
        "changes,error",
        [
            ({"generation_id": 2**32}, ValueError),
            ({"generation_id": 1.5}, TypeError),
            ({"subflow_index": 256}, ValueError),
            ({"coefficients": b""}, ValueError),
            ({"coefficients": 1}, TypeError),
            ({"payload": bytes(CELL_SIZE + 1)}, ValueError),
        ],
        ids=["id-range", "id-float", "subflow-range", "empty-row", "int-row", "long-payload"],
    )
    def test_every_builder_runs_the_checks(self, builder, changes, error):
        cell = CodedCell(*self.FIELDS)
        with pytest.raises(error):
            self.BUILDERS[builder](cell, changes)

    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_every_builder_goes_through_the_constructor(self, builder, monkeypatch):
        cell = CodedCell(*self.FIELDS)
        built = []
        monkeypatch.setattr(CodedCell, "__new__", counting_new(built.append))
        rebuilt = self.BUILDERS[builder](cell, {"payload": bytearray(CELL_SIZE)})
        assert built == [(3, 1, b"\x01\x02", bytearray(CELL_SIZE))]
        assert rebuilt == cell and type(rebuilt) is CodedCell and type(rebuilt.payload) is bytes

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda cell: pickle.loads(pickle.dumps(cell))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_go_through_the_constructor(self, clone, monkeypatch):
        cell = CodedCell(*self.FIELDS)
        built = []
        monkeypatch.setattr(CodedCell, "__new__", counting_new(built.append))
        copied = clone(cell)
        assert copied == cell and type(copied) is CodedCell
        assert built == [self.FIELDS]

    def test_fields_cannot_be_assigned(self):
        cell = CodedCell(*self.FIELDS)
        for name, value in zip(CodedCell._fields, (4, 2, b"\x01", bytes(CELL_SIZE))):
            with pytest.raises(AttributeError):
                setattr(cell, name, value)
        with pytest.raises(AttributeError):
            cell.extra = 1
        assert cell == CodedCell(*self.FIELDS)

    def test_compared_and_hashed_by_fields(self):
        cell = CodedCell(*self.FIELDS)
        assert cell == CodedCell(*self.FIELDS) and hash(cell) == hash(CodedCell(*self.FIELDS))
        for name, value in zip(CodedCell._fields, (4, 0, b"\x01\x03", bytes(CELL_SIZE - 1) + b"\x01")):
            assert cell != cell._replace(**{name: value})


class TestCodedCellHoldsBytes:
    """A CodedCell stores any bytes-like row or payload as bytes and rejects
    what is not bytes-like, so a cell and the decoder's cache key built from
    its row are always hashable."""

    @pytest.mark.parametrize("make", [bytearray, memoryview])
    def test_bytes_like_fields_are_stored_as_bytes(self, make):
        row, payload = b"\x01\x02", random.Random(40).randbytes(CELL_SIZE)
        cell = CodedCell(0, 0, make(row), make(payload))
        assert type(cell.coefficients) is bytes and type(cell.payload) is bytes
        assert cell == CodedCell(0, 0, row, payload)
        assert hash(cell) == hash(CodedCell(0, 0, row, payload))

    @pytest.mark.parametrize(
        "coefficients,payload",
        [(1, bytes(CELL_SIZE)), (b"\x01", CELL_SIZE), ("\x01", bytes(CELL_SIZE)), (b"\x01", "\x00" * CELL_SIZE)],
        ids=["int-row", "int-payload", "str-row", "str-payload"],
    )
    def test_ints_and_strs_rejected(self, coefficients, payload):
        # bytes(1) would be one zero byte, a legal row; memoryview refuses it
        with pytest.raises(TypeError):
            CodedCell(0, 0, coefficients, payload)

    def test_decoded_generation_holds_bytes(self):
        params = CodeParams(5, 3, 2)
        gen = random_generation(3, random.Random(41))
        cells = encode_generation(gen, build_generator(params))
        for received in (cells[:3], cells[2:]):  # identity inverse, then a combining one
            rebuilt = [
                CodedCell(c.generation_id, c.subflow_index, bytearray(c.coefficients), bytearray(c.payload))
                for c in received
            ]
            decoded = decode_generation(rebuilt, params)
            assert decoded == gen
            assert all(type(cell) is bytes for cell in decoded.cells)

    def test_parsing_a_bytearray_checks_each_cell_once(self, monkeypatch):
        rng = random.Random(42)
        cells = [CodedCell(3, idx, rng.randbytes(2), rng.randbytes(CELL_SIZE)) for idx in range(4)]
        stream = bytearray(b"".join(cell.to_wire() for cell in cells))
        checked = []
        monkeypatch.setattr(CodedCell, "__new__", counting_new(lambda fields: checked.append(fields[1])))
        parsed = CodedCell.from_wire_stream(stream)
        assert checked == [0, 1, 2, 3]
        assert parsed == cells
        assert {type(cell.coefficients) for cell in parsed} == {type(cell.payload) for cell in parsed} == {bytes}


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

    @pytest.mark.parametrize(
        "length,k",
        [(CELL_SIZE - 8, 2), (100, 3), (5000, 2)],
        ids=["ends-on-a-cell-boundary", "ends-inside-the-first-cell", "spans-generations"],
    )
    def test_reassemble_cuts_exactly_the_prefixed_length(self, length, k):
        # fill the cells past the message with nonzero bytes, so any byte read
        # past its end or before its start would show
        rng = random.Random(length)
        gens = split_message(rng.randbytes(length), k)
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
        assert parse_one(bytes(wire)).to_wire() == wire
    else:
        with pytest.raises(ValueError):
            parse_one(bytes(wire))


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
        result = run_transfer(circuits, encode_message(params, message), message, blocked={0, 3, 7})
        assert result.success
        # the generations share one set of received rows, so the transfer
        # decodes them as one group: one inversion and no other lookup
        assert generations > 1
        info = _decode_plan.cache_info()
        assert (info.misses, info.hits) == (1, 0)

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


def reference_combine(coefficients, payloads) -> bytes:
    """One cell's GF(2^8) combination, a scale per cell and coefficient."""
    acc = 0
    for c, data in zip(coefficients, payloads):
        if c:
            acc ^= int.from_bytes(gf256.scale_bytes(data, c), "little")
    return acc.to_bytes(CELL_SIZE, "little")


def reference_encode(generation: Generation, matrix: GeneratorMatrix) -> list[CodedCell]:
    """Per-generation encoder: each parity cell combines the generation's own cells."""
    k = matrix.params.k
    return [
        CodedCell(generation.generation_id, idx, row, generation.cells[idx] if idx < k else reference_combine(row, generation.cells))
        for idx, row in enumerate(matrix.rows)
    ]


def reference_decode(received, params: CodeParams) -> Generation | None:
    """Per-generation decoder: elimination over the generation's own cells;
    None for a set of rank below k."""
    try:
        return elimination_decode(received, params)
    except UnrecoverableGeneration:
        return None


def check_batch_against_reference(received, params: CodeParams, originals: dict[int, Generation]) -> None:
    # the batch returns its generations group by group, so compare them by
    # their ids, which are distinct
    decoded, failed = decode_generations(received, params)
    expected = {cells[0].generation_id: reference_decode(cells, params) for cells in received}
    assert len(decoded) + len(failed) == len(expected) == len(received)
    assert {generation.generation_id: generation for generation in decoded} == {
        generation_id: generation for generation_id, generation in expected.items() if generation is not None
    }
    assert sorted(failed) == sorted(generation_id for generation_id, generation in expected.items() if generation is None)
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
    # singular subsets occur); a few survivor patterns, each an ordered list
    # of sub-flows with repeats, are shared among generations given in any
    # order, so a batch mixes groups, rank-deficient ones and ones below k
    params = CodeParams(k + r, k, r)
    if cauchy:
        matrix = build_generator(params)
    else:
        parity = data.draw(st.lists(st.binary(min_size=k, max_size=k), min_size=r, max_size=r))
        matrix = GeneratorMatrix(params, unit_rows(k) + tuple(parity))
    ids = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=count, max_size=count, unique=True))
    rng = random.Random(seed)
    generations = [random_generation(k, rng, generation_id) for generation_id in ids]
    coded = encode_generations(generations, matrix)
    assert coded == [reference_encode(generation, matrix) for generation in generations]

    index = st.integers(0, params.n - 1)
    patterns = data.draw(st.lists(st.lists(index, min_size=1, max_size=params.n + 1), min_size=1, max_size=3))
    received = [[cells[i] for i in patterns[data.draw(st.integers(0, len(patterns) - 1))]] for cells in coded]
    received = data.draw(st.permutations(received))
    check_batch_against_reference(received, params, {generation.generation_id: generation for generation in generations})


class TestColumnWise:
    """A batch of generations is coded column by column: one scale per
    coefficient and column, whatever the number of generations."""

    def test_one_call_mixes_survivor_sets_rank_deficiency_and_short_generations(self):
        matrix = hand_made_matrix()
        params = matrix.params
        rng = random.Random(27)
        generations = [random_generation(3, rng, generation_id) for generation_id in range(9)]
        coded = encode_generations(generations, matrix)
        assert coded == [reference_encode(generation, matrix) for generation in generations]

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
        received = [patterns[g % len(patterns)](cells) for g, cells in enumerate(coded)]
        assert reference_decode(received[3], params) is None
        decoded, failed = decode_generations(received, params)
        # group by group: generations g and g + 5 share a survivor pattern
        assert [generation.generation_id for generation in decoded] == [0, 5, 1, 6, 2, 7]
        assert failed == [3, 8, 4]
        check_batch_against_reference(received, params, dict(enumerate(generations)))

    @pytest.mark.parametrize("shape", [(4, 3, 1), (10, 6, 4), (5, 5, 0)])
    def test_encode_scales_each_coefficient_once_per_message(self, shape, scale_calls):
        # timing-free guard on the column-wise encode: at most r·k scales,
        # each over a whole column, however many generations the message has
        params = CodeParams(*shape)
        coded = encode_message(params, random.Random(26).randbytes(100_000))
        assert len(coded.generations) > 10
        assert len(scale_calls) <= params.r * params.k
        assert set(scale_calls) <= {len(coded.generations) * CELL_SIZE}

    def test_per_generation_functions_are_the_batch_of_one(self):
        matrix = hand_made_matrix()
        params = matrix.params
        generation = random_generation(3, random.Random(28), generation_id=7)
        cells = encode_generation(generation, matrix)
        assert [cells] == encode_generations([generation], matrix)
        for received in ([cells[0], cells[3], cells[4]], cells[:3]):
            assert decode_generations([received], params) == ([decode_generation(received, params)], [])
        assert decode_generations([cells[3:]], params) == ([], [7])
        with pytest.raises(UnrecoverableGeneration) as exc:
            decode_generation(cells[3:], params)
        assert (exc.value.generation_id, exc.value.received) == (7, 2)

    def test_empty_batch(self):
        assert encode_generations([], hand_made_matrix()) == []
        assert decode_generations([], CodeParams(5, 3, 2)) == ([], [])

    @pytest.mark.parametrize("fault", ["empty", "mixed", "wide"])
    def test_a_malformed_generation_fails_the_whole_batch(self, fault):
        params = CodeParams(5, 3, 2)
        matrix = build_generator(params)
        rng = random.Random(29)
        good = encode_generation(random_generation(3, rng, 0), matrix)
        other = encode_generation(random_generation(3, rng, 1), matrix)
        wide = encode_generation(random_generation(4, rng, 1), build_generator(CodeParams(6, 4, 2)))
        bad = {"empty": [], "mixed": [other[0], good[1], other[2]], "wide": wide[:3]}[fault]
        with pytest.raises(ValueError):
            decode_generations([good[:3], bad], params)

    def test_encode_rejects_a_generation_of_another_width(self):
        rng = random.Random(30)
        with pytest.raises(ValueError, match="generation has 2 cells, code expects 3"):
            encode_generations([random_generation(3, rng, 0), random_generation(2, rng, 1)], hand_made_matrix())

