"""Generation-based systematic (n, k) erasure codec over GF(2^8).

Traffic is framed, chopped into 512-byte cells, and grouped k cells at a
time into generations. Each generation is expanded to n coded cells: the
first k carry the originals verbatim, the remaining r = n - k are parity
rows taken from a column-normalized Cauchy block, which makes every k-row
subset of the generator invertible. Any k surviving coded cells therefore
rebuild the generation exactly; with k-1 or fewer the generation is lost.

Encoder and decoder are pure functions of (params, matrix) and their
cells. Every generation of a message is coded with the same rows, so both
work column-wise: a column is one sub-flow's payloads across all the
generations of a batch, joined once, and each GF(2^8) coefficient scales a
whole column in one call, however many generations the batch holds. The
per-generation functions are the batch of one. The decoder groups a
batch's generations by their received coefficient rows and memoizes one
inverse per set of rows, so a transfer whose circuits drop the same
sub-flows in every generation inverts once and combines each missing
column once.

Each type checks its fields in its own constructor, and every value the
parser, encoder and decoder return is built through that constructor, so
a rule lives in one place. A CodedCell is a tuple record whose __new__
runs the checks on every way of building one (_make and _replace
included). It stores its row and payload as bytes whatever bytes-like
object it is given, so the parser hands it its slices as they are, after
one unpack of each cell's header. Payloads are combined as little-endian
ints, one int XOR per term.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, index
from typing import NamedTuple, Sequence

from . import gf256

CELL_SIZE = 512
MAX_N = 255  # field size bound on the coded cells (and circuits) per generation
_LENGTH_PREFIX = 8  # big-endian message length, first bytes of the cell stream
_HEADER = struct.Struct(">IBB")  # generation id (4B BE) | sub-flow index (1B) | k (1B)
_WIRE_HEADER = _HEADER.size


class UnrecoverableGeneration(Exception):
    """Raised when fewer than k independent coded cells survive for a generation."""

    def __init__(self, generation_id: int, received: int):
        self.generation_id = generation_id
        self.received = received
        super().__init__(f"generation {generation_id} cannot be recovered ({received} cells received)")


@dataclass(frozen=True)
class CodeParams:
    """Code shape: n coded cells per generation, k of them data, r parity."""

    n: int
    k: int
    r: int

    def __post_init__(self):
        # through index, like the cell and generation ids, so a float fails
        # here instead of in split_message and a bool is stored as an int
        for name in ("n", "k", "r"):
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, index(value))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if self.n != self.k + self.r:
            raise ValueError(f"n must equal k + r, got n={self.n}, k={self.k}, r={self.r}")
        if self.n > MAX_N:
            raise ValueError(f"n must be <= {MAX_N} (field size bound), got {self.n}")


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


@dataclass(frozen=True)
class Generation:
    """k original cells encoded (and decoded) together.

    Each cell is stored as `bytes` whatever bytes-like object it was given,
    as CodedCell stores its payload, so a caller that mutates its buffer
    later does not change the generation.
    """

    generation_id: int
    cells: tuple[bytes, ...]

    def __post_init__(self):
        if type(self.generation_id) is not int:
            object.__setattr__(self, "generation_id", index(self.generation_id))
        if self.generation_id < 0:
            raise ValueError("generation_id must be non-negative")
        cells = tuple(self.cells)
        for cell in cells:
            if type(cell) is not bytes:
                # through memoryview, so an int or a str fails instead of becoming bytes
                cells = tuple([bytes(memoryview(cell)) for cell in cells])
                break
        if not cells:
            raise ValueError("a generation holds at least one cell")
        for cell in cells:
            if len(cell) != CELL_SIZE:
                raise ValueError(f"cells are exactly {CELL_SIZE} bytes, got {len(cell)}")
        object.__setattr__(self, "cells", cells)


# CodedCell's fields; a NamedTuple's own body may not define __new__, so
# the checks live in the subclass
class _CodedCellFields(NamedTuple):
    generation_id: int
    subflow_index: int
    coefficients: bytes
    payload: bytes


_new_tuple = tuple.__new__


class CodedCell(_CodedCellFields):
    """One coded cell: payload plus the coefficient row that produced it.

    An immutable tuple record, compared and hashed by its fields. Its ids
    are stored as ints and both byte fields as `bytes`, whatever integer or
    bytes-like object they were given, so every cell is hashable and so is
    every decoder cache key.
    """

    __slots__ = ()

    def __new__(cls, generation_id: int, subflow_index: int, coefficients: bytes, payload: bytes) -> "CodedCell":
        # through index and memoryview, so a float fails instead of reaching
        # the wire and an int or a str fails instead of becoming bytes
        if type(generation_id) is not int:
            generation_id = index(generation_id)
        if type(subflow_index) is not int:
            subflow_index = index(subflow_index)
        if type(coefficients) is not bytes:
            coefficients = bytes(memoryview(coefficients))
        if type(payload) is not bytes:
            payload = bytes(memoryview(payload))
        if not 0 <= generation_id < 2**32:
            raise ValueError("generation_id must fit 4 bytes")
        if not 0 <= subflow_index <= 255:
            raise ValueError("subflow_index must fit 1 byte")
        if not 1 <= len(coefficients) <= MAX_N:
            raise ValueError(f"coefficient vector must hold 1..{MAX_N} bytes, got {len(coefficients)}")
        if len(payload) != CELL_SIZE:
            raise ValueError(f"payload is exactly {CELL_SIZE} bytes, got {len(payload)}")
        return _new_tuple(cls, (generation_id, subflow_index, coefficients, payload))

    @classmethod
    def _make(cls, iterable) -> "CodedCell":
        # the inherited _make, which _replace calls too, would build the
        # tuple without __new__ and so without the checks
        return cls(*iterable)

    def to_wire(self) -> bytes:
        """Wire layout: generation_id (4B BE) | subflow_index (1B) | k (1B) | k coefficients | payload."""
        generation_id, subflow_index, coefficients, payload = self
        return _HEADER.pack(generation_id, subflow_index, len(coefficients)) + coefficients + payload

    @classmethod
    def from_wire_stream(cls, stream: bytes) -> list["CodedCell"]:
        """Parse back-to-back wire cells, each framed by one unpack of its
        header and delimited by the k there; the constructor checks the
        fields, k = 0 included."""
        unpack_header = _HEADER.unpack_from
        total = len(stream)
        cells, pos = [], 0
        while pos < total:
            if total - pos < _WIRE_HEADER:
                raise ValueError(f"wire cell too short: {total - pos} bytes")
            generation_id, subflow_index, k = unpack_header(stream, pos)
            start = pos + _WIRE_HEADER
            end = start + k + CELL_SIZE
            if end > total:
                raise ValueError(f"wire cell of {total - pos} bytes, but its header gives k={k}")
            cells.append(cls(generation_id, subflow_index, stream[start : start + k], stream[start + k : end]))
            pos = end
        return cells


@dataclass(frozen=True)
class GeneratorMatrix:
    """n coefficient rows of length k; rows 0..k-1 are the identity."""

    params: CodeParams
    rows: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.rows) != self.params.n:
            raise ValueError(f"expected {self.params.n} rows, got {len(self.rows)}")
        k = self.params.k
        for i, row in enumerate(self.rows):
            if len(row) != k:
                raise ValueError(f"row {i} has length {len(row)}, expected {k}")
            if i < k and row != _unit_row(k, i):
                raise ValueError(f"row {i} must be the unit vector (systematic form)")


def _unit_row(k: int, i: int) -> bytes:
    row = bytearray(k)
    row[i] = 1
    return bytes(row)


def build_generator(params: CodeParams) -> GeneratorMatrix:
    """Deterministic systematic generator whose every k-row subset is invertible.

    Parity rows come from the Cauchy block 1/(x_i + y_j) on the distinct
    points x_i = i, y_j = r + j, with each column scaled so the first parity
    row is all ones (for r = 1 the parity cell is then a plain XOR of the
    data cells). Column scaling by nonzero constants preserves invertibility
    of every square minor, so the any-k property survives the normalization.
    """
    k, r = params.k, params.r
    rows = [_unit_row(k, i) for i in range(k)]
    if r:
        block = [[gf256.inv(i ^ (r + j)) for j in range(k)] for i in range(r)]
        for j in range(k):
            s = gf256.inv(block[0][j])
            for i in range(r):
                block[i][j] = gf256.mul(block[i][j], s)
        rows.extend(bytes(row) for row in block)
    return GeneratorMatrix(params, tuple(rows))


def _combine(coefficients: Sequence[int], payloads: Sequence[bytes]) -> bytes:
    """The GF(2^8) combination of equal-length payloads: one scale per
    nonzero coefficient, however long the payloads are."""
    acc = 0
    for c, data in zip(coefficients, payloads):
        if c == 0:
            continue
        acc ^= int.from_bytes(gf256.scale_bytes(data, c), "little")
    return acc.to_bytes(len(payloads[0]), "little")


def encode_generations(generations: Sequence[Generation], matrix: GeneratorMatrix) -> list[list[CodedCell]]:
    """Expand each generation's k original cells into n coded cells,
    originals first, in the order the generations are given.

    Data column j, cell j of every generation, is joined once, and each
    parity column is one combination of the joined data columns, sliced
    back into the generations' parity cells.
    """
    params = matrix.params
    k, rows = params.k, matrix.rows
    for generation in generations:
        if len(generation.cells) != k:
            raise ValueError(f"generation has {len(generation.cells)} cells, code expects {k}")
    parity = []
    if params.r and generations:
        columns = [b"".join([generation.cells[j] for generation in generations]) for j in range(k)]
        parity = [_combine(row, columns) for row in rows[k:]]
    out = []
    for t, generation in enumerate(generations):
        generation_id = generation.generation_id
        lo, hi = t * CELL_SIZE, (t + 1) * CELL_SIZE
        out.append(
            [CodedCell(generation_id, j, rows[j], cell) for j, cell in enumerate(generation.cells)]
            + [CodedCell(generation_id, k + i, rows[k + i], column[lo:hi]) for i, column in enumerate(parity)]
        )
    return out


def encode_generation(generation: Generation, matrix: GeneratorMatrix) -> list[CodedCell]:
    """Expand k original cells into n coded cells, originals first: the
    batch of one of encode_generations."""
    return encode_generations([generation], matrix)[0]


# One inverse per set of received coefficient rows: a blocked circuit drops
# its whole sub-flow, so every generation of a transfer repeats the same set.
# The default grid's shapes have 407 survivor sets of k or more cells (16 for
# ctor:5:2, 386 for ctor:10:4, one per uncoded shape); 512 hold them all.
# Entries hold rows, never payloads.
@functools.lru_cache(maxsize=512)
def _decode_plan(rows: tuple[bytes, ...]) -> tuple[tuple[int, ...], tuple[int | bytes, ...]] | None:
    """Positions of the first k independent rows, and per original cell j
    its source: row j of the inverse of their matrix, which rebuilds the
    cell from the picked payloads, or, when that row is a unit row, the
    position of the one received cell to copy. None marks a set of rank
    below k."""
    k = len(rows[0])
    mul = gf256.mul
    reduced: dict[int, list[int]] = {}  # pivot column -> row, augmented with its combination of picks
    picks: list[int] = []
    for pos, row in enumerate(rows):
        aug = [*row, *(int(slot == len(picks)) for slot in range(k))]
        for col, prow in reduced.items():
            if f := aug[col]:
                aug = [a ^ mul(f, b) for a, b in zip(aug, prow)]
        lead = next((j for j in range(k) if aug[j]), None)
        if lead is None:
            continue  # linearly dependent on the rows already picked
        s = gf256.inv(aug[lead])
        aug = [mul(s, a) for a in aug]
        for col, prow in reduced.items():
            if f := prow[lead]:
                reduced[col] = [a ^ mul(f, b) for a, b in zip(prow, aug)]
        reduced[lead] = aug
        picks.append(pos)
        if len(picks) == k:
            inverse = [bytes(reduced[col][k:]) for col in range(k)]
            return tuple(picks), tuple(picks[row.index(1)] if sum(row) == 1 else row for row in inverse)
    return None


def decode_generations(
    received: Sequence[Sequence[CodedCell]], params: CodeParams
) -> tuple[list[Generation], list[int]]:
    """Recover each generation from any k independent coded cells of it.

    `received` holds one non-empty list of cells per generation. The
    generations are grouped by the coefficient rows they arrived with, and
    each group takes one cached inverse of its first k independent rows.
    A unit row of the inverse copies a payload, so when the k original
    cells arrive first every cell is a copy; any other row forms its
    original column once, as one GF(2^8) combination of the group's picked
    columns, and slices it back into the group's generations. A malformed
    cell list (empty, mixed generations, rows of another length than k)
    raises ValueError before anything is decoded.

    Returns the decoded generations and the ids of those whose rows have
    rank below k, group by group in the order each group first appears.
    """
    k = params.k
    groups: dict[tuple[bytes, ...], list[Sequence[CodedCell]]] = {}
    for cells in received:
        if not cells:
            raise ValueError("decode needs at least one coded cell")
        generation_id = cells[0].generation_id
        rows = []
        for cell in cells:
            if cell.generation_id != generation_id:
                raise ValueError("coded cells from mixed generations")
            row = cell.coefficients
            if len(row) != k:
                raise ValueError(f"coefficient vector length {len(row)}, expected {k}")
            rows.append(row)
        rows = tuple(rows)
        if rows in groups:
            groups[rows].append(cells)
        else:
            groups[rows] = [cells]

    decoded: list[Generation] = []
    failed: list[int] = []
    for rows, members in groups.items():
        plan = _decode_plan(rows)
        if plan is None:
            failed.extend([cells[0].generation_id for cells in members])
            continue
        picks, sources = plan
        columns = None
        originals: list[int | bytes] = []  # a position to copy, or a combined column to slice
        for source in sources:
            if type(source) is not int:
                if columns is None:
                    columns = [b"".join([cells[pick].payload for cells in members]) for pick in picks]
                source = _combine(source, columns)
            originals.append(source)
        lo = 0
        for cells in members:
            hi = lo + CELL_SIZE
            decoded.append(Generation(cells[0].generation_id, tuple([
                cells[original].payload if type(original) is int else original[lo:hi] for original in originals
            ])))
            lo = hi
    return decoded, failed


def decode_generation(received: Sequence[CodedCell], params: CodeParams) -> Generation:
    """Recover the original k cells from any k independent coded cells: the
    batch of one of decode_generations.

    When the k original cells arrive first, every decoded cell is the
    received payload itself. A set of rank below k raises
    UnrecoverableGeneration; a malformed one raises ValueError.
    """
    decoded, failed = decode_generations([received], params)
    if failed:
        raise UnrecoverableGeneration(failed[0], received=len(received))
    return decoded[0]


def split_message(message: bytes, k: int) -> list[Generation]:
    """Frame a message and cut it into generations of k zero-padded cells.

    The cell stream starts with an 8-byte big-endian length so reassembly
    needs no out-of-band information; padding bytes are zero.
    """
    if not message:
        raise ValueError("cannot split an empty message")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    framed = len(message).to_bytes(_LENGTH_PREFIX, "big") + bytes(message)
    cells = -(-len(framed) // CELL_SIZE)
    cells = -(-cells // k) * k
    padded = framed.ljust(cells * CELL_SIZE, b"\x00")
    return [
        Generation(
            g,
            tuple(
                padded[(g * k + j) * CELL_SIZE : (g * k + j + 1) * CELL_SIZE]
                for j in range(k)
            ),
        )
        for g in range(cells // k)
    ]


_generation_id = attrgetter("generation_id")


def reassemble_message(generations: Sequence[Generation]) -> bytes:
    """Exact inverse of split_message over fully decoded generations."""
    if not generations:
        raise ValueError("no generations to reassemble")
    ordered = sorted(generations, key=_generation_id)
    if any(g.generation_id != i for i, g in enumerate(ordered)):
        raise ValueError(f"generation ids must be contiguous from 0, got {[g.generation_id for g in ordered]}")
    cells = [cell for g in ordered for cell in g.cells]
    end = _LENGTH_PREFIX + int.from_bytes(cells[0][:_LENGTH_PREFIX], "big")
    if end > len(cells) * CELL_SIZE:
        raise ValueError("length prefix exceeds the decoded stream")
    # join views of only the cells the message spans, so its bytes are copied once
    return b"".join(
        memoryview(cell)[_LENGTH_PREFIX if i == 0 else 0 : end - i * CELL_SIZE]
        for i, cell in enumerate(cells[: -(-end // CELL_SIZE)])
    )
