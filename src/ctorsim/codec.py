"""Generation-based systematic (n, k) erasure codec over GF(2^8).

Traffic is framed, chopped into 512-byte cells, and grouped k cells at a
time into generations. Each generation is expanded to n coded cells: the
first k carry the originals verbatim, the remaining r = n - k are parity
rows taken from a column-normalized Cauchy block, which makes every k-row
subset of the generator invertible. Any k surviving coded cells therefore
rebuild the generation exactly; with k-1 or fewer the generation is lost.

Encoder and decoder are pure functions of (params, matrix) and their
cells; generations can be processed independently and concurrently. The
decoder memoizes one inverse per set of surviving coefficient rows, so a
transfer whose circuits drop the same sub-flows in every generation
inverts once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import gf256

CELL_SIZE = 512
MAX_N = 255  # field size bound on the coded cells (and circuits) per generation
_LENGTH_PREFIX = 8  # big-endian message length, first bytes of the cell stream
_WIRE_HEADER = 4 + 1 + 1  # generation id + sub-flow index + k


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
    """k original cells encoded (and decoded) together."""

    generation_id: int
    cells: tuple[bytes, ...]

    def __post_init__(self):
        if self.generation_id < 0:
            raise ValueError("generation_id must be non-negative")
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise ValueError("a generation holds at least one cell")
        for cell in self.cells:
            if len(cell) != CELL_SIZE:
                raise ValueError(f"cells are exactly {CELL_SIZE} bytes, got {len(cell)}")


def _trusted(cls, **fields):
    """An instance of a frozen dataclass built without its __post_init__, for
    fields the caller has already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class CodedCell:
    """One coded cell: payload plus the coefficient row that produced it."""

    generation_id: int
    subflow_index: int
    coefficients: bytes
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.generation_id < 2**32:
            raise ValueError("generation_id must fit 4 bytes")
        if not 0 <= self.subflow_index <= 255:
            raise ValueError("subflow_index must fit 1 byte")
        if not 1 <= len(self.coefficients) <= MAX_N:
            raise ValueError(f"coefficient vector must hold 1..{MAX_N} bytes, got {len(self.coefficients)}")
        if len(self.payload) != CELL_SIZE:
            raise ValueError(f"payload is exactly {CELL_SIZE} bytes, got {len(self.payload)}")

    def to_wire(self) -> bytes:
        """Wire layout: generation_id (4B BE) | subflow_index (1B) | k (1B) | k coefficients | payload."""
        return (
            self.generation_id.to_bytes(4, "big")
            + bytes([self.subflow_index, len(self.coefficients)])
            + self.coefficients
            + self.payload
        )

    @classmethod
    def from_wire(cls, data: bytes) -> "CodedCell":
        """Parse one wire cell, whose length must be the one its header's k gives."""
        return cls._parse_at(data, 0, whole=True)[0]

    @classmethod
    def from_wire_stream(cls, stream: bytes) -> list["CodedCell"]:
        """Parse back-to-back wire cells, each delimited by the k in its own header."""
        cells, pos = [], 0
        while pos < len(stream):
            cell, pos = cls._parse_at(stream, pos, whole=False)
            cells.append(cell)
        return cells

    @classmethod
    def _parse_at(cls, data: bytes, pos: int, *, whole: bool) -> tuple["CodedCell", int]:
        """The wire cell that starts at `pos`, delimited by its header's k, and
        the position after it. A `whole` cell must end exactly where data does."""
        size = len(data) - pos
        if size < _WIRE_HEADER:
            raise ValueError(f"wire cell too short: {size} bytes")
        k = data[pos + 5]
        if k == 0:
            raise ValueError("wire cell header gives k=0")
        start = pos + _WIRE_HEADER
        end = start + k + CELL_SIZE
        if end > len(data) or (whole and end != len(data)):
            raise ValueError(f"wire cell of {size} bytes, but its header gives k={k}")
        # the header's field widths and the length check above bound every
        # field as __post_init__ would, so the cell skips it
        cell = _trusted(
            cls,
            generation_id=int.from_bytes(data[pos : pos + 4], "big"),
            subflow_index=data[pos + 4],
            coefficients=bytes(data[start : start + k]),
            payload=bytes(data[start + k : end]),
        )
        return cell, end


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


# the systematic check in decode_generation asks for one per received cell
@functools.lru_cache(maxsize=1024)
def _unit_row(k: int, i: int) -> bytes:
    row = bytearray(k)
    row[i] = 1
    return bytes(row)


# GeneratorMatrix is frozen and its rows are bytes, so every caller can share
# one instance per code shape.
@functools.lru_cache(maxsize=64)
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
    acc = 0
    for c, data in zip(coefficients, payloads):
        if c == 0:
            continue
        acc ^= int.from_bytes(gf256.scale_bytes(data, c), "big")
    return acc.to_bytes(CELL_SIZE, "big")


def encode_generation(generation: Generation, matrix: GeneratorMatrix) -> list[CodedCell]:
    """Expand k original cells into n coded cells, originals first."""
    params = matrix.params
    if len(generation.cells) != params.k:
        raise ValueError(
            f"generation has {len(generation.cells)} cells, code expects {params.k}"
        )
    out = []
    for idx in range(params.n):
        row = matrix.rows[idx]
        payload = generation.cells[idx] if idx < params.k else _combine(row, generation.cells)
        out.append(CodedCell(generation.generation_id, idx, row, payload))
    return out


# One inverse per set of received coefficient rows: a blocked circuit drops
# its whole sub-flow, so every generation of a transfer repeats the same set.
# Survivor sets holding all k originals take the systematic shortcut and never
# get here, so the default grid's shapes fill 382 entries (12 for ctor:5:2,
# 370 for ctor:10:4, none for the uncoded ones); 400 hold them all. Entries
# hold rows, never payloads.
@functools.lru_cache(maxsize=400)
def _decode_plan(rows: tuple[bytes, ...]) -> tuple[tuple[int, ...], tuple[bytes, ...]] | None:
    """Positions of the first k independent rows and the inverse of their
    matrix: row j rebuilds original cell j from the picked payloads. None
    marks a set of rank below k."""
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
            return tuple(picks), tuple(bytes(reduced[col][k:]) for col in range(k))
    return None


def decode_generation(received: Sequence[CodedCell], params: CodeParams) -> Generation:
    """Recover the original k cells from any k independent coded cells.

    Takes the systematic shortcut when all k original cells arrived.
    Otherwise it inverts the matrix of the first k independent coefficient
    rows once per set of received rows, caches that inverse, and forms each
    cell as a GF(2^8) combination of the picked payloads. A set of rank
    below k raises UnrecoverableGeneration.
    """
    if not received:
        raise ValueError("decode needs at least one coded cell")
    generation_id = received[0].generation_id
    k = params.k
    originals: dict[int, bytes] = {}
    for cell in received:
        if cell.generation_id != generation_id:
            raise ValueError("coded cells from mixed generations")
        if len(cell.coefficients) != k:
            raise ValueError(f"coefficient vector length {len(cell.coefficients)}, expected {k}")
        if cell.subflow_index < k and cell.coefficients == _unit_row(k, cell.subflow_index):
            originals[cell.subflow_index] = cell.payload
    # every payload here is a CodedCell's or a _combine of them, so it is
    # CELL_SIZE bytes already and the Generation skips re-checking it
    if len(originals) == k:
        return _trusted(Generation, generation_id=generation_id, cells=tuple(originals[i] for i in range(k)))

    plan = _decode_plan(tuple(bytes(cell.coefficients) for cell in received))
    if plan is None:
        raise UnrecoverableGeneration(generation_id, received=len(received))
    picks, inverse = plan
    payloads = [received[pos].payload for pos in picks]
    return _trusted(Generation, generation_id=generation_id, cells=tuple(
        payloads[row.index(1)] if sum(row) == 1 else _combine(row, payloads) for row in inverse
    ))


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


def reassemble_message(generations: Sequence[Generation]) -> bytes:
    """Exact inverse of split_message over fully decoded generations."""
    if not generations:
        raise ValueError("no generations to reassemble")
    ordered = sorted(generations, key=lambda g: g.generation_id)
    ids = [g.generation_id for g in ordered]
    if ids != list(range(len(ordered))):
        raise ValueError(f"generation ids must be contiguous from 0, got {ids}")
    stream = b"".join(b"".join(g.cells) for g in ordered)
    length = int.from_bytes(stream[:_LENGTH_PREFIX], "big")
    if _LENGTH_PREFIX + length > len(stream):
        raise ValueError("length prefix exceeds the decoded stream")
    return stream[_LENGTH_PREFIX : _LENGTH_PREFIX + length]
