"""Generation-based systematic (n, k) erasure codec over GF(2^8).

Traffic is framed, chopped into 512-byte cells, and grouped k cells at a
time into generations. Each generation is expanded to n coded cells: the
first k carry the originals verbatim, the remaining r = n - k are parity
rows taken from a column-normalized Cauchy block, which makes every k-row
subset of the generator invertible. Any k surviving coded cells therefore
rebuild the generation exactly; with k-1 or fewer the generation is lost.

Encoder and decoder are pure functions of their rows and their cells.
Every generation of a message is coded with the same rows, so both work
column-wise: a column is one sub-flow's payloads across all the
generations of a batch, joined once, and each GF(2^8) coefficient scales a
whole column in one call, however many generations the batch holds. The
encoder writes each column straight into the wire its sub-flow's circuit
carries, a header, a row and a payload per generation, and the parser
reads that wire back into cells: the wire layout has one writer and one
reader. The per-generation functions are the batch of one. A blocked
circuit drops its whole sub-flow, so every generation of a transfer
arrives with the same coefficient rows: the decoder takes a batch of one
row set, refuses a batch whose generations arrived with other rows, and
memoizes one inverse per set of rows, so a transfer inverts once and
combines each missing column once.

Every record is a tuple record (a NamedTuple), compared and hashed by its
fields. CodeParams checks its shape in its __new__, and the parser, which
builds every CodedCell the pipeline carries, rejects what a wire can get
wrong; the other records are plain, built only from what those have
passed. A circuit carries one code's cells, so a wire holds cells of one
k, and the parser has one framing rule: the first header's k is at least
1, the stream is a whole number of cells of that k, and every header gives
it. Such a stream is read in one unpack by a struct of its cell layout,
and when its cells all carry one row, as every sub-flow the encoder writes
does, they share that row object; any other stream raises ValueError.
Payloads are combined as little-endian ints, one int XOR per term.
"""

from __future__ import annotations

import functools
import struct
from enum import Enum
from itertools import repeat
from operator import index
from typing import NamedTuple, Sequence

from . import gf256

CELL_SIZE = 512
MAX_N = 255  # field size bound on the coded cells (and circuits) per generation
_LENGTH_PREFIX = 8  # big-endian message length, first bytes of the cell stream
_HEADER = struct.Struct(">IBB")  # generation id (4B BE) | sub-flow index (1B) | k (1B)
_WIRE_HEADER = _HEADER.size


class UnrecoverableGeneration(Exception):
    """Raised when fewer than k independent coded cells survive for a generation."""


class _CodeParamsFields(NamedTuple):
    n: int
    k: int
    r: int


class CodeParams(_CodeParamsFields):
    """Code shape: n coded cells per generation, k of them data, r parity.

    A tuple record that checks its fields in __new__. Build one by calling
    the class: the inherited _make and _replace skip the checks.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, r: int):
        # through index, like the cell and generation ids, so a float fails
        # here instead of in split_message and a bool is stored as an int
        n, k, r = index(n), index(k), index(r)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if r < 0:
            raise ValueError(f"r must be >= 0, got {r}")
        if n != k + r:
            raise ValueError(f"n must equal k + r, got n={n}, k={k}, r={r}")
        if n > MAX_N:
            raise ValueError(f"n must be <= {MAX_N} (field size bound), got {n}")
        return tuple.__new__(cls, (n, k, r))


def interrupted_by_rule(blocked_count: int, params: CodeParams) -> bool:
    """The blocked-count rule: any k of the n coded cells decode, so a transfer
    survives up to r blocked circuits and is lost beyond."""
    return blocked_count > params.r


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


class Generation(NamedTuple):
    """k original cells of CELL_SIZE bytes, encoded (and decoded) together."""

    generation_id: int
    cells: tuple[bytes, ...]


# the parser builds a whole stream's cells with the C constructor, skipping
# the NamedTuple's generated Python __new__
_new_tuple = tuple.__new__


class CodedCell(NamedTuple):
    """One coded cell: payload plus the coefficient row that produced it.

    A plain tuple record, compared and hashed by its fields. The parser
    builds every cell the pipeline carries, from the fields its header and
    length bound: an id below 2**32, a sub-flow index up to 255, a row of
    1..255 bytes and a payload of CELL_SIZE bytes, all held as int or bytes.
    """

    generation_id: int
    subflow_index: int
    coefficients: bytes
    payload: bytes

    @classmethod
    def from_wire_stream(cls, stream: bytes) -> list["CodedCell"]:
        """Parse back-to-back wire cells of one k, as encode_subflows writes them.

        The first header's k gives the cell layout. A stream of k >= 1 that
        is a whole number of such cells, with that k in every header, which
        one compare of the k byte of every cell checks, is unpacked in one
        pass; when its cells all carry one row they share that row object.
        A stream shorter than a header, a first k of 0 and any other stream
        raise ValueError.
        """
        if type(stream) is not bytes:
            stream = bytes(memoryview(stream))
        total = len(stream)
        if total < _WIRE_HEADER:
            raise ValueError(f"wire cell too short: {total} bytes")
        k = stream[_WIRE_HEADER - 1]  # the first header's last byte
        if not k:
            raise ValueError(f"coefficient vector must hold 1..{MAX_N} bytes, got 0")
        layout = _wire_cell(k)
        count, rest = divmod(total, layout.size)
        if rest or stream[_WIRE_HEADER - 1 :: layout.size].count(k) != count:
            raise ValueError(f"wire of {total} bytes is not whole cells of k={k}, the k its first header gives")
        generation_ids, subflow_indices, _, rows, payloads = zip(*layout.iter_unpack(stream))
        if rows.count(rows[0]) == count:
            rows = repeat(rows[0])
        return list(map(_new_tuple, repeat(cls), zip(generation_ids, subflow_indices, rows, payloads)))


def _wire_cell(k: int) -> struct.Struct:
    """The layout of one wire cell with k coefficients: the header, the
    row, the payload."""
    return struct.Struct(f"{_HEADER.format}{k}s{CELL_SIZE}s")


def _unit_row(k: int, i: int) -> bytes:
    row = bytearray(k)
    row[i] = 1
    return bytes(row)


def build_generator(params: CodeParams) -> tuple[bytes, ...]:
    """Deterministic systematic generator: n coefficient rows of length k,
    rows 0..k-1 the identity, whose every k-row subset is invertible.

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
    return tuple(rows)


def _combine(coefficients: Sequence[int], payloads: Sequence[bytes]) -> bytes:
    """The GF(2^8) combination of equal-length payloads: one scale per
    nonzero coefficient, however long the payloads are."""
    acc = 0
    for c, data in zip(coefficients, payloads):
        if c == 0:
            continue
        acc ^= int.from_bytes(gf256.scale_bytes(data, c), "little")
    return acc.to_bytes(len(payloads[0]), "little")


def encode_subflows(generations: Sequence[Generation], rows: Sequence[bytes]) -> list[bytes]:
    """Expand each generation's k original cells into n coded cells, one
    per row of a generator whose first k rows are the identity, and
    write coded cell i of every generation, in the order the generations
    are given, into wire i: the sub-flow circuit i carries.

    Wire layout per cell: generation_id (4B BE) | subflow_index (1B) | k (1B)
    | k coefficients | payload. Data column j, cell j of every generation,
    is joined once, and each parity column is one combination of the joined
    data columns, written slice by slice into its wire.
    """
    k = len(rows[0])
    for generation in generations:
        if len(generation.cells) != k:
            raise ValueError(f"generation has {len(generation.cells)} cells, code expects {k}")
    columns = [[generation.cells[j] for generation in generations] for j in range(k)]
    if len(rows) > k:
        joined = [b"".join(column) for column in columns]
        for row in rows[k:]:
            parity = memoryview(_combine(row, joined))
            columns.append([parity[lo : lo + CELL_SIZE] for lo in range(0, len(parity), CELL_SIZE)])
        del joined  # freed before the wires are written, so the two never coexist
    pack = _HEADER.pack
    wires = []
    for i, (row, column) in enumerate(zip(rows, columns)):
        parts = []
        for generation, payload in zip(generations, column):
            parts += (pack(generation.generation_id, i, k), row, payload)
        wires.append(b"".join(parts))
    return wires


def encode_generation(generation: Generation, rows: Sequence[bytes]) -> list[CodedCell]:
    """Expand k original cells into n coded cells, originals first: the
    parse of the one-generation wires of encode_subflows."""
    return CodedCell.from_wire_stream(b"".join(encode_subflows([generation], rows)))


# One inverse per set of received coefficient rows: a blocked circuit drops
# its whole sub-flow, so every generation of a transfer repeats the same set.
# The default grid's shapes have 407 survivor sets of k or more cells (16 for
# ctor:5:2, 386 for ctor:10:4, one per uncoded shape); 512 hold them all.
# Entries hold rows, never payloads.
@functools.lru_cache(maxsize=512)
def _decode_plan(rows: tuple[bytes, ...]) -> tuple[tuple[int, ...], tuple[int | bytes, ...], bool] | None:
    """Positions of the first k independent rows; per original cell j its
    source: row j of the inverse of their matrix, which rebuilds the cell
    from the picked payloads, or, when that row is a unit row, the position
    of the one received cell to copy; and whether any source is a row to
    combine. None marks a set of rank below k."""
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
            sources = tuple(picks[row.index(1)] if sum(row) == 1 else row for row in inverse)
            return tuple(picks), sources, any(type(source) is bytes for source in sources)
    return None


def decode_generations(received: Sequence[Sequence[CodedCell]], params: CodeParams) -> list[Generation]:
    """Recover each generation of a batch that arrived over one set of
    sub-flows from any k independent coded cells of it.

    `received` holds one non-empty list of cells per generation, every one
    with the coefficient rows of the first, and the batch takes one cached
    inverse of their first k independent rows. A unit row of the inverse
    copies a payload, so when the k original cells arrive first every cell
    is a copy; any other row forms its original column once, as one GF(2^8)
    combination of the picked columns, and slices it back into the
    generations. A malformed batch (an empty cell list, mixed generations,
    rows of another length than k, a generation with other rows than the
    first) raises ValueError before anything is decoded, and rows of rank
    below k raise UnrecoverableGeneration for the first generation.

    Returns the decoded generations in the order given.
    """
    if not received:
        return []
    rows = [cell.coefficients for cell in received[0]]
    for cells in received:
        if not cells:
            raise ValueError("decode needs at least one coded cell")
        generation_id = cells[0].generation_id
        for cell in cells:
            if cell.generation_id != generation_id:
                raise ValueError("coded cells from mixed generations")
        # a wire's cells share its row object, so this compares identities
        if [cell.coefficients for cell in cells] != rows:
            raise ValueError("generations of one batch arrived with other coefficient rows")
    k = params.k
    for row in rows:
        if len(row) != k:
            raise ValueError(f"coefficient vector length {len(row)}, expected {k}")

    plan = _decode_plan(tuple(rows))
    if plan is None:
        raise UnrecoverableGeneration(
            f"generation {received[0][0].generation_id} cannot be recovered ({len(rows)} cells received)"
        )
    picks, originals, combines = plan
    if combines:
        columns = [b"".join([cells[pick].payload for cells in received]) for pick in picks]
        # a position to copy, or a combined column to slice
        originals = [source if type(source) is int else _combine(source, columns) for source in originals]
    decoded: list[Generation] = []
    lo = 0
    for cells in received:
        hi = lo + CELL_SIZE
        decoded.append(Generation(cells[0].generation_id, tuple([
            cells[original].payload if type(original) is int else original[lo:hi] for original in originals
        ])))
        lo = hi
    return decoded


def decode_generation(received: Sequence[CodedCell], params: CodeParams) -> Generation:
    """Recover the original k cells from any k independent coded cells: the
    batch of one of decode_generations, with its contract.

    When the k original cells arrive first, every decoded cell is the
    received payload itself. A set of rank below k raises
    UnrecoverableGeneration; a malformed one raises ValueError.
    """
    return decode_generations([received], params)[0]


def split_message(message: bytes, params: CodeParams) -> list[Generation]:
    """Frame a message and cut it into generations of params.k padded cells.

    The cell stream starts with an 8-byte big-endian length so reassembly
    needs no out-of-band information; padding bytes are zero.
    """
    if not message:
        raise ValueError("cannot split an empty message")
    k = params.k
    framed = len(message).to_bytes(_LENGTH_PREFIX, "big") + message
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
    """Exact inverse of split_message over fully decoded generations, given
    in order: their ids must run 0, 1, 2, ..., or ValueError is raised."""
    if not generations:
        raise ValueError("no generations to reassemble")
    ids = [g.generation_id for g in generations]
    if ids != list(range(len(ids))):
        raise ValueError(f"generation ids must be contiguous from 0, got {ids}")
    cells = [cell for g in generations for cell in g.cells]
    end = _LENGTH_PREFIX + int.from_bytes(cells[0][:_LENGTH_PREFIX], "big")
    if end > len(cells) * CELL_SIZE:
        raise ValueError("length prefix exceeds the decoded stream")
    # join only the cells the message spans, its first and last through a
    # view cut to the message, so its bytes are copied once
    spans = cells[: -(-end // CELL_SIZE)]
    spans[-1] = memoryview(spans[-1])[: end - (len(spans) - 1) * CELL_SIZE]
    spans[0] = memoryview(spans[0])[_LENGTH_PREFIX:]
    return b"".join(spans)
