"""The wire layout of one coded cell, spelled out field by field for the tests.

ctorsim writes wires a whole sub-flow at a time (codec.encode_subflows) and
reads them back with CodedCell.from_wire_stream. Tests that feed the parser
single or hand-made cells serialise them here, and check what it parses
against a reader here, both without the codec's structs, so a change to
the layout on either side shows as a mismatch.
"""

CELL_SIZE = 512


def to_wire(cell) -> bytes:
    """generation_id (4B BE) | subflow_index (1B) | k (1B) | k coefficients | payload."""
    generation_id, subflow_index, coefficients, payload = cell
    return generation_id.to_bytes(4, "big") + bytes([subflow_index, len(coefficients)]) + coefficients + payload


def from_wire(stream: bytes) -> list[tuple]:
    """Each whole cell of a stream as (generation id, sub-flow index, row,
    payload), read field by field by the k in its own header."""
    cells, pos = [], 0
    while pos < len(stream):
        k = stream[pos + 5]
        end = pos + 6 + k + CELL_SIZE
        assert end <= len(stream), "the stream ends inside a cell"
        row = stream[pos + 6 : pos + 6 + k]
        cells.append((int.from_bytes(stream[pos : pos + 4], "big"), stream[pos + 4], row, stream[pos + 6 + k : end]))
        pos = end
    return cells


def subflow_wires(generations) -> list[bytes]:
    """Wire i of a batch: coded cell i of each generation's cell list, joined in order."""
    return [b"".join(to_wire(cell) for cell in column) for column in zip(*generations)]


def mixed_k_cells() -> list[tuple]:
    """Three cells with k = 2, 1 and 3 as (generation id, sub-flow index, row,
    payload): together as long as three cells of k = 2, and with the first
    row's bytes at each of those cells' row offsets, so that a parser that
    read the first header's k alone would frame them as three such cells."""
    payload = bytes(range(256)) * 2
    return [
        (0, 0, b"\x01\x02", payload),
        (1, 1, b"\x01", b"\x02" + payload[1:]),  # the row and first payload byte lie where a k = 2 row would
        (2, 2, b"\x07\x01\x02", payload),  # its last two row bytes lie where a k = 2 row would
    ]
