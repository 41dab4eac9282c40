"""The wire layout of one coded cell, spelled out field by field for the tests.

ctorsim writes wires a whole sub-flow at a time (codec.encode_subflows) and
reads them back with CodedCell.from_wire_stream. Tests that feed the parser
single or hand-made cells serialise them here, without the codec's header
struct, so a change to the layout on either side shows as a mismatch.
"""


def to_wire(cell) -> bytes:
    """generation_id (4B BE) | subflow_index (1B) | k (1B) | k coefficients | payload."""
    generation_id, subflow_index, coefficients, payload = cell
    return generation_id.to_bytes(4, "big") + bytes([subflow_index, len(coefficients)]) + coefficients + payload


def subflow_wires(generations) -> list[bytes]:
    """Wire i of a batch: coded cell i of each generation's cell list, joined in order."""
    return [b"".join(to_wire(cell) for cell in column) for column in zip(*generations)]
