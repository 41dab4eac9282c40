"""Fixtures shared by the codec, onion, censor and acceptance tests."""

import traceback

import pytest

from ctorsim import censor, gf256
from ctorsim.codec import CodedCell


@pytest.fixture
def parser_calls(monkeypatch):
    """Record every CodedCell.from_wire_stream call as (wire bytes, names of
    the functions on the stack), and let the parse run as usual."""
    calls = []
    parse = CodedCell.from_wire_stream

    def spy(cls, stream):
        calls.append((bytes(stream), {frame.name for frame in traceback.extract_stack()}))
        return parse(stream)

    monkeypatch.setattr(CodedCell, "from_wire_stream", classmethod(spy))
    return calls


@pytest.fixture
def scale_calls(monkeypatch):
    """Record the byte length of every gf256.scale_bytes call, which codec
    makes through the module, and let the scaling run as usual."""
    calls = []
    scale = gf256.scale_bytes

    def spy(data, c):
        calls.append(len(data))
        return scale(data, c)

    monkeypatch.setattr(gf256, "scale_bytes", spy)
    return calls


@pytest.fixture
def trial_transfers(monkeypatch):
    """Record the blocked circuits and the success of every transfer a
    pipeline trial makes, and let the transfer run as usual."""
    transfers = []
    transfer = censor.run_transfer

    def spy(circuits, coded, message, blocked):
        result = transfer(circuits, coded, message, blocked)
        transfers.append((blocked, result.success))
        return result

    monkeypatch.setattr(censor, "run_transfer", spy)
    return transfers
