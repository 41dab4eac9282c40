"""Fixtures shared by the codec, onion and censor tests."""

import traceback

import pytest

from ctorsim import gf256
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
