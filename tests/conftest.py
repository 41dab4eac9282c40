"""Fixtures shared by the onion and censor tests."""

import traceback

import pytest

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
