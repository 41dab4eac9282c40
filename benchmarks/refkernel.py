"""A fixed reference kernel that gauges how fast the machine runs Python right now.

Shared machines change speed by 20-40% over tens of seconds (other tenants,
frequency scaling), which swamps most changes to ctorsim's own speed. The
benchmark therefore times this kernel next to every call it measures and
reports times normalised to a machine on which the kernel takes exactly
NOMINAL_S: normalised = wall * NOMINAL_S / kernel_time. The kernel never
touches ctorsim, so no change to the program moves it, short of a
process-wide side effect such as switching off the garbage collector. It
mixes the kinds of work ctorsim does: random.sample with set lookups (the
campaign fast path), frozen dataclass construction, SHAKE digests,
bytes.translate and big-int XOR over 512-byte cells.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass

NOMINAL_S = 0.0025  # about the kernel's time on a 2-core x86-64 virtual machine with CPython 3.11
REPEATS = 5

_POOL = tuple(f"b{i:03d}" for i in range(35))
_KNOWN = frozenset(_POOL[::3])
_TABLE = bytes((i * 7 + 3) & 255 for i in range(256))


@dataclass(frozen=True)
class _Cell:
    seq: int
    payload: bytes


def reference_kernel() -> int:
    rng = random.Random(12345)
    acc = 0
    for _ in range(300):
        acc += sum(1 for b in rng.sample(_POOL, 10) if b in _KNOWN)
    data = bytes(range(256)) * 2
    for i in range(60):
        cell = _Cell(i, hashlib.shake_256(data[:32]).digest(512))
        mixed = int.from_bytes(cell.payload, "big") ^ int.from_bytes(data.translate(_TABLE), "big")
        data = mixed.to_bytes(512, "big")
        acc += cell.seq
    return acc


def kernel_seconds() -> float:
    """Mean time of REPEATS kernel runs: the machine's speed at this moment."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        reference_kernel()
    return (time.perf_counter() - t0) / REPEATS
