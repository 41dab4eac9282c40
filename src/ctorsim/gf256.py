"""Arithmetic over GF(2^8) with reduction polynomial x^8+x^4+x^3+x^2+1 (0x11d).

Field elements are ints in 0..255, bit i holding the coefficient of x^i.
Addition is XOR; multiplication and inversion run through exp/log tables
built once at import (0x02 is primitive for this polynomial, so powers of
2 enumerate every nonzero element). All functions are pure and the tables
are read-only, so the module is safe under concurrent use.
"""

from __future__ import annotations

REDUCING_POLY = 0x11D


def _build_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 510  # doubled so mul can skip the mod-255 in the hot path
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= REDUCING_POLY
    for i in range(255, 510):
        exp[i] = exp[i - 255]
    return exp, log


_EXP, _LOG = _build_tables()


def mul(a: int, b: int) -> int:
    """Field product of a and b."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def inv(a: int) -> int:
    """Multiplicative inverse of a; zero has none."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return _EXP[255 - _LOG[a]]


def _build_scale() -> tuple[bytes, ...]:
    # For c != 0, mul(c, x) = _EXP[log c + log x] on x = 1..255: translating
    # the log bytes through the 256-byte window of _EXP at log c builds the row
    # in C (the doubled _EXP reaches index 254 + 255).
    exp, logs = bytes(_EXP), bytes(_LOG[1:])
    return (bytes(256),) + tuple(
        b"\x00" + logs.translate(exp[_LOG[c] : _LOG[c] + 256]) for c in range(1, 256)
    )


# _SCALE[c] maps byte x to mul(c, x); bytes.translate turns a whole payload
# scaling into one C-level pass.
_SCALE = _build_scale()


def scale_bytes(data: bytes, c: int) -> bytes:
    """Multiply every byte of data by the scalar c."""
    if c == 1:
        return bytes(data)
    return data.translate(_SCALE[c])


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")
