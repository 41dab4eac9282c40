"""Exhaustive checks of the GF(2^8) arithmetic against an independent oracle."""

import numpy as np
import pytest

from ctorsim import gf256


def mul_shift_reduce(a: int, b: int) -> int:
    """Carry-less polynomial product reduced by 0x11d, bit by bit.

    Independent of the package's table-based path on purpose.
    """
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return product


@pytest.fixture(scope="module")
def mul_table() -> np.ndarray:
    table = np.empty((256, 256), dtype=np.uint8)
    for a in range(256):
        for b in range(256):
            table[a, b] = gf256.mul(a, b)
    return table


def test_mul_examples():
    assert gf256.mul(0x01, 0xAB) == 0xAB
    assert gf256.mul(0x00, 0xAB) == 0x00
    assert gf256.mul(0x02, 0x80) == 0x1D  # one reduction step of 0x11d


def test_mul_matches_shift_reduce_on_all_pairs():
    for a in range(256):
        for b in range(256):
            assert gf256.mul(a, b) == mul_shift_reduce(a, b)


def test_mul_commutative(mul_table):
    assert np.array_equal(mul_table, mul_table.T)


def test_mul_associative_all_triples(mul_table):
    left = mul_table[mul_table, :]  # (a*b)*c
    right = mul_table[:, mul_table]  # a*(b*c)
    assert np.array_equal(left, right)


def test_distributive_all_triples(mul_table):
    xor = np.bitwise_xor.outer(np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8))
    left = mul_table[:, xor]  # a*(b+c)
    right = np.bitwise_xor(mul_table[:, :, None], mul_table[:, None, :])  # a*b + a*c
    assert np.array_equal(left, right)


def test_inverse_of_every_nonzero_element():
    assert gf256.inv(0x01) == 0x01
    for a in range(1, 256):
        assert gf256.mul(a, gf256.inv(a)) == 0x01


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        gf256.inv(0)


def test_multiplicative_group_is_cyclic_of_order_255():
    seen = set()
    x = 1
    for _ in range(255):
        seen.add(x)
        x = gf256.mul(x, 0x02)
    assert len(seen) == 255
    assert x == 1  # back to the start after a full cycle


def test_scale_bytes_matches_scalar_mul():
    data = bytes(range(256))
    for c in range(256):
        assert gf256.scale_bytes(data, c) == bytes(gf256.mul(c, x) for x in data)


def test_xor_bytes():
    assert gf256.xor_bytes(b"\x53\x00", b"\xca\xff") == b"\x99\xff"
    assert gf256.xor_bytes(b"", b"") == b""
    with pytest.raises(ValueError):
        gf256.xor_bytes(b"\x00", b"\x00\x01")
