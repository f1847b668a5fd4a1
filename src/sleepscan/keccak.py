"""Keccak-256 (the pre-NIST padding variant used by the EVM), one message at a time.

hashlib only ships NIST SHA3 (0x06 domain padding); Ethereum uses the
original Keccak submission (0x01), so the sponge is implemented here, after
https://keccak.team/keccak_specs_summary.html. The state is 25 plain 64-bit
lanes, lane ``x + 5y``.
"""

from __future__ import annotations

import struct

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_ROTATIONS = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)

# theta's column x, then rho + pi, as (source lane, x, destination lane, rotation)
_MOVES = tuple((x + 5 * y, x, y + 5 * ((2 * x + 3 * y) % 5), _ROTATIONS[x][y])
               for x in range(5) for y in range(5))

_MASK64 = (1 << 64) - 1
_RATE_BYTES = 136  # 1600 - 2*256 bits


def _permute(a: list[int]) -> None:
    """Keccak-f[1600] in place over the 25 lanes ``a``."""
    b = [0] * 25
    for rc in _ROUND_CONSTANTS:
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        # c[x - 4] is c[(x + 1) mod 5], rotated left by 1
        d = [c[x - 1] ^ (((c[x - 4] << 1) | (c[x - 4] >> 63)) & _MASK64) for x in range(5)]
        for src, x, dst, rot in _MOVES:
            t = a[src] ^ d[x]
            b[dst] = ((t << rot) | (t >> (64 - rot))) & _MASK64
        for y in range(0, 25, 5):  # chi, one row at a time
            b0, b1, b2, b3, b4 = b[y:y + 5]
            a[y:y + 5] = (b0 ^ (~b1 & b2), b1 ^ (~b2 & b3), b2 ^ (~b3 & b4),
                          b3 ^ (~b4 & b0), b4 ^ (~b0 & b1))
        a[0] ^= rc  # iota


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``."""
    padded = bytearray(data) + bytes(_RATE_BYTES - len(data) % _RATE_BYTES)
    padded[len(data)] ^= 0x01
    padded[-1] ^= 0x80
    a = [0] * 25
    for block in struct.iter_unpack(f"<{_RATE_BYTES // 8}Q", padded):
        a[:len(block)] = [lane ^ word for lane, word in zip(a, block)]
        _permute(a)
    return struct.pack("<4Q", *a[:4])


def event_topic(signature: str) -> int:
    """Full 32-byte event topic hash of a canonical event signature, as an int."""
    return int.from_bytes(keccak256(signature.encode("ascii")), "big")


TRANSFER_TOPIC = event_topic("Transfer(address,address,uint256)")
