"""Keccak-256 (the pre-NIST padding variant used by the EVM), many messages at once.

hashlib only ships NIST SHA3 (0x06 domain padding); Ethereum uses the
original Keccak submission (0x01), so the sponge is implemented here.

Lane packing: ``keccak256_many`` permutes the states of N messages
together. Each of the 25 lanes of Keccak-f[1600] is one Python int holding
that lane for every message, message k in bits ``[64k, 64k + 64)``. XOR
and AND never carry between bits, so one big-int operation, which runs as
a single loop in C, applies the step to all N messages.

Masks: NOT would turn the int negative, so it is an XOR with ``ONES``, the
all-ones 64-bit lane repeated N times. A rotation by r is
``((t << r) & HI[r]) | ((t >> (64 - r)) & LO[r])``: the left shift pushes
the top r bits of each slot into the slot above, where ``HI[r]`` (bits
``r..63`` of every slot) clears them; the right shift brings them down to
the bottom of their own slot, and ``LO[r]`` (bits ``0..r-1``) drops what
leaked in from the slot above. The round constants are repeated per slot
the same way. All masks depend on N only, so messages are grouped by block
count and the masks are built once per group.

Permutation: ``_permute`` is written out over 25 local lanes, with every
mask in a local and no loop inside a round, so a round is straight-line
big-int arithmetic; one loop runs the 24 rounds.
"""

from __future__ import annotations

from collections.abc import Sequence

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

# the nonzero rho rotations, in the order _permute unpacks their HI/LO masks
_ROTATION_AMOUNTS = sorted(r for row in _ROTATIONS for r in row if r)

_MASK64 = (1 << 64) - 1
_RATE_BYTES = 136  # 1600 - 2*256 bits
_RATE_LANES = _RATE_BYTES // 8


def _masks(n: int) -> tuple:
    """ONES, the HI/LO mask pairs of ``_ROTATION_AMOUNTS`` and the round
    constants, each repeated over ``n`` 64-bit slots."""
    rep = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * n, "little")
    rotation_masks = tuple(mask for r in _ROTATION_AMOUNTS
                           for mask in (((_MASK64 << r) & _MASK64) * rep, ((1 << r) - 1) * rep))
    return _MASK64 * rep, rotation_masks, tuple(rc * rep for rc in _ROUND_CONSTANTS)


def _permute(a: list[int], masks: tuple) -> None:
    """Keccak-f[1600] in place over the states packed into lanes ``a``.

    Written out over 25 local lanes ``a<x + 5y>``: ``h<r>`` and ``l<r>`` are
    HI[r] and LO[r], and rho + pi writes lane ``x + 5y`` rotated by its
    offset into ``b<y + 5((2x + 3y) mod 5)>``."""
    ones, rotation_masks, round_constants = masks
    (h1, l1, h2, l2, h3, l3, h6, l6, h8, l8, h10, l10, h14, l14, h15, l15, h18, l18,
     h20, l20, h21, l21, h25, l25, h27, l27, h28, l28, h36, l36, h39, l39, h41, l41,
     h43, l43, h44, l44, h45, l45, h55, l55, h56, l56, h61, l61, h62, l62) = rotation_masks
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = a
    for rc in round_constants:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 << 1) & h1) | ((c1 >> 63) & l1))
        d1 = c0 ^ (((c2 << 1) & h1) | ((c2 >> 63) & l1))
        d2 = c1 ^ (((c3 << 1) & h1) | ((c3 >> 63) & l1))
        d3 = c2 ^ (((c4 << 1) & h1) | ((c4 >> 63) & l1))
        d4 = c3 ^ (((c0 << 1) & h1) | ((c0 >> 63) & l1))
        a0, a5, a10, a15, a20 = a0 ^ d0, a5 ^ d0, a10 ^ d0, a15 ^ d0, a20 ^ d0
        a1, a6, a11, a16, a21 = a1 ^ d1, a6 ^ d1, a11 ^ d1, a16 ^ d1, a21 ^ d1
        a2, a7, a12, a17, a22 = a2 ^ d2, a7 ^ d2, a12 ^ d2, a17 ^ d2, a22 ^ d2
        a3, a8, a13, a18, a23 = a3 ^ d3, a8 ^ d3, a13 ^ d3, a18 ^ d3, a23 ^ d3
        a4, a9, a14, a19, a24 = a4 ^ d4, a9 ^ d4, a14 ^ d4, a19 ^ d4, a24 ^ d4
        # rho + pi
        b0 = a0
        b1 = ((a6 << 44) & h44) | ((a6 >> 20) & l44)
        b2 = ((a12 << 43) & h43) | ((a12 >> 21) & l43)
        b3 = ((a18 << 21) & h21) | ((a18 >> 43) & l21)
        b4 = ((a24 << 14) & h14) | ((a24 >> 50) & l14)
        b5 = ((a3 << 28) & h28) | ((a3 >> 36) & l28)
        b6 = ((a9 << 20) & h20) | ((a9 >> 44) & l20)
        b7 = ((a10 << 3) & h3) | ((a10 >> 61) & l3)
        b8 = ((a16 << 45) & h45) | ((a16 >> 19) & l45)
        b9 = ((a22 << 61) & h61) | ((a22 >> 3) & l61)
        b10 = ((a1 << 1) & h1) | ((a1 >> 63) & l1)
        b11 = ((a7 << 6) & h6) | ((a7 >> 58) & l6)
        b12 = ((a13 << 25) & h25) | ((a13 >> 39) & l25)
        b13 = ((a19 << 8) & h8) | ((a19 >> 56) & l8)
        b14 = ((a20 << 18) & h18) | ((a20 >> 46) & l18)
        b15 = ((a4 << 27) & h27) | ((a4 >> 37) & l27)
        b16 = ((a5 << 36) & h36) | ((a5 >> 28) & l36)
        b17 = ((a11 << 10) & h10) | ((a11 >> 54) & l10)
        b18 = ((a17 << 15) & h15) | ((a17 >> 49) & l15)
        b19 = ((a23 << 56) & h56) | ((a23 >> 8) & l56)
        b20 = ((a2 << 62) & h62) | ((a2 >> 2) & l62)
        b21 = ((a8 << 55) & h55) | ((a8 >> 9) & l55)
        b22 = ((a14 << 39) & h39) | ((a14 >> 25) & l39)
        b23 = ((a15 << 41) & h41) | ((a15 >> 23) & l41)
        b24 = ((a21 << 2) & h2) | ((a21 >> 62) & l2)
        # chi, and iota on lane 0
        a0, a1, a2, a3, a4 = (b0 ^ ((b1 ^ ones) & b2) ^ rc, b1 ^ ((b2 ^ ones) & b3),
                              b2 ^ ((b3 ^ ones) & b4), b3 ^ ((b4 ^ ones) & b0),
                              b4 ^ ((b0 ^ ones) & b1))
        a5, a6, a7, a8, a9 = (b5 ^ ((b6 ^ ones) & b7), b6 ^ ((b7 ^ ones) & b8),
                              b7 ^ ((b8 ^ ones) & b9), b8 ^ ((b9 ^ ones) & b5),
                              b9 ^ ((b5 ^ ones) & b6))
        a10, a11, a12, a13, a14 = (b10 ^ ((b11 ^ ones) & b12), b11 ^ ((b12 ^ ones) & b13),
                                   b12 ^ ((b13 ^ ones) & b14), b13 ^ ((b14 ^ ones) & b10),
                                   b14 ^ ((b10 ^ ones) & b11))
        a15, a16, a17, a18, a19 = (b15 ^ ((b16 ^ ones) & b17), b16 ^ ((b17 ^ ones) & b18),
                                   b17 ^ ((b18 ^ ones) & b19), b18 ^ ((b19 ^ ones) & b15),
                                   b19 ^ ((b15 ^ ones) & b16))
        a20, a21, a22, a23, a24 = (b20 ^ ((b21 ^ ones) & b22), b21 ^ ((b22 ^ ones) & b23),
                                   b22 ^ ((b23 ^ ones) & b24), b23 ^ ((b24 ^ ones) & b20),
                                   b24 ^ ((b20 ^ ones) & b21))
    a[:] = (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
            a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24)


def _hash_group(messages: list[bytes], blocks: int) -> list[bytes]:
    """Digests of ``messages``, which all pad to ``blocks`` rate blocks."""
    n = len(messages)
    size = blocks * _RATE_BYTES
    padded = bytearray(n * size)
    for k, message in enumerate(messages):
        start = k * size
        padded[start:start + len(message)] = message
        padded[start + len(message)] ^= 0x01
        padded[start + size - 1] ^= 0x80
    # words[k * blocks * 17 + 17 * block + i] is lane i of that block of message k;
    # tobytes() keeps each word's bytes in message order, so no byte swap is needed.
    words = memoryview(padded).cast("Q")
    stride = blocks * _RATE_LANES
    masks = _masks(n)
    lanes = [0] * 25
    for block in range(blocks):
        for i in range(_RATE_LANES):
            column = words[block * _RATE_LANES + i::stride].tobytes()
            lanes[i] ^= int.from_bytes(column, "little")
        _permute(lanes, masks)
    out = bytearray(32 * n)
    out_words = memoryview(out).cast("Q")
    for i in range(4):
        out_words[i::4] = memoryview(lanes[i].to_bytes(8 * n, "little")).cast("Q")
    return [bytes(out[32 * k:32 * k + 32]) for k in range(n)]


def keccak256_many(messages: Sequence[bytes]) -> list[bytes]:
    """Return the 32-byte Keccak-256 digest of each message, in input order."""
    groups: dict[int, list[int]] = {}
    for index, message in enumerate(messages):
        groups.setdefault(len(message) // _RATE_BYTES + 1, []).append(index)
    digests: list[bytes] = [b""] * len(messages)
    for blocks, indices in groups.items():
        for index, digest in zip(indices, _hash_group([messages[i] for i in indices], blocks)):
            digests[index] = digest
    return digests


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``."""
    return keccak256_many([data])[0]


def event_topic(signature: str) -> int:
    """Full 32-byte event topic hash of a canonical event signature, as an int."""
    return int.from_bytes(keccak256(signature.encode("ascii")), "big")


TRANSFER_TOPIC = event_topic("Transfer(address,address,uint256)")
