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

# rho + pi as (source lane, destination lane, theta column, rotation),
# lanes indexed x + 5y.
_RHO_PI = tuple(
    (x + 5 * y, y + 5 * ((2 * x + 3 * y) % 5), x, _ROTATIONS[x][y])
    for x in range(5) for y in range(5)
)

_MASK64 = (1 << 64) - 1
_RATE_BYTES = 136  # 1600 - 2*256 bits
_RATE_LANES = _RATE_BYTES // 8


def _masks(n: int) -> tuple:
    """ONES, theta's HI[1] and LO[1], the rho + pi steps with their HI/LO
    masks, and the round constants, each repeated over ``n`` 64-bit slots."""
    rep = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * n, "little")
    steps = tuple((src, dst, x, r, ((_MASK64 << r) & _MASK64) * rep, ((1 << r) - 1) * rep)
                  for src, dst, x, r in _RHO_PI)
    return (_MASK64 * rep, (_MASK64 ^ 1) * rep, rep, steps,
            tuple(rc * rep for rc in _ROUND_CONSTANTS))


def _permute(a: list[int], masks: tuple) -> None:
    """Keccak-f[1600] in place over the states packed into lanes ``a``."""
    ones, hi1, lo1, steps, round_constants = masks
    b = [0] * 25
    for rc in round_constants:
        # theta
        c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20]
        c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21]
        c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22]
        c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23]
        c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24]
        d = (c4 ^ (((c1 << 1) & hi1) | ((c1 >> 63) & lo1)),
             c0 ^ (((c2 << 1) & hi1) | ((c2 >> 63) & lo1)),
             c1 ^ (((c3 << 1) & hi1) | ((c3 >> 63) & lo1)),
             c2 ^ (((c4 << 1) & hi1) | ((c4 >> 63) & lo1)),
             c3 ^ (((c0 << 1) & hi1) | ((c0 >> 63) & lo1)))
        # rho + pi
        for src, dst, x, r, hi, lo in steps:
            t = a[src] ^ d[x]
            b[dst] = ((t << r) & hi) | ((t >> (64 - r)) & lo)
        # chi
        for y in (0, 5, 10, 15, 20):
            b0, b1, b2, b3, b4 = b[y:y + 5]
            a[y:y + 5] = (b0 ^ ((b1 ^ ones) & b2), b1 ^ ((b2 ^ ones) & b3),
                          b2 ^ ((b3 ^ ones) & b4), b3 ^ ((b4 ^ ones) & b0),
                          b4 ^ ((b0 ^ ones) & b1))
        # iota
        a[0] ^= rc


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
