"""Reference concrete interpreter for the arithmetic/logic/stack subset and
the byte-addressed memory (MSTORE, MSTORE8, MLOAD).

Written directly from the yellow-paper semantics, independent of the
package's symbolic evaluator, so the two can be compared differentially.
"""

from __future__ import annotations

W = 1 << 256
MASK = W - 1
MEMORY = ("MLOAD", "MSTORE", "MSTORE8")


def _signed(x: int) -> int:
    return x - W if x >> 255 else x


def run(program: list[tuple[str, tuple[int, ...]]],
        stack: list[int] | None = None) -> list[int]:
    """Execute (mnemonic, operands) pairs; PUSH carries its value as operand.

    Returns the final stack (bottom first). Raises IndexError on underflow,
    mirroring what a real machine would treat as an exceptional halt.
    """
    s = list(stack or [])
    memory = bytearray()  # zero-filled as it grows, one byte per address
    for name, operands in program:
        if name in MEMORY:
            offset = s.pop()
            width = 1 if name == "MSTORE8" else 32
            if len(memory) < offset + width:
                memory.extend(bytes(offset + width - len(memory)))
            if name == "MLOAD":
                s.append(int.from_bytes(memory[offset:offset + 32], "big"))
            elif name == "MSTORE":
                memory[offset:offset + 32] = s.pop().to_bytes(32, "big")
            else:
                memory[offset] = s.pop() & 0xFF
        elif name.startswith("PUSH"):
            s.append(operands[0] & MASK)
        elif name.startswith("DUP"):
            n = int(name[3:])
            s.append(s[-n])
        elif name.startswith("SWAP"):
            n = int(name[4:])
            s[-1], s[-1 - n] = s[-1 - n], s[-1]
        elif name == "POP":
            s.pop()
        else:
            s = _apply(name, s)
    return s


def _apply(name: str, s: list[int]) -> list[int]:
    if name in _UNARY:
        a = s.pop()
        s.append(_UNARY[name](a) & MASK)
    elif name in _BINARY:
        a, b = s.pop(), s.pop()
        s.append(_BINARY[name](a, b) & MASK)
    elif name in _TERNARY:
        a, b, c = s.pop(), s.pop(), s.pop()
        s.append(_TERNARY[name](a, b, c) & MASK)
    else:
        raise KeyError(name)
    return s


def _div(a, b):
    return a // b if b else 0


def _sdiv(a, b):
    if b == 0:
        return 0
    sa, sb = _signed(a), _signed(b)
    q = abs(sa) // abs(sb)
    return -q if (sa < 0) != (sb < 0) else q


def _mod(a, b):
    return a % b if b else 0


def _smod(a, b):
    if b == 0:
        return 0
    sa, sb = _signed(a), _signed(b)
    r = abs(sa) % abs(sb)
    return -r if sa < 0 else r


def _signextend(a, b):
    if a >= 32:
        return b
    bit = 8 * a + 7
    mask = (1 << (bit + 1)) - 1
    return b | (MASK ^ mask) if b & (1 << bit) else b & mask


def _byte(a, b):
    return (b >> (8 * (31 - a))) & 0xFF if a < 32 else 0


def _shl(a, b):
    return b << a if a < 256 else 0


def _shr(a, b):
    return b >> a if a < 256 else 0


def _sar(a, b):
    if a >= 256:
        return MASK if b >> 255 else 0
    return _signed(b) >> a


_UNARY = {
    "ISZERO": lambda a: int(a == 0),
    "NOT": lambda a: a ^ MASK,
}

_BINARY = {
    "ADD": lambda a, b: a + b,
    "MUL": lambda a, b: a * b,
    "SUB": lambda a, b: a - b,
    "DIV": _div,
    "SDIV": _sdiv,
    "MOD": _mod,
    "SMOD": _smod,
    "EXP": lambda a, b: pow(a, b, W),
    "SIGNEXTEND": _signextend,
    "LT": lambda a, b: int(a < b),
    "GT": lambda a, b: int(a > b),
    "SLT": lambda a, b: int(_signed(a) < _signed(b)),
    "SGT": lambda a, b: int(_signed(a) > _signed(b)),
    "EQ": lambda a, b: int(a == b),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "BYTE": _byte,
    "SHL": _shl,
    "SHR": _shr,
    "SAR": _sar,
}

_TERNARY = {
    "ADDMOD": lambda a, b, c: (a + b) % c if c else 0,
    "MULMOD": lambda a, b, c: (a * b) % c if c else 0,
}

SUPPORTED = sorted(set(_UNARY) | set(_BINARY) | set(_TERNARY))
