"""Random straight-line concrete programs for differential testing."""

from __future__ import annotations

import random

import oracle_evm

from sleepscan.opcodes import MNEMONIC_TO_BYTE

_ARITY = {name: (2 if name in oracle_evm._BINARY else
                 1 if name in oracle_evm._UNARY else 3)
          for name in oracle_evm.SUPPORTED}


def random_program(rng: random.Random, length: int = 24,
                   max_stack: int = 14) -> list[tuple[str, tuple[int, ...]]]:
    """Arity-safe sequence of PUSH/DUP/SWAP/POP and modeled ALU ops."""
    program: list[tuple[str, tuple[int, ...]]] = []
    depth = 0
    ops = oracle_evm.SUPPORTED
    for _ in range(length):
        choices = ["push"]
        if depth > 0:
            choices += ["pop", "dup", "swap"]
        usable = [op for op in ops if _ARITY[op] <= depth]
        if usable and depth <= max_stack:
            choices += ["alu", "alu", "alu"]  # bias toward real computation
        kind = rng.choice(choices)
        if kind == "push" or depth >= max_stack:
            width = rng.choice([1, 1, 2, 4, 8, 16, 32])
            value = rng.getrandbits(8 * width)
            program.append((f"PUSH{width}", (value,)))
            depth += 1
        elif kind == "pop":
            program.append(("POP", ()))
            depth -= 1
        elif kind == "dup":
            n = rng.randint(1, min(depth, 16))
            program.append((f"DUP{n}", ()))
            depth += 1
        elif kind == "swap":
            n = rng.randint(1, min(depth - 1, 16)) if depth > 1 else 0
            if n == 0:
                program.append(("POP", ()))
                depth -= 1
            else:
                program.append((f"SWAP{n}", ()))
        else:
            op = rng.choice(usable)
            program.append((op, ()))
            depth -= _ARITY[op] - 1
    return program


# memory offsets around word boundaries, so that writes overlap reads
# exactly, partly and not at all
MEMORY_OFFSETS = (0, 1, 16, 31, 32, 33, 64)


def random_memory_program(rng: random.Random, length: int = 24,
                          max_stack: int = 14) -> list[tuple[str, tuple[int, ...]]]:
    """Arity-safe sequence of PUSH/DUP/SWAP/POP and MSTORE/MSTORE8/MLOAD, each
    memory op at a concrete offset pushed just before it."""
    program: list[tuple[str, tuple[int, ...]]] = []
    depth = 0
    for _ in range(length):
        choices = ["push", "mload"] if depth < max_stack else []
        if depth > 0:
            choices += ["pop", "mstore", "mstore", "mstore8"]
        if 0 < depth < max_stack:
            choices += ["dup"]
        if depth > 1:
            choices += ["swap"]
        kind = rng.choice(choices)
        if kind == "push":
            program.append(("PUSH32", (rng.getrandbits(256),)))
            depth += 1
        elif kind == "pop":
            program.append(("POP", ()))
            depth -= 1
        elif kind == "dup":
            program.append((f"DUP{rng.randint(1, min(depth, 16))}", ()))
            depth += 1
        elif kind == "swap":
            program.append((f"SWAP{rng.randint(1, min(depth - 1, 16))}", ()))
        else:
            program.append(("PUSH1", (rng.choice(MEMORY_OFFSETS),)))
            program.append((kind.upper(), ()))
            depth += 0 if kind == "mload" else -1
    return program


def to_bytecode(program: list[tuple[str, tuple[int, ...]]]) -> bytes:
    code = bytearray()
    for name, operands in program:
        code.append(MNEMONIC_TO_BYTE[name])
        if name.startswith("PUSH") and name != "PUSH0":
            width = int(name[4:])
            code.extend(operands[0].to_bytes(width, "big"))
    return bytes(code)
