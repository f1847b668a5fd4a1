"""The eager decoder the lazy one must agree with: a per-byte decode loop, a
one-pass block partition of every instruction, and a dispatcher-entry scan
over every block. Nothing here is shared with ``sleepscan.disasm`` but the
``Instruction`` type and the opcode table.
"""

from __future__ import annotations

from sleepscan import opcodes
from sleepscan.disasm import Instruction

TERMINATORS = {"JUMP", "JUMPI", "STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"}


def decode(code: bytes) -> list[Instruction] | None:
    """Every instruction of ``code``, or None when a PUSH overruns its end."""
    out = []
    pc = 0
    while pc < len(code):
        byte = code[pc]
        name = opcodes.mnemonic(byte)
        if 0x60 <= byte <= 0x7F:
            width = byte - 0x5F
            if pc + 1 + width > len(code):
                return None
            value = int.from_bytes(code[pc + 1:pc + 1 + width], "big")
        else:
            width = 0
            value = 0 if byte == 0x5F else None
        out.append(Instruction(pc, byte, name, value, pc + 1 + width, len(out)))
        pc += 1 + width
    return out


def _ends_block(ins: Instruction) -> bool:
    return ins.name in TERMINATORS or ins.byte not in opcodes.TABLE


def blocks(instrs: list[Instruction]) -> dict[int, list[Instruction]]:
    """Start pc -> instructions of every basic block: a block ends before a
    JUMPDEST, and after a terminator or an unknown byte."""
    out: dict[int, list[Instruction]] = {}
    current: list[Instruction] = []
    for ins in instrs:
        if ins.name == "JUMPDEST" and current:
            out[current[0].pc] = current
            current = []
        current.append(ins)
        if _ends_block(ins):
            out[current[0].pc] = current
            current = []
    if current:
        out[current[0].pc] = current
    return out


def jumpdests(instrs: list[Instruction]) -> set[int]:
    return {ins.pc for ins in instrs if ins.name == "JUMPDEST"}


def find_function_entry(instrs: list[Instruction], selector: int) -> int | None:
    """The first ``PUSH4 selector``, or push of the selector in its fewest
    bytes, in pc order followed, within 7 instructions of its block, by an
    ``EQ`` and then a ``JUMPI`` whose preceding PUSH names a JUMPDEST."""
    pushes = ("PUSH4", f"PUSH{max(1, (selector.bit_length() + 7) // 8)}")
    targets = jumpdests(instrs)
    for block in blocks(instrs).values():
        for i, ins in enumerate(block):
            if ins.name not in pushes or ins.push_value != selector:
                continue
            window = block[i + 1:i + 8]
            for j, nxt in enumerate(window):
                if (nxt.name == "JUMPI" and any(w.name == "EQ" for w in window[:j])
                        and window[j - 1].push_value in targets):
                    return window[j - 1].push_value
    return None
