"""Disassembly, basic-block recovery and dispatcher-entry discovery.

0x5F always decodes as PUSH0: compilers below 0.8.20 never emit it in
reachable code, so the decoder needs no compiler version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from sleepscan import _core, opcodes
from sleepscan.errors import TruncatedPush
from sleepscan.ingestion import Span


class Instruction(NamedTuple):
    pc: int
    byte: int
    name: str
    push_value: int | None  # a PUSH's operand (0 for PUSH0); None for other opcodes
    next_pc: int
    src: int  # index into the source map (= instruction ordinal)

    def __str__(self) -> str:
        width = self.next_pc - self.pc - 1
        if width:
            return f"{self.name} 0x{self.push_value:0{2 * width}x}"
        return self.name


@dataclass
class BasicBlock:
    start_pc: int
    instructions: list[Instruction]
    terminator: str  # jump / conditional-jump / stop / return / revert / invalid / selfdestruct / fallthrough


_NAMES = tuple(opcodes.mnemonic(byte) for byte in range(256))
_TERMINATOR_KIND = {
    "JUMP": "jump",
    "JUMPI": "conditional-jump",
    "STOP": "stop",
    "RETURN": "return",
    "REVERT": "revert",
    "INVALID": "invalid",
    "SELFDESTRUCT": "selfdestruct",
}
# byte -> the kind of block it ends (an unknown byte ends one as "invalid")
_BLOCK_END = tuple(_TERMINATOR_KIND.get(_NAMES[byte]) if byte in opcodes.TABLE else "invalid"
                   for byte in range(256))
_JUMPDEST = opcodes.MNEMONIC_TO_BYTE["JUMPDEST"]


@dataclass
class Cfg:
    blocks: list[BasicBlock]
    instruction_by_pc: dict[int, Instruction] = field(default_factory=dict)

    def is_jumpdest(self, pc: int) -> bool:
        """Whether ``pc`` is a valid jump target."""
        instr = self.instruction_by_pc.get(pc)
        return instr is not None and instr.name == "JUMPDEST"


def disassemble(code: bytes) -> list[Instruction]:
    """Decode metadata-stripped runtime bytecode into instructions."""
    raw, truncated_at = _core.decode_raw(bytes(code))
    if truncated_at >= 0:
        raise TruncatedPush(f"PUSH immediate at pc {truncated_at} overruns end of code")
    # tuple.__new__ skips the NamedTuple's generated __new__, a Python-level
    # call per instruction
    new, names, from_bytes = tuple.__new__, _NAMES, int.from_bytes
    instrs = []
    append = instrs.append
    for idx, (pc, byte, imm) in enumerate(raw):
        if imm:
            append(new(Instruction, (pc, byte, names[byte], from_bytes(imm, "big"),
                                     pc + 1 + len(imm), idx)))
        else:
            append(new(Instruction, (pc, byte, names[byte], 0 if byte == 0x5F else None,
                                     pc + 1, idx)))
    return instrs


def build_cfg(instrs: list[Instruction]) -> Cfg:
    """Partition instructions into basic blocks, in one pass: a block ends
    before a JUMPDEST, and after a terminator or an unknown byte."""
    blocks: list[BasicBlock] = []
    start = 0
    for idx, ins in enumerate(instrs):
        byte = ins.byte
        if byte == _JUMPDEST and idx > start:
            blocks.append(BasicBlock(instrs[start].pc, instrs[start:idx], "fallthrough"))
            start = idx
        kind = _BLOCK_END[byte]
        if kind is not None:
            blocks.append(BasicBlock(instrs[start].pc, instrs[start:idx + 1], kind))
            start = idx + 1
    if start < len(instrs):
        blocks.append(BasicBlock(instrs[start].pc, instrs[start:], "fallthrough"))
    return Cfg(blocks, {ins.pc: ins for ins in instrs})


def find_function_entry(cfg: Cfg, selector: int) -> int | None:
    """Locate the JUMPDEST the dispatcher jumps to for ``selector``.

    Matches the conventional ``PUSH4 sel; EQ; PUSH dest; JUMPI`` pattern,
    tolerating a few interleaved instructions.
    """
    for block in cfg.blocks:
        instrs = block.instructions
        for i, ins in enumerate(instrs):
            if ins.name != "PUSH4" or ins.push_value != selector:
                continue
            for j in range(i + 1, min(i + 8, len(instrs))):
                nxt = instrs[j]
                if nxt.name == "JUMPI" and j > i + 1:
                    dest = instrs[j - 1].push_value
                    if dest is not None and cfg.is_jumpdest(dest):
                        return dest
    return None


def dump_listing(instrs: list[Instruction], source_map: list[Span],
                 sources: dict[int, str]) -> str:
    """Debug text listing: ``pc: opcode immediate  ; source-snippet``."""
    lines = []
    for ins in instrs:
        snippet = ""
        if ins.src < len(source_map):  # a listing does not check the map's length
            start, length, file_id = source_map[ins.src]
            text = sources.get(file_id)
            if text is not None and file_id >= 0:
                raw = text[start:start + length]
                snippet = "  ; " + " ".join(raw.split())[:48]
        lines.append(f"{ins.pc:6d}: {ins}{snippet}")
    return "\n".join(lines)
