"""Disassembly, basic-block recovery and dispatcher-entry discovery.

A unit's code is decoded once, by one pass of the token kernel: one
``bytes`` token per instruction, from which ``Code`` takes each
instruction's start pc and the JUMPDEST set. An ``Instruction`` is built
only where it is read. ``Cfg.block`` builds a basic block the first time
the engine reaches its start, and ``find_function_entry`` decodes only the
instructions after a byte-search hit for ``PUSH4 selector``, so code the
engine never reaches is never decoded. Iterating a ``Code`` decodes every
instruction, as ``sleepscan disasm`` does.

0x5F always decodes as PUSH0: compilers below 0.8.20 never emit it in
reachable code, so the decoder needs no compiler version.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from operator import eq
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


@dataclass(slots=True)
class BasicBlock:
    start_pc: int
    instructions: list[Instruction]
    # set by the engine on the block's second entry and shared by every
    # exploration of the unit: the (handler, instr, arg) ops, and the lowest
    # and highest entry stack depth at which none underflows or overflows
    ops: tuple | None = None
    low: int = 0
    high: int = 0
    entered: bool = False  # entered before: the next entry builds the ops


_NAMES = tuple(opcodes.mnemonic(byte) for byte in range(256))
_TERMINATORS = {"JUMP", "JUMPI", "STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"}
# byte -> whether a block ends after it: a terminator or an unknown byte
_BLOCK_END = tuple(byte not in opcodes.TABLE or _NAMES[byte] in _TERMINATORS
                   for byte in range(256))
_JUMPDEST = opcodes.MNEMONIC_TO_BYTE["JUMPDEST"]
_JUMPDEST_TOKEN = bytes([_JUMPDEST])
_EQ = opcodes.MNEMONIC_TO_BYTE["EQ"]
_JUMPI = opcodes.MNEMONIC_TO_BYTE["JUMPI"]
_PUSH4 = opcodes.MNEMONIC_TO_BYTE["PUSH4"]


class Code(Sequence):
    """A unit's instructions, decoded from their tokens where they are read.

    ``len`` is the instruction count; indexing, slicing and iteration build
    ``Instruction``s, whose ``src`` is the ordinal.
    """

    __slots__ = ("raw", "tokens", "pcs", "jumpdests")

    def __init__(self, raw: bytes, tokens: list[bytes]):
        self.raw = raw
        self.tokens = tokens
        # ordinal -> start pc, and one more entry: the end of the code
        self.pcs = list(accumulate(map(len, tokens), initial=0))
        self.jumpdests = frozenset(
            compress(self.pcs, map(eq, tokens, repeat(_JUMPDEST_TOKEN))))

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[ordinal] for ordinal in range(len(self))[index]]
        ordinal = range(len(self))[index]
        return self.decode(ordinal, ordinal + 1)[0]

    def __iter__(self):
        return iter(self.decode(0, len(self)))

    def decode(self, start: int, stop: int) -> list[Instruction]:
        """The instructions of ordinals ``start`` to ``stop``, in one loop."""
        # tuple.__new__ skips the NamedTuple's generated __new__, a
        # Python-level call per instruction
        new, names, from_bytes = tuple.__new__, _NAMES, int.from_bytes
        tokens, pcs = self.tokens, self.pcs
        instrs = []
        append = instrs.append
        for idx in range(start, stop):
            token = tokens[idx]
            byte = token[0]
            if len(token) > 1:
                value = from_bytes(token[1:], "big")
            else:
                value = 0 if byte == 0x5F else None
            append(new(Instruction, (pcs[idx], byte, names[byte], value, pcs[idx + 1], idx)))
        return instrs

    def ordinal(self, pc: int) -> int | None:
        """The ordinal of the instruction starting at ``pc``, if one does."""
        idx = bisect_left(self.pcs, pc)
        if idx < len(self.tokens) and self.pcs[idx] == pc:
            return idx
        return None


def _leads(tokens: list[bytes], idx: int) -> bool:
    """Whether ordinal ``idx`` starts a basic block: it is the first
    instruction, a JUMPDEST, or follows a terminator or an unknown byte."""
    return not idx or tokens[idx] == _JUMPDEST_TOKEN or _BLOCK_END[tokens[idx - 1][0]]


@dataclass
class Cfg:
    code: Code
    jumpdests: frozenset[int]  # the valid jump targets
    # start pc -> block, filled by ``block`` as blocks are reached
    block_at: dict[int, BasicBlock] = field(default_factory=dict)

    def block(self, pc: int) -> BasicBlock | None:
        """The basic block starting at ``pc``, built on first reach; None for
        a pc past the code or inside a block. A block ends before a
        JUMPDEST, and after a terminator or an unknown byte. These are the
        engine's units of straight-line execution."""
        block = self.block_at.get(pc)
        if block is not None:
            return block
        code = self.code
        tokens = code.tokens
        first = code.ordinal(pc)
        if first is None or not _leads(tokens, first):
            return None
        stop = first + 1  # the next leader, or the end of the code
        while stop < len(tokens) and not _leads(tokens, stop):
            stop += 1
        block = self.block_at[pc] = BasicBlock(pc, code.decode(first, stop))
        return block

    @property
    def blocks(self) -> list[BasicBlock]:
        """Every block in pc order: the whole partition, built where not yet
        reached."""
        blocks = []
        pc = 0
        while pc < len(self.code.raw):
            blocks.append(self.block(pc))
            pc = blocks[-1].instructions[-1].next_pc
        return blocks


def disassemble(code: bytes) -> Code:
    """Decode metadata-stripped runtime bytecode: one kernel pass, with no
    ``Instruction`` built until one is read."""
    raw = bytes(code)
    tokens, truncated_at = _core.decode_raw(raw)
    if truncated_at >= 0:
        raise TruncatedPush(f"PUSH immediate at pc {truncated_at} overruns end of code")
    return Code(raw, tokens)


def build_cfg(code: Code) -> Cfg:
    """The unit's control-flow view; its blocks are built as they are reached."""
    return Cfg(code, code.jumpdests)


def find_function_entry(cfg: Cfg, selector: int) -> int | None:
    """Locate the JUMPDEST the dispatcher jumps to for ``selector``.

    Matches the conventional ``PUSH4 sel; EQ; PUSH dest; JUMPI`` pattern,
    tolerating a few interleaved instructions inside one basic block. An
    ``EQ`` must lie between the ``PUSH4`` and the ``JUMPI``, so the pivot of
    a split dispatcher (``PUSH4 sel; GT; PUSH low; JUMPI``) is not taken for
    the entry. Returns the first match in pc order.
    """
    code = cfg.code
    tokens = code.tokens
    needle = bytes([_PUSH4]) + selector.to_bytes(4, "big")
    hit = code.raw.find(needle)
    while hit >= 0:
        first = code.ordinal(hit)
        if first is not None:
            seen_eq = False
            for idx in range(first + 1, min(first + 8, len(tokens))):
                byte = tokens[idx][0]
                if byte == _JUMPDEST:  # the next block starts
                    break
                if byte == _EQ:
                    seen_eq = True
                elif byte == _JUMPI and seen_eq:
                    dest = code[idx - 1].push_value
                    if dest in cfg.jumpdests:
                        return dest
                if _BLOCK_END[byte]:
                    break
        hit = code.raw.find(needle, hit + 1)
    return None


def dump_listing(instrs: Sequence[Instruction], source_map: list[Span],
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
