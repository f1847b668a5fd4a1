"""Disassembly, the basic-block partition and dispatcher-entry discovery.

A unit's code is decoded once, by one pass of the token kernel: one
``bytes`` token per instruction, from which ``Code`` takes each
instruction's start pc and the JUMPDEST set. An ``Instruction`` is built
only where it is read, and only by ``Code.decode``. ``_leads`` is the
partition rule: ``Code.block`` scans the tokens for the end of the block
that starts at a pc, decodes that range and caches nothing,
``Code.blocks`` lists the block starts and decodes nothing, and
``find_function_entry`` decodes only the instructions after a byte-search
hit for a push of the selector, in 4 bytes or in its fewest. The engine
builds each block's execution form on its first reach and keeps it in
``Code.block_at``, so code it never reaches is never decoded, and gives
each JUMPDEST it reaches a bit in ``Code.visit_bit``. Iterating a ``Code`` decodes every
instruction, as ``sleepscan disasm`` does.

0x5F always decodes as PUSH0: compilers below 0.8.20 never emit it in
reachable code, so the decoder needs no compiler version.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
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


_NAMES = tuple(opcodes.mnemonic(byte) for byte in range(256))
_TERMINATORS = {"JUMP", "JUMPI", "STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"}
# byte -> whether a block ends after it: a terminator or an unknown byte
_BLOCK_END = tuple(byte not in opcodes.TABLE or _NAMES[byte] in _TERMINATORS
                   for byte in range(256))
_JUMPDEST_TOKEN = bytes([opcodes.MNEMONIC_TO_BYTE["JUMPDEST"]])
_EQ = opcodes.MNEMONIC_TO_BYTE["EQ"]
_JUMPI = opcodes.MNEMONIC_TO_BYTE["JUMPI"]
_PUSH1 = opcodes.MNEMONIC_TO_BYTE["PUSH1"]


class Code(Sequence):
    """A unit's instructions, decoded from their tokens where they are read,
    and its basic-block partition.

    ``len`` is the instruction count; indexing and iteration build
    ``Instruction``s, whose ``src`` is the ordinal.
    """

    __slots__ = ("raw", "tokens", "pcs", "jumpdests", "block_at", "visit_bit")

    def __init__(self, raw: bytes, tokens: list[bytes]):
        self.raw = raw
        self.tokens = tokens
        # ordinal -> start pc, and one more entry: the end of the code
        self.pcs = list(accumulate(map(len, tokens), initial=0))
        # the valid jump targets
        self.jumpdests = frozenset(
            compress(self.pcs, map(eq, tokens, repeat(_JUMPDEST_TOKEN))))
        # start pc -> the block's execution form, filled by the engine as
        # blocks are reached and shared by every function of the unit
        self.block_at: dict[int, tuple] = {}
        # JUMPDEST pc -> its bit in a path's visited set, given by the engine
        # on the first reach in the unit
        self.visit_bit: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, index: int) -> Instruction:
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

    def block(self, pc: int) -> list[Instruction] | None:
        """The instructions of the basic block starting at ``pc``; None for a
        pc past the code or inside a block. A block ends before a JUMPDEST,
        and after a terminator or an unknown byte. These are the engine's
        units of straight-line execution."""
        tokens = self.tokens
        first = self.ordinal(pc)
        if first is None or not _leads(tokens, first):
            return None
        end = first + 1
        while end < len(tokens) and not _leads(tokens, end):
            end += 1
        return self.decode(first, end)

    @property
    def blocks(self) -> list[int]:
        """Every block's start pc, in pc order; nothing is decoded."""
        tokens = self.tokens
        return [self.pcs[idx] for idx in range(len(tokens)) if _leads(tokens, idx)]


def _leads(tokens: list[bytes], idx: int) -> bool:
    """Whether ordinal ``idx`` starts a basic block: it is the first
    instruction, a JUMPDEST, or follows a terminator or an unknown byte."""
    return not idx or tokens[idx] == _JUMPDEST_TOKEN or _BLOCK_END[tokens[idx - 1][0]]


def disassemble(code: bytes) -> Code:
    """Decode metadata-stripped runtime bytecode: one kernel pass, with no
    ``Instruction`` built until one is read."""
    raw = bytes(code)
    tokens, truncated_at = _core.decode_raw(raw)
    if truncated_at >= 0:
        raise TruncatedPush(f"PUSH immediate at pc {truncated_at} overruns end of code")
    return Code(raw, tokens)


def build_cfg(code: Code) -> Code:
    """``code`` itself, which is also the unit's control-flow view. Kept only
    as the name the benchmark tracer wraps and the acceptance tests call
    (``build_cfg(disassemble(code))``); it goes when the tracer stops
    wrapping it."""
    return code


def find_function_entry(code: Code, selector: int) -> int | None:
    """Locate the JUMPDEST the dispatcher jumps to for ``selector``.

    Matches the conventional ``PUSH4 sel; EQ; PUSH dest; JUMPI`` pattern, or
    solc's push of ``sel`` in its fewest bytes (``PUSH3 0xfdd58e``),
    tolerating a few interleaved instructions inside one basic block. An
    ``EQ`` must lie between the push and the ``JUMPI``, so the pivot of a
    split dispatcher (``PUSH4 sel; GT; PUSH low; JUMPI``) is not taken for
    the entry. Returns the first match in pc order.
    """
    tokens, raw = code.tokens, code.raw
    hits = []
    for width in {4, max(1, (selector.bit_length() + 7) // 8)}:
        needle = bytes([_PUSH1 + width - 1]) + selector.to_bytes(width, "big")
        hit = raw.find(needle)
        while hit >= 0:
            hits.append(hit)
            hit = raw.find(needle, hit + 1)
    for first in map(code.ordinal, sorted(hits)):
        if first is not None:
            seen_eq = False
            for idx in range(first + 1, min(first + 8, len(tokens))):
                if _leads(tokens, idx):  # the window ends with the block
                    break
                byte = tokens[idx][0]
                if byte == _EQ:
                    seen_eq = True
                elif byte == _JUMPI and seen_eq:
                    dest = code[idx - 1].push_value
                    if dest in code.jumpdests:
                        return dest
    return None


def dump_listing(instrs: Sequence[Instruction], source_map: list[Span],
                 sources: dict[int, bytes]) -> str:
    """Debug text listing: ``pc: opcode immediate  ; source-snippet``."""
    lines = []
    for ins in instrs:
        snippet = ""
        if ins.src < len(source_map):  # a listing does not check the map's length
            start, length, file_id = source_map[ins.src]
            text = sources.get(file_id)
            if text is not None and file_id >= 0:
                raw = text[start:start + length].decode(errors="replace")
                snippet = "  ; " + " ".join(raw.split())[:48]
        lines.append(f"{ins.pc:6d}: {ins}{snippet}")
    return "\n".join(lines)
