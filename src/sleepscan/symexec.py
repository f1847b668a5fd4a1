"""Symbolic execution of Transfer-emitting functions.

One exploration is single-threaded and owns its states; the information the
detectors need is gathered at four checkpoints: CALLDATALOAD (parameter
binding), SLOAD/SSTORE (storage provenance and the store mark), the source
span of ownerOf's return statement (owner trace), and LOG4 with the Transfer
topic hash (the emission snapshot). Execution continues past an emission so
its record carries the store mark at the path's exit.

A path record is kept only for a Transfer emission on a path that exits
normally; every path end, and every emission, is counted by
``(end kind, diagnostic)`` in ``ExplorationResult.ends``.

External calls are not followed: they produce a fresh value and taint the
path, and findings on tainted paths are downgraded, not suppressed.

Every opcode's semantics is one handler in ``_DISPATCH``, an unknown byte's
included; ``Engine.step`` runs one instruction after its stack-depth checks.
``Engine.explore`` runs straight-line code a basic block of the unit's
``Code`` at a time: every path enters a block at its start, so no pc inside
a block is ever looked up. A block is decoded when a path first enters it,
and its ops (each instruction's handler, and a PUSH's value as a ``Const``)
and the entry stack depths at which none of them underflows or overflows
are built then too and kept on the block, so every function of the unit
shares them and code no path reaches is never decoded. A block is taken
whole when the stack depth lies in that range, no deadline read (every 256
steps) falls inside it and it ends within ``max_steps``; otherwise its
instructions go through ``Engine.step`` one at a time, so path ends,
diagnostics and step counts are those of stepping every instruction.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from sleepscan import constraints as con
from sleepscan import opcodes, sym
from sleepscan.astview import FunctionInfo, SlotInfo, storage_layout
from sleepscan.constraints import Constraint, ConstraintSet
from sleepscan.disasm import BasicBlock, Code, Instruction, find_function_entry
from sleepscan.errors import EntryNotFound
from sleepscan.ingestion import CompilationUnit, Span
from sleepscan.keccak import TRANSFER_TOPIC
from sleepscan.sym import Const, FreshExternal, Op, Parameter, SymValue, Var


MAX_STACK = 1024
_DEADLINE_EVERY = 256  # steps between two reads of the clock
_UNBOUNDED = 1 << 256  # the width of a write whose size is symbolic

END_EMISSION = "transfer-emission"
END_EXIT = "normal-exit"
END_REVERT = "revert"
END_BUDGET = "budget-exhausted"


@dataclass
class ExplorationBudget:
    max_steps: int = 100_000
    max_paths: int = 512
    loop_bound: int = 3
    deadline: float | None = None  # absolute time.monotonic() cutoff, read every 256 steps

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


@dataclass(frozen=True)
class _EmissionSnapshot:
    pc: int
    from_topic: SymValue  # the event's indexed ``from``
    constraints: ConstraintSet
    owner_trace: tuple[SymValue, ...]
    tainted: bool
    src: Span


@dataclass
class MachineState:
    pc: int
    stack: list[SymValue] = field(default_factory=list)
    memory: list[tuple[SymValue, SymValue, int]] = field(default_factory=list)
    storage_writes: list[tuple[SymValue, SymValue]] = field(default_factory=list)
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    sstore_mark: bool = False
    owner_trace: tuple[SymValue, ...] = ()
    pending_owner: SymValue | None = None
    tainted: bool = False
    jumpdest_visits: dict[int, int] = field(default_factory=dict)
    snapshots: list[_EmissionSnapshot] = field(default_factory=list)

    def fork(self) -> "MachineState":
        # skips the dataclass __init__ and its keyword arguments; the fields
        # are set in __init__'s order and never through __dict__, so the
        # state keeps the attribute layout every state shares
        forked = object.__new__(MachineState)
        forked.pc = self.pc
        forked.stack = self.stack[:]
        forked.memory = self.memory[:]
        forked.storage_writes = self.storage_writes[:]
        forked.constraints = self.constraints
        forked.sstore_mark = self.sstore_mark
        forked.owner_trace = self.owner_trace
        forked.pending_owner = self.pending_owner
        forked.tainted = self.tainted
        forked.jumpdest_visits = self.jumpdest_visits.copy()
        forked.snapshots = self.snapshots[:]
        return forked


@dataclass(frozen=True)
class PathRecord:
    """One Transfer emission on a path that exited normally."""

    function: FunctionInfo
    end_kind: str  # always END_EMISSION
    constraints: ConstraintSet
    owner_trace: tuple[SymValue, ...]
    from_param: SymValue | None
    sstore_mark_at_exit: bool
    tainted: bool
    path_id: int
    emission_pc: int
    emission_src: Span


@dataclass
class ExplorationResult:
    records: list[PathRecord]
    # (end kind, diagnostic) -> paths; each emission counts once more, as
    # transfer-emission on a normal exit and as budget-exhausted on a cut
    ends: Counter
    timed_out: bool = False
    steps_used: int = 0
    paths_finished: int = 0


class _KillPath(Exception):
    """Internal: abandon the current path with a diagnostic end kind."""

    def __init__(self, end_kind: str, reason: str):
        self.end_kind = end_kind
        self.reason = reason


# --------------------------------------------------------------------------

class UnitFacts(NamedTuple):
    """What the engine reads of a unit beyond its code, decided once per unit."""

    layout: dict[int, SlotInfo]
    # the distinct source-map spans inside an ownerOf return statement
    owner_spans: frozenset[Span]


def unit_facts(unit: CompilationUnit, binding: tuple[Span, ...]) -> UnitFacts:
    owner_spans = frozenset(
        span for span in set(unit.source_map)
        if span[2] >= 0 and any(_span_contains(ret, span) for ret in binding)
    ) if binding else frozenset()
    return UnitFacts(storage_layout(unit), owner_spans)


class Engine:
    def __init__(self, unit: CompilationUnit, cfg: Code, fn: FunctionInfo,
                 facts: UnitFacts, budget: ExplorationBudget):
        self.unit = unit
        self.cfg = cfg
        self.fn = fn
        self.budget = budget
        self.layout, self.owner_spans = facts
        self.param_vars: dict[int, Var] = {}
        self.storage_vars: dict[str, Var] = {}
        self.memory_fresh: dict[str, Var] = {}
        self.site_fresh: dict[tuple[int, int], Var] = {}
        # id(condition) -> (condition, taken constraints, negated fallthrough);
        # the entry holds the condition, so its id is not reused
        self.branch_constraints: dict[int, tuple] = {}
        self.records: list[PathRecord] = []
        self.ends: Counter = Counter()
        self.steps_used = 0
        self.paths_finished = 0
        self.timed_out = False

    # -- helpers ------------------------------------------------------------

    def _fresh(self, pc: int, origin: str, is_address: bool = False) -> Var:
        key = (pc, origin)
        if key not in self.site_fresh:
            self.site_fresh[key] = Var(f"ext_{origin}_{pc}", FreshExternal(origin),
                                       is_address)
        return self.site_fresh[key]

    def _param_var(self, index: int) -> Var:
        if index not in self.param_vars:
            if index < len(self.fn.params):
                name, abi_type = self.fn.params[index]
                name = name or f"param_{index}"
                is_address = abi_type == "address"
            else:
                name, is_address = f"param_{index}", False
            self.param_vars[index] = Var(name, Parameter(index), is_address)
        return self.param_vars[index]

    def _storage_read(self, state: MachineState, slot: SymValue) -> SymValue:
        for written_slot, value in reversed(state.storage_writes):
            if written_slot == slot:
                return value
        key = repr(slot)
        if key in self.storage_vars:
            return self.storage_vars[key]
        var = self._name_storage(slot)
        self.storage_vars[key] = var
        return var

    def _name_storage(self, slot: SymValue) -> Var:
        base_slot = _mapping_base_slot(slot)
        if base_slot is not None:
            info = self.layout.get(base_slot)
            base_name = info.name if info else f"slot{base_slot}"
            name = f"{base_name}[...]"
            is_address = info.mapping_value_is_address if info else False
            return Var(name, sym.StorageMapping(slot, name), is_address)
        if isinstance(slot, Const):
            info = self.layout.get(slot.value)
            name = info.name if info else f"slot{slot.value}"
            return Var(name, sym.StorageDirect(slot, name),
                       info.is_address if info else False)
        name = f"storage@{slot!r}"
        return Var(name, sym.StorageDirect(slot, name), False)

    def _read_memory_word(self, state: MachineState, offset: SymValue) -> SymValue:
        start = sym.const_value(offset)
        key = repr(offset)
        for written_offset, value, width in reversed(state.memory):
            if width == 32 and written_offset == offset:
                return value
            written_start = sym.const_value(written_offset)
            if (start is None or written_start is None
                    or written_start < start + 32 and start < written_start + width):
                # A write that may overlap the word without matching it (a
                # partial overwrite, or either offset symbolic): the word may
                # mix bytes of several writes. Memory only grows by appends,
                # so its length names this version.
                key = f"{key}@{len(state.memory)}"
                break
        if key not in self.memory_fresh:
            self.memory_fresh[key] = Var(f"mem_{len(self.memory_fresh)}",
                                         FreshExternal("memory"))
        return self.memory_fresh[key]

    # -- checkpoints --------------------------------------------------------

    def on_calldataload(self, pc: int, offset: SymValue) -> SymValue:
        value = sym.const_value(offset)
        if value is not None and value >= 4 and (value - 4) % 32 == 0:
            return self._param_var((value - 4) // 32)
        if value is not None:
            return self._fresh(pc, f"calldata_{value}")
        return self._fresh(pc, "calldata_sym")

    def on_sstore(self, state: MachineState, slot: SymValue, value: SymValue) -> None:
        state.storage_writes.append((slot, value))
        state.sstore_mark = True

    def on_log(self, state: MachineState, instr: Instruction, topic_count: int) -> None:
        del state.stack[-2:]  # memory offset and size: event data is not modeled
        topics = tuple(state.stack.pop() for _ in range(topic_count))
        if topic_count != 4:
            return
        topic0 = topics[0]
        if not (isinstance(topic0, Const) and topic0.value == TRANSFER_TOPIC):
            return
        self._commit_pending_owner(state)
        state.snapshots.append(_EmissionSnapshot(
            pc=instr.pc,
            from_topic=topics[1],
            constraints=state.constraints,
            owner_trace=state.owner_trace,
            tainted=state.tainted,
            src=self.unit.source_map[instr.src],
        ))

    def _owner_checkpoint(self, state: MachineState, instr: Instruction) -> None:
        if self.unit.source_map[instr.src] in self.owner_spans:
            if state.stack:
                state.pending_owner = state.stack[-1]
        else:
            self._commit_pending_owner(state)

    def _commit_pending_owner(self, state: MachineState) -> None:
        pending = state.pending_owner
        state.pending_owner = None
        if pending is None:
            return
        if state.owner_trace and state.owner_trace[-1] == pending:
            return  # duplicate capture of the same return, collapse
        state.owner_trace = state.owner_trace + (pending,)

    # -- single-instruction semantics ---------------------------------------

    def step(self, state: MachineState, instr: Instruction) -> list[MachineState]:
        handler, pops, pushes = _DISPATCH[instr.byte]
        depth = len(state.stack)
        if depth < pops:
            raise _KillPath(END_REVERT, f"stack underflow at {instr.pc} ({instr.name})")
        if depth - pops + pushes > MAX_STACK:
            raise _KillPath(END_REVERT, f"stack overflow at {instr.pc}")
        value = instr.push_value  # a PUSH's handler gets its value, as in a block's ops
        successors = handler(self, state, instr, pops if value is None else Const(value))
        if successors is not None:
            return successors
        state.pc = instr.next_pc
        if self.owner_spans:  # without a binding the checkpoint is a no-op
            self._owner_checkpoint(state, instr)
        return [state]

    def _clobber(self, state: MachineState, offset: SymValue, size: SymValue,
                 pc: int, origin: str) -> None:
        """A write of bytes the engine does not model: later reads of them
        see a fresh symbol, never the value they held before. A symbolic size
        may reach any byte from the offset on."""
        width = sym.const_value(size)
        if width is None:
            width = _UNBOUNDED
        if width:
            state.memory.append((offset, self._fresh(pc, origin), width))

    def _jump_target(self, target: SymValue, instr: Instruction) -> int:
        value = sym.const_value(target)
        if value is None:
            raise _KillPath(END_REVERT, f"symbolic jump target at {instr.pc}")
        if value not in self.cfg.jumpdests:
            raise _KillPath(END_REVERT, f"jump to non-JUMPDEST {value} at {instr.pc}")
        return value

    def _branch(self, state: MachineState, instr: Instruction,
                target: SymValue, condition: SymValue) -> list[MachineState]:
        value = sym.const_value(condition)
        if value is not None:
            if value:
                state.pc = self._jump_target(target, instr)
            else:
                state.pc = instr.next_pc
            return [state]
        target_pc = self._jump_target(target, instr)
        # one condition object reaches this JUMPI on every path forked after
        # it was built
        cached = self.branch_constraints.get(id(condition))
        if cached is None:
            taken = tuple(_condition_constraints(condition, True))
            cached = self.branch_constraints[id(condition)] = (
                condition, taken, taken[0].negated())
        _, taken, negated = cached
        fallthrough = state.fork()
        fallthrough.pc = instr.next_pc
        fallthrough.constraints = state.constraints.push(negated)
        state.pc = target_pc
        state.constraints = state.constraints.push(*taken)
        return [state, fallthrough]

    # -- path lifecycle -----------------------------------------------------

    def _finish_path(self, state: MachineState, end_kind: str,
                     diagnostic: str | None = None) -> None:
        path_id = self.paths_finished
        self.paths_finished += 1
        if state.snapshots and end_kind != END_REVERT:
            # counted before the path's own end, so kinds appear in path order
            emission_kind = END_EMISSION if end_kind == END_EXIT else END_BUDGET
            self.ends[emission_kind, None] += len(state.snapshots)
            if end_kind == END_EXIT:
                self.records.extend(PathRecord(
                    function=self.fn,
                    end_kind=END_EMISSION,
                    constraints=snapshot.constraints,
                    owner_trace=snapshot.owner_trace,
                    from_param=self.param_vars.get(0) or snapshot.from_topic,
                    sstore_mark_at_exit=state.sstore_mark,
                    tainted=snapshot.tainted,
                    path_id=path_id,
                    emission_pc=snapshot.pc,
                    emission_src=snapshot.src,
                ) for snapshot in state.snapshots)
        self.ends[end_kind, diagnostic] += 1

    # -- exploration loop ---------------------------------------------------

    def explore(self, entry_pc: int) -> ExplorationResult:
        budget = self.budget
        blocks = self.cfg.block_at
        build_block = self.cfg.block
        step = self.step
        owner_spans = self.owner_spans
        max_steps = budget.max_steps
        steps = self.steps_used
        worklist = [MachineState(pc=entry_pc)]
        while worklist:
            if self.timed_out or self.paths_finished >= budget.max_paths:
                reason = "wall-clock timeout" if self.timed_out else "path budget"
                for state in worklist:
                    self._finish_path(state, END_BUDGET, reason)
                break
            state = worklist.pop()
            while True:  # run one state a block at a time until its path forks or ends
                if not steps % _DEADLINE_EVERY and budget.expired():
                    self.timed_out = True
                    worklist.append(state)
                    break
                block = blocks.get(state.pc)
                if block is None:
                    block = build_block(state.pc)  # first reach
                    if block is None:
                        self._finish_path(state, END_REVERT, f"fell off code at pc {state.pc}")
                        break
                ops = block.ops
                if ops is None:  # first entry, or a block built outside the engine
                    ops = _build_ops(block)
                instrs = block.instructions
                count = len(instrs)
                entry_steps = steps
                try:
                    # whole only where stepping would pass every depth check,
                    # read no clock and stay within the step budget
                    if (block.low <= len(state.stack) <= block.high
                            and steps % _DEADLINE_EVERY + count <= _DEADLINE_EVERY
                            and steps + count <= max_steps):
                        steps += count
                        if owner_spans:
                            for handler, instr, arg in ops:
                                successors = handler(self, state, instr, arg)
                                if successors is None:
                                    self._owner_checkpoint(state, instr)
                        else:
                            for handler, instr, arg in ops:
                                successors = handler(self, state, instr, arg)
                        if successors is None:  # fell through to the next block
                            state.pc = instr.next_pc
                            continue
                    else:
                        for index, instr in enumerate(instrs):
                            # the block's first step was checked above
                            if index and not steps % _DEADLINE_EVERY and budget.expired():
                                self.timed_out = True
                                worklist.append(state)
                                successors = []
                                break
                            if steps >= max_steps:
                                self._finish_path(state, END_BUDGET, "step budget")
                                successors = []
                                break
                            steps += 1
                            successors = step(state, instr)
                except _KillPath as kill:
                    # the steps through the instruction that ended the path
                    steps = entry_steps + instrs.index(instr) + 1
                    self._finish_path(state, kill.end_kind, kill.reason)
                    break
                # only a block's last instruction may fork or end the path
                if len(successors) != 1:
                    worklist.extend(successors)
                    break
                state = successors[0]
        self.steps_used = steps
        return ExplorationResult(self.records, self.ends, self.timed_out,
                                 self.steps_used, self.paths_finished)


# --------------------------------------------------------------------------
# one handler per opcode; each runs after the stack-depth checks, gets the
# opcode's pop count (a PUSH gets its value as a Const), and returns None to
# fall through to the next instruction or else the successor states; a
# handler that may return successors ends a basic block

def _push(engine: Engine, state: MachineState, instr: Instruction, value: Const):
    state.stack.append(value)


def _dup(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    stack.append(stack[-pops])


def _swap(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    stack[-1], stack[-pops] = stack[-pops], stack[-1]


def _pop(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    state.stack.pop()


def _jumpdest(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    visits = state.jumpdest_visits.get(instr.pc, 0) + 1
    state.jumpdest_visits[instr.pc] = visits
    if visits > engine.budget.loop_bound:
        raise _KillPath(END_BUDGET, f"loop bound at jumpdest {instr.pc}")


def _jump(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    state.pc = engine._jump_target(state.stack.pop(), instr)
    if engine.owner_spans:
        engine._owner_checkpoint(state, instr)
    return [state]


def _jumpi(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    target = state.stack.pop()
    condition = state.stack.pop()
    if engine.owner_spans:
        engine._owner_checkpoint(state, instr)
    return engine._branch(state, instr, target, condition)


def _exit(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    engine._finish_path(state, END_EXIT)
    return []


def _revert(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    engine._finish_path(state, END_REVERT)
    return []


def _unknown(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    raise _KillPath(END_REVERT, f"unknown opcode 0x{instr.byte:02X} at {instr.pc}")


def _calldataload(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    stack.append(engine.on_calldataload(instr.pc, stack.pop()))


def _sload(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    stack.append(engine._storage_read(state, stack.pop()))


def _sstore(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    slot = stack.pop()
    engine.on_sstore(state, slot, stack.pop())


def _sha3(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    # a hash of one or two known words is kept as an expression: mapping slots
    stack = state.stack
    offset = sym.const_value(stack.pop())
    size = sym.const_value(stack.pop())
    if size in (32, 64) and offset is not None:
        words = tuple(engine._read_memory_word(state, Const(offset + 32 * index))
                      for index in range(size // 32))
        stack.append(Op("sha3", words))
    else:
        stack.append(engine._fresh(instr.pc, "sha3_unresolved"))


def _mload(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    stack.append(engine._read_memory_word(state, stack.pop()))


def _mstore(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    offset = stack.pop()
    state.memory.append((offset, stack.pop(), 32))


def _mstore8(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    offset = stack.pop()
    state.memory.append((offset, stack.pop(), 1))


def _log(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    engine.on_log(state, instr, pops - 2)


def _copy(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    # (EXTCODECOPY's address,) destination offset, source offset, size
    stack = state.stack
    offset, size = stack[-pops + 2], stack[-pops]
    del stack[-pops:]
    engine._clobber(state, offset, size, instr.pc, instr.name.lower())


def _call(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    # the output range is the last two arguments: offset, then size
    stack = state.stack
    offset, size = stack[-pops + 1], stack[-pops]
    del stack[-pops:]
    engine._clobber(state, offset, size, instr.pc, "returndata")
    state.tainted = True
    stack.append(engine._fresh(instr.pc, "call"))


def _create(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    del state.stack[-pops:]
    state.tainted = True
    state.stack.append(engine._fresh(instr.pc, "call"))


def _environment(var: Var):
    def environment(engine: Engine, state: MachineState, instr: Instruction, pops: int):
        state.stack.append(var)
    return environment


def _folding(op: str):
    def fold(engine: Engine, state: MachineState, instr: Instruction, pops: int):
        stack = state.stack
        args = stack[:-pops - 1:-1]  # top of stack first
        del stack[-pops:]
        stack.append(sym.make_op(op, *args))
    return fold


def _fresh_value(origin: str):
    """Remaining environment and introspection opcodes: a fresh value per site."""
    def fresh(engine: Engine, state: MachineState, instr: Instruction, pops: int):
        if pops:
            del state.stack[-pops:]
        state.stack.append(engine._fresh(instr.pc, origin))
    return fresh


_HANDLERS = {
    "POP": _pop, "JUMPDEST": _jumpdest, "JUMP": _jump, "JUMPI": _jumpi,
    "STOP": _exit, "RETURN": _exit, "SELFDESTRUCT": _exit,
    "REVERT": _revert, "INVALID": _revert,
    "CALLDATALOAD": _calldataload, "SLOAD": _sload, "SSTORE": _sstore,
    "SHA3": _sha3, "MLOAD": _mload, "MSTORE": _mstore, "MSTORE8": _mstore8,
    "CALLDATACOPY": _copy, "CODECOPY": _copy, "EXTCODECOPY": _copy,
    "RETURNDATACOPY": _copy,
    "CALL": _call, "CALLCODE": _call, "DELEGATECALL": _call, "STATICCALL": _call,
    "CREATE": _create, "CREATE2": _create,
}

_ENVIRONMENT_VARS = {
    "CALLER": Var("msg.sender", sym.Environment("caller"), True),
    "ADDRESS": Var("this.address", sym.Environment("address"), True),
    "ORIGIN": Var("tx.origin", sym.Environment("origin"), True),
    "CALLVALUE": Var("msg.value", sym.Environment("callvalue"), False),
    "TIMESTAMP": Var("block.timestamp", sym.Environment("timestamp"), False),
    "NUMBER": Var("block.number", sym.Environment("number"), False),
}


def _handler(name: str):
    for prefix, handler in (("PUSH", _push), ("DUP", _dup), ("SWAP", _swap), ("LOG", _log)):
        if name.startswith(prefix):
            return handler
    if name in _HANDLERS:
        return _HANDLERS[name]
    if name in _ENVIRONMENT_VARS:
        return _environment(_ENVIRONMENT_VARS[name])
    if name.lower() in sym.FOLDABLE:
        return _folding(name.lower())
    return _fresh_value(name.lower())


# byte -> (handler, pops, pushes)
_DISPATCH = tuple((_handler(entry[0]), entry[1], entry[2]) if entry else (_unknown, 0, 0)
                  for entry in map(opcodes.TABLE.get, range(256)))


def _build_ops(block: BasicBlock) -> tuple:
    """Set and return ``block``'s ``(handler, instr, arg)`` ops, with the
    lowest and highest entry stack depth at which no op underflows or
    overflows."""
    ops = []
    depth = low = peak = 0  # relative to the entry depth
    for instr in block.instructions:
        handler, pops, pushes = _DISPATCH[instr.byte]
        low = max(low, pops - depth)
        depth += pushes - pops
        peak = max(peak, depth)
        value = instr.push_value
        ops.append((handler, instr, pops if value is None else Const(value)))
    block.ops = tuple(ops)
    block.low, block.high = low, MAX_STACK - peak
    return block.ops


def _condition_constraints(condition: SymValue, truthy: bool) -> list[Constraint]:
    """Relational constraint for a branch condition, plus eq-candidates
    decomposed from satisfied disjunctions."""
    out = [_relational(condition, truthy)]
    if truthy:
        for leaf in _disjunct_eq_leaves(condition):
            out.append(Constraint(con.EQ, leaf.args[0], leaf.args[1], candidate=True))
    return out


def _relational(condition: SymValue, truthy: bool) -> Constraint:
    while isinstance(condition, Op) and condition.op == "iszero":
        condition = condition.args[0]
        truthy = not truthy
    if isinstance(condition, Op) and (condition.op, 1) in con.RELATION_OF:
        relation = con.RELATION_OF[condition.op, int(truthy)]
        return Constraint(relation, condition.args[0], condition.args[1])
    # the rhs defaults to the one Const(0) of the Constraint class
    return Constraint(con.NONZERO if truthy else con.ZERO, condition)


def _disjunct_eq_leaves(condition: SymValue) -> list[Op]:
    if not (isinstance(condition, Op) and condition.op == "or"):
        return []
    leaves: list[Op] = []
    stack = list(condition.args)
    while stack:
        node = stack.pop()
        if isinstance(node, Op) and node.op == "or":
            stack.extend(node.args)
        elif isinstance(node, Op) and node.op == "eq":
            leaves.append(node)
    return leaves


def _mapping_base_slot(slot: SymValue) -> int | None:
    """Base storage slot constant of a (possibly nested) hashed mapping access."""
    if not (isinstance(slot, Op) and slot.op == "sha3"):
        return None
    last = slot.args[-1]
    if isinstance(last, Const):
        return last.value
    return _mapping_base_slot(last)


def _span_contains(outer: Span, inner: Span) -> bool:
    return (outer[2] == inner[2]
            and inner[0] >= outer[0]
            and inner[0] + inner[1] <= outer[0] + outer[1])


def explore_function(unit: CompilationUnit, cfg: Code, fn: FunctionInfo,
                     binding: tuple[Span, ...],
                     budget: ExplorationBudget | None = None,
                     facts: UnitFacts | None = None) -> ExplorationResult:
    """Explore ``fn`` from its dispatcher entry: its emission records and
    counted path ends. ``facts`` is ``unit_facts(unit, binding)``, built here
    when the caller has not built it once for the unit."""
    if budget is None:
        budget = ExplorationBudget()
    if fn.selector is None:
        raise EntryNotFound(f"{fn.name} has no selector (visibility {fn.visibility})")
    entry_pc = find_function_entry(cfg, fn.selector)
    if entry_pc is None:
        raise EntryNotFound(f"no dispatcher entry for {fn.name} "
                            f"(selector 0x{fn.selector:08x})")
    engine = Engine(unit, cfg, fn, facts or unit_facts(unit, binding), budget)
    return engine.explore(entry_pc)
