"""Symbolic execution of Transfer-emitting functions.

One exploration is single-threaded and owns its states; the information the
detectors need is gathered at three checkpoints: CALLDATALOAD (parameter
binding), SLOAD/SSTORE (storage provenance, the owner trace and the store
mark), and LOG4 with the Transfer topic hash (the emission's record). An owner
read is a load of a non-constant slot whose source span lies in a source file
and inside the code of ``ownerOf`` or of a function it calls (the binding,
``find_owner_return_binding``), tested against the binding at the load; it
appends the loaded word to the owner trace unless it repeats the last entry.
Execution continues past an emission, and the path's exit completes its
record with the store mark and the loaded ``from`` parameter, if any.

A path record is kept only for a Transfer emission on a path that exits
normally; every path end, and every emission, is counted by
``(end kind, diagnostic)`` in ``Engine.ends``, a plain dict in order of
first end: CPython specializes a subscript only on an exact dict, so a
dict subclass would put every path end on the generic slow path.

External calls are not followed: they produce a fresh value and taint the
path, and findings on tainted paths are downgraded, not suppressed.

Symbols are identified by value: a storage read no write answers gets one
``Storage(slot)`` symbol per unequal slot, and a memory read one fresh symbol
per unequal offset (per memory version where a write may overlap the word).

A symbolic JUMPI adds one constraint to each side, the condition's relation
(its ``iszero`` chain folded in) and its negation, so a path's condition is
exactly the conjunction the solver checks. The EVM rejects a JUMPI's target
only when the jump is taken, so one to a target that is not a JUMPDEST
counts its taken side's end and runs on under the negation alone.

A path's history (its condition, memory writes, storage writes, owner trace
and emission records) is held in tuples that grow by building a new tuple,
so a fork shares them with its parent. So are its loop counts: ``visited``,
an int with one bit per JUMPDEST the path has entered (each JUMPDEST gets
its bit in ``Code.visit_bit`` on its first reach in the unit), and
``revisits``, the counts of the JUMPDESTs entered more than once, a dict
that a count replaces and never changes in place. ``_branch``, the one
code that splits a path, builds the fallthrough itself: it copies only the
stack, the one thing a path changes in place, and shares every other field.

Every opcode's semantics is one handler in ``_DISPATCH``, an unknown byte's
included, and so is every checkpoint. ``Engine.step`` runs one instruction
after its stack-depth checks. ``Engine.explore`` runs straight-line code a
basic block of the unit's ``Code`` at a time: every path enters a block at
its start, so no pc inside a block is ever looked up. When a path first
enters a block, ``_block_form`` decodes it and builds its execution form
``(bit, ops, instrs, count, low, high)``:

- ``bit``, the JUMPDEST's bit when the block starts with one, else 0:
  ``explore`` applies the loop bound itself on entry, with the outcome of
  the stepped ``_jumpdest``, but a first entry is only marked in
  ``visited`` (or, under a bound of 0, ends the path) and only a revisit is
  counted;
- ``ops``, one per other instruction (its handler, and a PUSH's value as a
  ``Const``), except that a PUSH and the JUMP, JUMPI or CALLDATALOAD right
  after it are one fused op: the op ``_fused`` gives for the pushed value,
  decided once, here, with no ``Const`` built (an unfused consumer's
  ``_consume`` asks ``_fused`` on every path);
- ``instrs``, the block's decoded instructions, and ``count``, how many;
- ``low`` and ``high``, the lowest and highest entry stack depth at which no
  instruction underflows or overflows.

It keeps the form in ``Code.block_at``, so every function of the unit shares
it and code no path reaches is never decoded. A block is taken whole unless
its path ends inside it: when the entry depth lies outside that range (a
stack fault) or the block would pass ``max_steps``, its instructions, never
its ops, go through ``Engine.step`` one at a time up to the path's end.
Either way a block counts one step per instruction, so path ends,
diagnostics and step counts are those of stepping every instruction. Every
path end is one ``_finish_path`` call, but for a plain exit (STOP, RETURN or
SELFDESTRUCT on a path with no emission), which ``_exit`` counts in place,
and a handler that ends a path returns no successors.

The clock is read on entering a block: before step 0, then once 256 steps
have passed since the last read, so a passed deadline is noticed at most one
block late.

At a fork the taken state waits on the worklist, and the fallthrough runs on in
place, as the worklist would give it back next, if the path budget allows it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from sleepscan import constraints as con
from sleepscan import opcodes, sym
from sleepscan.astview import FunctionInfo, storage_layout
from sleepscan.constraints import Constraint
from sleepscan.disasm import Code, Instruction, find_function_entry
from sleepscan.errors import EntryNotFound
from sleepscan.ingestion import CompilationUnit, Span
from sleepscan.keccak import TRANSFER_TOPIC
from sleepscan.sym import Const, FreshExternal, Op, Parameter, SymValue, Var


MAX_STACK = 1024
MAX_DEPTH = 64  # the deepest Op a handler pushes; a deeper one is a fresh symbol
_DEADLINE_EVERY = 256  # the fewest steps between two reads of the clock
_UNBOUNDED = 1 << 256  # the width of a write whose size is symbolic

END_EMISSION = "transfer-emission"
END_EXIT = "normal-exit"
END_REVERT = "revert"
END_BUDGET = "budget-exhausted"
_PLAIN_EXIT = (END_EXIT, None)  # the ``Engine.ends`` key of a normal exit


@dataclass
class ExplorationBudget:
    max_steps: int = 100_000
    max_paths: int = 512
    loop_bound: int = 3
    deadline: float | None = None  # absolute time.monotonic() cutoff, read at block entry

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


@dataclass(frozen=True)
class PathRecord:
    """One Transfer emission on a path that exited normally."""

    end_kind = END_EMISSION  # a class attribute: every record is an emission

    function: FunctionInfo
    constraints: tuple[Constraint, ...]
    owner_trace: tuple[SymValue, ...]
    from_param: SymValue
    tainted: bool
    emission_pc: int
    emission_src: Span
    sstore_mark_at_exit: bool = False  # this and path_id are set at the path's exit
    path_id: int = -1


@dataclass(slots=True)
class MachineState:
    pc: int
    stack: list[SymValue] = field(default_factory=list)
    memory: tuple[tuple[SymValue, SymValue, int], ...] = ()
    storage_writes: tuple[tuple[SymValue, SymValue], ...] = ()
    constraints: tuple[Constraint, ...] = ()
    owner_trace: tuple[SymValue, ...] = ()
    tainted: bool = False
    visited: int = 0  # one bit per JUMPDEST the path has entered (``Code.visit_bit``)
    # JUMPDEST pc -> the path's entries of it, once it has two; replaced on
    # each count, never changed in place, so a fork shares it
    revisits: dict[int, int] = field(default_factory=dict)
    snapshots: tuple[PathRecord, ...] = ()  # the path's emissions, completed at its exit


# --------------------------------------------------------------------------

class Engine:
    def __init__(self, unit: CompilationUnit, cfg: Code, fn: FunctionInfo,
                 binding: tuple[Span, ...], budget: ExplorationBudget):
        self.unit = unit
        self.cfg = cfg
        self.fn = fn
        self.binding = binding
        self.budget = budget
        self.param_vars: dict[int, Var] = {}
        self.storage_vars: dict[SymValue, Var] = {}  # by slot
        # by offset, or by (offset, memory length) where a write may overlap
        self.memory_fresh: dict[SymValue | tuple[SymValue, int], Var] = {}
        # id(condition) -> (condition, taken constraints, fallthrough constraints);
        # the entry holds the condition, so its id is not reused
        self.branch_constraints: dict[int, tuple] = {}
        self.records: list[PathRecord] = []
        # (end kind, diagnostic) -> paths; each emission counts once more, as
        # transfer-emission on a normal exit and as budget-exhausted on a cut
        self.ends: dict[tuple[str, str | None], int] = {}
        self.steps_used = 0
        self.paths_finished = 0
        self.timed_out = False

    # -- helpers ------------------------------------------------------------

    def _param_var(self, index: int) -> Var:
        params = self.fn.params
        name, abi_type = params[index] if index < len(params) else ("", "")
        var = self.param_vars[index] = Var(name or f"param_{index}", Parameter(index),
                                           abi_type == "address")
        return var

    def _storage_read(self, state: MachineState, slot: SymValue) -> SymValue:
        for written_slot, value in reversed(state.storage_writes):
            if written_slot == slot:
                return value
        if slot not in self.storage_vars:
            self.storage_vars[slot] = self._name_storage(slot)
        return self.storage_vars[slot]

    def _name_storage(self, slot: SymValue) -> Var:
        layout = storage_layout(self.unit)
        base_slot = sym.mapping_base(slot)
        if base_slot is not None:
            info = layout.get(base_slot)
            name = f"{info.name if info else f'slot{base_slot}'}[...]"
            is_address = info.mapping_value_is_address if info else False
        elif isinstance(slot, Const):
            info = layout.get(slot.value)
            name = info.name if info else f"slot{slot.value}"
            is_address = info.is_address if info else False
        else:
            name, is_address = f"storage@{slot!r}", False
        return Var(name, sym.Storage(slot), is_address)

    def _read_memory_word(self, state: MachineState, offset: SymValue) -> SymValue:
        start = sym.const_value(offset)
        key = offset
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
                key = (offset, len(state.memory))
                break
        if key not in self.memory_fresh:
            self.memory_fresh[key] = Var(f"mem_{len(self.memory_fresh)}",
                                         FreshExternal("memory"))
        return self.memory_fresh[key]

    # -- single-instruction semantics ---------------------------------------

    def step(self, state: MachineState, instr: Instruction) -> tuple[MachineState, ...]:
        handler, pops, pushes = _DISPATCH[instr.byte]
        depth = len(state.stack)
        if depth < pops:
            self._finish_path(state, END_REVERT, f"stack underflow at {instr.pc} ({instr.name})")
            return ()
        if depth - pops + pushes > MAX_STACK:
            self._finish_path(state, END_REVERT, f"stack overflow at {instr.pc}")
            return ()
        value = instr.push_value  # a PUSH's handler gets its value, as in a block's ops
        successors = handler(self, state, instr, pops if value is None else Const(value))
        if successors is not None:
            return successors
        state.pc = instr.next_pc
        return (state,)

    def _clobber(self, state: MachineState, offset: SymValue, size: SymValue,
                 pc: int, origin: str) -> None:
        """A write of bytes the engine does not model: later reads of them
        see a fresh symbol, never the value they held before. A symbolic size
        may reach any byte from the offset on."""
        width = sym.const_value(size)
        if width is None:
            width = _UNBOUNDED
        if width:
            state.memory += ((offset, _fresh(pc, origin), width),)

    # -- path lifecycle -----------------------------------------------------

    def _finish_path(self, state: MachineState, end_kind: str,
                     diagnostic: str | None = None) -> None:
        path_id = self.paths_finished
        self.paths_finished = path_id + 1
        ends = self.ends
        if state.snapshots and end_kind != END_REVERT:
            # counted before the path's own end, so kinds appear in path order
            emission_kind = END_EMISSION if end_kind == END_EXIT else END_BUDGET
            key = (emission_kind, None)
            ends[key] = ends.get(key, 0) + len(state.snapshots)
            if end_kind == END_EXIT:
                self.records.extend(replace(
                    rec, from_param=self.param_vars.get(0) or rec.from_param,
                    sstore_mark_at_exit=bool(state.storage_writes), path_id=path_id,
                ) for rec in state.snapshots)
        key = (end_kind, diagnostic)
        ends[key] = ends.get(key, 0) + 1

    # -- exploration loop ---------------------------------------------------

    def explore(self, entry_pc: int) -> "Engine":
        budget = self.budget
        code = self.cfg
        blocks = code.block_at
        step = self.step
        max_steps = budget.max_steps
        max_paths = budget.max_paths
        loop_bound = budget.loop_bound
        steps = self.steps_used
        next_read = steps  # the step count at which a block entry reads the clock
        worklist = [MachineState(pc=entry_pc)]
        while worklist:
            if self.timed_out or self.paths_finished >= max_paths:
                reason = "wall-clock timeout" if self.timed_out else "path budget"
                for state in worklist:
                    self._finish_path(state, END_BUDGET, reason)
                break
            state = worklist.pop()
            while True:  # run one state a block at a time until its path ends
                block = blocks.get(state.pc)
                if block is None:
                    block = _block_form(code, state.pc)  # first reach
                    if block is None:
                        self._finish_path(state, END_REVERT, f"fell off code at pc {state.pc}")
                        break
                if steps >= next_read:
                    if budget.expired():
                        self.timed_out = True
                        worklist.append(state)
                        break
                    next_read = steps + _DEADLINE_EVERY
                bit, ops, instrs, count, low, high = block
                if not (low <= len(state.stack) <= high and steps + count <= max_steps):
                    # a stack fault or a step-budget cut: the path ends inside
                    # this block, so its instructions are stepped to that end
                    for instr in instrs:
                        if steps >= max_steps:
                            self._finish_path(state, END_BUDGET, "step budget")
                            break
                        steps += 1
                        if not step(state, instr):
                            break
                    break
                if bit:  # the JUMPDEST the block starts with, counted as _jumpdest does
                    visited = state.visited
                    if not visited & bit and loop_bound:
                        state.visited = visited | bit  # a first entry is only marked
                    else:  # a revisit, or a first entry under a bound of 0
                        pc = state.pc
                        visits = state.revisits.get(pc, 1) + 1 if visited & bit else 1
                        if visits > loop_bound:
                            steps += 1
                            self._finish_path(state, END_BUDGET, f"loop bound at jumpdest {pc}")
                            break
                        state.revisits = {**state.revisits, pc: visits}
                steps += count
                successors = None
                for handler, instr, arg in ops:
                    successors = handler(self, state, instr, arg)
                # only a block's last op may fork or end the path
                if successors is None:  # fell through to the next block
                    state.pc = instrs[-1].next_pc
                elif len(successors) == 1:
                    state = successors[0]
                elif successors and self.paths_finished < max_paths:
                    worklist.append(successors[0])  # a fork: the taken side waits, and the
                    state = successors[1]  # fallthrough, given back next anyway, runs on
                else:  # ended, or forked once a bad JUMPI's taken side spent the path budget
                    worklist += successors
                    break
        self.steps_used = steps
        return self


def _fresh(pc: int, origin: str) -> Var:
    """The value an unmodeled source gives at ``pc``, equal on every visit."""
    return Var(f"ext_{origin}_{pc}", FreshExternal(origin))


def _visit_bit(code: Code, pc: int) -> int:
    """The bit of the JUMPDEST at ``pc`` in ``MachineState.visited``, given
    on its first reach in the unit."""
    bits = code.visit_bit
    bit = bits.get(pc)
    if bit is None:
        bit = bits[pc] = 1 << len(bits)
    return bit


def _shallow(value: SymValue, pc: int) -> SymValue:
    """``value``, or a fresh symbol where it is an Op deeper than
    ``MAX_DEPTH``: comparing, hashing and printing recurse over an Op."""
    if isinstance(value, Op) and value.depth > MAX_DEPTH:
        return _fresh(pc, "deep")
    return value


# --------------------------------------------------------------------------
# one handler per opcode; each runs after the stack-depth checks, gets the
# opcode's pop count (a PUSH gets its value as a Const), and returns None to
# fall through to the next instruction or else the successor states, none
# where it ended the path. A handler that may return successors ends a basic
# block, but for ``_jumpdest``, which a block's ops leave out. JUMP, JUMPI
# and CALLDATALOAD share ``_consume``: it pops the operand and runs the op
# ``_fused`` gives for it, the op a block's ops fuse a PUSH of that value
# into. Those ops take an int argument: ``_jump_to`` and ``_branch`` a
# JUMPDEST, ``_bad_jump`` and ``_bad_branch`` any other target,
# ``_param_word`` a parameter's index and ``_calldataload_at`` any other
# offset. ``_exit`` counts a path with no emission in place, as
# ``_finish_path`` would.

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
    pc = instr.pc
    bit = _visit_bit(engine.cfg, pc)
    if state.visited & bit:
        visits = state.revisits.get(pc, 1) + 1
        state.revisits = {**state.revisits, pc: visits}
    else:
        state.visited |= bit
        visits = 1
    if visits > engine.budget.loop_bound:
        engine._finish_path(state, END_BUDGET, f"loop bound at jumpdest {pc}")
        return ()


def _consume(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    """A JUMP, JUMPI or CALLDATALOAD: the op ``_fused`` gives for the
    operand it pops."""
    handler, _, arg = _fused(engine.cfg, instr, sym.const_value(state.stack.pop()))
    return handler(engine, state, instr, arg)


def _jump_to(engine: Engine, state: MachineState, instr: Instruction, target: int):
    """A JUMP to ``target``, a JUMPDEST."""
    state.pc = target
    return (state,)


def _branch(engine: Engine, state: MachineState, instr: Instruction, target: int):
    """A JUMPI to ``target``, a JUMPDEST, on the condition on top of the stack."""
    stack = state.stack
    condition = stack.pop()
    if type(condition) is Const:
        state.pc = target if condition.value else instr.next_pc
        return (state,)
    # one condition object reaches this JUMPI on every path forked after it
    # was built
    cached = engine.branch_constraints.get(id(condition))
    if cached is None:
        taken = _relational(condition, True)
        cached = engine.branch_constraints[id(condition)] = (
            condition, (taken,), (taken.negated(),))
    # the fallthrough, built here without the dataclass __init__: its own
    # stack, the one field a path changes in place, and every other shared
    fallthrough = object.__new__(MachineState)
    fallthrough.pc = instr.next_pc
    fallthrough.stack = stack[:]
    fallthrough.memory = state.memory
    fallthrough.storage_writes = state.storage_writes
    fallthrough.constraints = state.constraints + cached[2]
    fallthrough.owner_trace = state.owner_trace
    fallthrough.tainted = state.tainted
    fallthrough.visited = state.visited
    fallthrough.revisits = state.revisits
    fallthrough.snapshots = state.snapshots
    state.pc = target
    state.constraints += cached[1]
    return (state, fallthrough)


def _bad_branch(engine: Engine, state: MachineState, instr: Instruction, target: int | None):
    """A JUMPI to ``target``, not a JUMPDEST (None when it is symbolic),
    which the EVM rejects only when taken: a true constant condition ends the
    path and a false one falls through; on a symbolic one the taken side's
    end is counted and the path falls through under the negated condition."""
    condition = state.stack.pop()
    if type(condition) is Const:
        if condition.value:
            return _bad_jump(engine, state, instr, target)
    else:
        _bad_jump(engine, state, instr, target)
        state.constraints += (_relational(condition, False),)
    state.pc = instr.next_pc
    return (state,)


def _bad_jump(engine: Engine, state: MachineState, instr: Instruction, target: int | None):
    """End the path at a jump whose target is not a JUMPDEST."""
    reason = "symbolic jump target" if target is None else f"jump to non-JUMPDEST {target}"
    engine._finish_path(state, END_REVERT, f"{reason} at {instr.pc}")
    return ()


def _exit(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    if state.snapshots:
        engine._finish_path(state, END_EXIT)
    else:  # a plain exit, counted as _finish_path counts it
        engine.paths_finished += 1
        ends = engine.ends
        ends[_PLAIN_EXIT] = ends.get(_PLAIN_EXIT, 0) + 1
    return ()


def _revert(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    engine._finish_path(state, END_REVERT)
    return ()


def _unknown(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    engine._finish_path(state, END_REVERT, f"unknown opcode 0x{instr.byte:02X} at {instr.pc}")
    return ()


def _calldataload_at(engine: Engine, state: MachineState, instr: Instruction,
                     offset: int | None):
    """The calldata word at ``offset`` off the parameter grid, None when it
    is symbolic: a fresh value per site."""
    origin = "calldata_sym" if offset is None else f"calldata_{offset}"
    state.stack.append(_fresh(instr.pc, origin))


def _param_word(engine: Engine, state: MachineState, instr: Instruction, index: int):
    """The ``index``-th parameter, a CALLDATALOAD's word on the grid."""
    state.stack.append(engine.param_vars.get(index) or engine._param_var(index))


def _sload(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    slot = stack.pop()
    value = engine._storage_read(state, slot)
    stack.append(value)
    if engine.binding and not isinstance(slot, Const):
        span = engine.unit.source_map[instr.src]
        if (span[2] >= 0 and any(_span_contains(definition, span)
                                 for definition in engine.binding)
                and state.owner_trace[-1:] != (value,)):  # an owner read; a repeat collapses
            state.owner_trace += (value,)


def _sstore(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    slot = stack.pop()
    state.storage_writes += ((slot, stack.pop()),)


def _sha3(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    # a hash of one or two known words is kept as an expression: mapping slots
    stack = state.stack
    offset = sym.const_value(stack.pop())
    size = sym.const_value(stack.pop())
    if size in (32, 64) and offset is not None:
        words = tuple(engine._read_memory_word(state, Const(offset + 32 * index))
                      for index in range(size // 32))
        stack.append(_shallow(sym.make_op("sha3", *words), instr.pc))
    else:
        stack.append(_fresh(instr.pc, "sha3_unresolved"))


def _mload(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    stack.append(engine._read_memory_word(state, stack.pop()))


def _mstore(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    offset = stack.pop()
    state.memory += ((offset, stack.pop(), 32),)


def _mstore8(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    stack = state.stack
    offset = stack.pop()
    state.memory += ((offset, stack.pop(), 1),)


def _log(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    # memory offset, size, then the topics; event data is not modeled, and
    # only a LOG4 with the Transfer topic is an emission
    stack = state.stack
    args = stack[:-pops - 1:-1]  # top of stack first
    del stack[-pops:]
    if pops != 6:
        return
    topic0 = args[2]
    if not (isinstance(topic0, Const) and topic0.value == TRANSFER_TOPIC):
        return
    state.snapshots += (PathRecord(
        function=engine.fn,
        constraints=state.constraints,
        owner_trace=state.owner_trace,
        from_param=args[3],  # the event's indexed ``from``; the exit may rebind it
        tainted=state.tainted,
        emission_pc=instr.pc,
        emission_src=engine.unit.source_map[instr.src],
    ),)


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
    stack.append(_fresh(instr.pc, "call"))


def _create(engine: Engine, state: MachineState, instr: Instruction, pops: int):
    del state.stack[-pops:]
    state.tainted = True
    state.stack.append(_fresh(instr.pc, "call"))


def _environment(var: Var):
    def environment(engine: Engine, state: MachineState, instr: Instruction, pops: int):
        state.stack.append(var)
    return environment


def _folding(op: str):
    def fold(engine: Engine, state: MachineState, instr: Instruction, pops: int):
        stack = state.stack
        args = stack[:-pops - 1:-1]  # top of stack first
        del stack[-pops:]
        stack.append(_shallow(sym.make_op(op, *args), instr.pc))
    return fold


def _fresh_value(origin: str):
    """Remaining environment and introspection opcodes: a fresh value per site."""
    def fresh(engine: Engine, state: MachineState, instr: Instruction, pops: int):
        if pops:
            del state.stack[-pops:]
        state.stack.append(_fresh(instr.pc, origin))
    return fresh


_HANDLERS = {
    "POP": _pop, "JUMPDEST": _jumpdest, "JUMP": _consume, "JUMPI": _consume,
    "STOP": _exit, "RETURN": _exit, "SELFDESTRUCT": _exit,
    "REVERT": _revert, "INVALID": _revert,
    "CALLDATALOAD": _consume, "SLOAD": _sload, "SSTORE": _sstore,
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


def _fused(code: Code, instr: Instruction, value: int | None) -> tuple:
    """The op ``(handler, instr, arg)`` that the JUMP, JUMPI or CALLDATALOAD
    ``instr`` runs for the operand ``value``, None when it is symbolic: a
    jump to a JUMPDEST tests no target and one to any other target ends the
    path when taken, and the calldata word at ``4 + 32 * i`` is parameter ``i``."""
    if instr.name == "CALLDATALOAD":
        if value is not None and value % 32 == 4:
            return (_param_word, instr, value // 32)
        return (_calldataload_at, instr, value)
    if value in code.jumpdests:
        return (_jump_to if instr.name == "JUMP" else _branch, instr, value)
    return (_bad_jump if instr.name == "JUMP" else _bad_branch, instr, value)


def _block_form(code: Code, pc: int) -> tuple | None:
    """The execution form ``(bit, ops, instrs, count, low, high)`` of the
    block starting at ``pc`` (see the module docstring), kept in
    ``code.block_at``; an op is ``(handler, instr, arg)``, and a PUSH
    before a ``_consume`` is fused into it as the op ``_fused`` gives, whose
    ``instr`` is the consumer. None when no block starts at ``pc``."""
    instrs = code.block(pc)
    if instrs is None:
        return None
    bit = _visit_bit(code, pc) if pc in code.jumpdests else 0
    ops = []
    push = None  # the PUSH just read: its op waits for the next instruction
    depth = low = peak = 0  # relative to the entry depth; a JUMPDEST moves no word
    for instr in instrs[1:] if bit else instrs:
        handler, pops, pushes = _DISPATCH[instr.byte]
        if pops - depth > low:
            low = pops - depth
        depth += pushes - pops
        if depth > peak:
            peak = depth
        if push is not None:
            if handler is _consume:  # fused: the PUSH gets no op, and no Const
                ops.append(_fused(code, instr, push.push_value))
                push = None
                continue
            ops.append((_push, push, Const(push.push_value)))
        push = instr if handler is _push else None
        if push is None:
            ops.append((handler, instr, pops))
    if push is not None:
        ops.append((_push, push, Const(push.push_value)))
    form = code.block_at[pc] = (bit, tuple(ops), instrs, len(instrs), low, MAX_STACK - peak)
    return form


def _relational(condition: SymValue, truthy: bool) -> Constraint:
    while isinstance(condition, Op) and condition.op == "iszero":
        condition = condition.args[0]
        truthy = not truthy
    if isinstance(condition, Op) and (condition.op, 1) in con.RELATION_OF:
        relation = con.RELATION_OF[condition.op, int(truthy)]
        return Constraint(relation, condition.args[0], condition.args[1])
    # the rhs defaults to the one Const(0) of the Constraint class
    return Constraint(con.NONZERO if truthy else con.ZERO, condition)


def _span_contains(outer: Span, inner: Span) -> bool:
    return (outer[2] == inner[2]
            and inner[0] >= outer[0]
            and inner[0] + inner[1] <= outer[0] + outer[1])


def explore_function(unit: CompilationUnit, cfg: Code, fn: FunctionInfo,
                     binding: tuple[Span, ...],
                     budget: ExplorationBudget | None = None) -> Engine:
    """Explore ``fn`` from its dispatcher entry; the engine returned holds
    its emission records and counted path ends."""
    entry_pc = find_function_entry(cfg, fn.selector)
    if entry_pc is None:
        raise EntryNotFound(f"no dispatcher entry for {fn.name} "
                            f"(selector 0x{fn.selector:08x})")
    return Engine(unit, cfg, fn, binding, budget or ExplorationBudget()).explore(entry_pc)
