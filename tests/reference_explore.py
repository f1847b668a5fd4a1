"""The per-step exploration loop: the reference ``Engine.explore`` must agree
with. It steps every instruction through ``Engine.step``, reads no block of
the engine's ``Code`` and builds no ops.

Its clock rule is the engine's: the clock is read on entering a basic block
once 256 steps have passed since the last read, and before step 0. The block
starts come from its own decoded instructions: pc 0, each JUMPDEST, and the
pc after a terminator or an unknown byte.
"""

from __future__ import annotations

from sleepscan import opcodes
from sleepscan import symexec as sx
from sleepscan.disasm import disassemble

_TERMINATORS = {"JUMP", "JUMPI", "STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"}


def explore(engine: sx.Engine, entry_pc: int) -> sx.Engine:
    budget = engine.budget
    code = {instr.pc: instr for instr in disassemble(engine.unit.runtime_bytecode)}
    starts = {0}
    for instr in code.values():
        if instr.name == "JUMPDEST":
            starts.add(instr.pc)
        if instr.byte not in opcodes.TABLE or instr.name in _TERMINATORS:
            starts.add(instr.next_pc)
    steps = engine.steps_used
    next_read = steps
    worklist = [sx.MachineState(pc=entry_pc)]
    while worklist:
        if engine.timed_out or engine.paths_finished >= budget.max_paths:
            reason = "wall-clock timeout" if engine.timed_out else "path budget"
            for state in worklist:
                engine._finish_path(state, sx.END_BUDGET, reason)
            break
        state = worklist.pop()
        while True:
            instr = code.get(state.pc)
            if instr is None:
                engine._finish_path(state, sx.END_REVERT, f"fell off code at pc {state.pc}")
                break
            if state.pc in starts and steps >= next_read:
                if budget.expired():
                    engine.timed_out = True
                    worklist.append(state)
                    break
                next_read = steps + sx._DEADLINE_EVERY
            if steps >= budget.max_steps:
                engine._finish_path(state, sx.END_BUDGET, "step budget")
                break
            steps += 1
            successors = engine.step(state, instr)
            if len(successors) != 1:
                worklist.extend(successors)
                break
            state = successors[0]
    engine.steps_used = steps
    return engine
