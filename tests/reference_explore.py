"""The per-step exploration loop: the reference ``Engine.explore`` must agree
with. It steps every instruction through ``Engine.step``, reads no block of
the engine's ``Code`` and builds no ops.
"""

from __future__ import annotations

from sleepscan import symexec as sx
from sleepscan.disasm import disassemble


def explore(engine: sx.Engine, entry_pc: int) -> sx.Engine:
    budget = engine.budget
    code = {instr.pc: instr for instr in disassemble(engine.unit.runtime_bytecode)}
    steps = engine.steps_used
    worklist = [sx.MachineState(pc=entry_pc)]
    while worklist:
        if engine.timed_out or engine.paths_finished >= budget.max_paths:
            reason = "wall-clock timeout" if engine.timed_out else "path budget"
            for state in worklist:
                engine._finish_path(state, sx.END_BUDGET, reason)
            break
        state = worklist.pop()
        while True:
            if not steps % sx._DEADLINE_EVERY and budget.expired():
                engine.timed_out = True
                worklist.append(state)
                break
            instr = code.get(state.pc)
            if instr is None:
                engine._finish_path(state, sx.END_REVERT, f"fell off code at pc {state.pc}")
                break
            if steps >= budget.max_steps:
                engine._finish_path(state, sx.END_BUDGET, "step budget")
                break
            steps += 1
            try:
                successors = engine.step(state, instr)
            except sx._KillPath as kill:
                engine._finish_path(state, kill.end_kind, kill.reason)
                break
            if len(successors) != 1:
                worklist.extend(successors)
                break
            state = successors[0]
    engine.steps_used = steps
    return engine
