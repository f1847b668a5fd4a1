"""Block-at-a-time exploration against the per-step reference loop, and the
rule that a block's ops are built once, on its first entry."""

import dataclasses
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fixtures as corpus
import reference_explore
from evmasm import GENERATED, Asm
from test_symexec import EMPTY_AST, FN, IN_OWNER, OWNER_CODE, _emit_then, owner_reads

from sleepscan import pipeline
from sleepscan import symexec as sx
from sleepscan.astview import (
    EXTERNALLY_CALLABLE,
    find_owner_return_binding,
    function_infos,
    select_target_functions,
    with_selectors,
)
from sleepscan.constraints import NONZERO, Constraint
from sleepscan.disasm import build_cfg, disassemble, find_function_entry
from sleepscan.ingestion import CompilationUnit, load_compilation
from sleepscan.keccak import TRANSFER_TOPIC
from sleepscan.sym import FreshExternal, Parameter, Var
from sleepscan.symexec import END_BUDGET, END_EXIT, END_REVERT, Engine, ExplorationBudget

LOOP = bytes.fromhex("5b" "6000" "56")  # JUMPDEST; PUSH 0; JUMP (forever)


def _unit(code: bytes, spans=None) -> CompilationUnit:
    spans = spans if spans is not None else [GENERATED] * len(disassemble(code))
    return CompilationUnit("T", code, spans, EMPTY_AST, {0: b""}, (0, 8, 17))


def _outcome(result: sx.Engine) -> tuple:
    return (result.records, list(result.ends.items()), result.steps_used,
            result.paths_finished, result.timed_out)


def _counting_steps(engine: Engine, counts: Counter) -> Engine:
    """Count the pcs ``engine`` steps one at a time, in ``counts``."""
    step = engine.step

    def counting(state, instr):
        counts[instr.pc] += 1
        return step(state, instr)

    engine.step = counting
    return engine


class _Lookups(dict):
    """A block map that records every pc looked up in it."""

    def __init__(self, blocks):
        super().__init__(blocks)
        self.pcs = set()

    def get(self, pc, default=None):
        self.pcs.add(pc)
        return super().get(pc, default)


def _compare(unit: CompilationUnit, targets, binding=(),
             budget: ExplorationBudget | None = None, explorations: int = 2):
    """Explore each ``(fn, entry_pc)`` of ``targets`` in turn, ``explorations``
    times over, on one Code shared the way the pipeline shares it, and each on
    a fresh reference engine: every outcome must be equal, and every pc the
    engine looks up must be a block start or lie off the code. Returns the
    steps the engine took inside whole blocks, and the shared Code."""
    budget = budget or ExplorationBudget()
    shared = build_cfg(disassemble(unit.runtime_bytecode))
    shared.block_at = lookups = _Lookups(shared.block_at)
    reference_cfg = build_cfg(disassemble(unit.runtime_bytecode))
    whole_steps = 0
    for _ in range(explorations):
        for fn, entry_pc in targets:
            stepped = Counter()
            got = _counting_steps(Engine(unit, shared, fn, binding, budget),
                                  stepped).explore(entry_pc)
            want = reference_explore.explore(
                Engine(unit, reference_cfg, fn, binding, budget), entry_pc)
            assert _outcome(got) == _outcome(want), (fn.name, entry_pc)
            whole_steps += got.steps_used - sum(stepped.values())
    assert lookups.pcs
    assert all(pc in lookups or pc >= len(unit.runtime_bytecode) for pc in lookups.pcs)
    return whole_steps, shared


# --------------------------------------------------------------------------
# generated branchy programs

_BODY_ITEM = st.tuples(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 3)),
        st.tuples(st.just("op"), st.sampled_from(
            ["DUP1", "DUP2", "SWAP1", "POP", "ADD", "SUB", "EQ", "LT", "ISZERO",
             "AND", "CALLER", "SSTORE"])),
        # parameter words, and offsets off the grid: 0 (None: PUSH0) and 5
        st.tuples(st.just("calldata"), st.sampled_from([4, 36, 68, 0, None, 5])),
        st.tuples(st.just("hashed-load"), st.sampled_from([0, 32])),
        st.tuples(st.just("constant-load"), st.integers(0, 2)),
        st.tuples(st.just("emit"), st.none()),
    ),
    st.booleans(),  # whether the item's source span lies in ownerOf's code
)
# a JUMPI on calldata forks; the other ends do not
_ENDS = ["jumpi-calldata"] * 3 + ["jumpi-constant", "jumpi", "jump", "stop", "revert", "fall"]


@st.composite
def _programs(draw):
    count = draw(st.integers(1, 6))
    a = Asm()
    for value in range(draw(st.integers(0, 4))):  # words for the first ops to use
        a.push(value)
    for index in range(count):
        a.label(f"b{index}")
        if draw(st.integers(0, 4)) or index == 0:  # mostly a jump target
            a.op("JUMPDEST")
        for (kind, arg), inside in draw(st.lists(_BODY_ITEM, max_size=8)):
            span = IN_OWNER if inside else GENERATED
            if kind == "push":
                a.push(arg, span)
            elif kind == "op":
                a.op(arg, span)
            elif kind == "calldata":
                if arg is None:
                    a.op("PUSH0", span)
                else:
                    a.push(arg, span)
                a.op("CALLDATALOAD", span)
            elif kind == "hashed-load":  # keccak(memory[arg:arg + 32])
                a.push(32, span).push(arg, span).op("SHA3", span).op("SLOAD", span)
            elif kind == "constant-load":
                a.push(arg, span).op("SLOAD", span)
            else:  # a Transfer(CALLER, 2, 1) emission without data
                a.push(1, span).push(2, span).op("CALLER", span)
                a.push(TRANSFER_TOPIC, span).push(0, span).push(0, span).op("LOG4", span)
        end = draw(st.sampled_from(_ENDS))
        target = f"b{draw(st.integers(0, count - 1))}"
        if end == "jumpi-calldata":
            a.push(4).op("CALLDATALOAD")
        elif end == "jumpi-constant":  # falls through on 0, whatever the target
            a.push(draw(st.integers(0, 1)))
        if end.startswith("jumpi"):
            a.push_label(target).op("JUMPI")
        elif end == "jump":
            a.push_label(target).op("JUMP")
        elif end == "stop":
            a.op("STOP")
        elif end == "revert":
            a.push(0).push(0).op("REVERT")
        # "fall" runs into the next block, or off the end of the code
    return a.assemble()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_programs(), st.integers(1, 400), st.integers(1, 40), st.integers(1, 3))
def test_runs_match_steps_on_generated_programs(program, max_steps, max_paths, loop_bound):
    code, spans = program
    budget = ExplorationBudget(max_steps=max_steps, max_paths=max_paths,
                               loop_bound=loop_bound)
    _compare(_unit(code, spans), [(FN, 0)], (OWNER_CODE,), budget, explorations=3)


# --------------------------------------------------------------------------
# the corpus

def _targets(unit: CompilationUnit, functions) -> list:
    cfg = build_cfg(disassemble(unit.runtime_bytecode))
    targets, selectors = [], set()
    for fn in functions:
        entry = find_function_entry(cfg, fn.selector) if fn.selector is not None else None
        if entry is not None and fn.selector not in selectors:
            selectors.add(fn.selector)
            targets.append((fn, entry))
    return targets


def test_runs_match_steps_on_every_corpus_target(corpus_dir):
    checked = 0
    for sub in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        unit = load_compilation(sub)
        targets = _targets(unit, select_target_functions(function_infos(unit)))
        whole_steps, _ = _compare(unit, targets, find_owner_return_binding(unit))
        assert whole_steps > 0, sub.name
        checked += len(targets)
    assert checked >= 15


def test_runs_match_steps_on_an_unpruned_market_hub(corpus_dir):
    unit = load_compilation(corpus_dir / "MarketHub")
    callable_ = [f for f in function_infos(unit) if f.visibility in EXTERNALLY_CALLABLE]
    targets = _targets(unit, with_selectors(callable_))
    assert len(targets) == 20
    whole_steps, _ = _compare(unit, targets, find_owner_return_binding(unit), explorations=1)
    assert whole_steps > 0


def test_a_deadline_steps_no_instruction(corpus_dir):
    """A block is stepped only where its path ends inside it, and no path on
    the corpus targets or the unpruned MarketHub ends in a stack fault or a
    step-budget cut: reading the clock at block entry steps nothing."""
    budget = ExplorationBudget(deadline=time.monotonic() + 3600)
    explored = 0
    for sub in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        unit = load_compilation(sub)
        infos = function_infos(unit)
        if sub.name == "MarketHub":
            functions = with_selectors(
                [f for f in infos if f.visibility in EXTERNALLY_CALLABLE])
        else:
            functions = select_target_functions(infos)
        binding = find_owner_return_binding(unit)
        cfg = build_cfg(disassemble(unit.runtime_bytecode))
        for fn, entry_pc in _targets(unit, functions):
            stepped = Counter()
            engine = _counting_steps(Engine(unit, cfg, fn, binding, budget), stepped)
            assert engine.explore(entry_pc).steps_used > 0
            assert not stepped, (sub.name, fn.name)
            explored += 1
    assert explored >= 13 + 20  # the corpus targets, then all 20 of MarketHub


# --------------------------------------------------------------------------
# edge cases: the clock, the step budget, the stack limits, owner reads and
# the loop bound, each met inside a block

@pytest.mark.parametrize("clock, steps_used", [([0.0] * 4, 1000), ([0.0, 2.0], 258),
                                               ([0.0] * 3 + [2.0], 774)],
                         ids=["never", "at-256", "at-768"])
def test_runs_read_the_clock_every_256_steps(monkeypatch, clock, steps_used):
    """LOOP is one 3-step block, taken whole on every entry: the clock is
    read on entering it at steps 0, 258, 516 and 774, the first entries once
    256 steps have passed since the last read, and a passed deadline ends the
    path at the read that sees it."""
    budget = ExplorationBudget(max_steps=1000, loop_bound=10**6, deadline=1.0)
    outcomes = []
    for explore in (Engine.explore, reference_explore.explore):
        readings = iter(clock)
        reads = []
        monkeypatch.setattr(sx.time, "monotonic",
                            lambda: reads.append(1) or next(readings))
        engine = Engine(_unit(LOOP), build_cfg(disassemble(LOOP)), FN, (), budget)
        outcomes.append((_outcome(explore(engine, 0)), len(reads)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == len(clock)
    assert outcomes[0][0][2] == steps_used


@pytest.mark.parametrize("max_steps", range(1, 13))
def test_step_budget_can_end_anywhere_in_a_run(max_steps):
    budget = ExplorationBudget(max_steps=max_steps, loop_bound=10**6)
    _compare(_unit(LOOP), [(FN, 0)], budget=budget, explorations=3)


@pytest.mark.parametrize("loop_bound", [1, 2, 3, 5])
def test_loop_bound_kill_at_a_run_start(loop_bound):
    budget = ExplorationBudget(loop_bound=loop_bound)
    whole_steps, _ = _compare(_unit(LOOP), [(FN, 0)], budget=budget, explorations=3)
    assert whole_steps > 0


def test_entry_depth_at_the_underflow_edge():
    """L's block pops one word: it is taken whole at depth 1 and stepped at
    depth 0, where its POP underflows."""
    a = Asm()
    a.push(0).op("CALLDATALOAD").push_label("L").op("JUMPI")  # taken: depth 0
    a.push(7).push_label("L").op("JUMP")                      # depth 1
    a.jumpdest("L").op("POP").op("STOP")
    code, _ = a.assemble()
    whole_steps, cfg = _compare(_unit(code), [(FN, 0)])
    assert whole_steps > 0
    *_, low, high = cfg.block_at[code.index(0x5B)]
    assert (low, high) == (1, sx.MAX_STACK)
    result = Engine(_unit(code), cfg, FN, (), ExplorationBudget()).explore(0)
    assert result.ends[END_REVERT, f"stack underflow at {code.index(0x5B) + 1} (POP)"] == 1


def test_entry_depth_at_the_overflow_edge():
    """L's block pushes two words: taken whole at depth 1022, it fills the
    stack to 1024; at depth 1023 it is stepped and its second PUSH0
    overflows."""
    a = Asm()
    for _ in range(1020):
        a.op("PUSH0")
    a.push(0).op("CALLDATALOAD").push_label("T").op("JUMPI")
    a.op("PUSH0").op("PUSH0").push_label("L").op("JUMP")                # depth 1022
    a.jumpdest("T").op("PUSH0").op("PUSH0").op("PUSH0")
    a.push_label("L").op("JUMP")                                         # depth 1023
    a.jumpdest("L").op("PUSH0").op("PUSH0").op("STOP")
    code, _ = a.assemble()
    label = len(code) - 4
    whole_steps, cfg = _compare(_unit(code), [(FN, 0)])
    assert whole_steps > 0
    *_, low, high = cfg.block_at[label]
    assert (low, high) == (0, sx.MAX_STACK - 2)
    result = Engine(_unit(code), cfg, FN, (), ExplorationBudget()).explore(0)
    assert list(result.ends.items()) == [
        ((END_EXIT, None), 1), ((END_REVERT, f"stack overflow at {label + 2}"), 1)]


def test_runs_keep_the_owner_rule():
    """A traced, a collapsed, a constant-slot and an outside load, each inside
    a block taken whole."""
    code, spans = owner_reads()
    whole_steps, cfg = _compare(_unit(code, spans), [(FN, 0)], (OWNER_CODE,), explorations=3)
    assert whole_steps == 3 * len(disassemble(code))
    engine = Engine(_unit(code, spans), cfg, FN, (OWNER_CODE,), ExplorationBudget())
    (emission,) = engine.explore(0).records
    assert len(emission.owner_trace) == 3


def test_budget_cut_emission_inside_runs():
    code = _emit_then("5b600c56")  # JUMPDEST; PUSH jumpdest_pc; JUMP
    jumpdest_pc = len(code) - 4
    code = code[:-2] + bytes([jumpdest_pc]) + code[-1:]
    budget = ExplorationBudget(loop_bound=2)
    whole_steps, _ = _compare(_unit(code), [(FN, 0)], budget=budget, explorations=3)
    assert whole_steps > 0


# --------------------------------------------------------------------------
# fused ops and the JUMPDEST a block starts with, each taken whole and
# stepped one instruction at a time

def _whole_and_stepped(body, budget: ExplorationBudget | None = None) -> sx.Engine:
    """``body(asm)`` writes a program. It runs from pc 0, where every block
    is taken whole, and again under every ``max_steps`` from 1 to its step
    count, where the block the budget cuts is stepped; each run is checked
    against the reference loop. Returns the uncut run's engine."""
    budget = budget or ExplorationBudget()
    a = Asm()
    body(a)
    code, spans = a.assemble()
    unit = _unit(code, spans)
    _compare(unit, [(FN, 0)], budget=budget, explorations=1)
    stepped = Counter()
    result = _counting_steps(Engine(unit, build_cfg(disassemble(code)), FN, (), budget),
                             stepped).explore(0)
    assert not stepped
    for max_steps in range(1, result.steps_used + 1):
        cut = dataclasses.replace(budget, max_steps=max_steps)
        _compare(unit, [(FN, 0)], budget=cut, explorations=1)
    return result


def test_a_constant_false_jumpi_falls_through_past_a_bad_target():
    def body(a):
        a.jumpdest("L").push(0).push(3).op("JUMPI").op("STOP")  # 3 is the PUSH1 0
    result = _whole_and_stepped(body)
    assert list(result.ends.items()) == [((END_EXIT, None), 1)]
    assert result.steps_used == 5


# The consumer tests write out each op, diagnostic and word: the reference
# loop steps every consumer through ``_consume``, which takes its op from
# ``_fused`` as a block's fused op does, so agreeing with it cannot catch a
# wrong rule there. A case runs fused (its operand pushed right before the
# consumer), unfused (pushed before a JUMPDEST that starts the consumer's
# block) and, through ``_whole_and_stepped``, stepped.

def _consumer_op(result: sx.Engine, name: str) -> tuple:
    """The op of the last ``name`` instruction, as ``(handler, pc, arg)``."""
    pc = max(instr.pc for instr in disassemble(result.unit.runtime_bytecode)
             if instr.name == name)
    (op,) = (op for _, ops, *_ in result.cfg.block_at.values() for op in ops
             if op[1].pc == pc)
    return op[0], pc, op[2]


def _jump_program(condition: str, target, unfused: bool):
    """JUMPDEST; PUSH1 0x5b; POP; a JUMPI's condition (a constant, or the
    parameter at 4); the target, a pc or the parameter at 0x24
    ("symbolic"), or the label T; the jump; STOP; JUMPDEST T; INVALID.
    The byte at pc 2 is the 0x5b inside the PUSH1, pc 3 the POP."""
    def body(a):
        a.jumpdest("L").push(0x5B).op("POP")
        if condition in ("true", "false"):
            a.push(int(condition == "true"))
        elif condition == "calldata":
            a.push(4).op("CALLDATALOAD")
        if target == "symbolic":
            a.push(0x24).op("CALLDATALOAD")
        elif target == "T":
            a.push_label("T")
        else:
            a.push(target)
        if unfused:
            a.jumpdest("M")
        a.op("JUMP" if condition == "jump" else "JUMPI").op("STOP")
        a.jumpdest("T").op("INVALID")
    return body


def _jump_cases(targets):
    """Every condition with each ``(target, unfused)``; the first's cases
    have the condition alone as their id."""
    return [pytest.param(condition, target, unfused,
                         id=f"{condition}-{target}" + "-unfused" * unfused if index else condition)
            for index, (target, unfused) in enumerate(targets)
            for condition in ("true", "false", "calldata", "jump")]


@pytest.mark.parametrize("condition, target, unfused", _jump_cases(
    [(2, False), (3, False), (2, True), (3, True), ("symbolic", False), ("symbolic", True)]))
def test_a_jump_to_a_non_jumpdest_keeps_its_diagnostic(condition, target, unfused):
    """A jump to the 0x5b inside a PUSH (pc 2), to an instruction that is not
    a JUMPDEST (pc 3) or to a symbolic target ends its path when taken: a
    JUMPI on a false constant falls through, and one on a symbolic condition
    ends its taken side and falls through to the STOP. A fused jump gets the
    op that ends the path when its block is built; any other runs
    ``_consume``."""
    result = _whole_and_stepped(_jump_program(condition, target, unfused))
    name = "JUMP" if condition == "jump" else "JUMPI"
    handler, jump_pc, arg = _consumer_op(result, name)
    reason = ("symbolic jump target" if target == "symbolic"
              else f"jump to non-JUMPDEST {target}")
    taken = ((END_REVERT, f"{reason} at {jump_pc}"), 1)
    fallthrough = ((END_EXIT, None), 1)
    assert list(result.ends.items()) == {
        "false": [fallthrough], "calldata": [taken, fallthrough]}.get(condition, [taken])
    if unfused or target == "symbolic":
        assert (handler, arg) == (sx._consume, 1 if name == "JUMP" else 2)
    else:
        assert (handler, arg) == (sx._bad_jump if name == "JUMP" else sx._bad_branch, target)


@pytest.mark.parametrize("target", [3, "symbolic"])
def test_a_jumpi_to_a_bad_target_falls_through_to_an_emission(target):
    """JUMPDEST; the parameter at 4; ISZERO; a target that is not a JUMPDEST
    (pc 3, the CALLDATALOAD) or the parameter at 0x24; JUMPI; a Transfer
    emission; STOP. The taken side ends with the bad jump's diagnostic, and
    the fallthrough emits under the negated condition, its ``iszero``
    folded in: ``from`` is nonzero."""
    def body(a):
        a.jumpdest("L").push(4).op("CALLDATALOAD").op("ISZERO")
        if target == "symbolic":
            a.push(0x24).op("CALLDATALOAD")
        else:
            a.push(target)
        a.op("JUMPI")
        a.push(3).push(2).push(1).push(TRANSFER_TOPIC).push(0).push(0).op("LOG4").op("STOP")
    result = _whole_and_stepped(body)
    _, jump_pc, _ = _consumer_op(result, "JUMPI")
    reason = "symbolic jump target" if target == "symbolic" else "jump to non-JUMPDEST 3"
    assert list(result.ends.items()) == [((END_REVERT, f"{reason} at {jump_pc}"), 1),
                                         ((sx.END_EMISSION, None), 1), ((END_EXIT, None), 1)]
    (record,) = result.records
    assert record.constraints == (Constraint(NONZERO, _PARAMETERS[4]),)
    assert record.path_id == 1


@pytest.mark.parametrize("condition, target, unfused", _jump_cases([("T", False), ("T", True)]))
def test_a_fused_jump_to_a_jumpdest_tests_no_target_on_a_path(condition, target, unfused):
    """A jump to the JUMPDEST T reaches its INVALID, and a JUMPI on a
    symbolic condition forks, its fallthrough ending first. A fused jump gets
    the op with no membership test; any other runs ``_consume``."""
    result = _whole_and_stepped(_jump_program(condition, target, unfused))
    name = "JUMP" if condition == "jump" else "JUMPI"
    handler, jump_pc, arg = _consumer_op(result, name)
    ends = {"true": [(END_REVERT, None)], "false": [(END_EXIT, None)],
            "jump": [(END_REVERT, None)],
            "calldata": [(END_EXIT, None), (END_REVERT, None)]}[condition]
    assert list(result.ends) == ends
    if unfused:
        assert (handler, arg) == (sx._consume, 1 if name == "JUMP" else 2)
    else:  # T follows the jump and its STOP
        assert (handler, arg) == (sx._jump_to if name == "JUMP" else sx._branch, jump_pc + 2)


def test_a_symbolic_jump_target_keeps_its_diagnostic():
    def body(a):
        a.jumpdest("L").push(1).push(4).op("CALLDATALOAD").op("JUMPI").op("STOP")
    assert list(_whole_and_stepped(body).ends.items()) == [
        ((END_REVERT, "symbolic jump target at 6"), 1)]


_PARAMETERS = {4: Var("from", Parameter(0), True), 0x24: Var("to", Parameter(1), True),
               0x44: Var("tokenId", Parameter(2), False)}


@pytest.mark.parametrize("push, offset, unfused", [
    pytest.param(push, offset, unfused, id=f"{push}-{offset}" + "-unfused" * unfused)
    for unfused in (False, True)
    for push, offset in [("PUSH0", 0), ("PUSH1", 0), ("PUSH1", 5), ("PUSH1", 4),
                         ("PUSH1", 0x24), ("PUSH1", 0x44), ("CALLDATALOAD", None)]])
def test_a_pushed_calldata_offset_maps_to_its_word(push, offset, unfused):
    """A fresh ``calldata_<offset>`` off the parameter grid (0 and 5), the
    parameter on it (4, 0x24 and 0x44 are parameters 0 to 2), and a fresh
    ``calldata_sym`` at a symbolic offset (the word at 0x24); the word is the
    emission's ``from``. A fused load gets the parameter's index or the
    offset when its block is built; any other runs ``_consume``."""
    def body(a):
        a.jumpdest("L").push(1).push(2)
        if push == "PUSH0":
            a.op("PUSH0")
        elif push == "CALLDATALOAD":
            a.push(0x24).op("CALLDATALOAD")
        else:
            a.push(offset)
        if unfused:
            a.jumpdest("M")
        a.op("CALLDATALOAD")
        a.push(TRANSFER_TOPIC).push(0).push(0).op("LOG4").op("STOP")
    result = _whole_and_stepped(body)
    (record,) = result.records
    handler, load_pc, arg = _consumer_op(result, "CALLDATALOAD")
    assert load_pc == (6 if push == "PUSH0" else 7 if push == "PUSH1" else 8) + unfused
    if offset is None:
        assert record.from_param == Var(f"ext_calldata_sym_{load_pc}",
                                        FreshExternal("calldata_sym"))
    else:
        assert record.from_param == (_PARAMETERS.get(offset) or Var(
            f"ext_calldata_{offset}_{load_pc}", FreshExternal(f"calldata_{offset}")))
    if unfused or offset is None:
        assert (handler, arg) == (sx._consume, 1)
    elif offset in _PARAMETERS:
        assert (handler, arg) == (sx._param_word, offset // 32)
    else:
        assert (handler, arg) == (sx._calldataload_at, offset)


def test_a_block_that_is_only_a_jumpdest():
    """The first block is a lone JUMPDEST: it falls through to the next one,
    and a lone JUMPDEST at the end of the code falls off it."""
    def body(a):
        a.jumpdest("L").jumpdest("M").push_label("N").op("JUMP")
        a.jumpdest("N")
    result = _whole_and_stepped(body)
    assert list(result.ends.items()) == [((END_REVERT, "fell off code at pc 7"), 1)]
    assert result.steps_used == 5


@pytest.mark.parametrize("loop_bound", [1, 2, 3])
def test_a_loop_bound_kill_at_block_entry_counts_the_jumpdest(loop_bound):
    """JUMPDEST; PUSH2 L; JUMP runs ``loop_bound`` times, and its next entry
    ends the path after one step."""
    budget = ExplorationBudget(loop_bound=loop_bound)
    result = _whole_and_stepped(lambda a: a.jumpdest("L").push_label("L").op("JUMP"), budget)
    assert list(result.ends.items()) == [((END_BUDGET, "loop bound at jumpdest 0"), 1)]
    assert result.steps_used == 3 * loop_bound + 1


@pytest.mark.parametrize("calls, end", [
    (3, (END_EXIT, None)), (4, (END_BUDGET, "loop bound at jumpdest 33"))])
def test_an_internal_function_called_past_the_loop_bound_ends_the_path(calls, end):
    """Straight-line code calls one internal function ``calls`` times, as
    solc does: ``PUSH2 ret; PUSH2 fn; JUMP; ret: JUMPDEST``, then STOP, then
    ``fn: JUMPDEST; JUMP``, whose return is an unfused JUMP and so runs
    ``_consume``. Each call takes 6 steps. The loop bound (3) counts entries
    of a JUMPDEST on a path, not loops, so the fourth call ends the path at
    ``fn`` (pc 33), before the STOP."""
    def body(a):
        for index in range(calls):
            a.push_label(f"R{index}").push_label("F").op("JUMP").jumpdest(f"R{index}")
        a.op("STOP")
        a.jumpdest("F").op("JUMP")
    result = _whole_and_stepped(body)
    assert list(result.ends.items()) == [(end, 1)]
    assert result.steps_used == (19 if calls == 3 else 22)
    handler, _, arg = _consumer_op(result, "JUMP")
    assert (handler, arg) == (sx._consume, 1)


@pytest.mark.parametrize("emitter", ["fallthrough", "taken"])
def test_path_ends_keep_their_order_of_first_end(emitter):
    """A symbolic JUMPI: the fallthrough side ends first, the taken side
    next. One side emits and exits through ``_finish_path``, the other exits
    plainly and is counted in place; either way ``ends`` holds its kinds in
    order of first end, and the record's ``path_id`` is its side's place."""
    def emit_and_stop(a):
        a.push(3).push(2).push(1).push(TRANSFER_TOPIC).push(0).push(0).op("LOG4").op("STOP")

    def body(a):
        a.jumpdest("L").push(4).op("CALLDATALOAD").push_label("T").op("JUMPI")
        emit_and_stop(a) if emitter == "fallthrough" else a.op("STOP")
        a.jumpdest("T")
        emit_and_stop(a) if emitter == "taken" else a.op("STOP")
    result = _whole_and_stepped(body)
    emission, exit_ = (sx.END_EMISSION, None), (END_EXIT, None)
    if emitter == "fallthrough":
        assert list(result.ends.items()) == [(emission, 1), (exit_, 2)]
    else:
        assert list(result.ends.items()) == [(exit_, 2), (emission, 1)]
    assert result.paths_finished == 2
    assert [record.path_id for record in result.records] == [
        0 if emitter == "fallthrough" else 1]


@pytest.mark.parametrize("max_steps", range(1, 8))
def test_the_step_budget_can_cut_a_fused_pair(max_steps):
    """The first block (JUMPDEST; PUSH1 4; CALLDATALOAD; PUSH2 L; JUMPI) is 5
    steps: a cut inside or after either fused pair steps it."""
    a = Asm()
    a.jumpdest("L").push(4).op("CALLDATALOAD").push_label("L").op("JUMPI").op("STOP")
    code, spans = a.assemble()
    budget = ExplorationBudget(max_steps=max_steps)
    whole_steps, _ = _compare(_unit(code, spans), [(FN, 0)], budget=budget, explorations=1)
    assert (whole_steps > 0) == (max_steps >= 5)


# --------------------------------------------------------------------------
# laziness: ops for exactly the blocks entered, built once

def test_a_block_ending_in_an_unknown_byte_gets_its_ops_once(monkeypatch):
    """The one block ends in an unknown byte: the first exploration builds
    its ops, and every exploration takes it whole."""
    code = bytes.fromhex("5b" "6001" "0c")  # JUMPDEST; PUSH1 1; unknown byte
    builds = Counter()
    block_form = sx._block_form

    def counting(code, pc):
        builds[pc] += 1
        return block_form(code, pc)

    monkeypatch.setattr(sx, "_block_form", counting)
    whole_steps, cfg = _compare(_unit(code), [(FN, 0)], explorations=5)
    assert cfg.blocks == [0]
    bit, ops, instrs, count, _, _ = cfg.block_at[0]
    assert whole_steps == 5 * count == 5 * len(instrs) == 5 * 3
    assert builds == {0: 1}
    assert cfg.visit_bit == {0: bit}  # the block starts with the JUMPDEST at 0
    assert ops[-1][0] is sx._unknown


def test_a_pruned_analysis_decodes_under_a_tenth_of_a_wide_unit(tmp_path, monkeypatch):
    """``Code.block`` decodes in its own loop, so its instructions are counted
    here, in the forms the engine kept: fewer than 10 % of the unit's."""
    unit = load_compilation(corpus.market_hub(1, 120).write(tmp_path))
    cfgs = []
    build = pipeline.build_cfg
    monkeypatch.setattr(pipeline, "build_cfg", lambda code: cfgs.append(build(code)) or cfgs[-1])
    assert pipeline.analyze_unit(unit, pipeline.RunConfig())["functions_analyzed"] == 2
    (cfg,) = cfgs
    decoded = sum(len(instrs) for _, _, instrs, *_ in cfg.block_at.values())
    assert 0 < decoded < len(cfg) / 10


def test_ops_are_built_for_exactly_the_blocks_entered(tmp_path):
    unit = load_compilation(corpus.market_hub(heavy_count=58).write(tmp_path))
    infos = function_infos(unit)
    assert len(infos) == 60
    binding = find_owner_return_binding(unit)
    cfg = build_cfg(disassemble(unit.runtime_bytecode))
    reference_cfg = build_cfg(disassemble(unit.runtime_bytecode))
    starts = set(disassemble(unit.runtime_bytecode).blocks)
    transfer_a, transfer_b = _targets(unit, select_target_functions(infos))
    reached = Counter()  # pc -> times the reference loop stepped it
    for fn, entry in [transfer_a, transfer_b, transfer_a]:
        Engine(unit, cfg, fn, binding, ExplorationBudget()).explore(entry)
        reference_explore.explore(_counting_steps(
            Engine(unit, reference_cfg, fn, binding, ExplorationBudget()), reached), entry)
        assert cfg.block_at
        # ops for every block entered, and for no block unentered
        assert set(cfg.block_at) == starts & set(reached)
