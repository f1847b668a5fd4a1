"""Block-at-a-time exploration against the per-step reference loop, and the
rule that a block's ops are built once, on its first entry."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fixtures as corpus
import reference_explore
from evmasm import GENERATED, Asm
from test_symexec import EMPTY_AST, FN, _emit_then

from sleepscan import symexec as sx
from sleepscan.astview import (
    EXTERNALLY_CALLABLE,
    find_owner_return_binding,
    function_infos,
    select_target_functions,
    with_selectors,
)
from sleepscan.disasm import build_cfg, disassemble, find_function_entry
from sleepscan.ingestion import CompilationUnit, load_compilation
from sleepscan.keccak import TRANSFER_TOPIC
from sleepscan.sym import Const
from sleepscan.symexec import END_EXIT, END_REVERT, Engine, ExplorationBudget

OWNER_RETURN = (100, 50, 0)  # the binding: an ownerOf return statement
INSIDE = (110, 5, 0)  # a span inside it
LOOP = bytes.fromhex("5b" "6000" "56")  # JUMPDEST; PUSH 0; JUMP (forever)


def _unit(code: bytes, spans=None) -> CompilationUnit:
    spans = spans if spans is not None else [GENERATED] * len(disassemble(code))
    return CompilationUnit("T", code, spans, EMPTY_AST, {0: ""}, (0, 8, 17))


def _outcome(result: sx.ExplorationResult) -> tuple:
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
    facts = sx.unit_facts(unit, binding)
    shared = build_cfg(disassemble(unit.runtime_bytecode))
    shared.block_at = lookups = _Lookups(shared.block_at)
    reference_cfg = build_cfg(disassemble(unit.runtime_bytecode))
    whole_steps = 0
    for _ in range(explorations):
        for fn, entry_pc in targets:
            stepped = Counter()
            got = _counting_steps(Engine(unit, shared, fn, facts, budget),
                                  stepped).explore(entry_pc)
            want = reference_explore.explore(
                Engine(unit, reference_cfg, fn, facts, budget), entry_pc)
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
        st.tuples(st.just("calldata"), st.integers(0, 2)),
        st.tuples(st.just("emit"), st.none()),
    ),
    st.booleans(),  # whether the item's source span lies in the ownerOf return
)
# a JUMPI on calldata forks; the other ends do not
_ENDS = ["jumpi-calldata"] * 3 + ["jumpi", "jump", "stop", "revert", "fall"]


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
            span = INSIDE if inside else GENERATED
            if kind == "push":
                a.push(arg, span)
            elif kind == "op":
                a.op(arg, span)
            elif kind == "calldata":
                a.push(4 + 32 * arg, span).op("CALLDATALOAD", span)
            else:  # a Transfer(CALLER, 2, 1) emission without data
                a.push(1, span).push(2, span).op("CALLER", span)
                a.push(TRANSFER_TOPIC, span).push(0, span).push(0, span).op("LOG4", span)
        end = draw(st.sampled_from(_ENDS))
        target = f"b{draw(st.integers(0, count - 1))}"
        if end == "jumpi-calldata":
            a.push(4).op("CALLDATALOAD")
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
    _compare(_unit(code, spans), [(FN, 0)], (OWNER_RETURN,), budget, explorations=3)


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


# --------------------------------------------------------------------------
# edge cases: the clock, the step budget, the stack limits, the owner
# checkpoint and the loop bound, each met inside a block

@pytest.mark.parametrize("clock", [[0.0] * 4, [0.0, 2.0]], ids=["never", "at-256"])
def test_runs_read_the_clock_every_256_steps(monkeypatch, clock):
    """LOOP is one 3-step block, so some of its entries straddle step 256
    and must be stepped one at a time; the clock is still read before steps
    0, 256, 512 and 768, and a passed deadline still ends the path at step
    256."""
    budget = ExplorationBudget(max_steps=1000, loop_bound=10**6, deadline=1.0)
    outcomes = []
    for explore in (Engine.explore, reference_explore.explore):
        readings = iter(clock)
        reads = []
        monkeypatch.setattr(sx.time, "monotonic",
                            lambda: reads.append(1) or next(readings))
        engine = Engine(_unit(LOOP), build_cfg(disassemble(LOOP)), FN,
                        sx.unit_facts(_unit(LOOP), ()), budget)
        outcomes.append((_outcome(explore(engine, 0)), len(reads)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == len(clock)


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
    block = cfg.block_at[code.index(0x5B)]
    assert (block.low, block.high) == (1, sx.MAX_STACK)
    result = Engine(_unit(code), cfg, FN, sx.unit_facts(_unit(code), ()),
                    ExplorationBudget()).explore(0)
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
    assert (cfg.block_at[label].low, cfg.block_at[label].high) == (0, sx.MAX_STACK - 2)
    result = Engine(_unit(code), cfg, FN, sx.unit_facts(_unit(code), ()),
                    ExplorationBudget()).explore(0)
    assert list(result.ends.items()) == [
        ((END_EXIT, None), 1), ((END_REVERT, f"stack overflow at {label + 2}"), 1)]


def test_runs_keep_the_owner_checkpoint():
    code = bytes.fromhex("6005" "5b" "80" "5b" "6006" "5b") + _emit_then("00")
    spans = [INSIDE, GENERATED, INSIDE, GENERATED, INSIDE, GENERATED] + [GENERATED] * 8
    whole_steps, _ = _compare(_unit(code, spans), [(FN, 0)], (OWNER_RETURN,), explorations=3)
    assert whole_steps > 0
    engine = Engine(_unit(code, spans), build_cfg(disassemble(code)), FN,
                    sx.unit_facts(_unit(code, spans), (OWNER_RETURN,)), ExplorationBudget())
    assert engine.owner_spans
    (emission,) = engine.explore(0).records
    assert emission.owner_trace == (Const(5), Const(6))


def test_budget_cut_emission_inside_runs():
    code = _emit_then("5b600c56")  # JUMPDEST; PUSH jumpdest_pc; JUMP
    jumpdest_pc = len(code) - 4
    code = code[:-2] + bytes([jumpdest_pc]) + code[-1:]
    budget = ExplorationBudget(loop_bound=2)
    whole_steps, _ = _compare(_unit(code), [(FN, 0)], budget=budget, explorations=3)
    assert whole_steps > 0


# --------------------------------------------------------------------------
# laziness: ops for exactly the blocks entered, built once

def test_a_block_ending_in_an_unknown_byte_gets_its_ops_once(monkeypatch):
    """The one block ends in an unknown byte: the first exploration builds
    its ops, and every exploration takes it whole."""
    code = bytes.fromhex("5b" "6001" "0c")  # JUMPDEST; PUSH1 1; unknown byte
    builds = Counter()
    build_ops = sx._build_ops

    def counting(block):
        builds[block.start_pc] += 1
        return build_ops(block)

    monkeypatch.setattr(sx, "_build_ops", counting)
    whole_steps, cfg = _compare(_unit(code), [(FN, 0)], explorations=5)
    (block,) = cfg.blocks
    assert whole_steps == 5 * len(block.instructions)
    assert builds == {0: 1}
    assert block.ops[-1][0] is sx._unknown


def test_ops_are_built_for_exactly_the_blocks_entered(tmp_path):
    unit = load_compilation(corpus.market_hub(heavy_count=58).write(tmp_path))
    infos = function_infos(unit)
    assert len(infos) == 60
    binding = find_owner_return_binding(unit)
    facts = sx.unit_facts(unit, binding)
    cfg = build_cfg(disassemble(unit.runtime_bytecode))
    reference_cfg = build_cfg(disassemble(unit.runtime_bytecode))
    starts = {b.start_pc for b in disassemble(unit.runtime_bytecode).blocks}
    transfer_a, transfer_b = _targets(unit, select_target_functions(infos))
    reached = Counter()  # pc -> times the reference loop stepped it
    for fn, entry in [transfer_a, transfer_b, transfer_a]:
        Engine(unit, cfg, fn, facts, ExplorationBudget()).explore(entry)
        reference_explore.explore(_counting_steps(
            Engine(unit, reference_cfg, fn, facts, ExplorationBudget()), reached), entry)
        built = {pc for pc, block in cfg.block_at.items() if block.ops is not None}
        assert built
        # ops for every block entered, and no block built or given ops unentered
        assert set(cfg.block_at) == built == starts & set(reached)
