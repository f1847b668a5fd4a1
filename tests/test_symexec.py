"""Interpreter semantics, checkpoints, budgets, emission records and
counted path ends."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import astbuild as ab
import oracle_evm
import progs
import reference_explore
from evmasm import Asm

from sleepscan import constraints as cs
from sleepscan import disasm, opcodes, pipeline, sym
from sleepscan import symexec as sx
from sleepscan.astview import (
    FunctionInfo,
    find_owner_return_binding,
    function_infos,
    select_target_functions,
)
from sleepscan.detectors import detect_privileged_address, is_storage_direct_address
from sleepscan.disasm import build_cfg, disassemble
from sleepscan.errors import EntryNotFound
from sleepscan.ingestion import Ast, CompilationUnit, load_compilation
from sleepscan.keccak import TRANSFER_TOPIC
from sleepscan.sym import Const, Environment, FreshExternal, Op, Parameter, Storage, Var
from sleepscan.symexec import (
    END_BUDGET,
    END_EMISSION,
    END_EXIT,
    END_REVERT,
    Engine,
    ExplorationBudget,
    MachineState,
    explore_function,
)

FN = FunctionInfo(
    name="transferFrom",
    selector=0x23B872DD,
    params=(("from", "address"), ("to", "address"), ("tokenId", "uint256")),
)

GENERATED = (-1, 0, -1)
EMPTY_AST = Ast({"nodeType": "SourceUnit", "src": "0:0:0"})  # every loaded unit has an AST


def _engine(code: bytes, binding=(), srcmap=None, ast=EMPTY_AST,
            budget: ExplorationBudget | None = None) -> Engine:
    instrs = disassemble(code)
    entries = srcmap if srcmap is not None else [GENERATED] * len(instrs)
    assert len(entries) == len(instrs)
    unit = CompilationUnit("T", code, entries, ast, {0: b""}, (0, 8, 17))
    return Engine(unit, build_cfg(instrs), FN, binding,
                  budget or ExplorationBudget())


def _run_straight_line(engine: Engine) -> MachineState:
    """Step a branch-free program to just before its terminator."""
    code = {instr.pc: instr for instr in disassemble(engine.unit.runtime_bytecode)}
    state = MachineState(pc=0)
    while True:
        instr = code[state.pc]
        if instr.name in ("STOP", "RETURN", "REVERT", "INVALID"):
            return state
        successors = engine.step(state, instr)
        assert len(successors) == 1
        state = successors[0]


# --------------------------------------------------------------------------
# differential: symbolic engine on concrete programs vs the reference
# interpreter

def test_engine_matches_reference_on_random_programs():
    rng = random.Random(0xD1FF)
    for _ in range(200):
        program = progs.random_program(rng, length=30)
        code = progs.to_bytecode(program)
        expected = oracle_evm.run(program)
        state = _run_straight_line(_engine(code + b"\x00"))
        assert all(isinstance(v, Const) for v in state.stack)
        assert [v.value for v in state.stack] == expected


@pytest.mark.parametrize("length", [1, 64, 65])
@pytest.mark.parametrize("head, link, tail", [
    ("600435", "600101", ""),                        # from + 1 + 1 ...
    ("600435600052", "6020600020600052", "600051"),  # keccak(keccak(from)) ... at memory 0
], ids=["add", "sha3"])
def test_a_value_deeper_than_64_ops_is_fresh(length, head, link, tail):
    code = bytes.fromhex(head + link * length + tail + "00")
    (value,) = _run_straight_line(_engine(code)).stack
    if length <= sx.MAX_DEPTH:
        assert isinstance(value, Op) and value.depth == length
    else:
        assert isinstance(value, Var) and value.kind == FreshExternal("deep")


# --------------------------------------------------------------------------
# checkpoint: calldata parameter binding

def test_calldataload_binds_declared_parameters():
    code = bytes.fromhex("600435" "602435" "600535" "601035" "00")
    state = _run_straight_line(_engine(code))
    p0, p1, odd, unaligned = state.stack
    assert p0 == Var("from", Parameter(0), is_address=True)
    assert p1 == Var("to", Parameter(1), is_address=True)
    assert isinstance(odd.kind, FreshExternal)  # offset 5 is not a head slot
    assert isinstance(unaligned.kind, FreshExternal)
    assert state.pc == len(code) - 1


def test_parameter_beyond_declared_list_gets_placeholder():
    engine = _engine(b"\x00")
    var = engine._param_var(7)
    assert var.name == "param_7" and var.kind == Parameter(7)
    assert engine._param_var(2).name == "tokenId"


# --------------------------------------------------------------------------
# checkpoint: storage provenance

def _layout_ast():
    span = (0, 100, 0)
    return {
        "nodeType": "SourceUnit", "src": "0:100:0",
        "nodes": [ab.contract("T", span, [
            ab.state_var("owner", "address", span),
            ab.state_var("_owners", "mapping(uint256 => address)", span),
            ab.state_var("total", "uint256", span),
        ])],
    }


def test_storage_naming_from_layout():
    engine = _engine(b"\x00", ast=Ast(_layout_ast()))
    state = MachineState(pc=0)

    direct = engine._storage_read(state, Const(0))
    assert direct.name == "owner"
    assert direct.kind == Storage(Const(0)) and direct.is_address

    key = Var("k", Parameter(2))
    mapped = engine._storage_read(state, Op("sha3", (key, Const(1))))
    assert mapped.name == "_owners[...]"  # one kind: its slot marks a mapping entry
    assert mapped.kind == Storage(Op("sha3", (key, Const(1)))) and mapped.is_address
    assert sym.mapping_base(mapped.kind.slot) == 1 and sym.mapping_base(direct.kind.slot) is None
    assert not is_storage_direct_address(mapped) and is_storage_direct_address(direct)

    word = engine._storage_read(state, Const(2))
    assert word.name == "total" and not word.is_address

    unknown = engine._storage_read(state, Const(9))
    assert unknown.name == "slot9"
    # repeated reads of the same slot return the identical variable
    assert engine._storage_read(state, Const(0)) is direct


# a parameter and a state variable may share a name, so the printed form of
# an expression does not identify it
OWNER_PARAM = Var("owner", Parameter(0), True)
OWNER_STATE = Var("owner", Storage(Const(0)), True)


def test_mapping_reads_keyed_by_same_named_symbols_are_two_symbols():
    engine = _engine(b"\x00", ast=Ast(_layout_ast()))
    state = MachineState(pc=0)
    by_param = Op("sha3", (OWNER_PARAM, Const(1)))
    by_state = Op("sha3", (OWNER_STATE, Const(1)))
    assert repr(by_param) == repr(by_state) and by_param != by_state
    first = engine._storage_read(state, by_param)
    second = engine._storage_read(state, by_state)
    assert first.name == second.name == "_owners[...]"
    assert first != second
    assert first.kind == Storage(by_param) and second.kind == Storage(by_state)
    assert engine._storage_read(state, by_param) is first


_SAME_NAMED = st.sampled_from([
    OWNER_PARAM, OWNER_STATE, Var("owner", Parameter(1), True),
    Var("owner", Environment("caller"), True), Var("owner", FreshExternal("call")),
])
_SLOTS = st.recursive(
    _SAME_NAMED | st.integers(0, 2).map(Const),
    lambda inner: st.builds(lambda op, a, b: Op(op, (a, b)),
                            st.sampled_from(["sha3", "add"]), inner, inner),
    max_leaves=6,
)


@settings(max_examples=200)
@given(_SLOTS, _SLOTS)
def test_storage_read_shares_a_symbol_exactly_for_equal_slots(first, second):
    engine = _engine(b"\x00", ast=Ast(_layout_ast()))
    state = MachineState(pc=0)
    one, other = engine._storage_read(state, first), engine._storage_read(state, second)
    assert (one is other) == (first == second)
    assert (one == other) == (first == second)


def test_storage_read_sees_own_writes():
    engine = _engine(b"\x00")
    state = MachineState(pc=0, stack=[Const(77), Const(3)])  # value, then the slot on top
    engine.step(state, disassemble(b"\x55")[0])  # SSTORE
    assert engine._storage_read(state, Const(3)) == Const(77)
    assert state.storage_writes == ((Const(3), Const(77)),)


# --------------------------------------------------------------------------
# checkpoint: emission snapshots

def _emit_then(suffix_hex: str) -> bytes:
    # stack top..down at LOG4: offset, size, topic0, from, to, tokenId
    return bytes.fromhex(
        "6001"          # tokenId
        "6002"          # to
        "6003"          # from
        "7f" + f"{TRANSFER_TOPIC:064x}" +
        "6000" "6000"   # size, offset
        "a4"            # LOG4
        + suffix_hex
    )


EMISSION_PC = 43  # the LOG4 of _emit_then at pc 0


def test_emission_snapshot_and_late_store():
    # emit first, SSTORE afterwards: marked clean at emission, set at exit
    result = _engine(_emit_then("6007600055" "00")).explore(0)
    assert result.ends == {(END_EMISSION, None): 1, (END_EXIT, None): 1}
    (emission,) = result.records
    assert emission.end_kind == END_EMISSION
    assert emission.sstore_mark_at_exit is True
    assert emission.emission_pc == EMISSION_PC
    # the event's `from` topic fills the role of a missing calldata param
    assert emission.from_param == Const(3)


def test_from_is_bound_at_the_path_s_exit():
    # after the emission, CALLER PUSH1 53 JUMPI: the fallthrough, which runs
    # first, loads parameter 0 (PUSH1 4 CALLDATALOAD POP STOP); the taken
    # side (53: JUMPDEST STOP) loads none, and still exits after that load
    code = _emit_then("33" "6035" "57" "6004" "35" "50" "00" "5b00")
    assert code[53] == 0x5B
    result = _engine(code).explore(0)
    assert result.ends == {(END_EMISSION, None): 2, (END_EXIT, None): 2}
    assert [r.from_param for r in result.records] == [Var("from", Parameter(0), True)] * 2


def test_execution_continues_past_emission():
    first = _emit_then("")
    result = _engine(first + _emit_then("00")).explore(0)
    assert [r.emission_pc for r in result.records] == [EMISSION_PC,
                                                       len(first) + EMISSION_PC]
    assert result.ends == {(END_EMISSION, None): 2, (END_EXIT, None): 1}


def test_reverted_path_discards_snapshots():
    result = _engine(_emit_then("60006000fd")).explore(0)  # PUSH 0 PUSH 0 REVERT
    assert result.records == []
    assert result.ends == {(END_REVERT, None): 1}


def test_non_transfer_log4_is_ignored():
    code = bytes.fromhex("6001600260036004" "6000" "6000" "a4" "00")
    result = _engine(code).explore(0)
    assert result.records == []
    assert result.ends == {(END_EXIT, None): 1}


def test_log1_is_not_an_emission():
    code = bytes.fromhex("7f" + f"{TRANSFER_TOPIC:064x}" + "6000" "6000" "a1" "00")
    result = _engine(code).explore(0)
    assert result.records == []
    assert result.ends == {(END_EXIT, None): 1}


def test_path_ends_count_into_a_plain_dict_in_first_end_order():
    """``ends`` is a plain dict, not a ``Counter``: CPython 3.11 specializes
    a subscript only on an exact dict, and ``ends[k] += 1`` on a Counter took
    302 ns against 124 ns for ``ends[k] = ends.get(k, 0) + 1`` on a dict
    (timeit, Python 3.11.7). A JUMPI on the parameter at 4 whose fallthrough
    reverts; its taken side (11) forks on the parameter at 0x24 again, the
    fallthrough a plain exit and the taken side (19) an emission then STOP."""
    code = bytes.fromhex("600435 600b 57" "6000 6000 fd"
                         "5b 602435 6013 57" "00" "5b") + _emit_then("00")
    result = _engine(code).explore(0)
    assert type(result.ends) is dict
    assert list(result.ends) == [(END_REVERT, None), (END_EXIT, None), (END_EMISSION, None)]
    assert list(result.ends.values()) == [1, 2, 1]


# --------------------------------------------------------------------------
# checkpoint: owner trace

OWNER_CODE = (100, 50, 0)  # the binding: ownerOf's definition
IN_OWNER = (110, 5, 0)  # a span inside it


def owner_reads() -> tuple[bytes, list]:
    """Loads in and out of ownerOf's code over two blocks, then a Transfer
    emission, with the source map. Slot A is keccak(memory[0:32]), B
    keccak(memory[32:64])."""
    a = Asm()

    def hashed_load(offset, span):
        a.push(32, span).push(offset, span).op("SHA3", span).op("SLOAD", span)

    hashed_load(0, IN_OWNER)     # A: traced
    hashed_load(0, IN_OWNER)     # A again: collapsed
    a.op("JUMPDEST")
    a.push(0, IN_OWNER).op("SLOAD", IN_OWNER)  # a constant slot: not traced
    hashed_load(32, GENERATED)   # B outside ownerOf's code: not traced
    hashed_load(32, IN_OWNER)    # B: traced
    hashed_load(0, IN_OWNER)     # A after B: traced
    code, spans = a.assemble()
    emission = _emit_then("00")
    return code + emission, spans + [GENERATED] * len(disassemble(emission))


@pytest.mark.parametrize("explore", [Engine.explore, reference_explore.explore],
                         ids=["whole-blocks", "one-step-at-a-time"])
def test_owner_trace_keeps_computed_loads_in_the_owner_code(explore):
    code, srcmap = owner_reads()
    (emission,) = explore(_engine(code, binding=(OWNER_CODE,), srcmap=srcmap), 0).records
    first, second, third = emission.owner_trace
    assert first == third != second
    assert [entry.kind.slot for entry in (first, second)] == [
        Op("sha3", (Var("mem_0", FreshExternal("memory")),)),
        Op("sha3", (Var("mem_1", FreshExternal("memory")),))]


def test_no_binding_means_empty_trace():
    engine = _engine(bytes.fromhex("6005") + _emit_then("00"))
    (emission,) = engine.explore(0).records
    assert emission.owner_trace == ()


def test_generated_code_is_never_an_owner_read():
    """An ``ownerOf`` without ``src`` has the binding span (-1, 0, -1), which
    holds generated code's -1:-1:-1 by its offsets; a load there is in no
    source file, so none is traced."""
    owner_of = ab.function("ownerOf", "public", [], [], OWNER_CODE, OWNER_CODE)
    del owner_of["src"]
    ast = Ast(ab.source_unit((0, 200, 0), [ab.contract("T", (0, 200, 0), [owner_of])]))
    binding = find_owner_return_binding(CompilationUnit("T", b"", [], ast, {0: b""}, (0, 8, 17)))
    assert binding == ((-1, 0, -1),)
    code, _ = owner_reads()
    srcmap = [(-1, -1, -1)] * len(disassemble(code))
    (emission,) = _engine(code, binding=binding, srcmap=srcmap).explore(0).records
    assert emission.owner_trace == ()


def test_span_contains():
    # _span_contains(outer, inner) asks whether `inner` lies inside `outer`
    assert sx._span_contains((10, 20, 0), (10, 20, 0))
    assert sx._span_contains((10, 20, 0), (12, 5, 0))
    assert sx._span_contains((12, 5, 0), (10, 20, 0)) is False
    assert sx._span_contains((12, 5, 1), (12, 5, 0)) is False  # file


# --------------------------------------------------------------------------
# external calls and taint

def test_call_taints_and_produces_fresh_value():
    code = bytes.fromhex("6000" * 7 + "f1") + _emit_then("00")
    engine = _engine(code)
    state = _run_straight_line(engine)
    assert state.tainted
    (ret,) = state.stack
    assert isinstance(ret.kind, FreshExternal) and ret.kind.origin == "call"
    (emission,) = _engine(code).explore(0).records
    assert emission.tainted


def test_call_result_is_memoized_per_site():
    engine = _engine(bytes.fromhex("6000" * 7 + "f1" + "6000" * 7 + "f1" "00"))
    state = _run_straight_line(engine)
    a, b = state.stack
    assert isinstance(a, Var) and isinstance(b, Var)
    assert a != b  # two call sites, two unknowns


# --------------------------------------------------------------------------
# control flow, branching and budgets

def _branch_then_emit(condition_hex: str) -> bytes:
    """JUMPI on ``condition_hex``; both sides emit a Transfer and stop."""
    side = _emit_then("00")
    target = len(condition_hex) // 2 + 3 + len(side)
    return bytes.fromhex(condition_hex + f"60{target:02x}" "57") + side + b"\x5b" + side


def test_symbolic_branch_forks_with_constraints():
    # JUMPI on calldataload(4): taken requires nonzero, fallthrough zero
    result = _engine(_branch_then_emit("600435")).explore(0)
    assert result.ends == {(END_EMISSION, None): 2, (END_EXIT, None): 2}
    relations = sorted(c.relation for r in result.records for c in r.constraints)
    assert relations == [cs.NONZERO, cs.ZERO]


def test_iszero_chain_flips_branch_relation():
    result = _engine(_branch_then_emit("600435" "15")).explore(0)
    by_relation = {c.relation for r in result.records for c in r.constraints}
    assert by_relation == {cs.ZERO, cs.NONZERO}
    taken = [r for r in result.records
             if any(c.relation == cs.ZERO for c in r.constraints)]
    assert taken and all(c.lhs == Var("from", Parameter(0), True)
                         for r in taken for c in r.constraints)


def _caller_is(asm: Asm, slot: int) -> Asm:
    # an SLOAD under a 160-bit mask is a storage-direct address without a layout
    return asm.push(sym.MASK160).push(slot).op("SLOAD").op("AND").op("CALLER").op("EQ")


def _caller_is_either(asm: Asm) -> Asm:
    return _caller_is(_caller_is(asm, 0), 1).op("OR")


def _guarded_emission(condition, shape: str) -> bytes:
    """An emission behind ``condition`` in one branch orientation: jump to it
    on ``c``, revert on ``iszero(c)``, or jump to it on ``iszero(iszero(c))``."""
    asm = condition(Asm())
    if shape == "revert-on-iszero":
        asm.op("ISZERO").push_label("revert").op("JUMPI")
    else:
        if shape == "iszero-iszero":
            asm.op("ISZERO").op("ISZERO")
        asm.push_label("ok").op("JUMPI").push(0).push(0).op("REVERT").jumpdest("ok")
    asm.push(1).push(2).push(3).push(TRANSFER_TOPIC, width=32).push(0).push(0).op("LOG4")
    asm.op("STOP").jumpdest("revert").push(0).push(0).op("REVERT")
    return asm.assemble()[0]


@pytest.mark.parametrize("condition,comparisons", [
    (lambda asm: _caller_is(asm, 0), 1), (_caller_is_either, 2)], ids=["eq", "or"])
def test_privileged_address_holds_in_every_branch_orientation(condition, comparisons):
    """The guard's orientation on the path does not change the PA finding or
    its witness, one entry per comparison of the caller with a stored address."""
    findings = []
    for shape in ("jump-on-c", "revert-on-iszero", "iszero-iszero"):
        (record,) = _engine(_guarded_emission(condition, shape)).explore(0).records
        findings.append(detect_privileged_address(record))
    assert findings[0] is not None and len(findings[0].witness) == comparisons
    assert findings == [findings[0]] * 3


def test_concrete_branch_does_not_fork():
    code = bytes.fromhex("6001" "6006" "57" "fe" "5b") + _emit_then("00")
    result = _engine(code).explore(0)
    assert result.ends == {(END_EMISSION, None): 1, (END_EXIT, None): 1}
    (emission,) = result.records
    assert len(emission.constraints) == 0


def test_jump_to_non_jumpdest_kills_path():
    result = _engine(bytes.fromhex("600356" "00" "00")).explore(0)
    assert result.records == []
    assert result.ends == {(END_REVERT, "jump to non-JUMPDEST 3 at 2"): 1}


@pytest.mark.parametrize("code,diagnostic", [
    (bytes.fromhex("0c"), "unknown opcode 0x0C at 0"),
    (bytes.fromhex("01"), "stack underflow at 0 (ADD)"),
    (bytes.fromhex("5f" * 1025), "stack overflow at 1024"),
    (bytes.fromhex("33" "56"), "symbolic jump target at 1"),
    (bytes.fromhex("6001"), "fell off code at pc 2"),
], ids=["unknown-opcode", "underflow", "overflow", "symbolic-jump", "no-halt"])
def test_killed_path_is_one_revert_end(code, diagnostic):
    result = _engine(code).explore(0)
    assert result.records == []
    assert result.ends == {(END_REVERT, diagnostic): 1}


@pytest.mark.parametrize("op", ["eq", "lt", "gt", "slt", "sgt"])
def test_branch_relation_agrees_with_the_interpreter(op):
    """The constraint a branch pushes holds exactly when the interpreter's
    comparison gives the branch's truth value, through an iszero too."""
    values = (0, 1, sym.SIGN_BIT - 1, sym.SIGN_BIT, sym.MASK256)
    for a in values:
        for b in values:
            comparison = Op(op, (Const(a), Const(b)))
            taken = sym.eval_op(op, (a, b)) == 1
            for condition, truthy in ((comparison, taken),
                                      (Op("iszero", (comparison,)), not taken)):
                for branch in (True, False):
                    c = sx._relational(condition, branch)
                    assert c.holds({}) is (branch == truthy), (op, a, b, branch)


def test_loop_bound_ends_path_as_budget_exhausted():
    code = bytes.fromhex("5b" "6000" "56")  # JUMPDEST; PUSH 0; JUMP (forever)
    engine = _engine(code, budget=ExplorationBudget(loop_bound=3))
    result = engine.explore(0)
    assert result.records == []
    assert result.ends == {(END_BUDGET, "loop bound at jumpdest 0"): 1}


LOOP = bytes.fromhex("5b" "6000" "56")  # JUMPDEST; PUSH 0; JUMP (forever)


def _loop_ends(loop_bound: int, max_steps: int = 100_000, explore=Engine.explore):
    engine = _engine(LOOP, budget=ExplorationBudget(max_steps=max_steps,
                                                    loop_bound=loop_bound))
    result = explore(engine, 0)
    return result.steps_used, result.ends


@pytest.mark.parametrize("loop_bound", [0, 1, 2, 3])
def test_a_loop_ends_at_its_bound_plus_one_entries(loop_bound):
    """Each of the first ``loop_bound`` entries of LOOP runs its 3 steps; the
    next steps only the JUMPDEST and ends the path, whether the block is taken
    whole, stepped because it would pass ``max_steps``, or stepped by the
    reference loop."""
    want = (3 * loop_bound + 1, {(END_BUDGET, "loop bound at jumpdest 0"): 1})
    assert _loop_ends(loop_bound) == want
    assert _loop_ends(loop_bound, max_steps=3 * loop_bound + 2) == want
    assert _loop_ends(loop_bound, explore=reference_explore.explore) == want


def test_each_fork_side_counts_its_own_revisits():
    """Stepped: both sides share the count of the first entry; a revisit on
    one side is not seen on the other."""
    engine = _engine(LOOP, budget=ExplorationBudget(loop_bound=3))
    jumpdest = disassemble(LOOP)[0]
    state = MachineState(pc=0)
    engine.step(state, jumpdest)
    forked = dataclasses.replace(state, stack=state.stack[:])
    engine.step(state, jumpdest)
    assert state.revisits == {0: 2}
    assert forked.revisits == {} and forked.visited == state.visited == 1
    engine.step(forked, jumpdest)
    engine.step(state, jumpdest)
    assert state.revisits == {0: 3} and forked.revisits == {0: 2}
    assert engine.step(state, jumpdest) == () and len(engine.step(forked, jumpdest)) == 1
    assert engine.ends == {(END_BUDGET, "loop bound at jumpdest 0"): 1}


@pytest.mark.parametrize("loop_bound", [1, 2, 3])
def test_both_sides_of_every_fork_loop_to_the_bound(loop_bound):
    """Whole blocks: every entry of L forks, and both sides come back to L,
    so each of the 2 ** loop_bound paths ends at its own entry
    ``loop_bound + 1``."""
    a = Asm()
    a.jumpdest("L").push(4).op("CALLDATALOAD").push_label("M").op("JUMPI")
    a.push_label("L").op("JUMP")
    a.jumpdest("M").push_label("L").op("JUMP")
    code, _ = a.assemble()
    result = _engine(code, budget=ExplorationBudget(loop_bound=loop_bound)).explore(0)
    assert result.ends == {(END_BUDGET, "loop bound at jumpdest 0"): 2 ** loop_bound}


def test_a_jumpdest_only_block_falls_through():
    code = bytes.fromhex("5b" "5b" "00")  # JUMPDEST; JUMPDEST; STOP
    engine = _engine(code)
    result = engine.explore(0)
    assert result.ends == {(END_EXIT, None): 1} and result.steps_used == 3
    bit, ops, *_ = engine.cfg.block_at[0]
    assert ops == () and bit == engine.cfg.visit_bit[0]


def test_budget_emission_records_are_not_reportable_kind():
    # a path that emits and then loops forever counts its emission under the
    # budget end kind, never as "transfer-emission", and keeps no record
    code = _emit_then("5b600c56")  # JUMPDEST; PUSH jumpdest_pc; JUMP
    # patch jump target to the JUMPDEST we appended
    jumpdest_pc = len(code) - 4
    code = code[:-2] + bytes([jumpdest_pc]) + code[-1:]
    engine = _engine(code, budget=ExplorationBudget(loop_bound=2))
    result = engine.explore(0)
    assert result.records == []
    assert result.ends == {(END_BUDGET, None): 1,
                           (END_BUDGET, f"loop bound at jumpdest {jumpdest_pc}"): 1}


def test_step_budget_caps_work():
    code = bytes.fromhex("5b" "6000" "56")
    engine = _engine(code, budget=ExplorationBudget(max_steps=5, loop_bound=10**6))
    result = engine.explore(0)
    assert result.steps_used == 5
    assert result.records == []
    assert result.ends == {(END_BUDGET, "step budget"): 1}


def test_exploration_is_deterministic():
    code = _branch_then_emit("600435")
    def snapshot():
        res = _engine(code).explore(0)
        return [(r.end_kind, r.constraints, r.path_id)
                for r in res.records], list(res.ends.items())
    assert snapshot() == snapshot()


def test_fork_sides_keep_their_own_writes_and_share_the_history():
    # JUMPI on calldataload(4). The fallthrough side, which runs first, passes
    # a JUMPDEST, stores slot 0, writes memory word 0x40, emits a Transfer and
    # stops with one value on the stack; the taken side only reads word 0x40.
    writer = bytes.fromhex("5b" "6007600055" "6009604052") + _emit_then("6001" "00")
    code = (bytes.fromhex(f"600435 60{6 + len(writer):02x} 57") + writer
            + bytes.fromhex("5b604051" "00"))
    result = _engine(code).explore(0)
    (record,) = result.records
    assert record.sstore_mark_at_exit
    assert [c.relation for c in record.constraints] == [cs.ZERO]  # the fallthrough
    assert result.ends == {(END_EMISSION, None): 1, (END_EXIT, None): 2}

    engine = _engine(code)
    instrs = {instr.pc: instr for instr in disassemble(code)}

    def run(state):  # step to just before the next JUMPI or STOP
        while instrs[state.pc].name not in ("JUMPI", "STOP"):
            (state,) = engine.step(state, instrs[state.pc])
        return state

    taken, fallthrough = engine.step(run(MachineState(pc=0)), instrs[5])
    writer = run(fallthrough)
    assert writer.memory and writer.storage_writes and writer.snapshots
    reader = run(taken)
    (word,) = reader.stack
    assert word.kind == FreshExternal("memory")
    assert reader.memory == reader.storage_writes == reader.snapshots == ()

    # one entry of the JUMPDEST at 6: its bit, and no count of a second entry
    assert writer.stack == [Const(1)]
    assert writer.visited == engine.cfg.visit_bit[6] and writer.revisits == {}

    # a fork at the JUMPI at 5, on a symbolic condition, of a state whose
    # every history field is set: the sides share each field but the pc, the
    # stack and the constraints
    condition = Var("from", Parameter(0), True)
    target = instrs[3].push_value
    state = dataclasses.replace(writer, pc=5, stack=[Const(1), condition, Const(target)],
                                owner_trace=(condition,), tainted=True, revisits={6: 2})
    shared = [f.name for f in dataclasses.fields(MachineState)
              if f.name not in ("pc", "stack", "constraints")]
    unset = MachineState(pc=0)
    assert all(getattr(state, name) != getattr(unset, name) for name in shared)
    history = {name: getattr(state, name) for name in shared}
    constraints = state.constraints
    taken, fallthrough = engine.step(state, instrs[5])
    for name in shared:
        assert getattr(taken, name) is getattr(fallthrough, name) is history[name], name
    assert (taken.pc, fallthrough.pc) == (target, 6)
    assert taken.stack == fallthrough.stack == [Const(1)]
    assert taken.stack is not fallthrough.stack
    relation = cs.Constraint(cs.NONZERO, condition)
    assert taken.constraints == constraints + (relation,)
    assert fallthrough.constraints == constraints + (relation.negated(),)

    memory = taken.memory
    for instr in disassemble(bytes.fromhex("6000" "52")):  # the fallthrough writes word 0
        engine.step(fallthrough, instr)
    assert len(fallthrough.memory) == len(memory) + 1
    assert taken.memory is memory and taken.stack == [Const(1)]


def test_explore_function_requires_selector():
    code = b"\x00"
    unit = CompilationUnit("T", code, [GENERATED], None, {0: b""}, (0, 8, 17))
    cfg = build_cfg(disassemble(code))
    with pytest.raises(EntryNotFound):
        explore_function(unit, cfg, FN, None)  # no dispatcher in this code


def test_a_target_whose_selector_is_pushed_in_three_bytes_is_explored():
    # DUP1 PUSH3 0xfdd58e EQ PUSH1 11 JUMPI STOP STOP, then 11: JUMPDEST and an emission
    head = bytes.fromhex("80" "62fdd58e" "14" "600b" "57" "00" "00" "5b")
    code = head + _emit_then("00")
    unit = CompilationUnit("T", code, [GENERATED] * len(disassemble(code)), EMPTY_AST,
                           {0: b""}, (0, 8, 17))
    fn = FunctionInfo("balanceOf", 0x00FDD58E, ())
    result = explore_function(unit, build_cfg(disassemble(code)), fn, ())
    assert [r.emission_pc for r in result.records] == [len(head) + EMISSION_PC]


# --------------------------------------------------------------------------
# memory words

def _mload_after(stores_hex: str) -> sym.SymValue:
    """Top of stack after ``stores_hex`` then ``PUSH1 0 MLOAD``."""
    engine = _engine(bytes.fromhex(stores_hex + "600051" + "00"))
    return _run_straight_line(engine).stack[-1]


ALIGNED_STORE = "60aa600052"  # PUSH1 AA PUSH1 0 MSTORE


def test_aligned_read_keeps_the_stored_value():
    assert _mload_after(ALIGNED_STORE) == Const(0xAA)
    # writes that end before or start after the word leave it intact
    assert _mload_after(ALIGNED_STORE + "60ff602053") == Const(0xAA)  # MSTORE8 at 32
    assert _mload_after("60bb6020526000600052") == Const(0)  # MSTORE at 32, then at 0


def test_mstore8_inside_the_word_makes_it_fresh():
    value = _mload_after(ALIGNED_STORE + "60ff600053")  # PUSH1 FF PUSH1 0 MSTORE8
    assert value != Const(0xAA)
    assert isinstance(value, Var) and value.kind == FreshExternal("memory")


def test_unaligned_mstore_makes_the_word_fresh():
    value = _mload_after(ALIGNED_STORE + "60bb600152")  # PUSH1 BB PUSH1 1 MSTORE
    assert value != Const(0xAA)
    assert isinstance(value, Var) and value.kind == FreshExternal("memory")


def test_mload_at_same_named_symbolic_offsets_gives_two_fresh_symbols():
    engine = _engine(b"\x00")
    mload = disassemble(b"\x51")[0]
    words = []
    for offset in (OWNER_PARAM, OWNER_STATE, OWNER_PARAM):
        (state,) = engine.step(MachineState(pc=0, stack=[offset]), mload)
        words.append(state.stack[-1])
    assert repr(OWNER_PARAM) == repr(OWNER_STATE)
    assert words[0] != words[1] and words[0] is words[2]
    assert all(word.kind == FreshExternal("memory") for word in words)


def test_partial_overwrite_symbol_differs_from_unwritten_memory():
    engine = _engine(bytes.fromhex("600051" + ALIGNED_STORE + "60ff600053" + "600051" + "00"))
    state = _run_straight_line(engine)
    before, after = state.stack
    assert before != after
    assert isinstance(before, Var) and isinstance(after, Var)


# the copies and calls write memory the engine does not model: a later read of
# those bytes is a fresh symbol, never the value stored before
COPY_ARGS = "6020" "6004" "6000"  # size 32, source offset 4, destination 0
CALL_OUTPUT = "6020" "6000" "6000" "6000"  # output size 32 at 0; no input


@pytest.mark.parametrize("copy_hex", [
    COPY_ARGS + "37",                # CALLDATACOPY
    COPY_ARGS + "39",                # CODECOPY
    COPY_ARGS + "6005" "3c",         # EXTCODECOPY from address 5
    COPY_ARGS + "3e",                # RETURNDATACOPY
    CALL_OUTPUT + "6000" "6000" "6000" "f1" "50",  # CALL, result popped
    CALL_OUTPUT + "6000" "6000" "6000" "f2" "50",  # CALLCODE
    CALL_OUTPUT + "6000" "6000" "f4" "50",         # DELEGATECALL
    CALL_OUTPUT + "6000" "6000" "fa" "50",         # STATICCALL
], ids=["calldatacopy", "codecopy", "extcodecopy", "returndatacopy",
        "call", "callcode", "delegatecall", "staticcall"])
def test_memory_written_by_a_copy_or_call_reads_fresh(copy_hex):
    value = _mload_after(ALIGNED_STORE + copy_hex)
    assert value != Const(0xAA)
    assert isinstance(value, Var) and isinstance(value.kind, FreshExternal)


@pytest.mark.parametrize("copy_hex", [
    "6000" "6004" "6000" "37",  # CALLDATACOPY of 0 bytes
    "6020" "6004" "6020" "37",  # CALLDATACOPY to the next word
    "6000" "6000" "6000" "6000" "6000" "6000" "6000" "f1" "50",  # CALL, no output
], ids=["empty-copy", "next-word", "call-without-output"])
def test_copy_outside_the_word_keeps_it(copy_hex):
    assert _mload_after(ALIGNED_STORE + copy_hex) == Const(0xAA)


# a write whose destination is symbolic may overlap any word: a later read
# of a word written before it is a fresh symbol, never the older value
SYMBOLIC_DEST = "6004" "35"  # CALLDATALOAD(4)


@pytest.mark.parametrize("write_hex", [
    "6007" + SYMBOLIC_DEST + "52",         # MSTORE 7 there
    "6020" "6004" + SYMBOLIC_DEST + "37",  # CALLDATACOPY of 32 bytes there
], ids=["mstore", "calldatacopy"])
def test_write_at_a_symbolic_offset_makes_the_word_fresh(write_hex):
    value = _mload_after("6005600052" + write_hex)  # PUSH1 5 PUSH1 0 MSTORE first
    assert value != Const(5)
    assert isinstance(value, Var) and isinstance(value.kind, FreshExternal)


def test_read_at_the_symbolic_offset_written_keeps_the_value():
    code = "6007" + SYMBOLIC_DEST + "52" + SYMBOLIC_DEST + "51" + "00"  # MSTORE, MLOAD
    assert _run_straight_line(_engine(bytes.fromhex(code))).stack[-1] == Const(7)


# a copy or call output whose size is symbolic may write any byte from its
# offset on: a later read of a word reaching past the offset is fresh
SYMBOLIC_SIZE = "36"  # CALLDATASIZE


@pytest.mark.parametrize("write_hex", [
    SYMBOLIC_SIZE + "6000" "6000" "37",  # CALLDATACOPY(0, 0, CALLDATASIZE)
    SYMBOLIC_SIZE + "6000" "6000" "6000" "6000" "6000" "6000" "f1" "50",  # CALL output
], ids=["copy", "call-output"])
def test_write_of_a_symbolic_size_makes_later_words_fresh(write_hex):
    value = _mload_after("6005600052" + write_hex)  # PUSH1 5 PUSH1 0 MSTORE first
    assert value != Const(5)
    assert isinstance(value, Var) and isinstance(value.kind, FreshExternal)


@pytest.mark.parametrize("offset_hex", ["6020", SYMBOLIC_DEST], ids=["after", "symbolic"])
def test_write_of_a_symbolic_size_spares_only_words_before_it(offset_hex):
    # CALLDATACOPY(offset, 0, CALLDATASIZE) after MSTOREs of 5 at 0 and 6 at 64
    code = ("6005600052" "6006604052" + SYMBOLIC_SIZE + "6000" + offset_hex + "37"
            "600051" "604051" "00")
    before, after = _run_straight_line(_engine(bytes.fromhex(code))).stack
    assert after != Const(6) and isinstance(after.kind, FreshExternal)
    if offset_hex == SYMBOLIC_DEST:
        assert before != Const(5) and isinstance(before.kind, FreshExternal)
    else:
        assert before == Const(5)


def test_memory_reads_match_the_reference_or_are_fresh():
    """On concrete MSTORE/MSTORE8/MLOAD programs, a Const the engine gives is
    the reference value; anything else is a memory symbol, and one symbol
    never stands for two different values."""
    rng = random.Random(0x3E3)
    fresh_reads = 0
    for _ in range(300):
        program = progs.random_memory_program(rng, length=30)
        expected = oracle_evm.run(program)
        state = _run_straight_line(_engine(progs.to_bytecode(program) + b"\x00"))
        assert len(state.stack) == len(expected)
        meaning = {}
        for value, concrete in zip(state.stack, expected):
            if isinstance(value, Const):
                assert value.value == concrete, program
            else:
                assert isinstance(value, Var) and value.kind == FreshExternal("memory")
                assert meaning.setdefault(value, concrete) == concrete, program
                fresh_reads += 1
    assert fresh_reads > 100


# --------------------------------------------------------------------------
# the dispatch table and the deadline

@pytest.mark.parametrize("byte", range(256), ids=lambda byte: f"0x{byte:02X}")
def test_every_byte_steps_or_ends_the_path(byte):
    """One instruction on an empty stack: an unknown byte and an opcode that
    pops end the path as a revert and step to no state, every other opcode
    steps."""
    entry = opcodes.TABLE.get(byte)
    push_width = byte - 0x5F if 0x60 <= byte <= 0x7F else 0
    engine = _engine(bytes([byte]) + bytes(push_width))
    state = MachineState(pc=0)
    instr = disassemble(engine.unit.runtime_bytecode)[0]
    if entry is None or entry[1] > 0:
        assert engine.step(state, instr) == ()
        ((kind, reason),) = engine.ends
        assert kind == END_REVERT and engine.paths_finished == 1
        assert reason.startswith(
            f"unknown opcode 0x{byte:02X}" if entry is None else "stack underflow")
    else:
        engine.step(state, instr)
        assert len(state.stack) == entry[2]


@pytest.mark.parametrize("operands", ["symbols", "constants"])
def test_only_a_block_end_forks_or_ends_a_path(operands):
    """Whole-block execution runs a block's ops without looking at their
    successors, so every byte the partition does not end a block after must
    step to the next instruction on a stack of exactly its operands."""
    for byte in range(256):
        if disasm._BLOCK_END[byte]:
            continue
        pops = opcodes.TABLE[byte][1]
        push_width = byte - 0x5F if 0x60 <= byte <= 0x7F else 0
        engine = _engine(bytes([byte]) + bytes(push_width))
        instr = disassemble(engine.unit.runtime_bytecode)[0]
        stack = [Var(f"w{index}", FreshExternal("test")) if operands == "symbols"
                 else Const(index) for index in range(pops)]
        state = MachineState(pc=0, stack=stack)
        successors = engine.step(state, instr)
        assert len(successors) == 1 and successors[0] is state, instr.name
        assert state.pc == instr.next_pc, instr.name


def test_deadline_is_read_every_256_steps(monkeypatch):
    reads = []
    monkeypatch.setattr(sx.time, "monotonic", lambda: reads.append(1) or 0.0)
    budget = ExplorationBudget(max_steps=1000, loop_bound=10**6, deadline=1.0)
    result = _engine(LOOP, budget=budget).explore(0)
    assert result.steps_used == 1000 and not result.timed_out
    # on entering the 3-step blocks at steps 0, 258, 516 and 774: the first
    # block entries once 256 steps have passed since the last read
    assert len(reads) == 4


def test_passed_deadline_ends_the_path_at_the_next_read(monkeypatch):
    # read before step 0, then at step 258, the first block entry after step 256
    clock = iter([0.0, 2.0])
    monkeypatch.setattr(sx.time, "monotonic", lambda: next(clock))
    budget = ExplorationBudget(loop_bound=10**6, deadline=1.0)
    result = _engine(LOOP, budget=budget).explore(0)
    assert result.timed_out and result.steps_used == 258
    assert result.ends == {(END_BUDGET, "wall-clock timeout"): 1}


# --------------------------------------------------------------------------
# exploration work on the reference corpus

# (contract, function) -> steps, finished paths, path ends in the order they
# first occur, and whether pruning keeps the function
_QUOTE = (3594, 515, {(END_EXIT, None): 512, (END_BUDGET, "path budget"): 3}, False)
EXPLORATION_WORK = {
    ("HiddenApprover", "ownerOf"): (17, 1, {(END_EXIT, None): 1}, False),
    ("HiddenApprover", "transferFrom"): (
        144, 7, {(END_REVERT, None): 4, (END_EMISSION, None): 3, (END_EXIT, None): 3}, True),
    ("FreeMintable", "ownerOf"): (17, 1, {(END_EXIT, None): 1}, False),
    ("FreeMintable", "transferFrom"): (
        98, 5, {(END_REVERT, None): 3, (END_EMISSION, None): 2, (END_EXIT, None): 2}, True),
    ("FreeMintable04", "ownerOf"): (17, 1, {(END_EXIT, None): 1}, False),
    ("FreeMintable04", "transferFrom"): (
        98, 5, {(END_REVERT, None): 3, (END_EMISSION, None): 2, (END_EXIT, None): 2}, True),
    ("FreeMintableShanghai", "ownerOf"): (17, 1, {(END_EXIT, None): 1}, False),
    ("FreeMintableShanghai", "transferFrom"): (
        98, 5, {(END_REVERT, None): 3, (END_EMISSION, None): 2, (END_EXIT, None): 2}, True),
    ("ChubbyBunny", "ownerOf"): (17, 1, {(END_EXIT, None): 1}, False),
    ("ChubbyBunny", "transferFrom"): (
        65, 3, {(END_EMISSION, None): 1, (END_EXIT, None): 1, (END_REVERT, None): 2}, True),
    ("BatchAirdrop", "batchTransfer"): (
        306, 15, {(END_BUDGET, None): 12, (END_BUDGET, "loop bound at jumpdest 28"): 8,
                  (END_EMISSION, None): 5, (END_EXIT, None): 7}, True),
    ("GuardedGallery", "ownerOf"): (17, 1, {(END_EXIT, None): 1}, False),
    ("GuardedGallery", "transferFrom"): (
        108, 6, {(END_REVERT, None): 4, (END_EMISSION, None): 2, (END_EXIT, None): 2}, True),
    ("OrderlyMuseum", "ownerOf"): (17, 1, {(END_EXIT, None): 1}, False),
    ("OrderlyMuseum", "transferFrom"): (
        114, 4, {(END_REVERT, None): 2, (END_EMISSION, None): 2, (END_EXIT, None): 2}, True),
    ("PausableGallery", "ownerOf"): (17, 1, {(END_EXIT, None): 1}, False),
    ("PausableGallery", "transferFrom"): (
        119, 7, {(END_REVERT, None): 5, (END_EMISSION, None): 2, (END_EXIT, None): 2}, True),
    ("RelistedArt", "ownerOf"): (17, 1, {(END_EXIT, None): 1}, False),
    ("RelistedArt", "transferFrom"): (
        48, 2, {(END_EMISSION, None): 1, (END_EXIT, None): 1, (END_REVERT, None): 1}, True),
    ("BridgeRelay", "bridgeTransfer"): (
        29, 2, {(END_EMISSION, None): 1, (END_EXIT, None): 1, (END_REVERT, None): 1}, True),
    ("SteadyMint", "mint"): (49, 1, {(END_EMISSION, None): 2, (END_EXIT, None): 1}, True),
    ("QuietIslands", "transferFrom"): (
        62, 3, {(END_EXIT, None): 1, (END_REVERT, None): 2}, True),
    **{("MarketHub", f"quote{i}"): _QUOTE for i in range(18)},
    ("MarketHub", "transferA"): (25, 1, {(END_EMISSION, None): 1, (END_EXIT, None): 1}, True),
    ("MarketHub", "transferB"): (25, 1, {(END_EMISSION, None): 1, (END_EXIT, None): 1}, True),
}


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_exploration_work_on_the_corpus_is_pinned(corpus_dir, monkeypatch, prune):
    work = []
    explore = pipeline.explore_function

    def recording(unit, cfg, fn, *args):
        result = explore(unit, cfg, fn, *args)
        work.append(((unit.contract_name, fn.name),
                     (result.steps_used, result.paths_finished, list(result.ends.items()))))
        return result

    monkeypatch.setattr(pipeline, "explore_function", recording)
    for sub in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        pipeline.analyze_path(str(sub), pipeline.RunConfig(prune=prune))
    expected = {key: (steps, paths, list(ends.items()))
                for key, (steps, paths, ends, kept) in EXPLORATION_WORK.items()
                if kept or not prune}
    assert len(work) == len(expected)
    assert dict(work) == expected


def test_a_layout_is_built_only_for_a_read_no_write_answers(corpus_dir, monkeypatch):
    """A storage read no write answers names its slot from the unit's
    storage layout, built for that read: MarketHub's 20 functions, explored
    unpruned, make no such read and build no layout, and HiddenApprover's
    transferFrom builds one for each slot it names."""
    builds = []
    storage_layout = sx.storage_layout
    monkeypatch.setattr(sx, "storage_layout",
                        lambda unit: builds.append(unit.contract_name) or storage_layout(unit))
    (report,) = pipeline.analyze_path(str(corpus_dir / "MarketHub"),
                                      pipeline.RunConfig(prune=False))
    assert report["functions_analyzed"] == 20
    assert builds == []
    unit = load_compilation(corpus_dir / "HiddenApprover")
    (fn,) = select_target_functions(function_infos(unit))
    engine = explore_function(unit, build_cfg(disassemble(unit.runtime_bytecode)), fn,
                              find_owner_return_binding(unit))
    assert [var.name for var in engine.storage_vars.values()] == [
        "_owners[...]", "_tokenApprovals[...]", "_secretSigner"]
    assert builds == ["HiddenApprover"] * 3
