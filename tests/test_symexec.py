"""Interpreter semantics, checkpoints, budgets, emission records and
counted path ends."""

import random

import pytest

import oracle_evm
import progs

from sleepscan import constraints as cs
from sleepscan import opcodes, pipeline, sym
from sleepscan import symexec as sx
from sleepscan.astview import FunctionInfo
from sleepscan.disasm import build_cfg, disassemble
from sleepscan.errors import EntryNotFound
from sleepscan.ingestion import AstNode, CompilationUnit
from sleepscan.keccak import TRANSFER_TOPIC
from sleepscan.sym import Const, FreshExternal, Op, Parameter, StorageDirect, Var
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
    src_span=(0, 0, 0),
    visibility="external",
    emits_transfer=True,
)

GENERATED = (-1, 0, -1)
EMPTY_AST = AstNode("SourceUnit", (0, 0, 0))  # every loaded unit has an AST


def _engine(code: bytes, binding=(), srcmap=None, ast=EMPTY_AST,
            budget: ExplorationBudget | None = None) -> Engine:
    instrs = disassemble(code)
    entries = srcmap if srcmap is not None else [GENERATED] * len(instrs)
    assert len(entries) == len(instrs)
    unit = CompilationUnit("T", code, entries, ast, {0: ""}, (0, 8, 17))
    return Engine(unit, build_cfg(instrs), FN, sx.unit_facts(unit, binding),
                  budget or ExplorationBudget())


def _run_straight_line(engine: Engine) -> MachineState:
    """Step a branch-free program to just before its terminator."""
    state = MachineState(pc=0)
    while True:
        instr = engine.cfg.instruction_by_pc[state.pc]
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
    import astbuild as ab
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
    from sleepscan.ingestion import ast_from_json
    engine = _engine(b"\x00", ast=ast_from_json(_layout_ast()))
    state = MachineState(pc=0)

    direct = engine._storage_read(state, Const(0))
    assert direct.name == "owner"
    assert isinstance(direct.kind, StorageDirect) and direct.is_address

    key = Var("k", Parameter(2))
    mapped = engine._storage_read(state, Op("sha3", (key, Const(1))))
    assert mapped.name == "_owners[...]"
    assert isinstance(mapped.kind, sym.StorageMapping) and mapped.is_address

    word = engine._storage_read(state, Const(2))
    assert word.name == "total" and not word.is_address

    unknown = engine._storage_read(state, Const(9))
    assert unknown.name == "slot9"
    # repeated reads of the same slot return the identical variable
    assert engine._storage_read(state, Const(0)) is direct


def test_storage_read_sees_own_writes():
    engine = _engine(b"\x00")
    state = MachineState(pc=0)
    engine.on_sstore(state, Const(3), Const(77))
    assert engine._storage_read(state, Const(3)) == Const(77)
    assert state.sstore_mark


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


# --------------------------------------------------------------------------
# checkpoint: owner trace

def test_owner_trace_commits_on_span_exit_and_collapses_duplicates():
    span = (100, 50, 0)
    code = bytes.fromhex("6005" "5b" "80" "5b" "6006" "5b") + _emit_then("00")
    inside = (110, 5, 0)
    srcmap = [inside, GENERATED, inside, GENERATED, inside, GENERATED] + [GENERATED] * 8
    engine = _engine(code, binding=(span,), srcmap=srcmap)
    (emission,) = engine.explore(0).records
    # PUSH 5 (in span) commits once; DUP1 re-captures the same value and is
    # collapsed; PUSH 6 (in span) is a distinct capture
    assert emission.owner_trace == (Const(5), Const(6))


def test_no_binding_means_empty_trace():
    engine = _engine(bytes.fromhex("6005") + _emit_then("00"))
    (emission,) = engine.explore(0).records
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


def test_disjunction_decomposes_into_candidates():
    a, b = Var("x", Parameter(0)), Var("y", Parameter(1))
    cond = Op("or", (Op("eq", (a, Const(1))), Op("eq", (b, Const(2)))))
    out = sx._condition_constraints(cond, True)
    assert out[0].relation == cs.NONZERO and not out[0].candidate
    candidates = [c for c in out[1:]]
    assert all(c.candidate and c.relation == cs.EQ for c in candidates)
    assert len(candidates) == 2
    # the false branch produces only the zero constraint
    assert [c.relation for c in sx._condition_constraints(cond, False)] \
        == [cs.ZERO]


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
                    (c,) = sx._condition_constraints(condition, branch)
                    assert c.holds({}) is (branch == truthy), (op, a, b, branch)


def test_loop_bound_ends_path_as_budget_exhausted():
    code = bytes.fromhex("5b" "6000" "56")  # JUMPDEST; PUSH 0; JUMP (forever)
    engine = _engine(code, budget=ExplorationBudget(loop_bound=3))
    result = engine.explore(0)
    assert result.records == []
    assert result.ends == {(END_BUDGET, "loop bound at jumpdest 0"): 1}


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
        return [(r.end_kind, tuple(r.constraints.entries), r.path_id)
                for r in res.records], list(res.ends.items())
    assert snapshot() == snapshot()


def test_explore_function_requires_selector():
    internal = FunctionInfo("_transfer", None, (), (0, 0, 0), "internal", True)
    code = b"\x00"
    unit = CompilationUnit("T", code, [GENERATED], None, {0: ""}, (0, 8, 17))
    cfg = build_cfg(disassemble(code))
    with pytest.raises(EntryNotFound):
        explore_function(unit, cfg, internal, None)
    with pytest.raises(EntryNotFound):
        explore_function(unit, cfg, FN, None)  # no dispatcher in this code


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


# --------------------------------------------------------------------------
# the dispatch table and the deadline

@pytest.mark.parametrize("byte", range(256), ids=lambda byte: f"0x{byte:02X}")
def test_every_byte_steps_or_ends_the_path(byte):
    """One instruction on an empty stack: an unknown byte and an opcode that
    pops end the path as a revert, every other opcode steps."""
    entry = opcodes.TABLE.get(byte)
    push_width = byte - 0x5F if 0x60 <= byte <= 0x7F else 0
    engine = _engine(bytes([byte]) + bytes(push_width))
    state = MachineState(pc=0)
    instr = engine.cfg.instruction_by_pc[0]
    if entry is None or entry[1] > 0:
        with pytest.raises(sx._KillPath) as kill:
            engine.step(state, instr)
        assert kill.value.end_kind == END_REVERT
        assert kill.value.reason.startswith(
            f"unknown opcode 0x{byte:02X}" if entry is None else "stack underflow")
    else:
        engine.step(state, instr)
        assert len(state.stack) == entry[2]


LOOP = bytes.fromhex("5b" "6000" "56")  # JUMPDEST; PUSH 0; JUMP (forever)


def test_deadline_is_read_every_256_steps(monkeypatch):
    reads = []
    monkeypatch.setattr(sx.time, "monotonic", lambda: reads.append(1) or 0.0)
    budget = ExplorationBudget(max_steps=1000, loop_bound=10**6, deadline=1.0)
    result = _engine(LOOP, budget=budget).explore(0)
    assert result.steps_used == 1000 and not result.timed_out
    assert len(reads) == 4  # before steps 0, 256, 512 and 768


def test_passed_deadline_ends_the_path_at_the_next_read(monkeypatch):
    clock = iter([0.0, 2.0])  # read before step 0, then before step 256
    monkeypatch.setattr(sx.time, "monotonic", lambda: next(clock))
    budget = ExplorationBudget(loop_bound=10**6, deadline=1.0)
    result = _engine(LOOP, budget=budget).explore(0)
    assert result.timed_out and result.steps_used == 256
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
