"""Decoder, basic blocks, CFG and dispatcher-entry discovery, and the lazy
decode against the eager reference decoder."""

import random
from collections import Counter

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures
import progs
import reference_disasm
import reference_explore
from evmasm import Asm

from sleepscan import _core, disasm, pipeline
from sleepscan.astview import (
    compute_selector,
    find_owner_return_binding,
    function_infos,
    select_target_functions,
)
from sleepscan.cli import main
from sleepscan.disasm import (
    build_cfg,
    disassemble,
    dump_listing,
    find_function_entry,
)
from sleepscan.errors import TruncatedPush
from sleepscan.ingestion import load_compilation
from sleepscan.symexec import Engine, ExplorationBudget, unit_facts


def test_decode_simple_add_program():
    instrs = disassemble(bytes.fromhex("6001600201"))
    assert [str(i) for i in instrs] == ["PUSH1 0x01", "PUSH1 0x02", "ADD"]
    assert [i.pc for i in instrs] == [0, 2, 4]


def test_push0_decodes_regardless_of_version():
    # the decoder takes no compiler version: 0x5F is PUSH0 for every era
    instrs = disassemble(bytes.fromhex("5f5f01"))
    assert [i.name for i in instrs] == ["PUSH0", "PUSH0", "ADD"]
    assert instrs[0].push_value == 0


def test_unknown_bytes_decode_as_single_opcodes():
    instrs = disassemble(bytes.fromhex("0c0d"))  # unassigned opcodes
    assert len(instrs) == 2
    assert instrs[0].name.startswith("UNKNOWN_")


def test_truncated_push_raises():
    with pytest.raises(TruncatedPush):
        disassemble(bytes.fromhex("61ff"))  # PUSH2 with 1 byte left
    with pytest.raises(TruncatedPush):
        disassemble(bytes.fromhex("7f00"))


@settings(max_examples=150)
@given(st.binary(max_size=300))
@example(bytes.fromhex("6100ff"))  # PUSH2 0x00ff: the listing keeps leading zeros
def test_partition_invariant(code):
    tokens, truncated_at = _core.decode_raw(code)
    for token in tokens:  # one instruction each: a PUSH carries its immediate
        width = token[0] - 0x5F if 0x60 <= token[0] <= 0x7F else 0
        assert len(token) == 1 + width
    if truncated_at < 0:
        assert b"".join(tokens) == code
        instrs = disassemble(code)
        assert len(instrs) == len(tokens)
        for ins, token in zip(instrs, tokens):
            assert code[ins.pc:ins.next_pc] == token
            immediate = token[1:]
            if 0x60 <= ins.byte <= 0x7F:
                assert ins.push_value == int.from_bytes(immediate, "big")
                assert str(ins) == f"{ins.name} 0x{immediate.hex()}"
            else:
                assert ins.push_value == (0 if ins.name == "PUSH0" else None)
                assert str(ins) == ins.name
    else:
        consumed = sum(map(len, tokens))
        assert b"".join(tokens) == code[:consumed]
        assert consumed <= truncated_at < len(code)


def test_random_programs_decode_whole():
    rng = random.Random(7)
    for _ in range(50):
        code = progs.to_bytecode(progs.random_program(rng, length=40))
        tokens, truncated_at = _core.decode_raw(code)
        assert truncated_at == -1
        assert b"".join(tokens) == code


def test_cfg_blocks_and_edges():
    # 0: PUSH1 7; JUMPI-free jump over a revert block to a stop block
    code = bytes.fromhex(
        "6001"      # 0: PUSH1 1
        "6007"      # 2: PUSH1 7
        "57"        # 4: JUMPI -> 7
        "5b00"      # 5: JUMPDEST; STOP  (not-taken target... see below)
        "5b00"      # 7: JUMPDEST; STOP
    )
    cfg = build_cfg(disassemble(code))
    starts = [b.start_pc for b in cfg.blocks]
    assert starts == [0, 5, 7]
    assert [b.instructions[-1].name for b in cfg.blocks] == ["JUMPI", "STOP", "STOP"]
    assert cfg.block_at == {b.start_pc: b for b in cfg.blocks}


def test_find_function_entry_on_fixture(corpus_dir):
    unit = load_compilation(corpus_dir / "GuardedGallery")
    cfg = build_cfg(disassemble(unit.runtime_bytecode))
    selector = compute_selector("transferFrom(address,address,uint256)")
    entry = find_function_entry(cfg, selector)
    assert entry is not None
    assert cfg.block(entry).instructions[0].name == "JUMPDEST"
    assert find_function_entry(cfg, 0xDEADBEEF) is None


def test_dump_listing_includes_snippets(corpus_dir):
    unit = load_compilation(corpus_dir / "GuardedGallery")
    instrs = disassemble(unit.runtime_bytecode)
    listing = dump_listing(instrs, unit.source_map, unit.sources)
    assert "JUMPDEST" in listing
    assert "emit Transfer" in listing


# --------------------------------------------------------------------------
# the dispatcher's pivot

def _split_dispatcher(selector: int) -> tuple[bytes, int, int]:
    """solc's split dispatcher: a ``GT`` against a pivot that is itself one
    function's selector, then that function's ``EQ`` entry. Returns the code
    and the pcs of the pivot's target and of the function's body."""
    a = Asm()
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    a.op("DUP1").push(selector, width=4).op("GT").push_label("low").op("JUMPI")
    a.op("DUP1").push(selector, width=4).op("EQ").push_label("body").op("JUMPI")
    a.push(0).push(0).op("REVERT")
    a.jumpdest("low").push(0).push(0).op("REVERT")
    a.jumpdest("body").op("STOP")
    code, _ = a.assemble()
    low, body = (pc for pc, byte in enumerate(code) if byte == 0x5B)
    return code, low, body


def test_the_dispatcher_pivot_is_not_an_entry():
    selector = compute_selector("transferFrom(address,address,uint256)")
    code, low, body = _split_dispatcher(selector)
    assert (low, body) == (33, 39)
    assert find_function_entry(build_cfg(disassemble(code)), selector) == body


# --------------------------------------------------------------------------
# lazy decode against the eager reference

def _check_lazy_equals_eager(code: bytes, selectors=()):
    instrs = reference_disasm.decode(code)
    if instrs is None:
        with pytest.raises(TruncatedPush):
            disassemble(code)
        return
    decoded = disassemble(code)
    assert len(decoded) == len(instrs)
    assert list(decoded) == instrs
    assert list(decoded)[1::2] == instrs[1::2] and list(decoded)[-1:] == instrs[-1:]
    assert [decoded[index] for index in range(-len(instrs), len(instrs))] == instrs * 2
    leaders = reference_disasm.blocks(instrs)
    # the whole partition, built at once (as the tracer counts it)
    assert [(b.start_pc, b.instructions) for b in build_cfg(decoded).blocks] == \
        list(leaders.items())
    cfg = build_cfg(decoded)
    assert cfg.jumpdests == reference_disasm.jumpdests(instrs)
    for pc in range(len(code) + 2):
        block = cfg.block(pc)
        if pc in leaders:
            assert (block.start_pc, block.instructions) == (pc, leaders[pc])
            assert cfg.block(pc) is block  # built once
        else:
            assert block is None
    pushed = {ins.push_value for ins in instrs if ins.name == "PUSH4"}
    for selector in {*pushed, *selectors, 0xDEADBEEF}:
        assert find_function_entry(build_cfg(disassemble(code)), selector) == \
            reference_disasm.find_function_entry(instrs, selector), hex(selector)


@settings(max_examples=300)
@given(st.binary(max_size=300))
@example(b"")
@example(bytes.fromhex("5b5b00fe0c5b"))  # JUMPDEST pairs, STOP, INVALID, unknown byte
@example(bytes.fromhex("6311223344"))  # a PUSH4 as the last instruction
@example(bytes.fromhex("631122334414"))  # ... and its EQ, with no JUMPI after it
def test_lazy_decode_equals_eager_on_random_bytecode(code):
    _check_lazy_equals_eager(code)


_SELECTOR = 0x11223344
_DEST = 0x20  # a JUMPDEST at pc 32 in every program below


def _entry_program(*middle: str) -> bytes:
    """``PUSH4 _SELECTOR``, then ``middle``, then ``PUSH1 _DEST; JUMPI``, with
    a JUMPDEST at ``_DEST``."""
    a = Asm()
    a.push(_SELECTOR, width=4)
    for name in middle:
        a.op(name)
    a.push(_DEST).op("JUMPI")
    code, _ = a.assemble()
    return code.ljust(_DEST, b"\x00") + b"\x5b\x00"


@pytest.mark.parametrize("code, entry", [
    (_entry_program("EQ"), _DEST),
    (_entry_program("DUP2", "EQ", "SWAP1", "POP"), _DEST),
    (_entry_program("EQ", "DUP1", "DUP1", "DUP1", "DUP1"), _DEST),  # JUMPI is 7th
    (_entry_program("EQ", "DUP1", "DUP1", "DUP1", "DUP1", "DUP1"), None),  # 8th
    (_entry_program("GT"), None),  # no EQ: a split dispatcher's pivot
    (_entry_program("EQ", "JUMPDEST"), None),  # the window is cut by a JUMPDEST
    (_entry_program("EQ", "STOP"), None),  # ... and by a terminator
    # the selector's bytes inside a PUSH32 immediate are no instruction,
    # though the JUMPI they are followed by there names pc 33, a JUMPDEST
    (bytes([0x7F, 0x63]) + _SELECTOR.to_bytes(4, "big")
     + bytes.fromhex("14602157").ljust(27, b"\x00") + b"\x5b\x00", None),
    # a PUSH4 that is the last instruction
    (bytes.fromhex("5b63") + _SELECTOR.to_bytes(4, "big"), None),
], ids=["eq", "interleaved", "seventh", "eighth", "pivot", "jumpdest", "terminator",
        "push32-immediate", "last"])
def test_find_function_entry_windows(code, entry):
    assert find_function_entry(build_cfg(disassemble(code)), _SELECTOR) == entry
    _check_lazy_equals_eager(code, [_SELECTOR])


def test_lazy_decode_equals_eager_on_fixtures():
    for fixture in [*fixtures.build_corpus(), fixtures.market_hub(3, 60)]:
        _check_lazy_equals_eager(fixture.bytecode)
    code, _, _ = _split_dispatcher(_SELECTOR)
    _check_lazy_equals_eager(code)


def test_analysis_decodes_only_what_the_engine_reaches(tmp_path, monkeypatch):
    """A pruned wide unit: every block built is one the per-step reference
    loop steps into, and under 10 % of the instructions are decoded."""
    unit = load_compilation(fixtures.market_hub(1, 120).write(tmp_path))
    cfgs, decoded = [], Counter()
    build, decode = pipeline.build_cfg, disasm.Code.decode

    def keeping(code):
        cfgs.append(build(code))
        return cfgs[-1]

    def counting(self, start, stop):
        decoded["instructions"] += stop - start
        return decode(self, start, stop)

    monkeypatch.setattr(pipeline, "build_cfg", keeping)
    monkeypatch.setattr(disasm.Code, "decode", counting)
    report = pipeline.analyze_unit(unit, pipeline.RunConfig())
    assert report["functions_analyzed"] == 2
    count = decoded["instructions"]
    monkeypatch.undo()

    (cfg,) = cfgs
    stepped = set()
    facts = unit_facts(unit, find_owner_return_binding(unit))
    for fn in select_target_functions(function_infos(unit)):
        engine = Engine(unit, build_cfg(disassemble(unit.runtime_bytecode)), fn, facts,
                        ExplorationBudget())
        step = engine.step
        engine.step = lambda state, instr: stepped.add(instr.pc) or step(state, instr)
        reference_explore.explore(engine, find_function_entry(engine.cfg, fn.selector))
    assert cfg.block_at and set(cfg.block_at) <= stepped
    assert 0 < count < len(disassemble(unit.runtime_bytecode)) / 10


def test_cli_disasm_lists_every_instruction(corpus_dir):
    runner = CliRunner()
    for sub in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        unit = load_compilation(sub)
        instrs = reference_disasm.decode(unit.runtime_bytecode)
        listing = dump_listing(instrs, unit.source_map, unit.sources)
        result = runner.invoke(main, ["disasm", str(sub)])
        assert result.exit_code == 0, sub.name
        assert result.output == f"=== {unit.contract_name} ===\n{listing}\n"
