"""Decoder, basic blocks, CFG and dispatcher-entry discovery."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures
import progs

from sleepscan import _core, opcodes
from sleepscan.disasm import (
    build_cfg,
    disassemble,
    dump_listing,
    find_function_entry,
)
from sleepscan.errors import TruncatedPush
from sleepscan.ingestion import load_compilation


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
    raw, truncated_at = _core.decode_raw(code)
    if truncated_at < 0:
        assert sum(1 + len(imm) for _, _, imm in raw) == len(code)
        instrs = disassemble(code)
        next_pcs = [ins.pc for ins in instrs[1:]] + [len(code)]
        for ins, next_pc in zip(instrs, next_pcs):
            assert ins.next_pc == next_pc
            immediate = code[ins.pc + 1:next_pc]
            if 0x60 <= ins.byte <= 0x7F:
                assert ins.push_value == int.from_bytes(immediate, "big")
                assert str(ins) == f"{ins.name} 0x{immediate.hex()}"
            else:
                assert ins.push_value == (0 if ins.name == "PUSH0" else None)
                assert str(ins) == ins.name
    else:
        consumed = sum(1 + len(imm) for _, _, imm in raw)
        assert consumed <= truncated_at < len(code)


def test_random_programs_decode_whole():
    rng = random.Random(7)
    for _ in range(50):
        code = progs.to_bytecode(progs.random_program(rng, length=40))
        raw, truncated_at = _core.decode_raw(code)
        assert truncated_at == -1
        assert sum(1 + len(imm) for _, _, imm in raw) == len(code)


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
    terminators = {b.start_pc: b.terminator for b in cfg.blocks}
    assert terminators[0] == "conditional-jump"
    assert terminators[7] == "stop"


def _leader_set_blocks(instrs):
    """Reference partition: a leader is the first instruction, each JUMPDEST
    and each instruction after a terminator or an unknown byte; a block runs
    from one leader to the next and takes its last instruction's kind."""
    kinds = {"JUMP": "jump", "JUMPI": "conditional-jump", "STOP": "stop",
             "RETURN": "return", "REVERT": "revert", "INVALID": "invalid",
             "SELFDESTRUCT": "selfdestruct"}
    leaders = {instrs[0].pc} if instrs else set()
    for ins, nxt in zip(instrs, instrs[1:]):
        if nxt.name == "JUMPDEST" or ins.name in kinds or ins.byte not in opcodes.TABLE:
            leaders.add(nxt.pc)
    blocks = []
    for ins in instrs:
        if ins.pc in leaders:
            blocks.append([])
        blocks[-1].append(ins)
    return [(block[0].pc, block,
             "invalid" if block[-1].byte not in opcodes.TABLE
             else kinds.get(block[-1].name, "fallthrough"))
            for block in blocks]


def _blocks(cfg):
    return [(b.start_pc, b.instructions, b.terminator) for b in cfg.blocks]


@settings(max_examples=200)
@given(st.binary(max_size=300))
@example(b"")
@example(bytes.fromhex("5b5b00fe0c5b"))  # JUMPDEST pairs, STOP, INVALID, unknown byte
def test_blocks_follow_the_leader_set_rule(code):
    if _core.decode_raw(code)[1] >= 0:
        return  # a truncated PUSH does not decode
    instrs = disassemble(code)
    assert _blocks(build_cfg(instrs)) == _leader_set_blocks(instrs)


def test_fixture_blocks_follow_the_leader_set_rule():
    for fixture in [*fixtures.build_corpus(), fixtures.market_hub(3, 60)]:
        instrs = disassemble(fixture.bytecode)
        assert _blocks(build_cfg(instrs)) == _leader_set_blocks(instrs), fixture.name


def test_find_function_entry_on_fixture(corpus_dir):
    from sleepscan.astview import compute_selector
    unit = load_compilation(corpus_dir / "GuardedGallery")
    cfg = build_cfg(disassemble(unit.runtime_bytecode))
    selector = compute_selector("transferFrom(address,address,uint256)")
    entry = find_function_entry(cfg, selector)
    assert entry is not None
    assert cfg.instruction_by_pc[entry].name == "JUMPDEST"
    assert find_function_entry(cfg, 0xDEADBEEF) is None


def test_dump_listing_includes_snippets(corpus_dir):
    unit = load_compilation(corpus_dir / "GuardedGallery")
    instrs = disassemble(unit.runtime_bytecode)
    listing = dump_listing(instrs, unit.source_map, unit.sources)
    assert "JUMPDEST" in listing
    assert "emit Transfer" in listing
