"""Detector rules over synthetic emission records, then over the built corpus."""

import itertools
import time
from collections import Counter

import pytest

import fixtures as corpus

from sleepscan import constraints as cs
from sleepscan import sym
from sleepscan.astview import (
    FunctionInfo,
    find_owner_return_binding,
    function_infos,
    select_target_functions,
)
from sleepscan.constraints import Constraint
from sleepscan.detectors import (
    ALL_DEFECT_TYPES,
    EMPTY_TRANSFER_EVENT,
    OWNER_INCONSISTENCY,
    PRIVILEGED_ADDRESS,
    SHORT_CODES,
    UNRESTRICTED_FROM,
    Silence,
    _owner_finding,
    analyze_contract,
    detect_empty_transfer_event,
    detect_owner_inconsistency,
    detect_privileged_address,
    detect_unrestricted_from,
)
from sleepscan.disasm import build_cfg, disassemble
from sleepscan.ingestion import CompilationUnit, load_compilation
from sleepscan.sym import Const, Op, Var
from sleepscan.symexec import PathRecord, explore_function

FN = FunctionInfo("transferFrom", 0x23B872DD,
                  (("from", "address"), ("to", "address"), ("tokenId", "uint256")))

CALLER = Var("msg.sender", sym.Environment("caller"), is_address=True)
FROM = Var("from", sym.Parameter(0), is_address=True)
SECRET = Var("secretOperator", sym.Storage(Const(0)), is_address=True)
OWNER_A = Var("_owners[...]", sym.Storage(Op("sha3", (FROM, Const(1)))), is_address=True)
OWNER_B = Var("punks[...]", sym.Storage(Op("sha3", (FROM, Const(2)))), is_address=True)


def record(*, constraints=(), owner_trace=(),
           from_param=FROM, mark_at_exit=True, tainted=False, path_id=0) -> PathRecord:
    return PathRecord(
        function=FN,
        constraints=tuple(constraints),
        owner_trace=owner_trace,
        from_param=from_param,
        sstore_mark_at_exit=mark_at_exit,
        tainted=tainted,
        path_id=path_id,
        emission_pc=99,
        emission_src=(12, 30, 0),
    )


# --------------------------------------------------------------------------
# PrivilegedAddress

def test_privileged_address_fires_in_both_orientations():
    for lhs, rhs in ((CALLER, SECRET), (SECRET, CALLER)):
        rec = record(constraints=[Constraint(cs.EQ, lhs, rhs)])
        found = detect_privileged_address(rec)
        assert found is not None
        assert found.defect_type == PRIVILEGED_ADDRESS
        assert found.confidence == "high"
        assert any("secretOperator" in w for w in found.witness)


NO_PA = Silence("no eq of the caller with a storage-direct address")


def _disjunction(*leaves) -> Op:
    return Op("or", (leaves[0], _disjunction(*leaves[1:]))) if len(leaves) > 1 else leaves[0]


def test_privileged_address_sees_candidate_disjuncts():
    """The ``eq`` leaves of a ``nonzero`` conjunct over an ``or`` count, the
    last leaf first; a ``zero`` conjunct (every disjunct false) does not."""
    admin = Var("admin", sym.Storage(Const(1)), is_address=True)
    guard = _disjunction(Op("eq", (CALLER, SECRET)), Op("eq", (CALLER, OWNER_A)),
                         Op("lt", (CALLER, SECRET)), Op("eq", (CALLER, admin)))
    found = detect_privileged_address(record(constraints=[Constraint(cs.NONZERO, guard)]))
    assert found.witness == (repr(Constraint(cs.EQ, CALLER, admin)),
                             repr(Constraint(cs.EQ, CALLER, SECRET)))
    assert detect_privileged_address(record(constraints=[Constraint(cs.ZERO, guard)])) == NO_PA


def test_privileged_address_matches_a_candidate_with_the_caller_on_the_right():
    guard = _disjunction(Op("eq", (SECRET, CALLER)), Op("eq", (FROM, CALLER)))
    found = detect_privileged_address(record(constraints=[Constraint(cs.NONZERO, guard)]))
    assert found.witness == (repr(Constraint(cs.EQ, SECRET, CALLER)),)
    # an or that is not the conjunct's side is not read
    inequality = Constraint(cs.NEQ, guard, CALLER)
    assert detect_privileged_address(record(constraints=[inequality])) == NO_PA


def test_privileged_address_ignores_mapping_loads():
    rec = record(constraints=[Constraint(cs.EQ, CALLER, OWNER_A)])
    assert detect_privileged_address(rec) == NO_PA


def test_privileged_address_ignores_inequalities_and_params():
    assert detect_privileged_address(
        record(constraints=[Constraint(cs.NEQ, CALLER, SECRET)])) == NO_PA
    assert detect_privileged_address(
        record(constraints=[Constraint(cs.EQ, CALLER, FROM)])) == NO_PA


def test_privileged_address_sees_through_width_masks():
    masked = Constraint(cs.EQ, Op("and", (CALLER, Const(sym.MASK160))),
                        Op("and", (SECRET, Const(sym.MASK160))))
    assert detect_privileged_address(record(constraints=[masked])).defect_type \
        == PRIVILEGED_ADDRESS


# --------------------------------------------------------------------------
# UnrestrictedFrom

def test_unrestricted_from_fires_without_owner_guard():
    rec = record(owner_trace=(OWNER_A,))
    found = detect_unrestricted_from(rec)
    assert found is not None and found.defect_type == UNRESTRICTED_FROM


def test_unrestricted_from_silent_when_guarded():
    rec = record(owner_trace=(OWNER_A,),
                 constraints=[Constraint(cs.EQ, OWNER_A, FROM)])
    assert detect_unrestricted_from(rec) == Silence("probe unsat")


def test_unrestricted_from_needs_trace_and_from():
    # an empty owner trace (no ownerOf return on the path) silences UF and OI
    assert detect_unrestricted_from(record(owner_trace=())) == Silence("empty owner trace")
    assert detect_owner_inconsistency(record(owner_trace=())) == Silence("empty owner trace")


def test_unrestricted_from_defers_to_owner_inconsistency():
    rec = record(owner_trace=(OWNER_B, OWNER_A))
    assert detect_unrestricted_from(rec) == Silence("not enabled")  # distinct entries: OI
    assert detect_owner_inconsistency(rec).defect_type == OWNER_INCONSISTENCY


# --------------------------------------------------------------------------
# OwnerInconsistency

def test_owner_inconsistency_requires_distinct_entries():
    assert detect_owner_inconsistency(record(owner_trace=(OWNER_A, OWNER_A))) \
        == Silence("not enabled")  # the reads agree: UF
    assert detect_owner_inconsistency(record(owner_trace=(OWNER_A,))) == Silence("not enabled")


def test_owner_inconsistency_fires_when_guard_binds_wrong_owner():
    # the require() bound `from` to the first owner; the latest is unguarded
    rec = record(owner_trace=(OWNER_B, OWNER_A),
                 constraints=[Constraint(cs.EQ, OWNER_B, FROM)])
    found = detect_owner_inconsistency(rec)
    assert found is not None and found.defect_type == OWNER_INCONSISTENCY
    assert len(found.witness) == 3  # both trace entries plus the probe


def test_owner_inconsistency_silent_when_latest_owner_guarded():
    rec = record(owner_trace=(OWNER_B, OWNER_A),
                 constraints=[Constraint(cs.EQ, OWNER_A, FROM)])
    assert detect_owner_inconsistency(rec) == Silence("probe unsat")


# --------------------------------------------------------------------------
# EmptyTransferEvent

def test_empty_transfer_event_fires_without_any_store():
    found = detect_empty_transfer_event([record(mark_at_exit=False)])
    assert found is not None and found.defect_type == EMPTY_TRANSFER_EVENT


def test_early_emit_then_store_is_exempt():
    # the exit-time mark covers stores on either side of the emission
    assert detect_empty_transfer_event([record(mark_at_exit=True)]) \
        == Silence("every record's path stores")


# --------------------------------------------------------------------------
# taint and aggregation

def test_tainted_path_downgrades_confidence():
    rec = record(constraints=[Constraint(cs.EQ, CALLER, SECRET)], tainted=True)
    assert detect_privileged_address(rec).confidence == "low"


def _unit():
    return CompilationUnit("Demo", b"\x00", [], None, {0: b""}, (0, 8, 17))


def test_analyze_contract_dedupes_and_prefers_high_confidence():
    low = record(constraints=[Constraint(cs.EQ, CALLER, SECRET)],
                 tainted=True, path_id=0)
    high = record(constraints=[Constraint(cs.EQ, CALLER, SECRET)], path_id=1)
    for ordering in ([low, high], [high, low]):
        findings = analyze_contract(_unit(), ordering)
        assert len(findings) == 1
        assert findings[0].confidence == "high"


def test_analyze_contract_honors_enabled_subset():
    rec = record(constraints=[Constraint(cs.EQ, CALLER, SECRET)],
                 owner_trace=(OWNER_A,))
    everything = analyze_contract(_unit(), [rec])
    assert {f.defect_type for f in everything} == {PRIVILEGED_ADDRESS,
                                                   UNRESTRICTED_FROM}
    only_pa = analyze_contract(_unit(), [rec], enabled=(PRIVILEGED_ADDRESS,))
    assert {f.defect_type for f in only_pa} == {PRIVILEGED_ADDRESS}


def test_expired_deadline_silences_solver_probes_only():
    rec = record(constraints=[Constraint(cs.EQ, CALLER, SECRET)],
                 owner_trace=(OWNER_A,))
    findings = analyze_contract(_unit(), [rec], deadline=time.monotonic() - 1)
    assert {f.defect_type for f in findings} == {PRIVILEGED_ADDRESS}


def test_short_codes_cover_all_types():
    assert sorted(SHORT_CODES.values()) == sorted(ALL_DEFECT_TYPES)


# --------------------------------------------------------------------------
# the built corpus end to end

EXPECTED_CORPUS_FINDINGS = {
    "HiddenApprover": {PRIVILEGED_ADDRESS},
    "FreeMintable": {UNRESTRICTED_FROM},
    "FreeMintable04": {UNRESTRICTED_FROM},
    "FreeMintableShanghai": {UNRESTRICTED_FROM},
    "ChubbyBunny": {OWNER_INCONSISTENCY},
    "BatchAirdrop": {EMPTY_TRANSFER_EVENT},
    "GuardedGallery": set(),
    "OrderlyMuseum": set(),
    "PausableGallery": {PRIVILEGED_ADDRESS},
    "RelistedArt": {UNRESTRICTED_FROM},
    "BridgeRelay": {EMPTY_TRANSFER_EVENT},
    "SteadyMint": set(),
    "QuietIslands": set(),
    "MarketHub": set(),
}


@pytest.mark.parametrize("contract", sorted(EXPECTED_CORPUS_FINDINGS))
def test_corpus_findings(contract, corpus_reports):
    report = corpus_reports[contract]
    types = {f["type"] for f in report["findings"]}
    assert types == EXPECTED_CORPUS_FINDINGS[contract]


def test_corpus_confidence_levels(corpus_reports):
    by = {name: {f["type"]: f["confidence"]
                 for f in report["findings"]}
          for name, report in corpus_reports.items()}
    assert by["HiddenApprover"][PRIVILEGED_ADDRESS] == "high"
    assert by["BridgeRelay"][EMPTY_TRANSFER_EVENT] == "low"  # external call


def test_every_enabled_subset_gives_its_share_of_findings_and_probes(corpus_dir, monkeypatch):
    """Over all 16 subsets of the four types, a subset's findings are the
    findings of all four restricted to it, and only an enabled owner type
    costs ``solve`` calls: none without UF and OI, else UF's plus OI's."""
    contracts = []
    for fixture in corpus.build_corpus():
        unit = load_compilation(corpus_dir / fixture.name)
        cfg = build_cfg(disassemble(unit.runtime_bytecode))
        binding = find_owner_return_binding(unit)
        contracts.append((unit, [rec for fn in select_target_functions(function_infos(unit))
                                 for rec in explore_function(unit, cfg, fn, binding).records]))
    calls = 0
    solve = cs.solve

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(cs, "solve", counted)

    def run(enabled):
        nonlocal calls
        calls = 0
        return [analyze_contract(unit, records, enabled) for unit, records in contracts], calls

    everything, _ = run(ALL_DEFECT_TYPES)
    _, uf_calls = run((UNRESTRICTED_FROM,))
    _, oi_calls = run((OWNER_INCONSISTENCY,))
    assert uf_calls and oi_calls
    for size in range(len(ALL_DEFECT_TYPES) + 1):
        for enabled in itertools.combinations(ALL_DEFECT_TYPES, size):
            findings, probes = run(enabled)
            assert findings == [[f for f in per_unit if f.defect_type in enabled]
                                for per_unit in everything], enabled
            assert probes == ((UNRESTRICTED_FROM in enabled) * uf_calls
                              + (OWNER_INCONSISTENCY in enabled) * oi_calls), enabled


# --------------------------------------------------------------------------
# why a rule stayed silent, on built fixtures

def _explored(directory):
    unit = load_compilation(directory)
    cfg = build_cfg(disassemble(unit.runtime_bytecode))
    binding = find_owner_return_binding(unit)
    return [rec for fn in select_target_functions(function_infos(unit))
            for rec in explore_function(unit, cfg, fn, binding).records]


def test_each_early_return_names_its_reason(corpus_dir, tmp_path):
    guarded = _explored(corpus_dir / "GuardedGallery")
    free = _explored(corpus_dir / "FreeMintable")
    bunny = _explored(corpus_dir / "ChubbyBunny")
    inline = _explored(corpus.transfer_family("InlineRead", owner_check=False,
                                              inline_owner=True).write(tmp_path))
    assert {detect_unrestricted_from(rec) for rec in guarded} == {Silence("probe unsat")}
    assert {_owner_finding(rec, ALL_DEFECT_TYPES, None) for rec in inline} \
        == {Silence("empty owner trace")}
    # its reads differ, so it is OI, which ``(UF,)`` leaves out
    assert {detect_unrestricted_from(rec) for rec in bunny} == {Silence("not enabled")}
    # the unguarded probe, which only the deadline keeps from sat
    assert {_owner_finding(rec, ALL_DEFECT_TYPES, 0.0) for rec in free} \
        == {Silence("probe unknown")}
    assert {detect_privileged_address(rec) for rec in guarded} == {NO_PA}
    assert detect_empty_transfer_event(free) == Silence("every record's path stores")


# a record's owner-rule outcome: the finding's type, else the silence's reason
OWNER_OUTCOMES = {
    "HiddenApprover": {"probe unsat": 3},
    "FreeMintable": {UNRESTRICTED_FROM: 2},
    "FreeMintable04": {UNRESTRICTED_FROM: 2},
    "FreeMintableShanghai": {UNRESTRICTED_FROM: 2},
    "ChubbyBunny": {OWNER_INCONSISTENCY: 1},
    "BatchAirdrop": {"empty owner trace": 5},
    "GuardedGallery": {"probe unsat": 2},
    "OrderlyMuseum": {"probe unsat": 2},
    "PausableGallery": {"probe unsat": 2},
    "RelistedArt": {UNRESTRICTED_FROM: 1},
    "BridgeRelay": {"empty owner trace": 1},
    "SteadyMint": {"empty owner trace": 2},
    "QuietIslands": {},  # no Transfer emission, so no records
    "MarketHub": {"empty owner trace": 2},
}


def test_owner_rule_outcomes_on_the_corpus(corpus_dir):
    outcomes = {}
    for fixture in corpus.build_corpus():
        results = [_owner_finding(rec, ALL_DEFECT_TYPES, None)
                   for rec in _explored(corpus_dir / fixture.name)]
        outcomes[fixture.name] = dict(Counter(r.defect_type if r else r.reason for r in results))
    assert outcomes == OWNER_OUTCOMES
