"""The four sleepminting defect rules, applied to Transfer-emission records.

The engine keeps a record only for a Transfer emission on a path that exits
normally; reverted and budget-exhausted paths are only counted, so they
never yield findings. Records tainted by unmodeled external calls still
produce findings, downgraded to low confidence so users can triage them the
way a manual audit would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from sleepscan import constraints as con
from sleepscan.constraints import Constraint
from sleepscan.ingestion import CompilationUnit, Span
from sleepscan.symexec import PathRecord

PRIVILEGED_ADDRESS = "PrivilegedAddress"
UNRESTRICTED_FROM = "UnrestrictedFrom"
OWNER_INCONSISTENCY = "OwnerInconsistency"
EMPTY_TRANSFER_EVENT = "EmptyTransferEvent"

ALL_DEFECT_TYPES = (
    PRIVILEGED_ADDRESS,
    UNRESTRICTED_FROM,
    OWNER_INCONSISTENCY,
    EMPTY_TRANSFER_EVENT,
)

SHORT_CODES = {
    "PA": PRIVILEGED_ADDRESS,
    "UF": UNRESTRICTED_FROM,
    "OI": OWNER_INCONSISTENCY,
    "ETE": EMPTY_TRANSFER_EVENT,
}


@dataclass(frozen=True)
class Finding:
    defect_type: str
    contract: str
    function: str
    src_span: Span  # the emission's source span
    witness: tuple[str, ...]
    path_id: int
    confidence: str = "high"  # "low" when the path was tainted by external calls


def detect_privileged_address(rec: PathRecord) -> Finding | None:
    """Caller compared for equality against a storage-direct address.

    Either orientation counts, and eq-candidates from disjunctive guards are
    matched too.
    """
    witness = tuple(
        repr(c) for c in rec.constraints
        if c.relation == con.EQ and (
            (con.is_caller(c.lhs) and con.is_storage_direct_address(c.rhs))
            or (con.is_caller(c.rhs) and con.is_storage_direct_address(c.lhs))
        )
    )
    if not witness:
        return None
    return _finding(PRIVILEGED_ADDRESS, rec, witness)


def _owner_entries_all_equal(trace: tuple) -> bool:
    return all(entry == trace[0] for entry in trace[1:])


def _owner_probe(rec: PathRecord, deadline: float | None) -> Constraint | None:
    """The ``latest owner != from`` probe when pushing it stays sat; None
    when it is unsat (properly guarded) or unknown (stay quiet)."""
    if rec.from_param is None:
        return None
    probe = Constraint(con.NEQ, rec.owner_trace[-1], rec.from_param)
    if con.solve(rec.constraints, (probe,), deadline) != con.SAT:
        return None
    return probe


def detect_unrestricted_from(rec: PathRecord, deadline: float | None = None) -> Finding | None:
    """No ``owner == from`` guard on the path: pushing the negation stays sat."""
    if not rec.owner_trace or not _owner_entries_all_equal(rec.owner_trace):
        return None
    probe = _owner_probe(rec, deadline)
    if probe is None:
        return None
    return _finding(UNRESTRICTED_FROM, rec, (repr(probe),))


def detect_owner_inconsistency(rec: PathRecord, deadline: float | None = None) -> Finding | None:
    """Owner value changed mid-path, so the guard cannot cancel the negation."""
    if _owner_entries_all_equal(rec.owner_trace):
        return None
    probe = _owner_probe(rec, deadline)
    if probe is None:
        return None
    witness = tuple(repr(entry) for entry in rec.owner_trace) + (repr(probe),)
    return _finding(OWNER_INCONSISTENCY, rec, witness)


def detect_empty_transfer_event(recs: list[PathRecord]) -> Finding | None:
    """Transfer emitted with no storage write anywhere on the whole function.

    An early emit followed by stores is exempt: the exit-time mark covers the
    code after the emission, and the mark never goes back to False, so a store
    before the emission sets it too.
    """
    for rec in recs:
        if not rec.sstore_mark_at_exit:
            witness = (f"no SSTORE before emission at pc {rec.emission_pc} "
                       f"nor anywhere on the path",)
            return _finding(EMPTY_TRANSFER_EVENT, rec, witness)
    return None


def _finding(defect_type: str, rec: PathRecord, witness: tuple[str, ...]) -> Finding:
    return Finding(
        defect_type=defect_type,
        contract="",
        function=rec.function.name,
        src_span=rec.emission_src,
        witness=witness,
        path_id=rec.path_id,
        confidence="low" if rec.tainted else "high",
    )


def analyze_contract(unit: CompilationUnit, records: list[PathRecord],
                     enabled: tuple[str, ...] = ALL_DEFECT_TYPES,
                     deadline: float | None = None) -> list[Finding]:
    """Run every enabled detector over all records, dedupe per (type, function);
    solver probes still running at ``deadline`` answer ``unknown``."""
    by_function: dict[str, list[PathRecord]] = {}
    for rec in records:
        by_function.setdefault(rec.function.name, []).append(rec)

    findings: list[Finding] = []
    for fn_name, recs in by_function.items():
        if EMPTY_TRANSFER_EVENT in enabled:
            found = detect_empty_transfer_event(recs)
            if found:
                findings.append(found)
        for rec in recs:
            if PRIVILEGED_ADDRESS in enabled:
                found = detect_privileged_address(rec)
                if found:
                    findings.append(found)
            if UNRESTRICTED_FROM in enabled:
                found = detect_unrestricted_from(rec, deadline)
                if found:
                    findings.append(found)
            if OWNER_INCONSISTENCY in enabled:
                found = detect_owner_inconsistency(rec, deadline)
                if found:
                    findings.append(found)

    deduped: dict[tuple[str, str], Finding] = {}
    for finding in findings:
        finding = replace(finding, contract=unit.contract_name)
        key = (finding.defect_type, finding.function)
        previous = deduped.get(key)
        if previous is None or previous.confidence == "low" and finding.confidence == "high":
            deduped[key] = finding
    return sorted(deduped.values(),
                  key=lambda f: (f.src_span, f.defect_type))
