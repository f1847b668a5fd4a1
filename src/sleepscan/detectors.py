"""The four sleepminting defect rules, applied to Transfer-emission records.

Every verdict rule is stated here; ``constraints`` is only the solver the
rules ask. The engine keeps a record only for a Transfer emission on a path
that exits normally; reverted and budget-exhausted paths are only counted, so
they never yield findings. A record's path condition is the plain conjunction
the solver checks; the PA rule alone looks inside a conjunct, for the ``eq``
leaves of a disjunctive guard, and it tests their provenance here, peeling
width masks itself. UF and OI are one owner rule with one probe; which of the
two a finding is depends only on whether the owner reads agree. Records
tainted by unmodeled external calls still produce findings, downgraded to low
confidence so users can triage them the way a manual audit would. A rule
that finds nothing returns a ``Silence`` that names why; a silence is falsy,
so a caller still tests a rule's result with a plain ``if``.
"""

from __future__ import annotations

from dataclasses import dataclass

from sleepscan import constraints as con
from sleepscan import sym
from sleepscan.constraints import Constraint
from sleepscan.ingestion import CompilationUnit, Span
from sleepscan.sym import Const, Op, SymValue, Var
from sleepscan.symexec import PathRecord

PRIVILEGED_ADDRESS = "PrivilegedAddress"
UNRESTRICTED_FROM = "UnrestrictedFrom"
OWNER_INCONSISTENCY = "OwnerInconsistency"
EMPTY_TRANSFER_EVENT = "EmptyTransferEvent"

SHORT_CODES = {
    "PA": PRIVILEGED_ADDRESS,
    "UF": UNRESTRICTED_FROM,
    "OI": OWNER_INCONSISTENCY,
    "ETE": EMPTY_TRANSFER_EVENT,
}
ALL_DEFECT_TYPES = tuple(SHORT_CODES.values())


def defect_type_named(code: str) -> str | None:
    """The type a short code, in any case, or a type's own name stands for, else None."""
    defect_type = SHORT_CODES.get(code.upper(), code)
    return defect_type if defect_type in ALL_DEFECT_TYPES else None


@dataclass(frozen=True)
class Finding:
    defect_type: str
    function: str
    src_span: Span  # the emission's source span
    witness: tuple[str, ...]
    confidence: str = "high"  # "low" when the path was tainted by external calls


@dataclass(frozen=True)
class Silence:
    """Why a rule gave no finding, one reason per early return; falsy."""
    reason: str

    def __bool__(self) -> bool:
        return False


def detect_privileged_address(rec: PathRecord) -> Finding | Silence:
    """Caller compared for equality against a storage-direct address, either
    way round: in an ``eq`` conjunct, or in an ``eq`` leaf of a ``nonzero``
    conjunct over an ``or``, so a disjunctive guard counts in either branch
    orientation."""
    equalities = []
    for c in rec.constraints:
        if c.relation == con.EQ:
            equalities.append(c)
        elif c.relation == con.NONZERO:
            equalities += (Constraint(con.EQ, *leaf.args) for leaf in _disjunct_eq_leaves(c.lhs))
    witness = tuple(
        repr(c) for c in equalities
        if (is_caller(c.lhs) and is_storage_direct_address(c.rhs))
        or (is_caller(c.rhs) and is_storage_direct_address(c.lhs))
    )
    if not witness:
        return Silence("no eq of the caller with a storage-direct address")
    return _finding(PRIVILEGED_ADDRESS, rec, witness)


def _disjunct_eq_leaves(condition: SymValue) -> list[Op]:
    if not (isinstance(condition, Op) and condition.op == "or"):
        return []
    leaves: list[Op] = []
    stack = list(condition.args)
    while stack:
        node = stack.pop()
        if isinstance(node, Op) and node.op == "or":
            stack.extend(node.args)
        elif isinstance(node, Op) and node.op == "eq":
            leaves.append(node)
    return leaves


def strip_masks(value: SymValue) -> SymValue:
    """Peel address/width masks so provenance matching sees the carrier Var."""
    while isinstance(value, Op) and value.op == "and":
        a, b = value.args
        if isinstance(b, Const) and b.value in (sym.MASK160, sym.MASK256):
            value = a
        elif isinstance(a, Const) and a.value in (sym.MASK160, sym.MASK256):
            value = b
        else:
            break
    return value


def is_caller(value: SymValue) -> bool:
    value = strip_masks(value)
    return isinstance(value, Var) and isinstance(value.kind, sym.Environment) \
        and value.kind.which == "caller"


def is_storage_direct_address(value: SymValue) -> bool:
    base = strip_masks(value)
    # a plain slot, not a mapping entry, of declared address type when the
    # layout resolved it, else loaded under a 160-bit mask
    return (isinstance(base, Var) and isinstance(base.kind, sym.Storage)
            and sym.mapping_base(base.kind.slot) is None
            and (base.is_address or base is not value))


def _owner_finding(rec: PathRecord, enabled: tuple[str, ...],
                   deadline: float | None) -> Finding | Silence:
    """UF when every owner read agrees, OI when they differ; either only when
    pushing ``latest owner != from`` stays sat. An ``unsat`` answer means a
    guard holds, and ``unknown`` stays quiet; the silence names which. A type
    not ``enabled`` is never probed."""
    trace = rec.owner_trace
    if not trace:
        return Silence("empty owner trace")
    agree = all(entry == trace[0] for entry in trace[1:])
    defect_type = UNRESTRICTED_FROM if agree else OWNER_INCONSISTENCY
    if defect_type not in enabled:
        return Silence("not enabled")
    probe = Constraint(con.NEQ, trace[-1], rec.from_param)
    answer = con.solve(rec.constraints, (probe,), deadline)
    if answer != con.SAT:
        return Silence(f"probe {answer}")
    reads = () if agree else tuple(map(repr, trace))
    return _finding(defect_type, rec, (*reads, repr(probe)))


def detect_unrestricted_from(rec: PathRecord) -> Finding | Silence:
    return _owner_finding(rec, (UNRESTRICTED_FROM,), None)


def detect_owner_inconsistency(rec: PathRecord) -> Finding | Silence:
    return _owner_finding(rec, (OWNER_INCONSISTENCY,), None)


def detect_empty_transfer_event(recs: list[PathRecord]) -> Finding | Silence:
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
    return Silence("every record's path stores")


def _finding(defect_type: str, rec: PathRecord, witness: tuple[str, ...]) -> Finding:
    return Finding(
        defect_type=defect_type,
        function=rec.function.name,
        src_span=rec.emission_src,
        witness=witness,
        confidence="low" if rec.tainted else "high",
    )


def analyze_contract(unit: CompilationUnit, records: list[PathRecord],
                     enabled: tuple[str, ...] = ALL_DEFECT_TYPES,
                     deadline: float | None = None) -> list[Finding]:
    """Run every enabled detector over ``unit``'s records, dedupe per (type,
    function); solver probes still running at ``deadline`` answer ``unknown``."""
    by_function: dict[str, list[PathRecord]] = {}
    for rec in records:
        by_function.setdefault(rec.function.name, []).append(rec)

    findings: list[Finding | Silence] = []  # filter(None, ...) drops the silences
    for recs in by_function.values():
        if EMPTY_TRANSFER_EVENT in enabled:
            findings.append(detect_empty_transfer_event(recs))
        for rec in recs:
            if PRIVILEGED_ADDRESS in enabled:
                findings.append(detect_privileged_address(rec))
            findings.append(_owner_finding(rec, enabled, deadline))

    deduped: dict[tuple[str, str], Finding] = {}
    for finding in filter(None, findings):
        key = (finding.defect_type, finding.function)
        previous = deduped.get(key)
        if previous is None or previous.confidence == "low" and finding.confidence == "high":
            deduped[key] = finding
    return sorted(deduped.values(),
                  key=lambda f: (f.src_span, f.defect_type))
