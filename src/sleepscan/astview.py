"""AST-driven target-function pruning, the owner binding (the definitions of
ownerOf and of the functions it calls) and the storage layout.

Everything here reads the unit's function table (``Ast.functions`` and
``Ast.state_variables``), which the load walk built, and knows no AST node;
a row's parameters are read only if it is explored, its span only if bound.
Only a callable (external or public) named function gets a row. A function
emits ``Transfer`` when its body calls ``Transfer`` with 3 arguments, under
``emit`` or not (Solidity before 0.4.21 has no ``emit``); other arities are
ignored. Emission propagates through same-unit calls by name, rows or not:
the canonical ``transferFrom`` emits only via an internal ``_transfer``, so
without the call-graph closure the very functions we care about are pruned.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from sleepscan.ingestion import Ast, CompilationUnit, FunctionRow, Span
from sleepscan.keccak import keccak256_many

EXTERNALLY_CALLABLE = ("external", "public")


@dataclass(slots=True)
class CallableRow:
    """A callable function as ``function_infos`` lists it; only ``with_selectors`` reads more."""

    name: str
    visibility: str
    emits_transfer: bool
    function: FunctionRow  # its parameters are read only if the row is explored


@dataclass(frozen=True)
class FunctionInfo:
    name: str
    selector: int
    params: tuple[tuple[str, str], ...]  # (name, canonical abi type)


_LOCATION_WORDS = re.compile(r"\b(calldata|memory|storage|payable)\b")
_ALIASES = {"uint": "uint256", "int": "int256", "byte": "bytes1"}


def canonical_type(type_string: str) -> str:
    """The ABI type of a parameter's type string: a contract (or ``address
    payable``) is ``address``, an enum ``uint8``, array suffixes kept."""
    cleaned = " ".join(_LOCATION_WORDS.sub("", type_string or "").split())
    base, bracket, suffix = cleaned.partition("[")
    kind = base.partition(" ")[0]
    if kind == "function":  # its own parameter types may hold brackets
        return kind + re.search(r"(\[[0-9]*\])*\Z", cleaned)[0]
    if kind in ("address", "contract"):
        base = "address"
    elif kind == "enum":
        base = "uint8"
    return _ALIASES.get(base, base) + bracket + suffix


def _transfer_closure(ast: Ast) -> list[bool]:
    """Per-function emits_transfer, closed over same-unit calls by name."""
    emits = [("Transfer", 3) in fn.calls for fn in ast.functions]
    while True:
        emitting = {fn.name for fn, emits_transfer in zip(ast.functions, emits) if emits_transfer}
        closed = [emits_transfer or any(name and name in emitting for name, _ in fn.calls)
                  for fn, emits_transfer in zip(ast.functions, emits)]
        if closed == emits:
            return emits
        emits = closed


def function_infos(unit: CompilationUnit) -> list[CallableRow]:
    """A row for every callable named function (no constructor, fallback,
    receive, internal or private one)."""
    return [CallableRow(fn.name, visibility, emits_transfer, fn)
            for fn, emits_transfer in zip(unit.ast.functions, _transfer_closure(unit.ast))
            if fn.name and (visibility := fn.visibility or "public") in EXTERNALLY_CALLABLE]


def with_selectors(rows: list[CallableRow]) -> list[FunctionInfo]:
    """The info of the first row of each signature, with its canonical parameter
    types and its selector: the compiler's, else its signature's (one batched hash
    for the rows without one). An override and its base, or an interface declaration
    and its implementation, share one dispatcher entry. Only ``rows`` are read."""
    parameters = [row.function.parameters for row in rows]  # read for these rows alone
    canonical = {t: canonical_type(t) for t in {t for ps in parameters for _, t in ps}}
    firsts: dict[str, tuple[CallableRow, tuple[tuple[str, str], ...]]] = {}
    for row, row_parameters in zip(rows, parameters):
        params = tuple((name, canonical[type_string]) for name, type_string in row_parameters)
        firsts.setdefault(f"{row.name}({','.join(t for _, t in params)})", (row, params))
    bare = [s for s, (row, _) in firsts.items() if row.function.selector is None]
    digests = keccak256_many([s.encode("ascii") for s in bare]) if bare else []
    selectors = {s: int.from_bytes(d[:4], "big") for s, d in zip(bare, digests)}
    return [FunctionInfo(row.name, selectors.get(s, row.function.selector), params)
            for s, (row, params) in firsts.items()]


def select_target_functions(rows: list[CallableRow]) -> list[FunctionInfo]:
    """The functions that (transitively) emit Transfer, one per signature, with selectors."""
    return with_selectors([row for row in rows if row.emits_transfer])


def find_owner_return_binding(unit: CompilationUnit) -> tuple[Span, ...]:
    """Definition spans, sorted by position, of every ``ownerOf`` (overrides
    included) and of every function it calls, transitively, by name: the code
    where a storage load reads the owner. ``()`` without an ``ownerOf``."""
    names, called = set(), {"ownerOf"}
    while called - names:
        names |= called
        called = {name for fn in unit.ast.functions if fn.name in names
                  for name, _ in fn.calls if name}
    spans = [fn.span for fn in unit.ast.functions if fn.name in names]
    return tuple(sorted(spans, key=lambda s: (s[2], s[0])))


# --------------------------------------------------------------------------
# storage layout from the AST (sequential slots, no packing: a heuristic that
# holds for the unpacked layouts the detectors care about)

@dataclass(frozen=True)
class SlotInfo:
    name: str
    type_string: str

    @property
    def is_address(self) -> bool:
        return self.type_string.strip() in ("address", "address payable")

    @property
    def mapping_value_is_address(self) -> bool:
        text = self.type_string.replace(" ", "")
        return text.endswith("=>address)") or text.endswith("=>addresspayable)")


def storage_layout(unit: CompilationUnit) -> dict[int, SlotInfo]:
    return {slot: SlotInfo(name or f"slot{slot}", type_string)
            for slot, (name, type_string) in enumerate(unit.ast.state_variables)}
