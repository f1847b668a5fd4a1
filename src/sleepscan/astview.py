"""AST-driven target-function pruning, ownerOf return-binding discovery and
the storage layout.

Everything here reads the unit's ``Ast`` through its groups, which the load
walk built, and walks nothing itself. A function emits ``Transfer`` when its
body calls ``Transfer`` with 3 arguments, under ``emit`` or not (Solidity
before 0.4.21 has no ``emit``); overloads with other arities are ignored.
Emission propagates through same-unit internal calls by name: the canonical
``transferFrom`` emits only via an internal ``_transfer``, so without the
call-graph closure the very functions we care about would be pruned away.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from sleepscan.ingestion import Ast, CompilationUnit, Span
from sleepscan.keccak import keccak256, keccak256_many

EXTERNALLY_CALLABLE = ("external", "public")


@dataclass(frozen=True)
class FunctionInfo:
    name: str
    selector: int | None  # absent for internal/private functions and until hashed
    params: tuple[tuple[str, str], ...]  # (name, canonical abi type)
    visibility: str
    emits_transfer: bool
    # externally callable functions only; hashed by with_selectors
    signature: str | None = None


def compute_selector(signature: str) -> int:
    """First 4 bytes of keccak-256 over the canonical ASCII signature."""
    return int.from_bytes(keccak256(signature.encode("ascii"))[:4], "big")


_LOCATION_WORDS = re.compile(r"\b(calldata|memory|storage|payable)\b")
_ALIASES = {"uint": "uint256", "int": "int256", "byte": "bytes1"}


def canonical_type(type_string: str) -> str:
    cleaned = _LOCATION_WORDS.sub("", type_string or "").strip()
    cleaned = " ".join(cleaned.split())
    if cleaned.startswith("contract ") or cleaned == "address":
        return "address"
    base, _, suffix = cleaned.partition("[")
    base = _ALIASES.get(base, base)
    return base + ("[" + suffix if suffix else "")


def _transfer_closure(ast: Ast) -> list[bool]:
    """Per-function emits_transfer, closed over same-unit calls by name."""
    by_name: dict[str, list[int]] = {}
    for idx, fn in enumerate(ast.kinds.get("FunctionDefinition", ())):
        by_name.setdefault(ast.get(fn, "name") or "", []).append(idx)
    calls = [[ast.call(call) for call in body.get("FunctionCall", ())] for body in ast.bodies]
    emits = [("Transfer", 3) in fn_calls for fn_calls in calls]
    called = [{name for name, _ in fn_calls if name} for fn_calls in calls]
    changed = True
    while changed:
        changed = False
        for idx in range(len(calls)):
            if emits[idx]:
                continue
            for callee_name in called[idx]:
                if any(emits[j] for j in by_name.get(callee_name, ())):
                    emits[idx] = True
                    changed = True
                    break
    return emits


def function_infos(unit: CompilationUnit) -> list[FunctionInfo]:
    """Every named function, with the signature of each externally callable
    one; no selector is hashed here (see ``with_selectors``)."""
    ast = unit.ast
    functions = ast.kinds.get("FunctionDefinition", ())
    infos = []
    for fn, emits_transfer in zip(functions, _transfer_closure(ast)):
        name = ast.get(fn, "name")
        if not name:  # constructor / fallback / receive
            continue
        visibility = ast.get(fn, "visibility") or "public"
        params = tuple((ast.get(decl, "name") or "",
                        canonical_type(ast.get(decl, "typeString") or ""))
                       for decl in ast.parameters(fn))
        signature = None
        if visibility in EXTERNALLY_CALLABLE:
            signature = f"{name}({','.join(t for _, t in params)})"
        infos.append(FunctionInfo(name, None, params, visibility, emits_transfer,
                                  signature))
    return infos


def with_selectors(infos: list[FunctionInfo]) -> list[FunctionInfo]:
    """``infos`` with the selector of each signature filled in.

    One batched Keccak call hashes the distinct signatures: an interface
    declaration and its implementation share one hash.
    """
    signatures = list(dict.fromkeys(f.signature for f in infos if f.signature is not None))
    digests = keccak256_many([s.encode("ascii") for s in signatures])
    selectors = {s: int.from_bytes(d[:4], "big") for s, d in zip(signatures, digests)}
    return [replace(f, selector=selectors.get(f.signature)) for f in infos]


def select_target_functions(infos: list[FunctionInfo]) -> list[FunctionInfo]:
    """Externally callable functions whose bodies (transitively) emit Transfer,
    with their selectors."""
    return with_selectors([
        info for info in infos
        if info.emits_transfer and info.visibility in EXTERNALLY_CALLABLE
    ])


def find_owner_return_binding(unit: CompilationUnit) -> tuple[Span, ...]:
    """Spans of every ``ownerOf`` return statement, sorted by position.

    Overrides included, so the engine can match whichever body actually
    executes; ``()`` when the unit has no ``ownerOf`` return.
    """
    ast = unit.ast
    spans = [ast.span(ret)
             for fn, body in zip(ast.kinds.get("FunctionDefinition", ()), ast.bodies)
             if ast.get(fn, "name") == "ownerOf"
             for ret in body.get("Return", ())]
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
    ast = unit.ast
    layout: dict[int, SlotInfo] = {}
    slot = 0
    for contract in ast.kinds.get("ContractDefinition", ()):
        for child in ast.children(contract):
            if ast.kind(child) != "VariableDeclaration":
                continue
            if ast.get(child, "stateVariable") is False:
                continue
            layout[slot] = SlotInfo(ast.get(child, "name") or f"slot{slot}",
                                    ast.get(child, "typeString") or "")
            slot += 1
    return layout
