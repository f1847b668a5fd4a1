"""AST-driven target-function pruning, ownerOf return-binding discovery and
the storage layout.

Transfer emission propagates through same-unit internal calls: the canonical
``transferFrom`` emits only via an internal ``_transfer``, so without the
call-graph closure the very functions we care about would be pruned away.
Only the 3-argument ``Transfer(address,address,uint256)`` counts as the
ERC-721 event; overloads with other arities are ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from sleepscan.ingestion import AstNode, CompilationUnit, Span
from sleepscan.keccak import keccak256, keccak256_many

EXTERNALLY_CALLABLE = ("external", "public")


@dataclass(frozen=True)
class FunctionInfo:
    name: str
    selector: int | None  # absent for internal/private functions and until hashed
    params: tuple[tuple[str, str], ...]  # (name, canonical abi type)
    src_span: Span
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


def _parameters(fn: AstNode) -> tuple[tuple[str, str], ...]:
    plists = [c for c in fn.children if c.node_kind == "ParameterList"]
    params_node = None
    for node in plists:
        if node.get("_field") == "parameters":
            params_node = node
            break
    if params_node is None and plists:
        params_node = plists[0]
    if params_node is None:
        return ()
    out = []
    for decl in params_node.children:
        if decl.node_kind != "VariableDeclaration":
            continue
        out.append((decl.get("name", ""), canonical_type(decl.get("typeString", ""))))
    return tuple(out)


def _called_names(calls: list[AstNode]) -> set[str]:
    names: set[str] = set()
    for call in calls:
        for child in call.children:
            if child.node_kind == "Identifier":
                names.add(child.get("name", ""))
                break
            if child.node_kind == "MemberAccess":
                names.add(child.get("memberName", ""))
                break
    return names


def _emits_transfer_directly(emits: list[AstNode]) -> bool:
    for emit in emits:
        for call in emit.by_kind().get("FunctionCall", ()):
            if not call.children:
                continue
            callee = call.children[0]
            event_name = callee.get("name") or callee.get("memberName")
            arg_count = len(call.children) - 1
            if event_name == "Transfer" and arg_count == 3:
                return True
    return False


def _transfer_closure(functions: list[AstNode]) -> list[bool]:
    """Per-function emits_transfer, closed over same-unit calls by name."""
    by_name: dict[str, list[int]] = {}
    for idx, fn in enumerate(functions):
        by_name.setdefault(fn.get("name", ""), []).append(idx)
    bodies = [fn.by_kind() for fn in functions]  # one walk per function
    emits = [_emits_transfer_directly(body.get("EmitStatement", ())) for body in bodies]
    calls = [_called_names(body.get("FunctionCall", ())) for body in bodies]
    changed = True
    while changed:
        changed = False
        for idx in range(len(functions)):
            if emits[idx]:
                continue
            for callee_name in calls[idx]:
                if any(emits[j] for j in by_name.get(callee_name, ())):
                    emits[idx] = True
                    changed = True
                    break
    return emits


def function_infos(unit: CompilationUnit) -> list[FunctionInfo]:
    """Every named function, with the signature of each externally callable
    one; no selector is hashed here (see ``with_selectors``)."""
    functions = unit.ast_index.get("FunctionDefinition", [])
    infos = []
    for fn, emits_transfer in zip(functions, _transfer_closure(functions)):
        name = fn.get("name", "")
        if not name:  # constructor / fallback / receive
            continue
        visibility = fn.get("visibility", "public")
        params = _parameters(fn)
        signature = None
        if visibility in EXTERNALLY_CALLABLE:
            signature = f"{name}({','.join(t for _, t in params)})"
        infos.append(FunctionInfo(name, None, params, fn.src_span, visibility,
                                  emits_transfer, signature))
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
    spans = [ret.src_span
             for fn in unit.ast_index.get("FunctionDefinition", ())
             if fn.get("name") == "ownerOf"
             for ret in fn.by_kind().get("Return", ())]
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
    layout: dict[int, SlotInfo] = {}
    slot = 0
    for contract in unit.ast_index.get("ContractDefinition", ()):
        for child in contract.children:
            if child.node_kind != "VariableDeclaration":
                continue
            if child.get("stateVariable") is False:
                continue
            layout[slot] = SlotInfo(child.get("name", f"slot{slot}"),
                                     child.get("typeString", ""))
            slot += 1
    return layout
