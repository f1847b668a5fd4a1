"""Selectors, type canonicalization, pruning closure and owner binding."""

import astbuild as ab
import pytest

from sleepscan.astview import (
    canonical_type,
    compute_selector,
    find_owner_return_binding,
    function_infos,
    select_target_functions,
)
from sleepscan.ingestion import CompilationUnit, ast_from_json, load_compilation

# Published ERC-721 selector values (independent of the local hash).
KNOWN_SELECTORS = {
    "transferFrom(address,address,uint256)": 0x23B872DD,
    "safeTransferFrom(address,address,uint256)": 0x42842E0E,
    "safeTransferFrom(address,address,uint256,bytes)": 0xB88D4FDE,
    "ownerOf(uint256)": 0x6352211E,
    "balanceOf(address)": 0x70A08231,
    "approve(address,uint256)": 0x095EA7B3,
}


@pytest.mark.parametrize("signature,selector", sorted(KNOWN_SELECTORS.items()))
def test_known_selectors(signature, selector):
    assert compute_selector(signature) == selector


@pytest.mark.parametrize("raw,canonical", [
    ("uint", "uint256"),
    ("int", "int256"),
    ("uint256", "uint256"),
    ("address payable", "address"),
    ("contract IERC721", "address"),
    ("uint256[] memory", "uint256[]"),
    ("bytes calldata", "bytes"),
    ("string memory", "string"),
    ("mapping(uint256 => address)", "mapping(uint256 => address)"),
])
def test_canonical_type(raw, canonical):
    assert canonical_type(raw) == canonical


def _unit_for(ast_doc, name="C"):
    return CompilationUnit(name, b"\x00", [], ast_from_json(ast_doc), {}, (0, 8, 17))


def _contract(nodes):
    span = (0, 1000, 0)
    return {"nodeType": "SourceUnit", "src": "0:1000:0",
            "nodes": [ab.contract("C", span, nodes)]}


SPAN = (0, 10, 0)


def test_function_infos_hashes_every_declaration_to_its_published_selector():
    transfer_params = [ab.parameter("from", "address", SPAN),
                       ab.parameter("to", "address", SPAN),
                       ab.parameter("tokenId", "uint256", SPAN)]
    interface = ab.contract("IERC721", SPAN, [
        ab.function("transferFrom", "external", transfer_params, [], SPAN, SPAN),
    ])
    interface["contractKind"] = "interface"
    implementation = ab.contract("C", SPAN, [
        ab.function("transferFrom", "public", transfer_params,
                    [ab.emit_event("Transfer", ["from", "to", "tokenId"], SPAN)], SPAN, SPAN),
        ab.function("safeTransferFrom", "public", transfer_params, [], SPAN, SPAN),
        ab.function("safeTransferFrom", "public",
                    transfer_params + [ab.parameter("data", "bytes memory", SPAN)],
                    [], SPAN, SPAN),
    ])
    doc = ab.source_unit((0, 1000, 0), [interface, implementation])
    infos = function_infos(_unit_for(doc))
    signatures = [f"{f.name}({','.join(t for _, t in f.params)})" for f in infos]
    assert signatures == [
        "transferFrom(address,address,uint256)",  # the interface declaration
        "transferFrom(address,address,uint256)",  # the implementation
        "safeTransferFrom(address,address,uint256)",
        "safeTransferFrom(address,address,uint256,bytes)",
    ]
    assert [f.selector for f in infos] == [KNOWN_SELECTORS[s] for s in signatures]


def test_transfer_closure_through_internal_call():
    doc = _contract([
        ab.function("transferFrom", "external",
                    [ab.parameter("from", "address", SPAN),
                     ab.parameter("to", "address", SPAN),
                     ab.parameter("tokenId", "uint256", SPAN)],
                    [ab.call_statement("_transfer", SPAN)], SPAN, SPAN),
        ab.function("_transfer", "internal", [],
                    [ab.emit_event("Transfer", ["a", "b", "c"], SPAN)],
                    SPAN, SPAN),
        ab.function("pause", "external", [], [], SPAN, SPAN),
    ])
    infos = {f.name: f for f in function_infos(_unit_for(doc))}
    assert infos["transferFrom"].emits_transfer
    assert infos["_transfer"].emits_transfer
    assert infos["_transfer"].selector is None  # internal: no dispatcher entry
    assert not infos["pause"].emits_transfer
    targets = select_target_functions(function_infos(_unit_for(doc)))
    assert [t.name for t in targets] == ["transferFrom"]
    assert targets[0].selector == KNOWN_SELECTORS["transferFrom(address,address,uint256)"]


def test_only_three_argument_transfer_counts():
    doc = _contract([
        ab.function("airdrop", "external", [],
                    [ab.emit_event("Transfer", ["to", "tokenId"], SPAN)],
                    SPAN, SPAN),
        ab.function("log4args", "external", [],
                    [ab.emit_event("Transfer", ["a", "b", "c", "d"], SPAN)],
                    SPAN, SPAN),
    ])
    assert select_target_functions(function_infos(_unit_for(doc))) == []


def test_owner_binding_collects_every_override(corpus_dir):
    unit = load_compilation(corpus_dir / "ChubbyBunny")
    spans = find_owner_return_binding(unit)
    assert len(spans) == 2
    # spans are sorted by position; both land on a return statement
    snippets = [unit.snippet(span) for span in spans]
    assert snippets == ["return owner;", "return punkHolder;"]


def test_owner_binding_absent_without_owner_of(corpus_dir):
    unit = load_compilation(corpus_dir / "BatchAirdrop")
    assert find_owner_return_binding(unit) == ()


def test_pruning_on_market_hub(corpus_dir):
    unit = load_compilation(corpus_dir / "MarketHub")
    infos = function_infos(unit)
    external = [f for f in infos if f.visibility in ("external", "public")]
    assert len(external) == 20
    targets = select_target_functions(infos)
    assert sorted(t.name for t in targets) == ["transferA", "transferB"]
