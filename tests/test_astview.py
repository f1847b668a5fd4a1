"""Selectors, type canonicalization, pruning closure and owner binding."""

import copy
import dataclasses
import json

import astbuild as ab
import fixtures as corpus
import oracle_keccak
import pytest
import typed_fixtures

from sleepscan import astview, ingestion
from sleepscan.astview import (
    EXTERNALLY_CALLABLE,
    CallableRow,
    FunctionInfo,
    canonical_type,
    find_owner_return_binding,
    function_infos,
    select_target_functions,
    with_selectors,
)
from sleepscan.detectors import UNRESTRICTED_FROM
from sleepscan.ingestion import Ast, CompilationUnit, load_all, load_compilation
from sleepscan.pipeline import RunConfig, analyze_path

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
    name, _, types = signature[:-1].partition("(")
    params = tuple((f"p{i}", t) for i, t in enumerate(types.split(",")))
    doc = ab.function(name, "external", [ab.parameter(n, t, SPAN) for n, t in params], [],
                      SPAN, SPAN)
    (fn,) = Ast(doc).functions
    assert with_selectors([CallableRow(name, "external", False, fn)]) == [
        FunctionInfo(name, selector, params)]


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
    # the ABI's types: address payable and contracts are address, enums uint8
    ("address payable[]", "address[]"),
    ("contract IERC721[]", "address[]"),
    ("contract IERC721[2][] memory", "address[2][]"),
    ("enum Market.State", "uint8"),
    ("enum Market.State[]", "uint8[]"),
    # an external function is function, whatever brackets its own types hold
    ("function (uint256) external returns (bool)", "function"),
    ("function (uint256[] memory) external returns (bool[] memory)", "function"),
    ("function (uint256[] memory) external returns (bool)[2][] memory", "function[2][]"),
])
def test_canonical_type(raw, canonical):
    assert canonical_type(raw) == canonical


def _unit_for(ast_doc, name="C"):
    return CompilationUnit(name, b"\x00", [], Ast(ast_doc), {}, (0, 8, 17))


def _contract(nodes):
    span = (0, 1000, 0)
    return {"nodeType": "SourceUnit", "src": "0:1000:0",
            "nodes": [ab.contract("C", span, nodes)]}


SPAN = (0, 10, 0)


def _signature(info: FunctionInfo) -> str:
    return f"{info.name}({','.join(t for _, t in info.params)})"


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
    rows = function_infos(_unit_for(doc))
    assert [(f.name, f.visibility) for f in rows] == [
        ("transferFrom", "external"),  # the interface declaration
        ("transferFrom", "public"),  # the implementation
        ("safeTransferFrom", "public"), ("safeTransferFrom", "public")]
    # the declaration and the implementation share one dispatcher entry: the
    # first row of a signature stands for it
    hashed = with_selectors(rows)
    signatures = [_signature(f) for f in hashed]
    assert signatures == [
        "transferFrom(address,address,uint256)",
        "safeTransferFrom(address,address,uint256)",
        "safeTransferFrom(address,address,uint256,bytes)",
    ]
    assert [f.selector for f in hashed] == [KNOWN_SELECTORS[s] for s in signatures]


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
    assert infos["transferFrom"].emits_transfer  # through _transfer
    assert "_transfer" not in infos  # internal: no dispatcher entry, no row
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
    # both ownerOf definitions, sorted by position
    heads = [unit.snippet(span).split("{")[0].strip()
             for span in find_owner_return_binding(unit)]
    assert heads == [
        "function ownerOf(uint256 tokenId) public view virtual returns (address)",
        "function ownerOf(uint256 tokenId) public view override returns (address)"]
    # a callee of an override, and its callee, join by name; a caller does not
    spans = [(index * 10, 10, 0) for index in range(5)]
    doc = _contract([
        ab.function("ownerOf", "public", [], [], spans[3], spans[3]),
        ab.function("_update", "internal", [],
                    [ab.call_statement("_ownerOf", spans[0])], spans[0], spans[0]),
        ab.function("ownerOf", "public", [],
                    [ab.call_statement("_ownerOf", spans[1])], spans[1], spans[1]),
        ab.function("_ownerOf", "internal", [],
                    [ab.call_statement("_packed", spans[4])], spans[4], spans[4]),
        ab.function("_packed", "internal", [], [], spans[2], spans[2]),
    ])
    assert find_owner_return_binding(_unit_for(doc)) == tuple(spans[1:])


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


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_no_function_is_hashed_where_the_compiler_wrote_its_selector(corpus_dir, monkeypatch,
                                                                      prune):
    batches = []
    monkeypatch.setattr(astview, "keccak256_many", batches.append)
    (report,) = analyze_path(str(corpus_dir / "MarketHub"), RunConfig(prune=prune))
    assert "error" not in report and report["functions_analyzed"] == (2 if prune else 20)
    assert batches == []


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_only_explored_functions_are_hashed(tmp_path, monkeypatch, prune):
    """Where the AST has no ``functionSelector``, the explored signatures
    are hashed, in one batch."""
    hub = corpus.market_hub()
    directory = dataclasses.replace(hub, ast=corpus.without_selectors(hub.ast)).write(tmp_path)
    infos = function_infos(load_compilation(directory))
    explored = [f"{f.name}({','.join(canonical_type(t) for _, t in f.function.parameters)})"
                for f in infos if f.visibility in EXTERNALLY_CALLABLE
                and (f.emits_transfer or not prune)]
    assert len(explored) == (2 if prune else 20)
    batches = []
    keccak256_many = astview.keccak256_many

    def recording(messages):
        batches.append(list(messages))
        return keccak256_many(messages)

    monkeypatch.setattr(astview, "keccak256_many", recording)
    (report,) = analyze_path(str(directory), RunConfig(prune=prune))
    assert "error" not in report
    assert batches == [[s.encode("ascii") for s in dict.fromkeys(explored)]]


def _wide_hub(tmp_path):
    """A MarketHub with 60 extra callable functions, as standard JSON."""
    path = tmp_path / "MarketHub.json"
    path.write_text(json.dumps(corpus.standard_json_artifact(corpus.market_hub(1, 60))))
    return path


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_full_rows_only_for_what_is_hashed(tmp_path, monkeypatch, prune):
    """Canonical types and a signature are built for the hashed rows alone:
    the 2 targets when pruning, all 62 callable functions when not."""
    path = _wide_hub(tmp_path)
    built = []

    class RecordingInfo(FunctionInfo):
        def __init__(self, *args):
            super().__init__(*args)
            built.append((_signature(self), self.params))

    monkeypatch.setattr(astview, "FunctionInfo", RecordingInfo)
    (report,) = analyze_path(str(path), RunConfig(prune=prune))
    assert report["functions_total"] == 62
    if prune:
        params = (("to", "address"), ("tokenId", "uint256"))
        assert built == [("transferA(address,uint256)", params),
                         ("transferB(address,uint256)", params)]
    else:
        assert len(built) == len(set(built)) == 62


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_parameters_and_spans_are_read_only_where_used(tmp_path, monkeypatch, prune):
    """A row's parameter list is read only where the row is hashed, and its
    span only where it is in the owner binding, which this unit (no
    ``ownerOf``) lacks."""
    path = _wide_hub(tmp_path)
    reads = {"_parameters": 0, "_span": 0}

    def counting(name):
        read = getattr(ingestion, name)

        def counted(value):
            reads[name] += 1
            return read(value)
        return counted

    for name in reads:
        monkeypatch.setattr(ingestion, name, counting(name))
    (report,) = analyze_path(str(path), RunConfig(prune=prune))
    assert "error" not in report and report["functions_total"] == 62
    assert reads == {"_parameters": 2 if prune else 62, "_span": 0}


# --------------------------------------------------------------------------
# the AST's layout: key order, compiler era, emit


@pytest.fixture(scope="module")
def corpus_docs():
    """Contract name -> the fixture as a standard-JSON document."""
    return {f.name: corpus.standard_json_artifact(f) for f in corpus.build_corpus()}


def _reports(tmp_path, docs, prune, sort_keys=False):
    """Contract name -> report minus timings, for each document written out."""
    reports = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=sort_keys))
        for report in analyze_path(str(path), RunConfig(prune=prune)):
            report.pop("timings", None)
            reports[report["contract"]] = report
    return reports


@pytest.fixture(scope="module")
def fixture_reports(corpus_docs, tmp_path_factory):
    """prune -> the reports of the fixtures as written, which the other
    layouts must reproduce."""
    reports = {prune: _reports(tmp_path_factory.mktemp("fixture-form"), corpus_docs, prune)
               for prune in (True, False)}
    for by_contract in reports.values():
        assert len(by_contract) == 14
        assert all("error" not in r and r["functions_analyzed"] for r in by_contract.values())
        assert sum(len(r["findings"]) for r in by_contract.values()) == 9  # the acceptance verdicts
    return reports


def _with_asts(docs, convert):
    converted = copy.deepcopy(docs)
    for doc in converted.values():
        for source in doc["sources"].values():
            source["ast"] = convert(source["ast"])
    return converted


def test_only_callable_functions_get_rows(tmp_path, corpus_docs, fixture_reports):
    """A constructor, fallback, receive, internal or private function has no
    row, and none of them changes the report, ``functions_total`` included."""
    doc = copy.deepcopy(corpus_docs["HiddenApprover"])
    (source,) = doc["sources"].values()
    (contract,) = [node for node in source["ast"]["nodes"]
                   if node["nodeType"] == "ContractDefinition"]
    span = tuple(map(int, contract["src"].split(":")))
    emitting = [ab.emit_event("Transfer", ["a", "b", "c"], span)]
    contract["nodes"] += [
        ab.function("", "public", [], [], span, span),  # constructor
        ab.function("", "external", [], [], span, span),  # fallback and receive
        ab.function("_mint", "internal", [], emitting, span, span),
        ab.function("_burn", "private", [ab.parameter("tokenId", "uint256", span)],
                    emitting, span, span),
    ]
    path = tmp_path / "HiddenApprover.json"
    path.write_text(json.dumps(doc))
    (unit,) = load_all(str(path))
    assert [fn.name for fn in unit.ast.functions] == [
        "ownerOf", "transferFrom", "_transfer", "", "", "_mint", "_burn"]
    assert [(f.name, f.visibility, f.emits_transfer) for f in function_infos(unit)] == [
        ("ownerOf", "public", False), ("transferFrom", "external", True)]
    (report,) = analyze_path(str(path), RunConfig())
    report.pop("timings")
    assert report == fixture_reports[True]["HiddenApprover"]
    assert report["functions_total"] == 2


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_key_order_does_not_matter(tmp_path, corpus_docs, fixture_reports, prune):
    """Sorted keys, as the compiler writes them, put a call's arguments
    before its expression."""
    assert _reports(tmp_path, corpus_docs, prune, sort_keys=True) == fixture_reports[prune]


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_legacy_form_gives_the_modern_reports(tmp_path, corpus_docs, fixture_reports, prune):
    legacy = _with_asts(corpus_docs, ab.legacy)
    assert _reports(tmp_path, legacy, prune) == fixture_reports[prune]


def _without_emit(node):
    """``node`` with every ``emit E(...)`` turned into a plain ``E(...)`` call,
    as Solidity before 0.4.21 writes it."""
    if isinstance(node, list):
        return [_without_emit(item) for item in node]
    if not isinstance(node, dict):
        return node
    if node.get("nodeType") == "EmitStatement":
        return {"nodeType": "ExpressionStatement", "src": node["src"],
                "expression": _without_emit(node["eventCall"])}
    return {key: _without_emit(value) for key, value in node.items()}


def test_transfer_without_emit_marks_the_function(tmp_path, corpus_docs, fixture_reports):
    without = _with_asts(corpus_docs, _without_emit)
    assert "EmitStatement" in json.dumps(corpus_docs)
    assert "EmitStatement" not in json.dumps(without)
    assert _reports(tmp_path, without, True) == fixture_reports[True]


# --------------------------------------------------------------------------
# the selector the compiler wrote, and the hash it stands in for

# every corpus fixture and three MarketHub shapes, as directories, and a wide
# hub of 62 callable functions as standard JSON, as the benchmark lays them out
_WRITTEN = {
    **{f.name: f for f in corpus.build_corpus()},
    **{f"MarketHub-{b}x{c}": corpus.market_hub(b, c) for b, c in ((1, 4), (3, 9), (6, 19))},
    "wide-json": corpus.market_hub(1, 60),
}


def _write(directory, case: str, strip: bool = False):
    """``case``'s artifact, with every ``functionSelector`` stripped if ``strip``."""
    fixture = _WRITTEN[case]
    if strip:
        fixture = dataclasses.replace(fixture, ast=corpus.without_selectors(fixture.ast))
    if case != "wide-json":
        return fixture.write(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "wide.json"
    path.write_text(json.dumps(corpus.standard_json_artifact(fixture)))
    return path


def _oracle_selector(signature: str) -> int:
    return int.from_bytes(oracle_keccak.keccak256(signature.encode("ascii"))[:4], "big")


@pytest.mark.parametrize("case", _WRITTEN)
def test_a_written_selector_is_the_hash_of_the_canonical_signature(tmp_path, case):
    """Every callable row of a solc 0.8 AST carries ``functionSelector``, the
    reference Keccak's first 4 bytes of its canonical signature; no internal
    row does, and FreeMintable04, a solc 0.4 AST, has none at all."""
    (unit,) = load_all(_write(tmp_path, case))
    written = case != "FreeMintable04"
    callable_rows = [fn for fn in unit.ast.functions if fn.visibility in EXTERNALLY_CALLABLE]
    assert callable_rows
    for fn in unit.ast.functions:
        if not (written and fn in callable_rows):
            assert fn.selector is None
            continue
        signature = f"{fn.name}({','.join(canonical_type(t) for _, t in fn.parameters)})"
        assert fn.selector == _oracle_selector(signature), signature


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
@pytest.mark.parametrize("case", _WRITTEN)
def test_a_written_selector_changes_no_report(tmp_path, case, prune):
    """The field only saves a hash: the reports without timings are the same
    with every ``functionSelector`` and with none."""
    reports = []
    for strip in (False, True):
        path = _write(tmp_path / ("stripped" if strip else "written"), case, strip)
        reports.append(analyze_path(str(path), RunConfig(prune=prune)))
        for report in reports[-1]:
            assert "error" not in report and report["functions_analyzed"]
            report.pop("timings")
    assert reports[0] == reports[1]


_TYPED = {"struct": "move((address,address,uint256))",
          "value-type": "transferFrom(address,address,uint256)"}


@pytest.mark.parametrize("kind", _TYPED)
def test_a_struct_or_value_type_parameter_is_explored_at_its_written_selector(tmp_path, kind):
    """The ABI type of a struct or user-defined value type is not its type
    string; the selector the compiler wrote is the dispatcher's, so the
    target is explored and gets its verdict."""
    fixture = typed_fixtures.typed_transfer(kind)
    selector = _oracle_selector(_TYPED[kind])
    (target,) = [fn for fn in Ast(fixture.ast).functions if fn.name != "ownerOf"]
    assert target.selector == selector
    assert fixture.bytecode.count(b"\x63" + selector.to_bytes(4, "big")) == 1  # its entry
    (report,) = analyze_path(str(fixture.write(tmp_path)), RunConfig())
    assert (report["functions_analyzed"], report["functions_skipped"]) == (1, [])
    assert [(f["type"], f["function"]) for f in report["findings"]] == [
        (UNRESTRICTED_FROM, target.name)]


@pytest.mark.parametrize("render", [corpus.without_selectors, ab.legacy],
                         ids=["no-field", "legacy"])
@pytest.mark.parametrize("kind", _TYPED)
def test_without_the_field_such_a_target_is_skipped(tmp_path, kind, render):
    """The known limit of an AST without ``functionSelector`` (a legacy one
    is read without it): the hash of the signature's type strings is not a
    selector the dispatcher has, so the target is listed as skipped."""
    fixture = typed_fixtures.typed_transfer(kind)
    fixture = dataclasses.replace(fixture, ast=render(fixture.ast))
    (report,) = analyze_path(str(fixture.write(tmp_path)), RunConfig())
    assert "error" not in report and report["findings"] == []
    assert report["functions_skipped"] == [
        "move" if kind == "struct" else "transferFrom"]
