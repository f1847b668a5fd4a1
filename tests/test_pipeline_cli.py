"""Pipeline reports and the command-line front end."""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import astbuild as ab
import fixtures as corpus
from evmasm import encode_source_map

from sleepscan import detectors, pipeline
from sleepscan.cli import main
from sleepscan.detectors import OWNER_INCONSISTENCY, PRIVILEGED_ADDRESS, UNRESTRICTED_FROM
from sleepscan.disasm import disassemble, dump_listing
from sleepscan.ingestion import decode_source_map, load_compilation
from sleepscan.pipeline import RunConfig, analyze_path
from sleepscan.symexec import END_BUDGET as BUDGET
from sleepscan.symexec import END_EMISSION as EMIT
from sleepscan.symexec import END_EXIT as EXIT
from sleepscan.symexec import END_REVERT as REVERT


# --------------------------------------------------------------------------
# RunConfig validation

@pytest.mark.parametrize("field", ["timeout_seconds", "loop_bound", "max_steps",
                                   "max_paths"])
def test_run_config_rejects_non_positive(field):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: 0})
    RunConfig(**{field: 1})  # boundary is fine


# --------------------------------------------------------------------------
# report shape

REPORT_KEYS = {
    "schema_version", "contract", "compiler_version", "functions_total",
    "functions_analyzed", "functions_skipped", "findings", "path_records",
    "timings", "timed_out",
}


def test_report_schema(corpus_reports):
    report = corpus_reports["HiddenApprover"]
    assert set(report) == REPORT_KEYS
    assert report["schema_version"] == 1
    assert report["compiler_version"] == "0.8.17"
    assert report["timed_out"] is False
    assert report["functions_analyzed"] <= report["functions_total"]
    assert set(report["timings"]) == {"total_seconds", "per_function"}
    (finding,) = report["findings"]
    assert set(finding) == {"type", "function", "file", "start", "length",
                            "confidence", "witness"}
    assert finding["file"] == 0 and finding["length"] > 0
    assert "transfer-emission" in report["path_records"]
    json.dumps(report)  # everything must be serializable


def test_finding_span_points_at_the_emission(corpus_dir, corpus_reports):
    from sleepscan.ingestion import load_compilation
    unit = load_compilation(corpus_dir / "HiddenApprover")
    finding = corpus_reports["HiddenApprover"]["findings"][0]
    snippet = unit.snippet((finding["start"], finding["length"], finding["file"]))
    assert snippet == "emit Transfer(from, to, tokenId);"


# contract -> (pruned, unpruned) path_records; an emission counts beside its
# path's own end, under budget-exhausted when the path was cut
PATH_RECORDS = {
    "BatchAirdrop": ({BUDGET: 20, EMIT: 5, EXIT: 7}, {BUDGET: 20, EMIT: 5, EXIT: 7}),
    "BridgeRelay": ({EMIT: 1, EXIT: 1, REVERT: 1}, {EMIT: 1, EXIT: 1, REVERT: 1}),
    "ChubbyBunny": ({EMIT: 1, EXIT: 1, REVERT: 2}, {EXIT: 2, EMIT: 1, REVERT: 2}),
    "FreeMintable": ({REVERT: 3, EMIT: 2, EXIT: 2}, {EXIT: 3, REVERT: 3, EMIT: 2}),
    "FreeMintable04": ({REVERT: 3, EMIT: 2, EXIT: 2}, {EXIT: 3, REVERT: 3, EMIT: 2}),
    "FreeMintableShanghai": ({REVERT: 3, EMIT: 2, EXIT: 2},
                             {EXIT: 3, REVERT: 3, EMIT: 2}),
    "GuardedGallery": ({REVERT: 4, EMIT: 2, EXIT: 2}, {EXIT: 3, REVERT: 4, EMIT: 2}),
    "HiddenApprover": ({REVERT: 4, EMIT: 3, EXIT: 3}, {EXIT: 4, REVERT: 4, EMIT: 3}),
    "MarketHub": ({EMIT: 2, EXIT: 2}, {EXIT: 9218, BUDGET: 54, EMIT: 2}),
    "OrderlyMuseum": ({REVERT: 2, EMIT: 2, EXIT: 2}, {EXIT: 3, REVERT: 2, EMIT: 2}),
    "PausableGallery": ({REVERT: 5, EMIT: 2, EXIT: 2}, {EXIT: 3, REVERT: 5, EMIT: 2}),
    "QuietIslands": ({EXIT: 1, REVERT: 2}, {EXIT: 1, REVERT: 2}),
    "RelistedArt": ({EMIT: 1, EXIT: 1, REVERT: 1}, {EXIT: 2, EMIT: 1, REVERT: 1}),
    "SteadyMint": ({EMIT: 2, EXIT: 1}, {EMIT: 2, EXIT: 1}),
}


@pytest.mark.parametrize("contract", sorted(PATH_RECORDS))
def test_path_records_count_every_end(contract, corpus_dir, corpus_reports):
    pruned, unpruned = PATH_RECORDS[contract]
    (full,) = analyze_path(str(corpus_dir / contract), RunConfig(prune=False))
    assert list(corpus_reports[contract]["path_records"].items()) == list(pruned.items())
    assert list(full["path_records"].items()) == list(unpruned.items())


@pytest.mark.parametrize("owner_check,findings", [
    (False, [(UNRESTRICTED_FROM, ["(_owners[...] neq from)"])]),
    (True, []),
], ids=["unguarded", "guarded"])
def test_an_owner_read_through_an_owner_of_helper_counts(tmp_path, owner_check, findings):
    """OpenZeppelin 5's shape: ownerOf and the transfer both read the owner
    through the internal _ownerOf, whose code holds the owner load."""
    fixture = corpus.transfer_family("HelperRead", owner_check=owner_check, owner_helper=True)
    (report,) = analyze_path(str(fixture.write(tmp_path)), RunConfig())
    assert [(f["type"], f["witness"]) for f in report["findings"]] == findings


def test_an_owner_read_outside_the_owner_code_is_missed(tmp_path):
    """A documented false negative: solmate's transferFrom reads
    ``_owners[tokenId]`` itself, in no code of ownerOf's, so the path has no
    owner trace and UF stays silent on an unguarded transfer."""
    fixture = corpus.transfer_family("InlineRead", owner_check=False, inline_owner=True)
    (report,) = analyze_path(str(fixture.write(tmp_path)), RunConfig())
    assert "error" not in report
    assert report["path_records"][EMIT] == 2
    assert report["findings"] == []


def test_analyze_path_isolates_broken_artifacts(tmp_path):
    good = corpus.guarded_gallery().write(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    config = RunConfig()
    good_reports = analyze_path(str(good), config)
    assert len(good_reports) == 1 and "error" not in good_reports[0]
    bad_reports = analyze_path(str(bad), config)
    assert len(bad_reports) == 1
    assert "JSONDecodeError" in bad_reports[0]["error"]
    assert bad_reports[0]["findings"] == []


_DEEP = "[" * 100_000 + "]" * 100_000  # nested past the JSON parser's recursion limit


def test_json_nested_too_deeply_is_a_bad_artifact(runner, corpus_dir, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP)
    deep_ast = corpus.guarded_gallery().write(tmp_path)
    (deep_ast / "GuardedGallery.ast.json").write_text(_DEEP)
    result = runner.invoke(main, ["analyze", "--format", "json", str(deep), str(deep_ast),
                                  str(corpus_dir / "HiddenApprover")])
    assert result.exit_code == 0, result.output
    first, second, good = json.loads(result.output)
    assert (first["contract"], second["contract"]) == ("deep", "GuardedGallery")
    for report in (first, second):
        assert report["error"].startswith("MissingArtifact: ")
        assert "nested too deeply" in report["error"]
    assert "error" not in good and good["findings"]


_SOURCE = {"id": 0, "content": "pragma solidity ^0.8.0;",
           "ast": {"nodeType": "SourceUnit", "src": "0:0:0"}}


def _one_contract(deployed=None, source=None, **contract):
    """A standard-JSON document holding one contract, with overrides."""
    deployed = {"object": "00", "sourceMap": "0:0:-1", **(deployed or {})}
    return {"sources": {"A.sol": {**_SOURCE, **(source or {})}},
            "contracts": {"A.sol": {"A": {"evm": {"deployedBytecode": deployed},
                                          **contract}}}}


def _one_function(name="f", visibility="public", type_string="uint256",
                  kind="FunctionDefinition"):
    """A one-contract document whose AST holds one function, with overrides."""
    span = (0, 0, 0)
    fn = ab.function(name, visibility, [ab.parameter("a", type_string, span)], [],
                     span, span)
    fn["nodeType"] = kind
    return _one_contract(source={"ast": ab.source_unit(span, [fn])})


@pytest.mark.parametrize("doc,message", [
    ([], "is not a JSON object"),
    ({"contracts": []}, "is not a JSON object"),
    ({"contracts": {}, "sources": [1]}, "is not a JSON object"),
    ({"contracts": {}, "sources": {"A.sol": "x"}}, "is not a JSON object"),
    ({"contracts": {"A.sol": "x"}}, "is not a JSON object"),
    ({"contracts": {"A.sol": {"A": []}}}, "is not a JSON object"),
    ({"contracts": {"A.sol": {"A": {"evm": "x"}}}}, "is not a JSON object"),
    ({"contracts": {"A.sol": {"A": {"evm": {"deployedBytecode": 5}}}}},
     "is not a JSON object"),
    (_one_contract(deployed={"object": 5}),
     "A: deployedBytecode.object is not a JSON string"),
    (_one_contract(deployed={"sourceMap": 5}),
     "A: deployedBytecode.sourceMap is not a JSON string"),
    (_one_contract(source={"ast": 5}), "AST of A.sol is not a JSON object"),
    (_one_contract(source={"content": 5}), "content of A.sol is not a JSON string"),
    (_one_contract(metadata=5), "A: metadata is not a JSON string"),
    (_one_contract(source={"id": [0]}), "id of A.sol is not a JSON integer"),
    (_one_contract(source={"ast": {"name": "SourceUnit", "children": 5}}),
     "children of AST node SourceUnit is not a JSON list"),
    (_one_contract(source={"ast": {"name": "SourceUnit", "children": ["x"]}}),
     "child of AST node SourceUnit is not a JSON object"),
    ({"contracts": {}}, "no contract artifacts under"),
    ({**_one_contract(), "sources": {"A.sol": _SOURCE, "B.sol": {"id": 0, "content": ""}}},
     "source id 0 of B.sol is used twice"),
    (_one_function(kind=["x"]), "nodeType of an AST node is not a JSON string"),
    (_one_function(type_string=5), "typeString of AST node VariableDeclaration is not a JSON string"),
    (_one_function(name=5), "name of AST node FunctionDefinition is not a JSON string"),
    (_one_function(visibility=["public"]),
     "visibility of AST node FunctionDefinition is not a JSON string"),
], ids=["top-level", "contracts", "sources", "source-entry", "per-file",
        "contract", "evm", "deployed-bytecode", "bytecode-object", "source-map",
        "ast", "content", "metadata", "source-id", "legacy-children",
        "legacy-child", "no-contracts", "source-id-twice", "node-kind",
        "type-string", "function-name", "visibility"])
def test_malformed_standard_json_is_one_error_report(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    (report,) = analyze_path(str(path), RunConfig())
    assert report["error"].startswith("MissingArtifact: ")
    assert message in report["error"]
    assert report["findings"] == []


# a contract's own fault, and the error report it gets
_CONTRACT_FAULTS = [
    ("sourceMap", lambda m: m.rpartition(";")[0], "MapLengthMismatch: Short: "),  # one item short
    ("object", lambda _: "", "MissingArtifact: Short: empty runtime bytecode"),
    ("sourceMap", lambda m: "0:99999:0" + m[m.index(";"):],
     "MissingArtifact: Short: source-map span 0:99999 out of bounds for file 0"),
    ("sourceMap", lambda m: "1:2:x" + m[m.index(";"):],
     "MalformedItem: non-integer field 'x' in item '1:2:x'"),
    ("object", lambda code: "zz" + code,
     "ValueError: non-hexadecimal number found in fromhex() arg at position 0"),
]
_FAULT_IDS = ["short-source-map", "empty-bytecode", "span-out-of-bounds", "malformed-item",
              "non-hex-bytecode"]


@pytest.mark.parametrize("field,value,error", _CONTRACT_FAULTS, ids=_FAULT_IDS)
def test_short_source_map_fails_only_its_contract(tmp_path, field, value, error):
    doc = corpus.standard_json_artifact(corpus.hidden_approver())
    per_file = doc["contracts"]["HiddenApprover.sol"]
    short = copy.deepcopy(per_file["HiddenApprover"])
    deployed = short["evm"]["deployedBytecode"]
    deployed[field] = value(deployed[field])
    per_file["Short"] = short
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    good, bad = analyze_path(str(path), RunConfig())
    assert good["contract"] == "HiddenApprover" and "error" not in good
    assert [f["type"] for f in good["findings"]] == [PRIVILEGED_ADDRESS]
    assert bad["contract"] == "Short"
    assert bad["error"].startswith(error)


@pytest.mark.parametrize("field,value,error", _CONTRACT_FAULTS, ids=_FAULT_IDS)
def test_a_contract_fault_fails_only_its_contract_in_a_directory(tmp_path, field, value, error):
    """The directory layout: FreeMintable beside a copy of it with one fault."""
    directory = corpus.free_mintable().write(tmp_path)
    suffix = {"object": "bin-runtime", "sourceMap": "srcmap-runtime"}[field]
    for path in directory.iterdir():
        text = path.read_text()
        (directory / path.name.replace("FreeMintable", "Short")).write_text(
            value(text) if path.name.endswith(suffix) else text)
    good, bad = analyze_path(str(directory), RunConfig())
    assert good["contract"] == "FreeMintable" and "error" not in good
    assert [f["type"] for f in good["findings"]] == [UNRESTRICTED_FROM]
    assert bad["contract"] == "Short"
    assert bad["error"].startswith(error)


@pytest.mark.parametrize("field,value,error", _CONTRACT_FAULTS[2:], ids=_FAULT_IDS[2:])
def test_cli_disasm_reports_a_contract_that_does_not_decode(runner, tmp_path, field, value,
                                                            error):
    doc = corpus.standard_json_artifact(corpus.free_mintable())
    per_file = doc["contracts"]["FreeMintable.sol"]
    per_file["Short"] = copy.deepcopy(per_file["FreeMintable"])
    deployed = per_file["Short"]["evm"]["deployedBytecode"]
    deployed[field] = value(deployed[field])
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["disasm", str(path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "=== FreeMintable ===" in result.output and "JUMPDEST" in result.output
    assert [line for line in result.output.splitlines() if "ERROR" in line] \
        == [f"Short: ERROR {error}"]


def test_a_deeply_nested_trailer_fails_no_contract(tmp_path):
    """A trailer of 3,000 nested arrays is stripped like any other, so both
    contracts of the file keep their findings."""
    fixture = corpus.free_mintable()
    doc = corpus.standard_json_artifact(fixture)
    per_file = doc["contracts"]["FreeMintable.sol"]
    per_file["Deep"] = copy.deepcopy(per_file["FreeMintable"])
    per_file["Deep"]["evm"]["deployedBytecode"]["object"] = (
        fixture.bytecode + corpus.nested_cbor_trailer(3000)).hex()
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    reports = analyze_path(str(path), RunConfig())
    assert [report["contract"] for report in reports] == ["FreeMintable", "Deep"]
    for report in reports:
        assert "error" not in report
        assert [f["type"] for f in report["findings"]] == [UNRESTRICTED_FROM]


def _nodes(node):
    """Every AST node under ``node``, itself included."""
    if isinstance(node, list):
        for item in node:
            yield from _nodes(item)
    elif isinstance(node, dict):
        yield node
        for value in node.values():
            yield from _nodes(value)


def _shift_spans(fixture: corpus.Fixture, prefix: str) -> corpus.Fixture:
    """``fixture`` with ``prefix`` before its source and every span of the
    file moved by the prefix's length in UTF-8 bytes, as a compiler counts."""
    shift = len(prefix.encode())

    def move(start, length, file_id):
        return (start + shift if file_id >= 0 else start, length, file_id)

    ast = copy.deepcopy(fixture.ast)
    for node in _nodes(ast):
        if "src" in node:
            node["src"] = ":".join(map(str, move(*map(int, node["src"].split(":")))))
    srcmap = encode_source_map([move(*span) for span in decode_source_map(fixture.srcmap)])
    return dataclasses.replace(fixture, sol=prefix + fixture.sol, ast=ast, srcmap=srcmap)


def test_spans_count_bytes_not_characters(tmp_path):
    """A source with multi-byte characters keeps its findings: the spans
    count UTF-8 bytes, and the snippet and the listing slice bytes."""
    plain = corpus.free_mintable()
    (before,) = analyze_path(str(plain.write(tmp_path / "plain")), RunConfig())
    directory = _shift_spans(plain, "// \u00a9\u00a9\u00a9\n").write(tmp_path / "shifted")
    (report,) = analyze_path(str(directory), RunConfig())
    assert "error" not in report
    (finding,), (original,) = report["findings"], before["findings"]
    assert finding["type"] == UNRESTRICTED_FROM
    assert finding["witness"] == original["witness"]
    assert finding["start"] == original["start"] + 10  # 7 characters, 10 bytes
    unit = load_compilation(directory)
    span = (finding["start"], finding["length"], finding["file"])
    assert unit.snippet(span) == "emit Transfer(from, to, tokenId);"
    listing = dump_listing(disassemble(unit.runtime_bytecode), unit.source_map, unit.sources)
    assert "LOG4  ; emit Transfer(from, to, tokenId);" in listing


def test_text_report_gives_spans_in_bytes(runner, tmp_path):
    directory = _shift_spans(corpus.free_mintable(), "// \u00a9\u00a9\u00a9\n").write(tmp_path)
    (report,) = analyze_path(str(directory), RunConfig())
    (finding,) = report["findings"]
    start, end = finding["start"], finding["start"] + finding["length"]
    assert load_compilation(directory).sources[0][start:end] == \
        b"emit Transfer(from, to, tokenId);"
    result = runner.invoke(main, ["analyze", str(directory)])
    assert result.exit_code == 0, result.output
    assert f"(file 0, bytes {start}..{end})" in result.output


def test_an_address_payable_array_parameter_hashes_as_address_array(tmp_path):
    """transferFrom(address payable[] from, ...) has the ABI selector of
    transferFrom(address[],address,uint256), so it is explored, not skipped."""
    fixture = corpus.free_mintable()
    ast = copy.deepcopy(fixture.ast)
    (function,) = [node for node in _nodes(ast) if node.get("nodeType") == "FunctionDefinition"
                   and node["name"] == "transferFrom"]
    function["parameters"]["parameters"][0]["typeDescriptions"]["typeString"] = \
        "address payable[]"
    push4 = [b"\x63" + selector.to_bytes(4, "big") for selector in (
        corpus.SEL_TRANSFER_FROM, corpus.selector_of("transferFrom(address[],address,uint256)"))]
    assert fixture.bytecode.count(push4[0]) == 1  # the dispatcher's one entry
    bytecode = fixture.bytecode.replace(*push4)
    directory = dataclasses.replace(fixture, ast=ast, bytecode=bytecode).write(tmp_path)
    (report,) = analyze_path(str(directory), RunConfig())
    assert report["functions_skipped"] == []
    assert report["functions_analyzed"] == 1


def test_a_target_without_a_dispatcher_entry_is_skipped(tmp_path):
    """A Transfer-emitting function whose selector the runtime code lacks is
    listed in ``functions_skipped``; the other target's finding is unchanged."""
    fixture = corpus.free_mintable()
    (before,) = analyze_path(str(fixture.write(tmp_path / "plain")), RunConfig())
    ast = copy.deepcopy(fixture.ast)
    (contract,) = ast["nodes"]
    span = (0, 0, 0)
    contract["nodes"].append(ab.function(
        "ghost", "public", [ab.parameter("tokenId", "uint256", span)],
        [ab.emit_event("Transfer", ["from", "to", "tokenId"], span)], span, span))
    directory = dataclasses.replace(fixture, ast=ast).write(tmp_path / "ghost")
    (report,) = analyze_path(str(directory), RunConfig())
    assert report["functions_skipped"] == ["ghost"]
    assert report["functions_analyzed"] == before["functions_analyzed"] == 1
    assert report["findings"] == before["findings"]
    assert [f["type"] for f in report["findings"]] == [UNRESTRICTED_FROM]


def test_truncated_push_is_one_error_report(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_one_contract(deployed={"object": "61ff"})))  # PUSH2, 1 byte
    (report,) = analyze_path(str(path), RunConfig())
    assert report["contract"] == "A"
    assert report["error"].startswith("TruncatedPush: ")


@pytest.mark.parametrize("metadata", ["[1]", '{"compiler": "x"}',
                                      '{"compiler": {"version": 5}}',
                                      pytest.param(_DEEP, id="nested-too-deeply")])
def test_metadata_without_a_version_string_falls_back_to_the_pragma(tmp_path, metadata):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_one_contract(metadata=metadata)))
    (report,) = analyze_path(str(path), RunConfig())
    assert "error" not in report
    assert report["compiler_version"] == "0.8.0"  # from "pragma solidity ^0.8.0;"


@pytest.mark.parametrize("stage", ["load_all", "build_cfg"])
def test_unexpected_exception_is_an_internal_error_report(corpus_dir, monkeypatch, stage):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(pipeline, stage, broken)
    (report,) = analyze_path(str(corpus_dir / "HiddenApprover"), RunConfig())
    assert report["contract"] == "HiddenApprover"
    assert report["error"] == "internal-error: RuntimeError: boom"
    assert report["findings"] == []


@pytest.mark.parametrize("consumer", ["SLOAD", "JUMPI", "SHA3", "LOG4"])
@pytest.mark.parametrize("length", [1, 64, 65, 600, 5000])
def test_a_deep_expression_is_analyzed(tmp_path, length, consumer):
    """A chain of folding ops of any length reaches the detectors; past 64 the
    chain restarts from a fresh symbol."""
    (report,) = analyze_path(str(corpus.deep_chain(length, consumer).write(tmp_path)),
                             RunConfig())
    assert "error" not in report
    assert report["path_records"][EMIT] == (2 if consumer == "JUMPI" else 1)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "name", "nodeType", "children", "attributes", "src",
                         "compiler", "version"]) | st.text(max_size=4),
        inner, max_size=3),
    max_leaves=6)


def _legacy_form(fixture):
    doc = corpus.standard_json_artifact(fixture)
    (source,) = doc["sources"].values()
    source["ast"] = ab.legacy(source["ast"])
    return doc


def _put_a_value(data, node, key) -> None:
    """Put a random JSON value at ``node[key]`` or at a random path under it."""
    while True:
        child = node[key]
        if not (isinstance(child, (dict, list)) and child) or data.draw(st.booleans()):
            node[key] = data.draw(_JSON_VALUES)
            return
        node, key = child, data.draw(st.sampled_from(list(child) if isinstance(child, dict)
                                                     else range(len(child))))


# two modern ASTs and a legacy (name/attributes/children) one
_VALID_DOCS = [corpus.standard_json_artifact(corpus.guarded_gallery()),
               corpus.standard_json_artifact(corpus.free_mintable("legacy")),
               _legacy_form(corpus.free_mintable("legacy"))]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_any_value_anywhere_gives_reports_not_a_raise(tmp_path, data):
    """A random JSON value at a random path of a valid standard-JSON document
    gives reports, none of them an internal error."""
    doc = copy.deepcopy(data.draw(st.sampled_from(_VALID_DOCS)))
    _put_a_value(data, doc, data.draw(st.sampled_from(list(doc))))
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))
    reports = analyze_path(str(path), RunConfig())
    assert reports
    assert all(isinstance(report["findings"], list) for report in reports)
    # analyze_path turns every exception into a report, so reports alone prove nothing
    assert not [report["error"] for report in reports
                if report.get("error", "").startswith("internal-error")]


def _guarded_beside_free() -> dict:
    """A standard-JSON file of GuardedGallery.sol (id 1) and FreeMintable.sol
    (id 0); GuardedGallery's map, made for a file 0 of its own, points at file 1."""
    doc = corpus.standard_json_artifact(corpus.free_mintable())
    other = corpus.standard_json_artifact(corpus.guarded_gallery())
    doc["contracts"] = {**other["contracts"], **doc["contracts"]}
    doc["sources"]["GuardedGallery.sol"] = {**other["sources"]["GuardedGallery.sol"], "id": 1}
    deployed = doc["contracts"]["GuardedGallery.sol"]["GuardedGallery"]["evm"]["deployedBytecode"]
    deployed["sourceMap"] = encode_source_map([
        (start, length, 1 if file_id == 0 else file_id)
        for start, length, file_id in decode_source_map(deployed["sourceMap"])])
    return doc


_GUARDED_BESIDE_FREE = _guarded_beside_free()


@pytest.fixture(scope="module")
def free_alone(tmp_path_factory) -> dict:
    """FreeMintable's report from a file of its own, without timings."""
    path = tmp_path_factory.mktemp("alone") / "FreeMintable.json"
    path.write_text(json.dumps(corpus.standard_json_artifact(corpus.free_mintable())))
    (report,) = analyze_path(str(path), RunConfig())
    report.pop("timings")
    return report


def test_guarded_gallery_loads_beside_free_mintable(tmp_path, free_alone):
    path = tmp_path / "both.json"
    path.write_text(json.dumps(_GUARDED_BESIDE_FREE))
    guarded, free = analyze_path(str(path), RunConfig())
    assert guarded["contract"] == "GuardedGallery" and "error" not in guarded
    free.pop("timings")
    assert free == free_alone
    assert [f["type"] for f in free["findings"]] == [UNRESTRICTED_FROM]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_fault_inside_one_contract_leaves_the_others_alone(tmp_path, free_alone, data):
    """A random JSON value at a random path of GuardedGallery's contract entry,
    or of its source's AST, costs FreeMintable nothing."""
    doc = copy.deepcopy(_GUARDED_BESIDE_FREE)
    if data.draw(st.booleans()):
        _put_a_value(data, doc["contracts"]["GuardedGallery.sol"], "GuardedGallery")
    else:
        _put_a_value(data, doc["sources"]["GuardedGallery.sol"], "ast")
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))
    reports = analyze_path(str(path), RunConfig())
    assert [report["contract"] for report in reports] == ["GuardedGallery", "FreeMintable"]
    assert not [report["error"] for report in reports
                if report.get("error", "").startswith("internal-error")]
    reports[1].pop("timings")
    assert reports[1] == free_alone


def test_no_prune_widens_the_function_set(corpus_dir):
    pruned = pipeline.analyze_path(str(corpus_dir / "MarketHub"), RunConfig())[0]
    full = pipeline.analyze_path(str(corpus_dir / "MarketHub"),
                                 RunConfig(prune=False))[0]
    assert pruned["functions_analyzed"] == 2
    assert full["functions_analyzed"] == full["functions_total"] == 20
    assert pruned["findings"] == full["findings"] == []


def _counting_explorer(monkeypatch):
    explored = []
    explore_function = pipeline.explore_function

    def counting(unit, cfg, fn, *args):
        explored.append(fn.selector)
        return explore_function(unit, cfg, fn, *args)

    monkeypatch.setattr(pipeline, "explore_function", counting)
    return explored


def test_each_selector_is_explored_once(corpus_dir, monkeypatch):
    # ChubbyBunny overrides ownerOf: both bodies share one dispatcher entry
    explored = _counting_explorer(monkeypatch)
    (report,) = analyze_path(str(corpus_dir / "ChubbyBunny"), RunConfig(prune=False))
    assert len(explored) == len(set(explored)) == 2
    assert report["functions_analyzed"] == 2
    assert [f["type"] for f in report["findings"]] == [OWNER_INCONSISTENCY]


def test_targets_sharing_a_name_count_once_each(corpus_dir, monkeypatch):
    select_target_functions = pipeline.select_target_functions

    def one_name(rows):  # two targets, each with its own selector, under one name
        return [dataclasses.replace(f, name="shared") for f in select_target_functions(rows)]

    monkeypatch.setattr(pipeline, "select_target_functions", one_name)
    explored = _counting_explorer(monkeypatch)
    (report,) = analyze_path(str(corpus_dir / "MarketHub"), RunConfig())
    assert len(explored) == 2
    assert report["functions_analyzed"] == 2
    assert list(report["timings"]["per_function"]) == ["shared"]


def test_contract_timeout_is_reported(corpus_dir, monkeypatch):
    config = RunConfig(timeout_seconds=1)
    monkeypatch.setattr(pipeline.time, "monotonic",
                        _advancing_clock(step=2.0))
    report = pipeline.analyze_path(str(corpus_dir / "MarketHub"), config)[0]
    assert report["timed_out"] is True


def test_detection_past_the_deadline_is_reported(corpus_dir, monkeypatch):
    clock = {"now": 0.0}
    monkeypatch.setattr(pipeline.time, "monotonic", lambda: clock["now"])
    analyze_contract = detectors.analyze_contract

    def slow_detection(*args):
        clock["now"] += 10.0  # past the 1 s contract deadline
        return analyze_contract(*args)

    monkeypatch.setattr(detectors, "analyze_contract", slow_detection)
    report = analyze_path(str(corpus_dir / "HiddenApprover"), RunConfig(timeout_seconds=1))[0]
    assert report["timed_out"] is True
    assert [f["type"] for f in report["findings"]] == [PRIVILEGED_ADDRESS]


def _advancing_clock(step):
    state = {"now": 0.0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


# --------------------------------------------------------------------------
# CLI

@pytest.fixture()
def runner():
    return CliRunner()


def test_cli_analyze_text_output(runner, corpus_dir):
    result = runner.invoke(main, ["analyze", str(corpus_dir / "HiddenApprover")])
    assert result.exit_code == 0, result.output
    assert "HiddenApprover" in result.output
    assert "[high] PrivilegedAddress in transferFrom" in result.output


def test_cli_analyze_json_and_out_file(runner, corpus_dir, tmp_path):
    out = tmp_path / "reports.json"
    result = runner.invoke(main, [
        "analyze", "--format", "json", "--out", str(out),
        str(corpus_dir / "HiddenApprover"),
    ])
    assert result.exit_code == 0, result.output
    printed = json.loads(result.output)
    written = json.loads(out.read_text())
    assert printed == written
    assert printed[0]["findings"][0]["type"] == PRIVILEGED_ADDRESS


def test_cli_only_filter(runner, corpus_dir):
    result = runner.invoke(main, [
        "analyze", "--format", "json", "--only", "ete",
        str(corpus_dir / "HiddenApprover"),
    ])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)[0]["findings"] == []
    bad = runner.invoke(main, ["analyze", "--only", "XYZ",
                               str(corpus_dir / "HiddenApprover")])
    assert bad.exit_code != 0
    assert "unknown detector" in bad.output


def test_cli_analyze_requires_paths(runner):
    result = runner.invoke(main, ["analyze"])
    assert result.exit_code != 0
    assert "no input paths" in result.output


@pytest.mark.parametrize("option", ["--timeout", "--loop-bound", "--max-steps",
                                    "--max-paths", "--jobs"])
def test_cli_rejects_non_positive_option(runner, corpus_dir, option):
    result = runner.invoke(main, ["analyze", option, "0",
                                  str(corpus_dir / "HiddenApprover")])
    assert result.exit_code == 2
    assert "Invalid value" in result.output


def test_cli_jobs_pool_gives_the_serial_reports(runner, corpus_dir):
    paths = [str(corpus_dir / name) for name in ("HiddenApprover", "FreeMintable",
                                                 "GuardedGallery")]

    def reports(jobs):
        result = runner.invoke(main, ["analyze", "--format", "json", "--jobs", jobs, *paths])
        assert result.exit_code == 0, result.output
        return [{k: v for k, v in report.items() if k != "timings"}
                for report in json.loads(result.output)]

    serial = reports("1")
    assert [r["contract"] for r in serial] == ["HiddenApprover", "FreeMintable",
                                               "GuardedGallery"]
    assert reports("2") == serial


def test_importing_the_cli_loads_no_process_pool_or_logging():
    """Only ``--jobs`` above 1 uses ``concurrent.futures``, which loads
    ``logging``; a plain run pays for neither."""
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, sleepscan.cli; "
         "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


_ANALYZE_PATH = pipeline.analyze_path


def _worker_dies_on_free_mintable(path, config):
    # module level, so that the pool can send it to a worker by name
    if path.endswith("FreeMintable"):
        os._exit(3)
    return _ANALYZE_PATH(path, config)


def test_cli_jobs_dead_worker_fails_only_its_path(runner, corpus_dir, monkeypatch):
    paths = [str(corpus_dir / name) for name in ("HiddenApprover", "FreeMintable",
                                                 "GuardedGallery", "ChubbyBunny")]
    serial = [{k: v for k, v in report.items() if k != "timings"}
              for path in paths for report in _ANALYZE_PATH(path, RunConfig())]
    monkeypatch.setattr(pipeline, "analyze_path", _worker_dies_on_free_mintable)
    result = runner.invoke(main, ["analyze", "--format", "json", "--jobs", "2", *paths])
    assert result.exit_code == 0, result.output
    reports = [{k: v for k, v in report.items() if k != "timings"}
               for report in json.loads(result.output)]
    assert [r["contract"] for r in reports] == [r["contract"] for r in serial]
    assert reports[1]["error"].startswith("internal-error: BrokenProcessPool")
    assert reports[1]["findings"] == []
    assert reports[:1] + reports[2:] == serial[:1] + serial[2:]


def test_cli_all_failures_exit_nonzero(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    result = runner.invoke(main, ["analyze", str(bad)])
    assert result.exit_code == 1
    assert "ERROR" in result.output


def test_cli_evaluate(runner, corpus_dir, tmp_path):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    report = analyze_path(str(corpus_dir / "HiddenApprover"), RunConfig())[0]
    (reports_dir / "ha.json").write_text(json.dumps(report))
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([
        {"contract": "HiddenApprover",
         "expected": [{"type": "PA", "function": "transferFrom"}]},
    ]))
    result = runner.invoke(main, ["evaluate", "--labels", str(labels),
                                  "--reports", str(reports_dir)])
    assert result.exit_code == 0, result.output
    assert "PrivilegedAddress: TP=1 FP=0 FN=0 precision=100.0%" in result.output
    assert "overall: TP=1 of 1 precision=100.0%" in result.output


def test_cli_evaluate_names_an_unlabeled_contract(runner, corpus_dir, tmp_path):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    report = analyze_path(str(corpus_dir / "GuardedGallery"), RunConfig())[0]
    (reports_dir / "gg.json").write_text(json.dumps(report))
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([{"contract": "HiddenApprover", "expected": []}]))
    result = runner.invoke(main, ["evaluate", "--labels", str(labels),
                                  "--reports", str(reports_dir)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "contract GuardedGallery has no label" in result.output


def _evaluate_one_error_line(runner, tmp_path, labels, report) -> str:
    """Run ``evaluate`` on ``labels`` and one report; it must exit 1 with a
    single line of output."""
    return _evaluate_text_one_error_line(runner, tmp_path, json.dumps(labels),
                                         json.dumps(report))


def _evaluate_text_one_error_line(runner, tmp_path, labels: str | bytes,
                                  report: str | bytes) -> str:
    """``_evaluate_one_error_line`` on the text, or the bytes, of the labels
    and report files."""
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    (reports_dir / "a.json").write_bytes(report if isinstance(report, bytes)
                                         else report.encode())
    labels_path = tmp_path / "labels.json"
    labels_path.write_bytes(labels if isinstance(labels, bytes) else labels.encode())
    result = runner.invoke(main, ["evaluate", "--labels", str(labels_path),
                                  "--reports", str(reports_dir)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    return line


def test_cli_evaluate_names_a_label_without_a_contract(runner, tmp_path):
    labels = [{"contract": "A"}, {"expected": [{"type": "PA"}]}]
    line = _evaluate_one_error_line(runner, tmp_path, labels,
                                    {"contract": "A", "findings": []})
    assert line == "Error: label 1 has no contract"


def test_cli_evaluate_names_a_contract_labeled_twice(runner, tmp_path):
    labels = [{"contract": "A", "expected": [{"type": "PA"}]}, {"contract": "B"},
              {"contract": "A"}]
    line = _evaluate_one_error_line(runner, tmp_path, labels,
                                    {"contract": "A", "findings": [{"type": "PA"}]})
    assert line == "Error: labels 0 and 2 both name contract A"


def test_cli_evaluate_names_a_contract_reported_twice(runner, tmp_path):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    report = {"contract": "A", "findings": [{"type": "PA", "function": "f"}]}
    for name in ("a.json", "b.json"):
        (reports_dir / name).write_text(json.dumps(report))
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(
        [{"contract": "A", "expected": [{"type": "PA", "function": "f"}]}]))
    result = runner.invoke(main, ["evaluate", "--labels", str(labels_path),
                                  "--reports", str(reports_dir)])
    assert result.exit_code == 1
    (line,) = result.output.splitlines()
    assert line == (f"Error: report 0 of {reports_dir / 'a.json'} and report 0 of "
                    f"{reports_dir / 'b.json'} both name contract A")


def test_cli_evaluate_names_a_label_of_an_unknown_type(runner, tmp_path):
    labels = [{"contract": "A", "expected": [{"type": "XX", "function": "f"}]}]
    line = _evaluate_one_error_line(runner, tmp_path, labels,
                                    {"contract": "A", "findings": []})
    assert line == "Error: label 0 (contract A): unknown defect type 'XX'"


def test_cli_evaluate_names_a_finding_of_an_unknown_type(runner, tmp_path):
    report = {"contract": "A", "findings": [{"type": "XX", "function": "f"}]}
    line = _evaluate_one_error_line(runner, tmp_path, [{"contract": "A"}], report)
    assert line == "Error: report of contract A: unknown defect type 'XX'"


def test_cli_evaluate_names_a_labeled_contract_without_a_report(runner, tmp_path):
    labels = [{"contract": "A", "expected": [{"type": "UF", "function": "f"}]},
              {"contract": "B", "expected": [{"type": "UF", "function": "g"}]}]
    line = _evaluate_one_error_line(runner, tmp_path, labels, {"contract": "A", "findings": []})
    assert line == "Error: contract B is labeled but has no report"


_LABEL_A = '[{"contract": "A"}]'
_REPORT_A = '{"contract": "A", "findings": []}'


@pytest.mark.parametrize("labels,report,message", [
    ('[{"contract": "A", "expected": [{"function": "f"}]}]', _REPORT_A,
     "label 0 (contract A): expected item 0 is not an object with a type"),
    (_LABEL_A, '{"contract": "A", "findings": [{"function": "f"}]}',
     "report of contract A: finding 0 is not an object with a type"),
    ('[{"contract": "A"', _REPORT_A, "labels file {labels} is not JSON: "),
    (_LABEL_A, '{"contract": "A", ', "report file {report} is not JSON: "),
    ("[5]", _REPORT_A, "label 0 is not a JSON object"),
    (_LABEL_A, f"[{_REPORT_A}, 5]", "report 1 of {report} is not a JSON object"),
    ('{"contract": "A"}', _REPORT_A, "labels file {labels} is not a JSON list"),
    ('[{"contract": "A", "expected": 5}]', _REPORT_A,
     "label 0 (contract A): expected is not a JSON list"),
    (_LABEL_A, '{"contract": "A", "findings": 5}',
     "report 0 of {report}: findings is not a JSON list"),
    ('[{"contract": ["A"]}]', _REPORT_A, "label 0: contract is not a JSON string"),
    (_LABEL_A, '[{"contract": "A", "findings": []}, {"contract": {}}]',
     "report 1 of {report}: contract is not a JSON string"),
    ('[{"contract": "A", "expected": [{"type": "PA", "function": ["f"]}]}]', _REPORT_A,
     "label 0 (contract A): expected item 0: function is not a JSON string"),
    (_LABEL_A, '{"contract": "A", "findings": [{"type": "PA", "function": {}}]}',
     "report of contract A: finding 0: function is not a JSON string"),
    (_DEEP, _REPORT_A, "labels file {labels} is not JSON: maximum recursion depth exceeded"),
    (_LABEL_A, _DEEP, "report file {report} is not JSON: maximum recursion depth exceeded"),
    (b'[{"contract": "\xe9"}]', _REPORT_A,
     "labels file {labels} is not JSON: 'utf-8' codec can't decode byte 0xe9"),
    (_LABEL_A, b'{"contract": "\xe9", "findings": []}',
     "report file {report} is not JSON: 'utf-8' codec can't decode byte 0xe9"),
], ids=["label-item-without-type", "finding-without-type", "labels-not-json",
        "report-not-json", "label-not-an-object", "report-not-an-object",
        "labels-not-a-list", "expected-not-a-list", "findings-not-a-list",
        "label-contract-not-a-string", "report-contract-not-a-string",
        "label-function-not-a-string", "finding-function-not-a-string",
        "labels-nested-too-deeply", "report-nested-too-deeply", "labels-not-utf8",
        "report-not-utf8"])
def test_cli_evaluate_names_a_malformed_file_or_entry(runner, tmp_path, labels, report,
                                                      message):
    line = _evaluate_text_one_error_line(runner, tmp_path, labels, report)
    paths = {"labels": tmp_path / "labels.json", "report": tmp_path / "reports" / "a.json"}
    assert line.startswith("Error: " + message.format(**paths))


def test_cli_evaluate_reads_the_analyze_out_file(runner, corpus_dir, tmp_path):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    result = runner.invoke(main, ["analyze", "--out", str(reports_dir / "all.json"),
                                  str(corpus_dir / "HiddenApprover"),
                                  str(corpus_dir / "GuardedGallery")])
    assert result.exit_code == 0, result.output
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([
        {"contract": "HiddenApprover",
         "expected": [{"type": "PA", "function": "transferFrom"}]},
        {"contract": "GuardedGallery"},
    ]))
    result = runner.invoke(main, ["evaluate", "--labels", str(labels),
                                  "--reports", str(reports_dir)])
    assert result.exit_code == 0, result.output
    assert "PrivilegedAddress: TP=1 FP=0 FN=0 precision=100.0%" in result.output
    assert "overall: TP=1 of 1 precision=100.0%" in result.output


def test_cli_disasm(runner, corpus_dir):
    result = runner.invoke(main, ["disasm", str(corpus_dir / "GuardedGallery")])
    assert result.exit_code == 0, result.output
    assert "=== GuardedGallery ===" in result.output
    assert "JUMPDEST" in result.output


def test_cli_disasm_reports_a_bad_contract_and_lists_the_rest(runner, tmp_path):
    doc = _one_contract(deployed={"object": "6001"})
    contracts = doc["contracts"]["A.sol"]
    contracts["B"] = copy.deepcopy(contracts["A"])
    contracts["B"]["evm"]["deployedBytecode"]["object"] = "61ff"  # PUSH2, 1 byte
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["disasm", str(path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "=== A ===" in result.output and "PUSH1 0x01" in result.output
    assert "B: ERROR TruncatedPush: PUSH immediate at pc 0 overruns end of code" \
        in result.output


@pytest.mark.parametrize("text,error", [
    ("[]", "MissingArtifact: "),
    ('{"contracts": {}}', "MissingArtifact: "),
    ("{", "JSONDecodeError: "),
], ids=["top-level-list", "no-contracts", "truncated-json"])
def test_cli_disasm_reports_a_file_that_does_not_load(runner, tmp_path, text, error):
    path = tmp_path / "broken.json"
    path.write_text(text)
    result = runner.invoke(main, ["disasm", str(path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"broken: ERROR {error}")
