"""Pipeline reports and the command-line front end."""

import copy
import dataclasses
import json
import os

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fixtures as corpus

from sleepscan import detectors, pipeline
from sleepscan.cli import main
from sleepscan.detectors import OWNER_INCONSISTENCY, PRIVILEGED_ADDRESS
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


_SOURCE = {"id": 0, "content": "pragma solidity ^0.8.0;",
           "ast": {"nodeType": "SourceUnit", "src": "0:0:0"}}


def _one_contract(deployed=None, source=None, **contract):
    """A standard-JSON document holding one contract, with overrides."""
    deployed = {"object": "00", "sourceMap": "0:0:-1", **(deployed or {})}
    return {"sources": {"A.sol": {**_SOURCE, **(source or {})}},
            "contracts": {"A.sol": {"A": {"evm": {"deployedBytecode": deployed},
                                          **contract}}}}


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
], ids=["top-level", "contracts", "sources", "source-entry", "per-file",
        "contract", "evm", "deployed-bytecode", "bytecode-object", "source-map",
        "ast", "content", "metadata", "source-id", "legacy-children",
        "legacy-child", "no-contracts", "source-id-twice"])
def test_malformed_standard_json_is_one_error_report(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    (report,) = analyze_path(str(path), RunConfig())
    assert report["error"].startswith("MissingArtifact: ")
    assert message in report["error"]
    assert report["findings"] == []


@pytest.mark.parametrize("field,value,error", [
    ("sourceMap", lambda m: m.rpartition(";")[0], "MapLengthMismatch: Short: "),  # one item short
    ("object", lambda _: "", "MissingArtifact: Short: empty runtime bytecode"),
    ("sourceMap", lambda m: "0:99999:0" + m[m.index(";"):],
     "MissingArtifact: Short: source-map span 0:99999 out of bounds"),
], ids=["short-source-map", "empty-bytecode", "span-out-of-bounds"])
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


def test_truncated_push_is_one_error_report(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_one_contract(deployed={"object": "61ff"})))  # PUSH2, 1 byte
    (report,) = analyze_path(str(path), RunConfig())
    assert report["contract"] == "A"
    assert report["error"].startswith("TruncatedPush: ")


@pytest.mark.parametrize("metadata", ["[1]", '{"compiler": "x"}',
                                      '{"compiler": {"version": 5}}'])
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


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "name", "nodeType", "children", "attributes", "src",
                         "compiler", "version"]) | st.text(max_size=4),
        inner, max_size=3),
    max_leaves=6)

# a modern and a legacy (name/children) AST
_VALID_DOCS = [corpus.standard_json_artifact(fixture)
               for fixture in (corpus.guarded_gallery(), corpus.free_mintable("legacy"))]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_any_value_anywhere_gives_reports_not_a_raise(tmp_path, data):
    """A random JSON value at a random path of a valid standard-JSON document."""
    doc = copy.deepcopy(data.draw(st.sampled_from(_VALID_DOCS)))
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child) or data.draw(st.booleans()):
            node[key] = data.draw(_JSON_VALUES)
            break
        node = child
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))
    reports = analyze_path(str(path), RunConfig())
    assert reports
    assert all(isinstance(report["findings"], list) for report in reports)


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
    function_infos = pipeline.function_infos

    def one_name(unit):
        return [dataclasses.replace(f, name="shared") if f.emits_transfer else f
                for f in function_infos(unit)]

    monkeypatch.setattr(pipeline, "function_infos", one_name)
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
