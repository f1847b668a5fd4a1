"""Pipeline reports and the command-line front end."""

import json

import pytest
from click.testing import CliRunner

import fixtures as corpus

from sleepscan import pipeline
from sleepscan.cli import main
from sleepscan.detectors import PRIVILEGED_ADDRESS
from sleepscan.pipeline import RunConfig, analyze_path


# --------------------------------------------------------------------------
# RunConfig validation

@pytest.mark.parametrize("field", ["timeout_seconds", "loop_bound", "max_steps",
                                   "max_paths", "solver_query_seconds"])
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
], ids=["top-level", "contracts", "sources", "source-entry", "per-file",
        "contract", "evm", "deployed-bytecode", "bytecode-object", "source-map",
        "ast", "content", "metadata"])
def test_malformed_standard_json_is_one_error_report(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    (report,) = analyze_path(str(path), RunConfig())
    assert report["error"].startswith("MissingArtifact: ")
    assert message in report["error"]
    assert report["findings"] == []


def test_no_prune_widens_the_function_set(corpus_dir):
    pruned = pipeline.analyze_path(str(corpus_dir / "MarketHub"), RunConfig())[0]
    full = pipeline.analyze_path(str(corpus_dir / "MarketHub"),
                                 RunConfig(prune=False))[0]
    assert pruned["functions_analyzed"] == 2
    assert full["functions_analyzed"] == full["functions_total"] == 20
    assert pruned["findings"] == full["findings"] == []


def test_contract_timeout_is_reported(corpus_dir, monkeypatch):
    config = RunConfig(timeout_seconds=1)
    monkeypatch.setattr(pipeline.time, "monotonic",
                        _advancing_clock(step=2.0))
    report = pipeline.analyze_path(str(corpus_dir / "MarketHub"), config)[0]
    assert report["timed_out"] is True


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
                                    "--max-paths", "--solver-seconds", "--jobs"])
def test_cli_rejects_non_positive_option(runner, corpus_dir, option):
    result = runner.invoke(main, ["analyze", option, "0",
                                  str(corpus_dir / "HiddenApprover")])
    assert result.exit_code == 2
    assert "Invalid value" in result.output


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


def test_cli_disasm(runner, corpus_dir):
    result = runner.invoke(main, ["disasm", str(corpus_dir / "GuardedGallery")])
    assert result.exit_code == 0, result.output
    assert "=== GuardedGallery ===" in result.output
    assert "JUMPDEST" in result.output
