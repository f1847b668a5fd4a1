"""Corpus scoring: label loading, precision arithmetic, error handling."""

import json

import pytest

from sleepscan.errors import UnlabeledContract, UnscorableEntry
from sleepscan.evaluate import (
    CorpusLabel,
    TypeScore,
    evaluate_corpus,
    load_labels,
    load_reports,
)

PA = "PrivilegedAddress"
UF = "UnrestrictedFrom"
OI = "OwnerInconsistency"
ETE = "EmptyTransferEvent"


def _report(contract, findings):
    return {"contract": contract,
            "findings": [{"type": t, "function": fn} for t, fn in findings]}


def test_load_labels_accepts_short_codes(tmp_path):
    doc = [
        {"contract": "A", "expected": [{"type": "PA", "function": "transferFrom"}]},
        {"contract": "B", "expected": [{"type": UF}], "notes": "ignored"},
        {"contract": "C"},
        {"contract": "D", "expected": [{"type": "oi"}]},  # as ``--only`` reads it
    ]
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    labels = load_labels(path)
    assert labels[0] == CorpusLabel("A", ((PA, "transferFrom"),))
    assert labels[1].expected == ((UF, ""),)  # no function: wildcard
    assert labels[2].expected == ()
    assert labels[3].expected == ((OI, ""),)
    path.write_text(json.dumps([{"contract": "E", "expected": [{"type": "xx"}]}]))
    with pytest.raises(UnscorableEntry, match=r": unknown defect type 'xx'\Z"):
        load_labels(path)


def test_load_reports_reads_sorted_json_files(tmp_path):
    for name in ("b", "a"):
        (tmp_path / f"{name}.json").write_text(json.dumps(_report(name.upper(), [])))
    reports = load_reports(tmp_path)
    assert [r["contract"] for r in reports] == ["A", "B"]


def test_load_reports_rejects_a_contract_reported_twice_in_one_file(tmp_path):
    path = tmp_path / "all.json"
    path.write_text(json.dumps([_report("A", []), _report("B", []), _report("A", [])]))
    with pytest.raises(UnscorableEntry) as raised:
        load_reports(tmp_path)
    assert str(raised.value) == f"report 0 of {path} and report 2 of {path} both name contract A"


def test_type_score_precision():
    assert TypeScore(tp=3, fp=1).precision == 75.0
    assert TypeScore().precision is None


def test_scoring_tp_fp_fn():
    labels = [
        CorpusLabel("Hot", ((PA, "transferFrom"),)),
        CorpusLabel("Cold", ()),
        CorpusLabel("Missed", ((ETE, ""),)),
    ]
    reports = [
        _report("Hot", [(PA, "transferFrom"), (UF, "transferFrom")]),
        _report("Cold", [(PA, "mint")]),
        _report("Missed", []),
    ]
    result = evaluate_corpus(labels, reports)
    per_type = result["per_type"]
    assert per_type[PA] == {"TP": 1, "FP": 1, "FN": 0, "precision": 50.0}
    assert per_type[UF]["FP"] == 1
    assert per_type[ETE] == {"TP": 0, "FP": 0, "FN": 1, "precision": None}
    assert result["overall"] == {"TP": 1, "total": 3,
                                 "precision": pytest.approx(100 / 3)}


def test_wildcard_function_matches_any_finding():
    labels = [CorpusLabel("W", ((OI, ""),))]
    result = evaluate_corpus(labels, [_report("W", [(OI, "whatever")])])
    assert result["per_type"][OI] == {"TP": 1, "FP": 0, "FN": 0, "precision": 100.0}


def test_a_missed_function_is_an_fn_when_another_function_of_its_type_is_found():
    labels = [CorpusLabel("Two", ((UF, "f"), (UF, "g")))]
    result = evaluate_corpus(labels, [_report("Two", [(UF, "f")])])
    assert result["per_type"][UF] == {"TP": 1, "FP": 0, "FN": 1, "precision": 100.0}


def test_a_wildcard_match_does_not_cover_a_named_function():
    labels = [CorpusLabel("Both", ((UF, ""), (UF, "g")))]
    result = evaluate_corpus(labels, [_report("Both", [(UF, "f")])])
    assert result["per_type"][UF] == {"TP": 1, "FP": 0, "FN": 1, "precision": 100.0}


def test_unlabeled_contract_raises():
    with pytest.raises(UnlabeledContract):
        evaluate_corpus([], [_report("Mystery", [])])


def test_a_labeled_contract_without_a_report_raises():
    """B's miss would otherwise go uncounted: the first such label is named."""
    labels = [CorpusLabel("A", ((UF, "f"),)), CorpusLabel("B", ((UF, "g"),)),
              CorpusLabel("C", ())]
    with pytest.raises(UnscorableEntry) as raised:
        evaluate_corpus(labels, [_report("A", [])])
    assert str(raised.value) == "contract B is labeled but has no report"


def test_short_codes_in_findings_are_canonicalized():
    labels = [CorpusLabel("S", ((PA, ""),))]
    result = evaluate_corpus(labels, [_report("S", [("PA", "f")])])
    assert result["per_type"][PA]["TP"] == 1


def test_empty_corpus_overall_precision_is_none():
    result = evaluate_corpus([], [])
    assert result["overall"]["precision"] is None
