"""Labeled-corpus evaluation: per-type true/false positives and precision."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from sleepscan.detectors import ALL_DEFECT_TYPES, SHORT_CODES
from sleepscan.errors import UnlabeledContract, UnscorableEntry


@dataclass(frozen=True)
class CorpusLabel:
    contract: str
    expected: tuple[tuple[str, str], ...]  # (defect type, function name)
    notes: str = ""


def _canonical_type(value: str, where: str) -> str:
    defect_type = SHORT_CODES.get(value, value)
    if defect_type not in ALL_DEFECT_TYPES:
        raise UnscorableEntry(f"{where}: unknown defect type {value!r}")
    return defect_type


def load_labels(path) -> list[CorpusLabel]:
    doc = json.loads(Path(path).read_text())
    labels = []
    for index, entry in enumerate(doc):
        if "contract" not in entry:
            raise UnscorableEntry(f"label {index} has no contract")
        where = f"label {index} (contract {entry['contract']})"
        expected = tuple(
            (_canonical_type(e["type"], where), e.get("function", ""))
            for e in entry.get("expected", [])
        )
        labels.append(CorpusLabel(entry["contract"], expected, entry.get("notes", "")))
    return labels


def load_reports(directory) -> list[dict]:
    """Reports from every ``*.json`` file, in name order; a file holding a
    JSON list (as ``analyze --out`` writes) gives each of its reports."""
    reports = []
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        reports.extend(doc if isinstance(doc, list) else [doc])
    return reports


@dataclass
class TypeScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float | None:
        total = self.tp + self.fp
        return 100.0 * self.tp / total if total else None


def evaluate_corpus(labels: list[CorpusLabel], reports: list[dict]) -> dict:
    """Score findings against labels; function names are matched when the
    label provides one, otherwise any finding of the type counts."""
    by_contract = {label.contract: label for label in labels}
    scores = {defect_type: TypeScore() for defect_type in ALL_DEFECT_TYPES}
    for report in reports:
        contract = report.get("contract", "")
        label = by_contract.get(contract)
        if label is None:
            raise UnlabeledContract(f"contract {contract} has no label")
        expected = set(label.expected)
        seen = set()
        for finding in report.get("findings", []):
            defect_type = _canonical_type(finding["type"], f"report of contract {contract}")
            fn_name = finding.get("function", "")
            if (defect_type, fn_name) in expected or (defect_type, "") in expected:
                scores[defect_type].tp += 1
                seen.add((defect_type, fn_name))
                seen.add((defect_type, ""))
            else:
                scores[defect_type].fp += 1
        for defect_type, fn_name in expected:
            if (defect_type, fn_name) not in seen and (defect_type, "") not in seen:
                scores[defect_type].fn += 1

    total_tp = sum(s.tp for s in scores.values())
    total_found = sum(s.tp + s.fp for s in scores.values())
    return {
        "per_type": {
            defect_type: {
                "TP": score.tp,
                "FP": score.fp,
                "FN": score.fn,
                "precision": score.precision,
            }
            for defect_type, score in scores.items()
        },
        "overall": {
            "TP": total_tp,
            "total": total_found,
            "precision": 100.0 * total_tp / total_found if total_found else None,
        },
    }
