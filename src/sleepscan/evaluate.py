"""Labeled-corpus evaluation: per-type true/false positives and precision."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from sleepscan.detectors import ALL_DEFECT_TYPES, defect_type_named
from sleepscan.errors import UnlabeledContract, UnscorableEntry


@dataclass(frozen=True)
class CorpusLabel:
    contract: str
    expected: tuple[tuple[str, str], ...]  # (defect type, function name)


def _read_json(path: Path, what: str):
    """The JSON document in ``path``, read as UTF-8 whatever the locale."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    # RecursionError: nested too deeply
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise UnscorableEntry(f"{what} {path} is not JSON: {exc}") from exc


def _field(entry: dict, key: str, kind: type, where: str):
    """``entry[key]``, an empty ``kind`` when absent; a value of another type
    is an error naming ``where``."""
    value = entry.get(key, kind())
    if not isinstance(value, kind):
        name = "list" if kind is list else "string"
        raise UnscorableEntry(f"{where}: {key} is not a JSON {name}")
    return value


def _defect_type(entry: object, where: str, what: str) -> str:
    """The canonical type of ``entry``, an expected item or a finding."""
    if not isinstance(entry, dict) or "type" not in entry:
        raise UnscorableEntry(f"{where}: {what} is not an object with a type")
    value = entry["type"]
    defect_type = defect_type_named(value) if isinstance(value, str) else None
    if defect_type is None:
        raise UnscorableEntry(f"{where}: unknown defect type {value!r}")
    return defect_type


def load_labels(path) -> list[CorpusLabel]:
    doc = _read_json(Path(path), "labels file")
    if not isinstance(doc, list):
        raise UnscorableEntry(f"labels file {path} is not a JSON list")
    labels = []
    first_index: dict[str, int] = {}  # contract -> the index of its label
    for index, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise UnscorableEntry(f"label {index} is not a JSON object")
        if "contract" not in entry:
            raise UnscorableEntry(f"label {index} has no contract")
        contract = _field(entry, "contract", str, f"label {index}")
        if contract in first_index:
            raise UnscorableEntry(f"labels {first_index[contract]} and {index} "
                                  f"both name contract {contract}")
        first_index[contract] = index
        where = f"label {index} (contract {contract})"
        expected = tuple(
            (_defect_type(e, where, f"expected item {i}"),
             _field(e, "function", str, f"{where}: expected item {i}"))
            for i, e in enumerate(_field(entry, "expected", list, where))
        )
        labels.append(CorpusLabel(contract, expected))
    return labels


def load_reports(directory) -> list[dict]:
    """Reports from every ``*.json`` file, in name order; a file holding a
    JSON list (as ``analyze --out`` writes) gives each of its reports. Two
    reports of one contract are an error naming both."""
    reports = []
    first_where: dict[str, str] = {}  # contract -> where its report is
    for path in sorted(Path(directory).glob("*.json")):
        doc = _read_json(path, "report file")
        for index, report in enumerate(doc if isinstance(doc, list) else [doc]):
            where = f"report {index} of {path}"
            if not isinstance(report, dict):
                raise UnscorableEntry(f"{where} is not a JSON object")
            contract = _field(report, "contract", str, where)
            _field(report, "findings", list, where)
            if contract in first_where:
                raise UnscorableEntry(f"{first_where[contract]} and {where} "
                                      f"both name contract {contract}")
            first_where[contract] = where
            reports.append(report)
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
    """Score findings against labels. An expected item matches a finding of
    its type in the item's function, or in any function when it names none. A
    finding that matches an item is a TP, else an FP; an item that no finding
    matches is an FN. Every labeled contract must have a report."""
    by_contract = {label.contract: label for label in labels}
    scores = {defect_type: TypeScore() for defect_type in ALL_DEFECT_TYPES}
    for report in reports:
        contract = report.get("contract", "")
        label = by_contract.get(contract)
        if label is None:
            raise UnlabeledContract(f"contract {contract} has no label")
        expected = set(label.expected)
        matched = set()
        for index, finding in enumerate(report.get("findings", [])):
            defect_type = _defect_type(finding, f"report of contract {contract}",
                                       f"finding {index}")
            fn_name = _field(finding, "function", str,
                             f"report of contract {contract}: finding {index}")
            hits = {(t, fn) for t, fn in expected if t == defect_type and fn in ("", fn_name)}
            if hits:
                scores[defect_type].tp += 1
            else:
                scores[defect_type].fp += 1
            matched |= hits
        for defect_type, _ in expected - matched:
            scores[defect_type].fn += 1
    reported = {report.get("contract", "") for report in reports}
    for label in labels:  # after the reports, so an unlabeled report is named first
        if label.contract not in reported:
            raise UnscorableEntry(f"contract {label.contract} is labeled but has no report")

    overall = TypeScore(sum(s.tp for s in scores.values()), sum(s.fp for s in scores.values()))
    return {
        "per_type": {defect_type: {"TP": s.tp, "FP": s.fp, "FN": s.fn, "precision": s.precision}
                     for defect_type, s in scores.items()},
        "overall": {"TP": overall.tp, "total": overall.tp + overall.fp,
                    "precision": overall.precision},
    }
