"""End-to-end analysis of one artifact: load, prune, explore, detect, report.

The wall-clock timeout is enforced per contract: exploration of its functions
and the detectors' solver probes share one deadline. A failing artifact never
aborts a batch: errors, unexpected ones as ``internal-error``, are captured in
the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from sleepscan import detectors
from sleepscan.astview import (
    EXTERNALLY_CALLABLE,
    find_owner_return_binding,
    function_infos,
    select_target_functions,
    with_selectors,
)
from sleepscan.disasm import build_cfg, disassemble
from sleepscan.errors import (
    EntryNotFound,
    MapLengthMismatch,
    MissingArtifact,
    SleepscanError,
)
from sleepscan.ingestion import CompilationUnit, load_all
from sleepscan.symexec import ExplorationBudget, explore_function, unit_facts

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    timeout_seconds: int = 600
    loop_bound: int = ExplorationBudget.loop_bound
    max_steps: int = ExplorationBudget.max_steps
    max_paths: int = ExplorationBudget.max_paths
    enabled_detectors: tuple[str, ...] = detectors.ALL_DEFECT_TYPES
    prune: bool = True

    def __post_init__(self):
        for name in ("timeout_seconds", "loop_bound", "max_steps", "max_paths"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def analyze_unit(unit: CompilationUnit, config: RunConfig) -> dict:
    started = time.monotonic()
    deadline = started + config.timeout_seconds
    instrs = disassemble(unit.runtime_bytecode)
    _check_unit(unit, len(instrs))
    cfg = build_cfg(instrs)
    binding = find_owner_return_binding(unit)
    facts = unit_facts(unit, binding)
    all_functions = function_infos(unit)
    externally_callable = [f for f in all_functions
                           if f.visibility in EXTERNALLY_CALLABLE]
    if config.prune:
        targets = select_target_functions(all_functions)
    else:
        targets = with_selectors(externally_callable)

    budget = ExplorationBudget(max_steps=config.max_steps, max_paths=config.max_paths,
                               loop_bound=config.loop_bound, deadline=deadline)
    records = []
    path_records: dict[str, int] = {}  # end kind -> count, in order of first end
    timed_out = False
    per_function: dict[str, float] = {}  # seconds, summed over targets sharing a name
    analyzed = 0
    skipped: list[str] = []
    selectors: set[int] = set()
    for fn in targets:
        # an override and its base, or an interface declaration and its
        # implementation, share one selector and so one dispatcher entry
        if fn.selector in selectors:
            continue
        selectors.add(fn.selector)
        fn_started = time.monotonic()
        try:
            result = explore_function(unit, cfg, fn, binding, budget, facts)
        except EntryNotFound:
            skipped.append(fn.name)
            continue
        records.extend(result.records)
        for (end_kind, _), count in result.ends.items():
            path_records[end_kind] = path_records.get(end_kind, 0) + count
        timed_out |= result.timed_out
        analyzed += 1
        per_function[fn.name] = round(per_function.get(fn.name, 0.0)
                                      + time.monotonic() - fn_started, 6)
        if time.monotonic() > deadline:
            timed_out = True
            break

    findings = detectors.analyze_contract(
        unit, records, config.enabled_detectors, deadline)
    timed_out |= time.monotonic() > deadline
    return {
        "schema_version": SCHEMA_VERSION,
        "contract": unit.contract_name,
        "compiler_version": ".".join(map(str, unit.compiler_version)),
        "functions_total": len(externally_callable),
        "functions_analyzed": analyzed,
        "functions_skipped": skipped,
        "findings": [_finding_to_json(f) for f in findings],
        "path_records": path_records,
        "timings": {
            "total_seconds": round(time.monotonic() - started, 6),
            "per_function": per_function,
        },
        "timed_out": timed_out,
    }


def _check_unit(unit: CompilationUnit, instruction_count: int) -> None:
    """The checks that fail one contract of an artifact, not the whole file."""
    name = unit.contract_name
    if not instruction_count:
        raise MissingArtifact(f"{name}: empty runtime bytecode")
    if len(unit.source_map) != instruction_count:
        raise MapLengthMismatch(f"{name}: {len(unit.source_map)} source-map "
                                f"entries for {instruction_count} instructions")
    for start, length, file_id in dict.fromkeys(unit.source_map):
        if file_id < 0:
            continue
        text = unit.sources.get(file_id)
        if text is None:
            raise MissingArtifact(f"{name}: source-map entry refers to unknown file {file_id}")
        if start < 0 or length < 0 or start + length > len(text):
            raise MissingArtifact(f"{name}: source-map span {start}:{length} "
                                  f"out of bounds for file {file_id}")


def _finding_to_json(finding: detectors.Finding) -> dict:
    start, length, file_id = finding.src_span
    return {
        "type": finding.defect_type,
        "function": finding.function,
        "file": file_id,
        "start": start,
        "length": length,
        "confidence": finding.confidence,
        "witness": list(finding.witness),
    }


def error_report(contract: str, exc: Exception) -> dict:
    """The report of a contract whose analysis raised ``exc``."""
    error = f"{type(exc).__name__}: {exc}"
    if not isinstance(exc, (SleepscanError, OSError, ValueError)):
        import logging  # here, not at the top: the import costs every run ~0.6 MB RSS

        logging.getLogger(__name__).error("internal error analyzing %s", contract,
                                          exc_info=exc)
        error = f"internal-error: {error}"
    return {
        "schema_version": SCHEMA_VERSION,
        "contract": contract,
        "error": error,
        "findings": [],
        "timed_out": False,
    }


def analyze_path(path: str, config: RunConfig) -> list[dict]:
    """All contract reports for one artifact path; errors become error reports."""
    try:
        units = load_all(path)
    except Exception as exc:  # one bad artifact must not abort the batch
        return [error_report(Path(path).stem, exc)]
    reports = []
    for unit in units:
        try:
            reports.append(analyze_unit(unit, config))
        except Exception as exc:
            reports.append(error_report(unit.contract_name, exc))
    return reports
