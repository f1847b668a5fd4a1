"""Command-line front end."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from sleepscan import evaluate as evaluate_mod
from sleepscan import pipeline
from sleepscan.detectors import ALL_DEFECT_TYPES, SHORT_CODES, defect_type_named
from sleepscan.disasm import disassemble, dump_listing
from sleepscan.errors import SleepscanError
from sleepscan.ingestion import load_all


@click.group()
def main():
    """Sleepminting defect scanner for ERC-721 contract artifacts."""


def _parse_only(value: str | None) -> tuple[str, ...]:
    if not value:
        return ALL_DEFECT_TYPES
    enabled = []
    for code in value.split(","):
        code = code.strip()
        defect_type = defect_type_named(code)
        if defect_type is None:
            raise click.BadParameter(f"unknown detector {code!r}; "
                                     f"use {','.join(SHORT_CODES)}")
        enabled.append(defect_type)
    return tuple(enabled)


_POSITIVE = click.IntRange(min=1)


@main.command()
@click.argument("paths", nargs=-1, type=click.Path(exists=True))
@click.option("--timeout", default=pipeline.RunConfig.timeout_seconds, type=_POSITIVE,
              show_default=True, help="Wall-clock seconds per contract, detection included.")
@click.option("--loop-bound", default=pipeline.RunConfig.loop_bound, type=_POSITIVE,
              show_default=True, help="Max visits per JUMPDEST on one path.")
@click.option("--max-steps", default=pipeline.RunConfig.max_steps, type=_POSITIVE,
              show_default=True, help="Symbolic step budget per function.")
@click.option("--max-paths", default=pipeline.RunConfig.max_paths, type=_POSITIVE,
              show_default=True, help="Path budget per function.")
@click.option("--format", "output_format", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--only", default=None,
              help="Comma-separated detectors: PA,UF,OI,ETE.")
@click.option("--out", default=None, type=click.Path(),
              help="Write the JSON report list to FILE.")
@click.option("--no-prune", is_flag=True,
              help="Debug: analyze every external function, not only "
                   "Transfer-emitting ones.")
@click.option("--jobs", default=1, show_default=True, type=_POSITIVE,
              help="Parallel worker processes for batch runs.")
def analyze(paths, timeout, loop_bound, max_steps, max_paths, output_format,
            only, out, no_prune, jobs):
    """Analyze contract artifacts (standard-JSON files or artifact dirs)."""
    if not paths:
        raise click.UsageError("no input paths given")
    config = pipeline.RunConfig(
        timeout_seconds=timeout,
        loop_bound=loop_bound,
        max_steps=max_steps,
        max_paths=max_paths,
        enabled_detectors=_parse_only(only),
        prune=not no_prune,
    )
    reports: list[dict] = []
    if jobs > 1 and len(paths) > 1:
        for chunk in _analyze_in_workers(paths, config, jobs):
            reports.extend(chunk)
    else:
        for path in paths:
            reports.extend(pipeline.analyze_path(path, config))

    if out:
        Path(out).write_text(json.dumps(reports, indent=2))
    if output_format == "json":
        click.echo(json.dumps(reports, indent=2))
    else:
        for report in reports:
            _print_text_report(report)
    if reports and all("error" in r for r in reports):
        sys.exit(1)  # every artifact failed: a tool error, not a clean run


def _analyze_in_workers(paths, config, jobs: int) -> list[list[dict]]:
    """The reports of each path, in input order, from worker processes.

    A worker that dies breaks its whole pool, and every path the pool had not
    finished is lost with it. Each lost path is run again in a pool of its
    own, so a path whose own worker dies gets one ``internal-error`` report
    and the others still get theirs.
    """
    chunks = _run_pool(paths, config, jobs)
    for index, chunk in enumerate(chunks):
        if isinstance(chunk, Exception):
            (chunk,) = _run_pool(paths[index:index + 1], config, 1)
        if isinstance(chunk, Exception):
            chunk = [pipeline.error_report(Path(paths[index]).stem, chunk)]
        chunks[index] = chunk
    return chunks


def _run_pool(paths, config, jobs: int) -> list:
    """One future per path: its reports, or the BrokenProcessPool it raised."""
    import concurrent.futures  # here, not at the top: it loads ``logging``

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(pipeline.analyze_path, path, config) for path in paths]
        chunks = []
        for future in futures:
            try:
                chunks.append(future.result())
            except concurrent.futures.process.BrokenProcessPool as exc:
                chunks.append(exc)
        return chunks


def _print_text_report(report: dict) -> None:
    name = report.get("contract", "?")
    if "error" in report:
        click.echo(f"{name}: ERROR {report['error']}")
        return
    timeout_note = " (timed out)" if report.get("timed_out") else ""
    click.echo(
        f"{name}: {report['functions_analyzed']}/{report['functions_total']} "
        f"functions analyzed in {report['timings']['total_seconds']:.2f}s"
        f"{timeout_note}"
    )
    for finding in report["findings"]:
        click.echo(
            f"  [{finding['confidence']}] {finding['type']} in "
            f"{finding['function']} (file {finding['file']}, "
            f"bytes {finding['start']}..{finding['start'] + finding['length']})"
        )
    if not report["findings"]:
        click.echo("  no findings")


@main.command()
@click.option("--labels", required=True, type=click.Path(exists=True),
              help="JSON list of corpus labels.")
@click.option("--reports", "reports_dir", required=True,
              type=click.Path(exists=True),
              help="Directory of report JSON files: one report, or a list "
                   "as written by analyze --out, per file.")
def evaluate(labels, reports_dir):
    """Score reports against hand labels (per-type precision)."""
    try:
        result = evaluate_mod.evaluate_corpus(evaluate_mod.load_labels(labels),
                                              evaluate_mod.load_reports(reports_dir))
    except SleepscanError as exc:  # an unlabeled contract, a label or type it cannot score
        raise click.ClickException(str(exc)) from exc
    for defect_type, score in result["per_type"].items():
        precision = score["precision"]
        text = f"{precision:.1f}%" if precision is not None else "n/a"
        click.echo(f"{defect_type}: TP={score['TP']} FP={score['FP']} "
                   f"FN={score['FN']} precision={text}")
    overall = result["overall"]
    text = f"{overall['precision']:.1f}%" if overall["precision"] is not None else "n/a"
    click.echo(f"overall: TP={overall['TP']} of {overall['total']} precision={text}")


@main.command()
@click.argument("path", type=click.Path(exists=True))
def disasm(path):
    """Debug: dump the instruction listing with source snippets."""
    try:
        units = load_all(path)
    except (SleepscanError, OSError, ValueError) as exc:
        click.echo(f"{Path(path).stem}: ERROR {type(exc).__name__}: {exc}")
        sys.exit(1)
    failed = False
    for unit in units:
        try:
            if unit.error is not None:
                raise unit.error
            instrs = disassemble(unit.runtime_bytecode)
        except (SleepscanError, ValueError) as exc:  # one bad contract must not hide the others
            click.echo(f"{unit.contract_name}: ERROR {type(exc).__name__}: {exc}")
            failed = True
            continue
        click.echo(f"=== {unit.contract_name} ===")
        click.echo(dump_listing(instrs, unit.source_map, unit.sources))
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
