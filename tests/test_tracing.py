"""The benchmark's tracer against the pipeline it wraps: every traced name
still exists, and one traced analysis counts the work of every layer."""

import importlib
from pathlib import Path

from sleepscan import pipeline
from sleepscan.disasm import build_cfg, disassemble
from sleepscan.ingestion import load_all

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def _without_timings(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "timings"}


def test_a_traced_analysis_counts_every_layer(corpus_dir, monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    tracing = importlib.import_module("tracing")
    path = corpus_dir / "HiddenApprover"
    config = pipeline.RunConfig()
    plain = pipeline.analyze_path(str(path), config)
    tracer = tracing.Tracer(config.prune, {str(path): sum(
        p.stat().st_size for p in path.iterdir())})
    with tracer.installed():  # raises when a traced name is gone
        traced = pipeline.analyze_path(str(path), config)
    # a counter that raises makes an internal-error report
    assert [_without_timings(r) for r in traced] == [_without_timings(r) for r in plain]
    assert traced[0]["findings"] and "error" not in traced[0]
    (unit,) = load_all(str(path))
    blocks = len(build_cfg(disassemble(unit.runtime_bytecode)).blocks)
    assert tracer.counts["disasm.blocks"] == blocks > 0
    metrics = tracer.layer_metrics(len(traced))
    for name in ("symexec.steps", "constraints.queries", "astview.targets",
                 "disasm.instructions", "detectors.findings"):
        assert metrics[name][0] > 0, name
    assert set(tracing.EXACT_COUNTS) <= set(metrics)
