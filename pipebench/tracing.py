"""Per-layer spans and work counts for a traced benchmark run.

The tracer swaps timing wrappers into the module globals the pipeline calls
through, so no file under ``src/`` changes. Each call becomes one span
(name, layer, contract id, parent span, start, end) kept in memory; a
layer's self time is its spans' durations minus the time their child spans
cover. Layers are named after the modules.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from sleepscan import _core, astview, constraints, detectors, pipeline
from sleepscan.symexec import END_BUDGET, END_EMISSION, END_EXIT, END_REVERT

LAYERS = ("pipeline", "ingestion", "disasm", "astview", "symexec",
          "constraints", "detectors")
END_KINDS = (END_EMISSION, END_EXIT, END_REVERT, END_BUDGET)

# Counts that must repeat exactly for one seed (checked by test_counts.py).
EXACT_COUNTS = (
    "symexec.steps",
    *(f"symexec.end.{kind}" for kind in END_KINDS),
    "constraints.queries", "constraints.sat", "constraints.unsat",
    "constraints.unknown",
    "astview.function_table_builds",
    "disasm.instructions",
    "disasm.kernel_calls",
)


def _count_load(tracer, args, units):
    tracer.counts["ingestion.bytes"] += tracer.sizes[args[0]]


def _count_kernel(tracer, args, decoded):
    tracer.counts["disasm.kernel_calls"] += 1
    tracer.counts["disasm.kernel_bytes"] += len(args[0])


def _count_decode(tracer, args, instrs):
    tracer.counts["disasm.instructions"] += len(instrs)


def _count_cfg(tracer, args, cfg):
    tracer.counts["disasm.blocks"] += len(cfg.blocks)


def _count_table(tracer, args, infos):
    tracer.counts["astview.function_table_builds"] += 1


def _count_callable(tracer, args, infos):
    # the table analyze_unit builds itself: its external functions are the
    # report's functions_total, and all of them are targets when not pruning
    _count_table(tracer, args, infos)
    callable_ = sum(f.visibility in astview.EXTERNALLY_CALLABLE for f in infos)
    tracer.counts["astview.functions_total"] += callable_
    if not tracer.prune:
        tracer.counts["astview.targets"] += callable_


def _count_targets(tracer, args, targets):
    tracer.counts["astview.targets"] += len(targets)


def _count_exploration(tracer, args, result):
    counts = tracer.counts
    counts["symexec.steps"] += result.steps_used
    counts["symexec.paths"] += result.paths_finished
    kinds = Counter(rec.end_kind for rec in result.records)
    for kind in END_KINDS:
        counts[f"symexec.end.{kind}"] += kinds[kind]
    counts["symexec.budget_cutoffs"] += kinds[END_BUDGET] > 0


def _count_query(tracer, args, outcome):
    tracer.counts["constraints.queries"] += 1
    tracer.counts[f"constraints.{outcome}"] += 1


def _count_detection(tracer, args, findings):
    tracer.counts["detectors.records_in"] += len(args[1])
    tracer.counts["detectors.findings"] += len(findings)


# (module, global the pipeline calls through, layer, counter)
WRAPPED = (
    (pipeline, "analyze_path", "pipeline", None),
    (pipeline, "load_all", "ingestion", _count_load),
    (pipeline, "disassemble", "disasm", _count_decode),
    (pipeline, "build_cfg", "disasm", _count_cfg),
    # the decode kernel, called by disassemble and by ingestion's validation
    (_core, "decode_raw", "disasm", _count_kernel),
    (pipeline, "find_owner_return_binding", "astview", None),
    (pipeline, "select_target_functions", "astview", _count_targets),
    (pipeline, "function_infos", "astview", _count_callable),
    # select_target_functions builds its own table through this global
    (astview, "function_infos", "astview", _count_table),
    (pipeline, "explore_function", "symexec", _count_exploration),
    # detectors call the solver as ``constraints.solve``
    (constraints, "solve", "constraints", _count_query),
    (detectors, "analyze_contract", "detectors", _count_detection),
)


class Tracer:
    def __init__(self, prune: bool, sizes: dict[str, int]):
        self.prune = prune
        self.sizes = sizes  # artifact path -> bytes ingestion reads
        self.contract = ""  # id of the contract being analyzed
        self.spans: list[list] = []  # [name, layer, contract, parent, start, end]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        originals = []
        for module, attr, layer, count in WRAPPED:
            if not hasattr(module, attr):
                raise LookupError(f"traced name {module.__name__}.{attr} no longer "
                                  "exists; update pipebench/tracing.py")
            originals.append((module, attr, getattr(module, attr)))
        try:
            for (module, attr, original), (_, _, layer, count) in zip(originals, WRAPPED):
                setattr(module, attr,
                        self._wrap(f"{module.__name__.rpartition('.')[2]}.{attr}",
                                   layer, original, count))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def _wrap(self, name, layer, fn, count):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, self.contract, open_[-1] if open_ else -1, 0.0, 0.0]
            spans.append(span)
            open_.append(index)
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                open_.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def seconds(self) -> tuple[Counter, Counter, Counter]:
        """Self time per layer, self time per span name, total time per span name."""
        covered = [0.0] * len(self.spans)
        for _, _, _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_layer, self_by_name, total_by_name = Counter(), Counter(), Counter()
        for (name, layer, _, _, start, end), child in zip(self.spans, covered):
            by_layer[layer] += end - start - child
            self_by_name[name] += end - start - child
            total_by_name[name] += end - start
        return by_layer, self_by_name, total_by_name

    def write_spans(self, path: Path, origin: float) -> None:
        """One JSON object per line; times in seconds from ``origin``."""
        with open(path, "w") as out:
            for name, layer, contract, parent, start, end in self.spans:
                out.write(json.dumps({"name": name, "layer": layer, "contract": contract,
                                      "parent": parent, "start": start - origin,
                                      "end": end - origin}) + "\n")

    def layer_metrics(self, contracts: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per contract analyzed under the tracer."""
        by_layer, self_by_name, total_by_name = self.seconds()
        total = sum(by_layer.values())
        counts = self.counts
        ms = lambda seconds: 1000 * seconds / contracts  # noqa: E731
        per = lambda key: counts[key] / contracts  # noqa: E731
        metrics = {
            "pipeline.self_ms": (ms(by_layer["pipeline"]), "ms"),
            "ingestion.ms": (ms(by_layer["ingestion"]), "ms"),
            "ingestion.bytes": (per("ingestion.bytes"), "B"),
            "ingestion.mb_per_s": (counts["ingestion.bytes"] / 1e6 / by_layer["ingestion"], "MB/s"),
            "disasm.ms": (ms(by_layer["disasm"]), "ms"),
            "disasm.decode_ms": (ms(total_by_name["pipeline.disassemble"]), "ms"),
            "disasm.instructions": (per("disasm.instructions"), "count"),
            "disasm.kernel_ms": (ms(self_by_name["_core.decode_raw"]), "ms"),
            "disasm.kernel_calls": (per("disasm.kernel_calls"), "count"),
            "disasm.kernel_mb_per_s": (counts["disasm.kernel_bytes"] / 1e6
                                       / self_by_name["_core.decode_raw"], "MB/s"),
            "disasm.cfg_ms": (ms(self_by_name["pipeline.build_cfg"]), "ms"),
            "disasm.blocks": (per("disasm.blocks"), "count"),
            "astview.ms": (ms(by_layer["astview"]), "ms"),
            "astview.function_table_builds": (per("astview.function_table_builds"), "count"),
            "astview.functions_total": (per("astview.functions_total"), "count"),
            "astview.targets": (per("astview.targets"), "count"),
            "astview.kept_ratio": (counts["astview.targets"]
                                   / counts["astview.functions_total"], "ratio"),
            "symexec.ms": (ms(by_layer["symexec"]), "ms"),
            "symexec.steps": (per("symexec.steps"), "count"),
            "symexec.steps_per_s": (counts["symexec.steps"] / by_layer["symexec"], "1/s"),
            "symexec.paths": (per("symexec.paths"), "count"),
            **{f"symexec.end.{kind}": (per(f"symexec.end.{kind}"), "count")
               for kind in END_KINDS},
            "symexec.budget_cutoffs": (per("symexec.budget_cutoffs"), "count"),
            "symexec.transfer_path_share": (counts[f"symexec.end.{END_EMISSION}"]
                                            / counts["symexec.paths"], "ratio"),
            "constraints.queries": (per("constraints.queries"), "count"),
            "constraints.sat": (per("constraints.sat"), "count"),
            "constraints.unsat": (per("constraints.unsat"), "count"),
            "constraints.unknown": (per("constraints.unknown"), "count"),
            "constraints.ms": (ms(by_layer["constraints"]), "ms"),
            "detectors.ms": (ms(by_layer["detectors"]), "ms"),
            "detectors.records_in": (per("detectors.records_in"), "count"),
            "detectors.findings": (per("detectors.findings"), "count"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.share"] = (100 * by_layer[layer] / total, "%")
        return metrics
