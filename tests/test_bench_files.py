"""The perf trajectory: one ``BENCH_<workload>.json`` per benchmark workload
at the repository root, each a list of median entries in PR order."""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
METRICS = ("contracts_per_s", "contract_ms_p50", "contract_ms_p90", "peak_rss_mb", "setup_s")
FIELDS = ("pr", "side", "source", "seed", "seconds", *METRICS)


def _number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and value > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_bench_file_holds_its_medians_in_pr_order(workload):
    entries = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert isinstance(entries, list) and entries
    for entry in entries:
        assert tuple(entry) == FIELDS, entry
        assert type(entry["pr"]) is int and entry["side"] in ("parent", "change"), entry
        assert isinstance(entry["source"], str) and entry["source"], entry
        seeds = entry["seed"] if isinstance(entry["seed"], list) else [entry["seed"]]
        assert seeds and all(seed is None or type(seed) is int for seed in seeds), entry
        assert _number(entry["seconds"]) and _number(entry["contracts_per_s"]), entry
        assert all(entry[name] is None or _number(entry[name]) for name in METRICS), entry
    prs = [entry["pr"] for entry in entries]
    assert prs == sorted(prs)
