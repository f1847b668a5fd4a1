"""Digest of the reports the benchmark's inputs get, to compare two commits.

For each workload of ``pipebench/workloads.py`` built at ``--seed``, every
input is analyzed once with pruning and once without; the reports, minus
their ``timings``, are hashed in that order. One line per workload:

    <workload> <sha256> <reports>

Two checkouts give byte-identical reports on these inputs exactly when
their lines are equal. Run from the repository root of each checkout:

    python3 tests/report_digest.py --seed 7
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(workload: str, seed: int) -> tuple[str, int]:
    import workloads
    from sleepscan.pipeline import RunConfig, analyze_path

    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs, _ = workloads.build(workload, seed, Path(tmp))
        for prune in (True, False):
            config = RunConfig(prune=prune)
            for item in inputs:
                for report in analyze_path(item.path, config):
                    report.pop("timings", None)
                    reports.append(report)
    text = json.dumps(reports, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest(), len(reports)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "pipebench")]
    import workloads

    for workload in workloads.WORKLOADS:
        sha, count = digest(workload, args.seed)
        print(f"{workload} {sha} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
