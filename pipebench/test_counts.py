"""Two short traced runs with one seed must report identical work counts.

Run from the repository root:
    python3 -m pytest -q pipebench/test_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import EXACT_COUNTS  # noqa: E402


def _traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True)
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", ["corpus", "hub-unpruned", "wide-json"])
def test_exact_counts_repeat(workload):
    first = _traced_counts(workload, seed=7)
    assert _traced_counts(workload, seed=7) == first
