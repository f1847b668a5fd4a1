"""Seeded benchmark inputs, written to disk, with the verdict each must get.

Every workload is a list of artifact paths that the closed loop hands to
``pipeline.analyze_path`` one at a time. The seed picks the variants (and,
in ``run.py``, the order of each pass); the program only ever sees the
artifacts on disk.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import fixtures

# Contract -> expected findings, copied from tests/test_acceptance.py. An
# entry is the detector's short code, with "@<confidence>" where the
# acceptance suite pins the confidence too.
CORPUS_VERDICTS = {
    "HiddenApprover": ("PA",),
    "FreeMintable": ("UF",),
    "FreeMintable04": ("UF",),
    "FreeMintableShanghai": ("UF",),
    "ChubbyBunny": ("OI",),
    "BatchAirdrop": ("ETE",),
    "GuardedGallery": (),
    "OrderlyMuseum": (),
    "PausableGallery": ("PA",),
    "RelistedArt": ("UF",),
    "BridgeRelay": ("ETE@low",),
    "SteadyMint": (),
    "QuietIslands": (),
    "MarketHub": (),
}

SHORT_CODE = {
    "PrivilegedAddress": "PA",
    "UnrestrictedFrom": "UF",
    "OwnerInconsistency": "OI",
    "EmptyTransferEvent": "ETE",
}

# hub-unpruned: every branch depth is paired with one count from each
# two-wide stratum of 4..19, so seeds differ in detail but hardly in the
# latency distribution. Depths above 9 hit the 512-path budget.
HUB_BRANCHES = (6, 7, 8, 9, 10)
HUB_COUNT_STRATA = tuple((low, low + 1) for low in range(4, 20, 2))

# wide-json: one external-function count per stratum of width 6 from 50 up,
# so selector hashing dominates and total work is nearly seed-independent.
WIDE_VARIANTS = 16
WIDE_COUNT_LOW = 50
WIDE_COUNT_STEP = 6

WORKLOADS = ("corpus", "hub-unpruned", "wide-json")


@dataclass(frozen=True)
class Input:
    name: str  # contract id used in spans and error messages
    path: str
    size: int  # bytes of artifact files ingestion reads
    expected: tuple[str, ...]


def build(workload: str, seed: int, directory: Path) -> tuple[list[Input], bool]:
    """Write ``workload``'s artifacts under ``directory``; returns them and
    whether the workload runs with pruning."""
    rng = random.Random(seed)
    if workload == "corpus":
        return [_artifact_dir(f, directory, f.name, CORPUS_VERDICTS[f.name])
                for f in fixtures.build_corpus()], True
    if workload == "hub-unpruned":
        inputs = []
        for branches in HUB_BRANCHES:
            for low, high in HUB_COUNT_STRATA:
                fixture = fixtures.market_hub(branches, rng.randint(low, high))
                name = f"hub{len(inputs):02d}"
                inputs.append(_artifact_dir(fixture, directory / name, name, ()))
        return inputs, False
    if workload == "wide-json":
        inputs = []
        for k in range(WIDE_VARIANTS):
            count = WIDE_COUNT_LOW + WIDE_COUNT_STEP * k + rng.randrange(WIDE_COUNT_STEP)
            fixture = fixtures.market_hub(rng.randint(1, 3), count)
            path = directory / f"wide{k:02d}.json"
            path.write_text(json.dumps(fixtures.standard_json_artifact(fixture)))
            inputs.append(Input(path.stem, str(path), path.stat().st_size, ()))
        return inputs, True
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _artifact_dir(fixture: fixtures.Fixture, parent: Path, name: str,
                  expected: tuple[str, ...]) -> Input:
    path = fixture.write(parent)
    return Input(name, str(path), sum(p.stat().st_size for p in path.iterdir()), expected)


def verdict_ok(reports: list[dict], expected: tuple[str, ...]) -> bool:
    """One clean report whose findings match ``expected`` exactly."""
    if len(reports) != 1:
        return False
    (report,) = reports
    if "error" in report or report.get("timed_out"):
        return False
    found = sorted((SHORT_CODE[f["type"]], f["confidence"]) for f in report["findings"])
    wanted = sorted(entry.partition("@")[::2] for entry in expected)
    return len(found) == len(wanted) and all(
        code == want_code and (not want_conf or conf == want_conf)
        for (code, conf), (want_code, want_conf) in zip(found, wanted))
