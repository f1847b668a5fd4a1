"""Digest of the reports the benchmark's inputs and the owner-shape fixtures
get, to compare two commits.

For each workload of ``pipebench/workloads.py`` built at ``--seed``, every
input is analyzed once with pruning and once without; the reports, minus
their ``timings``, are hashed in that order. One line per workload:

    <workload> <sha256> <reports>

A last line, ``owner-variants``, digests the same way the ``transfer_family``
fixtures that read the owner through an internal ``_ownerOf``
(``owner_helper``), in the transfer itself (``inline_owner``) and from an
internal ``_transfer`` (``internal_call``), each with and without the
``owner == from`` check; it does not depend on the seed. The workloads
exercise a non-empty owner binding only in ``corpus``, which has no
helper-shaped ``ownerOf``.

Two checkouts give byte-identical reports on these inputs exactly when
their lines are equal. Run from the repository root of each checkout:

    python3 tests/report_digest.py --seed 7

``tests/test_report_digest.py`` pins the seed-7 lines, so a change that
moves a report updates the pin there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

OWNER_VARIANTS = ("owner_helper", "inline_owner", "internal_call")


def digest(paths: list) -> tuple[str, int]:
    """The hash of every path's reports, pruned, then unpruned, and their count."""
    from sleepscan.pipeline import RunConfig, analyze_path

    reports = []
    for prune in (True, False):
        config = RunConfig(prune=prune)
        for path in paths:
            for report in analyze_path(path, config):
                report.pop("timings", None)
                reports.append(report)
    text = json.dumps(reports, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest(), len(reports)


def owner_variants(directory: Path) -> list[str]:
    """Write the owner-shape fixtures under ``directory``; returns their paths."""
    import fixtures

    paths = []
    for variant in OWNER_VARIANTS:
        for owner_check in (True, False):
            name = (variant.title().replace("_", "")
                    + ("Checked" if owner_check else "Unchecked"))
            fixture = fixtures.transfer_family(name, owner_check=owner_check,
                                               **{variant: True})
            paths.append(str(fixture.write(directory)))
    return paths


def lines(seed: int) -> list[str]:
    """The digest lines at ``seed``; ``pipebench`` must be importable."""
    import workloads

    out = []
    for line in [*workloads.WORKLOADS, "owner-variants"]:
        with tempfile.TemporaryDirectory() as tmp:
            if line == "owner-variants":
                paths = owner_variants(Path(tmp))
            else:
                inputs, _ = workloads.build(line, seed, Path(tmp))
                paths = [item.path for item in inputs]
            sha, count = digest(paths)
        out.append(f"{line} {sha} {count}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "pipebench")]
    print("\n".join(lines(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
