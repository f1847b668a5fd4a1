"""Closed-loop benchmark of ``sleepscan.pipeline.analyze_path``.

One process, one client: each contract is analyzed after the previous report
returns. Inputs are generated from ``--seed`` and written to disk before
timing starts. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is the JSON result. See README.md.

Run from the repository root:
    python3 pipebench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 9
WARM_UP = 3  # contracts analyzed before timing starts
MIN_SAMPLES = 110  # so that at least ten latencies lie beyond p90
MAX_SECONDS = 150  # stop before the 180 s limit even on a slow machine
# times the imports, then the calibration loop in the same process
SETUP_CODE = ("import time, calibrate; calibrate.loop_seconds(); t = time.perf_counter(); "
              "import sleepscan.pipeline, sleepscan.cli; t = time.perf_counter() - t; "
              "print(t, calibrate.loop_seconds(), calibrate.loop_seconds())")


def measure_setup() -> tuple[float, float]:
    """Median time to import the pipeline and CLI in a fresh interpreter,
    scaled to the reference host and unscaled."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, *loops = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * calibrate.REFERENCE_S / statistics.fmean(loops))
    return statistics.median(scaled), statistics.median(raw)


def run_metadata(seed: int) -> dict:
    from sleepscan import _core

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sleepscan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "backend": _core.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest(),
    }


class Loop:
    """Whole passes over the inputs, each in a fresh seeded order.

    With ``calibrated`` set, the calibration loop runs between every two
    contracts and each latency is also kept scaled to the reference host.
    """

    def __init__(self, inputs, config, rng, calibrated: bool):
        self.inputs, self.config, self.rng = inputs, config, rng
        self.calibrated = calibrated
        self.attempted = 0
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failed: list[str] = []
        self._loop_s = calibrate.loop_seconds() if calibrated else 0.0

    def one_pass(self, tracer=None, items=None) -> float:
        """Analyze ``items``, by default all inputs in a fresh order."""
        from sleepscan import pipeline
        from workloads import verdict_ok

        started = time.perf_counter()
        for item in items or self.rng.sample(self.inputs, len(self.inputs)):
            if tracer is not None:
                tracer.contract = item.name
            t0 = time.perf_counter()
            reports = pipeline.analyze_path(item.path, self.config)
            latency = time.perf_counter() - t0
            self.latencies.append(latency)
            if self.calibrated:
                after = calibrate.loop_seconds()
                self.scaled.append(latency * 2 * calibrate.REFERENCE_S / (self._loop_s + after))
                self._loop_s = after
            self.attempted += 1
            if not verdict_ok(reports, item.expected):
                self.failed.append(item.name)
        return time.perf_counter() - started


def untraced(loop: Loop, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics scaled to the reference host, and unscaled."""
    loop.one_pass(items=loop.inputs[:WARM_UP])  # verdicts count, timings do not
    loop.latencies.clear()
    loop.scaled.clear()
    started = time.perf_counter()
    while True:
        loop.one_pass()
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and len(loop.latencies) >= MIN_SAMPLES):
            break
    raw_ms = [1000 * s for s in loop.latencies]
    ms = [1000 * s for s in loop.scaled]
    p90 = statistics.quantiles(ms, n=10)[8]
    beyond = sum(x > p90 for x in ms)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} of {len(ms)} latencies lie beyond p90")
    print(f"# {len(ms)} contracts in {elapsed:.2f} s; {beyond} beyond p90")
    unscaled = {
        "contracts_per_s": 1000 * len(raw_ms) / sum(raw_ms),
        "contract_ms_p50": statistics.median(raw_ms),
        "contract_ms_p90": statistics.quantiles(raw_ms, n=10)[8],
    }
    return {
        "contracts_per_s": (1000 * len(ms) / sum(ms), "1/s"),
        "contract_ms_p50": (statistics.median(ms), "ms"),
        "contract_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, unscaled


def traced(loop: Loop, seconds: float, tracer, spans_path: Path) -> dict:
    """Alternate untraced and traced passes, so both see the same machine."""
    from tracing import LAYERS

    origin = time.perf_counter()
    ratios = []
    while time.perf_counter() - origin < seconds or not ratios:
        plain = loop.one_pass()
        with tracer.installed():
            ratios.append(loop.one_pass(tracer) / plain)
    tracer.write_spans(spans_path, origin)
    metrics = tracer.layer_metrics(len(ratios) * len(loop.inputs))
    metrics["trace.overhead_pct"] = (100 * (statistics.median(ratios) - 1), "%")
    print(f"# {len(ratios)} traced passes; spans in {spans_path.relative_to(ROOT)}")
    print(f"# {'layer':<12} {'self ms/contract':>16} {'share':>7}")
    for layer in sorted(LAYERS, key=lambda name: -metrics[f"{name}.share"][0]):
        print(f"# {layer:<12} {metrics[layer_ms(layer)][0]:16.3f} "
              f"{metrics[f'{layer}.share'][0]:6.1f}%")
    return metrics


def layer_ms(layer: str) -> str:
    return "pipeline.self_ms" if layer == "pipeline" else f"{layer}.ms"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "sleepscan" / "pipeline.py", ROOT / "tests" / "fixtures.py"):
        if not needed.is_file():
            print(f"pipebench: {needed.relative_to(ROOT)} not found; "
                  "run from a sleepscan checkout", file=sys.stderr)
            return 2

    setup_s, setup_raw_s = measure_setup() if not args.trace else (None, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import tracing
    import workloads
    from sleepscan.pipeline import RunConfig

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    meta = run_metadata(args.seed)
    meta["workload"] = args.workload
    print("# meta " + json.dumps(meta))
    rng = random.Random(args.seed)
    unscaled = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs, prune = workloads.build(args.workload, args.seed, Path(tmp))
        loop = Loop(inputs, RunConfig(prune=prune), rng, calibrated=not args.trace)
        if args.trace:
            tracer = tracing.Tracer(prune, {item.path: item.size for item in inputs})
            spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
            metrics = traced(loop, args.seconds, tracer, spans)
        else:
            metrics, unscaled = untraced(loop, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            unscaled["setup_s"] = setup_raw_s

    attempted = loop.attempted
    failed = len(loop.failed)
    print(f"# failed_share {failed / attempted:.6f} ({failed} of {attempted})"
          + (f": {sorted(set(loop.failed))}" if failed else ""))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}"
              + (f" (unscaled {unscaled[name]:.6g})" if name in unscaled else ""))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result, "unscaled": unscaled},
                                 indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
