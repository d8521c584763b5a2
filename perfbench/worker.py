"""One benchmark workload in one fresh process; started by run.py.

Modes:
  setup  build the workload (inputs, guards, reference checks and one
         warm-up operation), print READY and exit;
  e2e    set up, then time operations in a closed loop with one client
         until --seconds have passed (at least MIN_OPS operations);
  trace  set up, then alternate untraced and traced operations for
         --seconds, check the traced replay against run_pipeline, and
         take tracemalloc peaks in a separate pass.

The last line of stdout is one JSON object with the metric values by name,
the operation counts and a record of the workload and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from bandtopsis import kernels

import replay
from oracle import workload_seed
from workloads import WORKLOADS

READY = "READY"
MIN_OPS = 3

# per-layer metric -> span whose total time per operation it reports
SPAN_METRICS = {
    "cli.import_s": "cli.import",
    "io.parse_s": "io.parse",
    "io.summary_s": "io.summary",
    "io.emit_s": "io.emit",
    "charts.render_s": "charts.render",
    "pipeline.run_s": "pipeline.run",
    **{f"{stage}_s": stage for stage in replay.PIPELINE_STAGES},
}
SIZE_METRICS = ("io.emit_bytes", "kernels.distances_ops", "kernels.distances_bytes")
# per-layer peak metric -> stages whose tracemalloc peaks it covers
PEAK_METRICS = {
    "sampling.peak_mb": ("sampling.sample",),
    "kernels.peak_mb": ("kernels.distances", "kernels.rank"),
    "aggregate.peak_mb": ("aggregate.rank_matrix", "aggregate.final"),
}


class Loop:
    """Closed loop with one client: the next operation starts only after
    the previous one and its checks have finished."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, op, check):
        """Time op(); run check() on its result untimed. Returns the
        seconds taken, or None when the operation raised or failed its
        checks."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = op()
            elapsed = time.perf_counter() - t0
            check(result)
        except Exception:   # any raise is a failed operation, counted not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        return elapsed


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(workload, seconds: float) -> tuple[Loop, dict, dict]:
    loop, times, rss = Loop(), [], []
    start = time.perf_counter()
    while loop.attempted < MIN_OPS or time.perf_counter() - start < seconds:
        elapsed = loop.attempt(workload.op, workload.check)
        if elapsed is not None:
            times.append(elapsed)
            rss.append(workload.peak_rss_kib())
    if not times:
        raise SystemExit("every operation failed")
    metrics = {
        "iterations_per_s": workload.t * len(times) / sum(times),
        "run_s_p50": statistics.median(times),
        "run_s_p90": _p90(times) if len(times) > 1 else times[0],
        "peak_rss_mb": max(rss) * 1024 / 1e6,
    }
    return loop, metrics, {"timed_ops": len(times)}


def trace(workload, seconds: float) -> tuple[Loop, dict, dict]:
    loop, untraced, traced, layers = Loop(), [], [], []
    start = time.perf_counter()
    while loop.attempted < 2 * MIN_OPS or time.perf_counter() - start < seconds:
        elapsed = loop.attempt(workload.op, workload.check)
        if elapsed is not None:
            untraced.append(elapsed)
        rec = replay.Spans()
        elapsed = loop.attempt(lambda: workload.traced_op(rec), workload.check_traced)
        if elapsed is not None:
            traced.append(elapsed)
            layers.append(rec)
    if not (untraced and traced):
        raise SystemExit("every untraced or every traced operation failed")
    loop.attempt(lambda: replay.check_faithful(workload.matrix, workload.config), lambda _: None)
    peaks = {}
    loop.attempt(lambda: peaks.update(replay.memory_peaks(
        lambda rec: workload.check_traced(workload.traced_op(rec)))), lambda _: None)

    metrics = {}
    for name, span in SPAN_METRICS.items():
        metrics[name] = statistics.median(rec.total(span) for rec in layers)
    metrics["pipeline.self_s"] = statistics.median(rec.self_time("pipeline.run") for rec in layers)
    for name in SIZE_METRICS:
        metrics[name] = statistics.median(rec.sizes.get(name, 0) for rec in layers)
    for name, stages in PEAK_METRICS.items():
        metrics[name] = max(peaks.get(stage, 0) for stage in stages) / 1e6
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return loop, metrics, {"traced_ops": len(traced), "untraced_ops": len(untraced)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "e2e", "trace"], required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    seed = workload_seed(args.seed)
    workload = WORKLOADS[args.workload](root, seed, args.scratch)
    print(READY, flush=True)
    try:
        if args.mode == "setup":
            return
        loop, metrics, counts = (measure if args.mode == "e2e" else trace)(workload, args.seconds)
    finally:
        workload.close()
    info = {
        "workload": args.workload, "seed": args.seed, "workload_seed": seed,
        "m": workload.m, "n": workload.n, "t": workload.t, **counts,
        "python": platform.python_version(), "numpy": np.__version__,
        "backend": getattr(kernels, "active_backend", lambda: "numpy")(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics, "info": info}))


if __name__ == "__main__":
    sys.exit(main())
