#!/usr/bin/env python3
"""Run one workload of the bandtopsis benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload social-deep --seed 0 --seconds 30 --trace 0

With --trace 0 the workload is set up SETUPS times, each time in a fresh
worker process, and set-up time is the median of the time each worker took
from its start to being ready; the last worker then times operations in a
closed loop with one client and reports the end-to-end metrics. With
--trace 1 one worker runs untraced and traced operations side by side and
reports the per-layer metrics. Metric names and units come from
BENCHMARK.json. Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.

Workers get one thread per numeric library and the package from src/.
Their temporary files live under .perfbench_tmp/ and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("social-cli", "synthetic-api", "social-deep")
READY = "READY"
SETUPS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(Exception):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_worker(args, mode: str, deadline: float) -> tuple[float, list[str]]:
    """Run one worker; (seconds from start to READY, stdout lines after it)."""
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--scratch", str(args.scratch)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.rstrip("\n") == READY:
                ready = time.perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerFailed(f"{mode} worker exited {code}" + ("" if ready else " before set-up finished"))
    return ready, lines


def _measure(args, deadline: float) -> dict:
    if args.trace:
        _, lines = _run_worker(args, "trace", deadline)
        setup = []
    else:
        setup = [_run_worker(args, "setup", deadline)[0] for _ in range(SETUPS - 1)]
        ready, lines = _run_worker(args, "e2e", deadline)
        setup.append(ready)
    if not lines:
        raise WorkerFailed("worker printed no result")
    result = json.loads(lines[-1])
    if setup:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["info"]["setup_runs"] = setup
    return result


def _report(result: dict, spec: list[dict]) -> dict:
    info = result["info"]
    print(f"workload {info['workload']}: seed {info['seed']} -> {info['workload_seed']}, "
          f"m={info['m']} n={info['n']} t={info['t']}")
    print(f"environment: python {info['python']}, numpy {info['numpy']}, backend "
          f"{info['backend']}, nproc {info['nproc']}, cpu {info['cpu']}, threads {info['threads']}")
    counts = {k: v for k, v in info.items() if k.endswith("_ops") or k == "setup_runs"}
    print(f"samples: {counts}")
    metrics = {}
    for m in spec:
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<26} {value:>16.6g} {m['unit']}")
    print(f"{'error_rate':<26} {result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the bandtopsis benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "bandtopsis" / "__init__.py",
              ROOT / "data" / "social.csv"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a bandtopsis checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    SCRATCH.mkdir(exist_ok=True)
    args.scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        result = _measure(args, deadline)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:   # another run still uses it
            pass
    print(json.dumps(_report(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
