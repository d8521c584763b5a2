#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-numpy fallback.

Times the hot path of a run (batch weighted distances + row ranking) for
several iteration counts on the bundled 6 x 12 case study, the two other
t-sized stages at each count (weight sampling and the summary's
five-number reductions), plus the full pipeline. First njit calls are
excluded via warmup.

Usage:
    python benchmarks/benchmark_kernels.py [--iterations N ...]
"""

import argparse
import statistics
import time
from pathlib import Path

import numpy as np

from bandtopsis import (
    RunConfig,
    build_summary,
    compute_bounds,
    critic_weights,
    entropy_weights,
    ideal_solutions,
    kernels,
    normalize_custom_set,
    parse_problem,
    run_pipeline,
    sample_weight_matrix,
    vector_normalize,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "social.csv"


def _time(fn, *args, repeats=30):
    for _ in range(3):
        fn(*args)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def bench_batch(t: int) -> None:
    matrix, _ = parse_problem(DATA)
    sets = [
        entropy_weights(matrix).weights,
        critic_weights(matrix).weights,
        normalize_custom_set([0.05] * 12, 12),
    ]
    bounds = compute_bounds(sets)
    W = np.ascontiguousarray(sample_weight_matrix(bounds, t, seed=42).rows)
    V = np.ascontiguousarray(vector_normalize(matrix))
    ideals = ideal_solutions(V, matrix.is_benefit)

    def run_numpy():
        dp, dm = kernels.batch_distances_numpy(V, ideals.positive, ideals.negative, W)
        kernels.rank_rows_numpy(dm / (dm + dp))

    rows = [("numpy", _time(run_numpy))]
    if kernels.active_backend() == "numba":
        def run_numba():
            dp, dm = kernels.batch_distances_numba(V, ideals.positive, ideals.negative, W)
            kernels.rank_rows_numba(dm / (dm + dp))

        rows.append(("numba", _time(run_numba)))

    print(f"\nbatch evaluate + rank, t = {t:,}")
    base = rows[0][1]
    for name, sec in rows:
        speed = base / sec
        print(f"  {name:<6} {sec * 1e3:8.3f} ms   {speed:5.2f}x vs numpy")


def bench_stages(t: int) -> None:
    matrix, _ = parse_problem(DATA)
    cfg = RunConfig(iterations=t, custom_sets=((0.05,) * 12,))
    report = run_pipeline(matrix, cfg)
    sample_s = _time(sample_weight_matrix, report.bounds, t, cfg.seed, repeats=5)
    summary_s = _time(build_summary, report, repeats=5)
    print(f"other t-sized stages, t = {t:,}")
    print(f"  sample_weight_matrix {sample_s * 1e3:8.3f} ms")
    print(f"  build_summary        {summary_s * 1e3:8.3f} ms")


def bench_pipeline(t: int) -> None:
    matrix, _ = parse_problem(DATA)
    cfg = RunConfig(iterations=t, custom_sets=((0.05,) * 12,))
    sec = _time(lambda: run_pipeline(matrix, cfg), repeats=10)
    print(f"\nfull pipeline (backend={kernels.active_backend()}), t = {t:,}: {sec * 1e3:.1f} ms")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iterations", type=int, nargs="*", default=[10_000, 100_000, 1_000_000])
    args = ap.parse_args()

    print(f"kernel backend: {kernels.active_backend()}")
    print("(set BANDTOPSIS_NO_NUMBA=1 to force the numpy fallback)")
    for t in args.iterations:
        bench_batch(t)
        bench_stages(t)
    bench_pipeline(args.iterations[0])


if __name__ == "__main__":
    main()
