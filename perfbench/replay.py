"""Stage-by-stage replay of ``run_pipeline`` through the package's public
functions, with one span per call.

The replay makes the same calls in the same order as ``run_pipeline`` and
``batch_topsis``; the two inline steps of ``batch_topsis`` (closeness
division and the degenerate-ideal check) are repeated as the same numpy
expressions. ``check_faithful`` verifies that the replay reproduces
``run_pipeline`` bit for bit, so its spans describe the real pipeline.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from bandtopsis import (
    ComputationError,
    RunReport,
    build_rank_matrix,
    build_summary,
    compute_bounds,
    critic_weights,
    entropy_weights,
    final_ranking,
    ideal_solutions,
    kernels,
    normalize_custom_set,
    run_pipeline,
    sample_weight_matrix,
    validate_problem,
    vector_normalize,
)

from oracle import require

# Stages run_pipeline is made of; pipeline.self is what is left of its span.
PIPELINE_STAGES = (
    "model.validate", "weighting.entropy", "weighting.critic", "weighting.custom",
    "sampling.bounds", "sampling.sample", "topsis.normalize", "kernels.distances",
    "topsis.closeness", "kernels.rank", "aggregate.rank_matrix", "aggregate.final",
)


class Spans:
    """Timed spans of one operation, kept in memory: (name, parent, start,
    end). ``sizes`` holds counts recorded at the same boundaries."""

    def __init__(self):
        self.records: list[tuple[str, str | None, float, float]] = []
        self.sizes: dict[str, float] = {}
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append((name, parent, start, end))

    def total(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.records if n == name)

    def self_time(self, name: str) -> float:
        """Span duration minus the time covered by its direct children."""
        children = sum(end - start for _, p, start, end in self.records if p == name)
        return self.total(name) - children


class MemoryPeaks:
    """Stand-in for Spans that records, per stage, the peak traced bytes
    above what was allocated when the stage began. Needs tracemalloc on.
    Each span resets the peak, so only innermost spans read true peaks."""

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self.sizes: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1] - before
            self.peaks[name] = max(self.peaks.get(name, 0), peak)


def pipeline(matrix, config, rec) -> RunReport:
    """run_pipeline, one recorded span per stage."""
    with rec.span("pipeline.run"):
        with rec.span("model.validate"):
            validate_problem(matrix, config)
        sets = []
        if config.include_entropy:
            with rec.span("weighting.entropy"):
                sets.append(entropy_weights(matrix).weights)
        if config.include_critic:
            with rec.span("weighting.critic"):
                sets.append(critic_weights(matrix).weights)
        with rec.span("weighting.custom"):
            for k, raw in enumerate(config.custom_sets, start=1):
                sets.append(normalize_custom_set(raw, matrix.n, name=f"custom {k}"))
        with rec.span("sampling.bounds"):
            bounds = compute_bounds(sets)
        with rec.span("sampling.sample"):
            rwm = sample_weight_matrix(bounds, config.iterations, config.seed)
        with rec.span("topsis.normalize"):
            W = np.ascontiguousarray(np.asarray(rwm.rows, dtype=float))
            V = np.ascontiguousarray(vector_normalize(matrix))
            ideals = ideal_solutions(V, matrix.is_benefit)
        with rec.span("kernels.distances"):
            dp, dm = kernels.batch_distances(V, ideals.positive, ideals.negative, W)
        with rec.span("topsis.closeness"):
            total = dp + dm
            if np.any(total == 0):
                raise ComputationError("degenerate problem")
            xi = dm / total
        with rec.span("kernels.rank"):
            ranks = kernels.rank_rows(xi)
        with rec.span("aggregate.rank_matrix"):
            rm = build_rank_matrix(ranks)
        with rec.span("aggregate.final"):
            final = final_ranking(rm, xi)
        report = RunReport(matrix, config, tuple(sets), bounds, rwm, xi, rm, final)
    t, n = W.shape
    m = V.shape[0]
    # Computed, not measured: one multiply-add per (row, alternative,
    # criterion) for each of the two ideals; bytes are the float64 arrays
    # each einsum reads and writes plus the sqrt pass over its output.
    rec.sizes["kernels.distances_ops"] = 2 * t * m * n
    rec.sizes["kernels.distances_bytes"] = 2 * 8 * (t * n + 3 * t * m)
    return report


def summary_json(report) -> str:
    return json.dumps(build_summary(report), indent=2)


def check_faithful(matrix, config) -> None:
    """The replay must equal run_pipeline bit for bit."""
    replayed, direct = pipeline(matrix, config, Spans()), run_pipeline(matrix, config)
    require(np.array_equal(replayed.closeness, direct.closeness), "replay closeness")
    require(np.array_equal(replayed.rank_matrix.ranks, direct.rank_matrix.ranks), "replay ranks")
    for field in ("positions", "modal_scores", "score_histograms", "mean_scores",
                  "mean_closeness"):
        require(np.array_equal(getattr(replayed.final, field), getattr(direct.final, field)),
                f"replay final.{field}")
    require(summary_json(replayed) == summary_json(direct), "replay summary JSON")


def memory_peaks(op) -> dict[str, int]:
    """Run `op(rec)` once under tracemalloc; peak bytes per stage."""
    rec = MemoryPeaks()
    tracemalloc.start()
    try:
        op(rec)
    finally:
        tracemalloc.stop()
    return rec.peaks
