"""End-to-end orchestration: weights -> bounds -> sampling -> batch
ranking -> aggregation, keeping what the outputs are made from."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import _RankCounts, _rank_by_mode
from .base import ComputationError
from .kernels import _chunk_rows, _for_chunks, _per_thread
from .model import (
    DecisionMatrix,
    FinalRanking,
    NamedWeightSet,
    RankMatrix,
    RunConfig,
    WeightBounds,
    _Owned,
    _readonly,
    validate_problem,
)
from .sampling import RandomWeightMatrix, _draw_body, compute_bounds
from .topsis import _score_body
from .weighting import critic_weights, entropy_weights, normalize_custom_set


@dataclass(frozen=True)
class RunReport:
    """Everything a run produced, sufficient to re-derive every output
    file. Re-running with the echoed config reproduces it exactly.

    `closeness` and `rank_matrix` are filled by one pass over row
    chunks and equal, bit for bit, what batch_topsis and final_ranking
    give on the rows of `rwm`. The weight rows themselves are not held:
    `rwm` describes the draw (bounds, t and seed), and its `rows` view
    regenerates a row, a run of rows, a column of every row or the whole
    grid bit for bit. A chunk whose rows all keep one order is ranked and
    counted without a sort; its ranks are the ones the stable sort would
    give.

    `rank_matrix.ranks` has the narrowest unsigned type that holds m:
    uint8 up to m = 255, so one byte per rank, and uint16 up to 65,535.
    Widen it before arithmetic: under NumPy 2's promotion rules (NEP 50)
    `m + 1 - ranks` raises OverflowError at m = 255."""

    matrix: DecisionMatrix
    config: RunConfig
    weight_sets: tuple[NamedWeightSet, ...]
    bounds: WeightBounds
    rwm: RandomWeightMatrix
    closeness: np.ndarray      # t x m
    rank_matrix: RankMatrix
    final: FinalRanking

    def __post_init__(self):
        object.__setattr__(self, "closeness", _readonly(self.closeness, float))

    def weight_table(self) -> list[tuple[str, np.ndarray]]:
        """Display rows: each contributing set, then the band envelope."""
        return _weight_rows(self.weight_sets, self.bounds)


def _weight_rows(sets, bounds: WeightBounds) -> list[tuple[str, np.ndarray]]:
    """(name, weights) of each contributing set, then `lower` and `upper`."""
    return [(s.name, s.weights) for s in sets] + [("lower", bounds.lower), ("upper", bounds.upper)]


def collect_weight_sets(matrix: DecisionMatrix, config: RunConfig) -> list[NamedWeightSet]:
    """Objective weighters (as enabled) plus normalized custom sets."""
    sets: list[NamedWeightSet] = []
    if config.include_entropy:
        sets.append(entropy_weights(matrix).weights)
    if config.include_critic:
        sets.append(critic_weights(matrix).weights)
    for k, raw in enumerate(config.custom_sets, start=1):
        sets.append(normalize_custom_set(raw, matrix.n, name=f"custom {k}"))
    if not sets:
        raise ComputationError(
            "no weight sets: both objective weighters are disabled and no custom sets given"
        )
    return sets


def run_pipeline(matrix: DecisionMatrix, config: RunConfig | None = None) -> RunReport:
    """Validate the problem and run the full randomized-band ranking.

    The t-sized stages run as one pass over row chunks: each chunk's
    weight rows are drawn into the calling thread's chunk scratch, then
    scored, ranked and counted while they are in cache, by the same
    chunk bodies that np.asarray(rwm.rows), batch_topsis and
    rank_frequency run alone. No t x n weight grid is held.
    """
    config = config or RunConfig()
    validate_problem(matrix, config)
    sets = collect_weight_sets(matrix, config)
    bounds = compute_bounds(sets)
    t, step = config.iterations, _chunk_rows(matrix.m)
    rwm = RandomWeightMatrix(bounds, t, config.seed)
    draw = _draw_body(rwm, min(t, step))
    weights = _per_thread(lambda: np.empty((min(t, step), bounds.n)))
    xi, ranks, score = _score_body(matrix, t)
    counts = _RankCounts(matrix.m)

    def chunk(lo, hi):
        w = weights()[:hi - lo]
        draw(lo, hi, w)
        counts.add(ranks[lo:hi], score(lo, hi, w))

    _for_chunks(t, step, chunk)
    rm = RankMatrix(_Owned(ranks))
    final = _rank_by_mode(counts.grid(), xi)
    return RunReport(matrix, config, tuple(sets), bounds, rwm, _Owned(xi), rm, final)
