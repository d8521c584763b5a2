"""End-to-end orchestration: weights -> bounds -> sampling -> batch
ranking -> aggregation, with every intermediate retained for reporting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import _RankCounts, _rank_by_mode
from .kernels import _chunk_rows, _for_chunks
from .model import (
    DecisionMatrix,
    FinalRanking,
    NamedWeightSet,
    RandomWeightMatrix,
    RankMatrix,
    RunConfig,
    WeightBounds,
    _Owned,
    _readonly,
    validate_problem,
)
from .sampling import _draw_body, compute_bounds
from .topsis import _score_body
from .weighting import critic_weights, entropy_weights, normalize_custom_set


@dataclass(frozen=True)
class RunReport:
    """Everything a run produced, sufficient to re-derive every output
    file. Re-running with the echoed config reproduces it exactly.

    `rwm.rows`, `closeness` and `rank_matrix` are filled by one pass over
    row chunks and equal, bit for bit, what sample_weight_matrix,
    batch_topsis and final_ranking give when run one after another. A
    chunk whose rows all keep one order is ranked and counted without a
    sort; its ranks are the ones the stable sort would give."""

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
        raise ValueError(
            "no weight sets: both objective weighters are disabled and no custom sets given"
        )
    return sets


def run_pipeline(matrix: DecisionMatrix, config: RunConfig | None = None) -> RunReport:
    """Validate the problem and run the full randomized-band ranking.

    The t-sized stages run as one pass over row chunks: each chunk's
    weight rows are drawn, scored, ranked and counted while they are in
    cache, by the same chunk bodies that sample_weight_matrix,
    batch_topsis and rank_frequency run alone.
    """
    config = config or RunConfig()
    validate_problem(matrix, config)
    sets = collect_weight_sets(matrix, config)
    bounds = compute_bounds(sets)
    t = config.iterations
    rows, draw = _draw_body(bounds, t, config.seed)
    xi, ranks, score = _score_body(matrix, rows)
    counts = _RankCounts(matrix.m)

    def chunk(lo, hi):
        draw(lo, hi)
        counts.add(ranks[lo:hi], score(lo, hi))

    _for_chunks(t, _chunk_rows(matrix.m), chunk)
    rwm = RandomWeightMatrix(_Owned(rows))
    rm = RankMatrix(_Owned(ranks))
    final = _rank_by_mode(counts.grid(), xi)
    return RunReport(matrix, config, tuple(sets), bounds, rwm, _Owned(xi), rm, final)
