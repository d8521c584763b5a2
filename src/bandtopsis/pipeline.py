"""End-to-end orchestration: weights -> bounds -> sampling -> batch
ranking -> aggregation, with every intermediate retained for reporting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import final_ranking
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
from .sampling import compute_bounds, sample_weight_matrix
from .topsis import batch_topsis
from .weighting import critic_weights, entropy_weights, normalize_custom_set


@dataclass(frozen=True)
class RunReport:
    """Everything a run produced, sufficient to re-derive every output
    file. Re-running with the echoed config reproduces it exactly."""

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
        rows = [(s.name, s.weights) for s in self.weight_sets]
        rows.append(("lower", self.bounds.lower))
        rows.append(("upper", self.bounds.upper))
        return rows


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
    """Validate the problem and run the full randomized-band ranking."""
    config = config or RunConfig()
    validate_problem(matrix, config)
    sets = collect_weight_sets(matrix, config)
    bounds = compute_bounds(sets)
    rwm = sample_weight_matrix(bounds, config.iterations, config.seed)
    xi, ranks = batch_topsis(matrix, rwm.rows)
    rm = RankMatrix(_Owned(ranks))
    final = final_ranking(rm, xi)
    return RunReport(matrix, config, tuple(sets), bounds, rwm, _Owned(xi), rm, final)
