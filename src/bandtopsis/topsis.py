"""Closeness-to-ideal ranking of one decision matrix under weight rows:
:func:`batch_topsis` ranks t rows at once, and :func:`topsis_run` is its
single-row case.

Pipeline: vector-normalize the matrix, form the ideal/anti-ideal points
from per-column extremes, take weighted Euclidean distances to both, and
rank by relative closeness. The weights multiply the squared deviations
inside the root, so scaling the whole weight vector rescales both
distances equally and leaves closeness unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .base import ComputationError
from .model import DecisionMatrix, TopsisResult, _readonly
from .weighting import _checked_weights


@dataclass(frozen=True)
class IdealPair:
    """Per-criterion ideal (positive) and anti-ideal (negative) values."""

    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positive", _readonly(self.positive, float))
        object.__setattr__(self, "negative", _readonly(self.negative, float))


def vector_normalize(matrix: DecisionMatrix) -> np.ndarray:
    """Scale every column to unit Euclidean norm. Columns of zeros have
    no direction and are rejected.

    Each column is first scaled by a power of two that brings its largest
    magnitude into [0.5, 1), so squaring neither overflows nor underflows
    at extreme magnitudes. The scale is exact, so the result equals the
    unscaled X / ||X|| bit for bit wherever that neither overflows nor
    underflows.
    """
    X = matrix.values
    X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=0))[1])
    norms = np.sqrt((X ** 2).sum(axis=0))
    zero = np.nonzero(norms == 0)[0]
    if zero.size:
        name = matrix.criterion_ids()[zero[0]]
        raise ComputationError(f"vector normalization: column {name!r} is all zeros")
    return X / norms


def ideal_solutions(V: np.ndarray, is_benefit: np.ndarray) -> IdealPair:
    """Column extremes: max for benefit criteria, min for cost (ideal),
    and the reverse for the anti-ideal."""
    is_benefit = np.asarray(is_benefit, dtype=bool)
    hi = V.max(axis=0)
    lo = V.min(axis=0)
    return IdealPair(np.where(is_benefit, hi, lo), np.where(is_benefit, lo, hi))


def topsis_run(matrix: DecisionMatrix, weights) -> TopsisResult:
    """Rank one matrix under one weight vector: row 0 of
    :func:`batch_topsis`.

    The weights must be n finite, non-negative values, not all zero;
    anything else raises ValueError.
    """
    w = _checked_weights(weights, matrix.n, "weights")
    xi, ranks = batch_topsis(matrix, w[None, :])
    return TopsisResult(xi[0], ranks[0])


def batch_topsis(matrix: DecisionMatrix, weight_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate many weight rows against one matrix.

    Returns (closeness, ranks), each of shape t x m with row order equal
    to the weight row order.
    """
    W = np.ascontiguousarray(np.asarray(weight_rows, dtype=float))
    if W.ndim != 2:
        raise ValueError("weight_rows must be a 2-D array (iterations x criteria)")
    V = np.ascontiguousarray(vector_normalize(matrix))
    ideals = ideal_solutions(V, matrix.is_benefit)
    dp, dm = kernels.batch_distances(V, ideals.positive, ideals.negative, W)
    total = np.add(dp, dm, out=dp)  # closeness then overwrites the sums
    if np.any(total == 0):
        raise ComputationError(
            "degenerate problem: ideal equals anti-ideal on every weighted criterion"
        )
    xi = np.divide(dm, total, out=total)
    del dp, dm, total  # free d_minus before ranking allocates its grids
    return xi, kernels.rank_rows(xi)
