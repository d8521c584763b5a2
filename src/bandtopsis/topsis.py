"""Closeness-to-ideal ranking of one decision matrix under a weight vector.

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


@dataclass(frozen=True)
class IdealPair:
    """Per-criterion ideal (positive) and anti-ideal (negative) values."""

    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positive", _readonly(self.positive, float))
        object.__setattr__(self, "negative", _readonly(self.negative, float))


@dataclass(frozen=True)
class DistancePair:
    """Per-alternative distances to the ideal (d_plus) and anti-ideal
    (d_minus)."""

    d_plus: np.ndarray
    d_minus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d_plus", _readonly(self.d_plus, float))
        object.__setattr__(self, "d_minus", _readonly(self.d_minus, float))


def _column_names(matrix) -> list[str]:
    if isinstance(matrix, DecisionMatrix):
        return matrix.criterion_ids()
    ncols = np.asarray(matrix, dtype=float).reshape(len(matrix), -1).shape[1]
    return [str(j + 1) for j in range(ncols)]


def vector_normalize(matrix) -> np.ndarray:
    """Scale every column to unit Euclidean norm.

    Accepts a DecisionMatrix or a bare 2-D array (the kernel is useful on
    raw grids in tests). Columns of zeros have no direction and are
    rejected.

    Each column is first scaled by a power of two that brings its largest
    magnitude into [0.5, 1), so squaring neither overflows nor underflows
    at extreme magnitudes. The scale is exact, so the result equals the
    unscaled X / ||X|| bit for bit wherever that neither overflows nor
    underflows.
    """
    X = matrix.values if isinstance(matrix, DecisionMatrix) else np.asarray(matrix, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=0))[1])
    norms = np.sqrt((X ** 2).sum(axis=0))
    zero = np.nonzero(norms == 0)[0]
    if zero.size:
        names = _column_names(matrix)
        raise ComputationError(f"vector normalization: column {names[zero[0]]!r} is all zeros")
    return X / norms


def ideal_solutions(V: np.ndarray, is_benefit: np.ndarray) -> IdealPair:
    """Column extremes: max for benefit criteria, min for cost (ideal),
    and the reverse for the anti-ideal."""
    is_benefit = np.asarray(is_benefit, dtype=bool)
    hi = V.max(axis=0)
    lo = V.min(axis=0)
    return IdealPair(np.where(is_benefit, hi, lo), np.where(is_benefit, lo, hi))


def distances(V: np.ndarray, weights: np.ndarray, ideals: IdealPair) -> DistancePair:
    """Weighted Euclidean distance of every alternative to both ideals."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if not np.any(w > 0):
        raise ValueError("at least one weight must be positive")
    dp, dm = kernels.batch_distances(V, ideals.positive, ideals.negative, w[None, :])
    return DistancePair(dp[0], dm[0])


def closeness(dist: DistancePair) -> np.ndarray:
    """Relative closeness d_minus / (d_minus + d_plus), in [0, 1]."""
    total = dist.d_plus + dist.d_minus
    if np.any(total == 0):
        raise ComputationError(
            "degenerate problem: ideal equals anti-ideal on every weighted criterion"
        )
    return dist.d_minus / total


def rank_alternatives(xi: np.ndarray) -> np.ndarray:
    """1-based ranks, best (highest closeness) first; exact ties go to the
    lower alternative index."""
    xi = np.asarray(xi, dtype=float)
    return kernels.rank_rows(xi[None, :])[0]


def topsis_run(matrix: DecisionMatrix, weights) -> TopsisResult:
    """Full single-vector evaluation of a decision matrix."""
    V = vector_normalize(matrix)
    ideals = ideal_solutions(V, matrix.is_benefit)
    d = distances(V, weights, ideals)
    xi = closeness(d)
    return TopsisResult(xi, rank_alternatives(xi))


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
