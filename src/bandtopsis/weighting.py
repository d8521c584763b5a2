"""Objective criteria weighting: Shannon-entropy diversity weights and
CRITIC contrast/conflict weights, plus rescaling of caller-supplied sets.

Both weighters return a report with every intermediate grid retained, so
callers can audit the computation and tests can pin each stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ComputationError
from .model import DecisionMatrix, NamedWeightSet, _readonly, _weight_fault


@dataclass(frozen=True)
class EntropyReport:
    """Intermediate and final results of entropy weighting.

    `share` holds the per-column probability shares P (columns sum to 1),
    `entropy` the normalized Shannon entropy of each column, `diversity`
    its complement 1 - E.
    """

    share: np.ndarray
    entropy: np.ndarray
    diversity: np.ndarray
    weights: NamedWeightSet

    def __post_init__(self):
        object.__setattr__(self, "share", _readonly(self.share))
        object.__setattr__(self, "entropy", _readonly(self.entropy))
        object.__setattr__(self, "diversity", _readonly(self.diversity))


@dataclass(frozen=True)
class CriticReport:
    """Intermediate and final results of CRITIC weighting."""

    normalized: np.ndarray    # direction-aware min-max grid, values in [0, 1]
    correlation: np.ndarray   # n x n Pearson grid of the normalized columns
    stdev: np.ndarray         # per-column contrast intensity (see critic_weights)
    index: np.ndarray         # contrast x conflict, prior to normalization
    weights: NamedWeightSet

    def __post_init__(self):
        for f in ("normalized", "correlation", "stdev", "index"):
            object.__setattr__(self, f, _readonly(getattr(self, f)))


def entropy_weights(matrix: DecisionMatrix) -> EntropyReport:
    """Weight criteria by the information diversity of their columns.

    Cost columns are inverted (x -> 1/x) before the share normalization so
    that low-is-good columns contribute diversity on the same footing as
    benefit columns. Each column is then scaled to a probability share
    P_ij = x_ij / sum_i(x_ij), its normalized Shannon entropy
    E_j = -sum_i(P_ij ln P_ij) / ln(m) is taken with the 0*ln(0) := 0
    convention, and weights are the normalized diversities (1 - E_j).
    """
    X = matrix.values
    m = X.shape[0]
    is_benefit = matrix.is_benefit
    ids = matrix.criterion_ids()

    if np.any(X < 0):
        raise ComputationError("entropy weighting requires non-negative values")
    cost = ~is_benefit
    bad = np.nonzero(cost & np.any(X <= 0, axis=0))[0]
    if bad.size:
        raise ComputationError(
            f"entropy weighting: cost column {ids[bad[0]]!r} has a non-positive "
            "entry, reciprocal transform undefined"
        )
    # Shares are scale-free, so each column is scaled by the exact power of
    # two 2^shift that brings a benefit column's largest entry and a cost
    # column's smallest into [0.5, 1), and a cost entry mant * 2^e becomes
    # (1 / mant) * 2^-(e + shift) without being scaled first: nothing can
    # overflow, and the shares are the same bits.
    mant, exp = np.frexp(X)
    exp -= np.frexp(np.where(is_benefit, X.max(axis=0), X.min(axis=0)))[1]
    mant[:, cost] = 1.0 / mant[:, cost]
    exp[:, cost] *= -1
    Xt = np.ldexp(mant, exp)

    colsum = Xt.sum(axis=0)
    zero = np.nonzero(colsum == 0)[0]
    if zero.size:
        raise ComputationError(
            f"entropy weighting: column {ids[zero[0]]!r} sums to zero, shares undefined"
        )
    P = Xt / colsum

    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
    E = np.clip(-plogp.sum(axis=0) / np.log(m), 0.0, 1.0)
    # a constant column has uniform shares: entropy is ln(m)/ln(m) = 1 by
    # definition, pin it so the column's weight is exactly zero
    constant = np.all(Xt == Xt[0, :], axis=0)
    E[constant] = 1.0
    diversity = 1.0 - E

    total = diversity.sum()
    if total <= 0:
        raise ComputationError(
            "entropy weighting: every column is uniform, no diversity to weight by"
        )
    w = diversity / total
    return EntropyReport(P, E, diversity, NamedWeightSet("entropy", w))


def minmax_normalize(matrix: DecisionMatrix) -> np.ndarray:
    """Direction-aware min-max rescaling onto [0, 1].

    Benefit columns map their maximum to 1, cost columns their minimum.
    Constant columns are rejected because the range length is zero.
    """
    X = matrix.values
    ids = matrix.criterion_ids()
    hi = X.max(axis=0)
    lo = X.min(axis=0)
    span = hi - lo
    flat = np.nonzero(span == 0)[0]
    if flat.size:
        raise ComputationError(
            f"min-max normalization: column {ids[flat[0]]!r} is constant"
        )
    Z = np.where(matrix.is_benefit, (X - lo) / span, (hi - X) / span)
    return Z


def critic_weights(matrix: DecisionMatrix, ddof: int = 1) -> CriticReport:
    """Weight criteria by contrast intensity times inter-criteria conflict.

    The matrix is min-max normalized (direction-aware), the Pearson grid
    rho_jk of the normalized columns is formed, and each column receives
    index_j = sigma_j * sum_k(1 - rho_jk), with the k = j term contributing
    zero. Weights are the indices rescaled to unit sum.

    sigma_j is the root mean square deviation of column j around the grand
    mean of the whole normalized grid (not the column mean); the divisor
    m - ddof is a common factor across columns, so `ddof` cannot change the
    weights (see the divisor-invariance tests).
    """
    m, n = matrix.values.shape
    if n < 2:
        raise ComputationError(
            "CRITIC is undefined for a single criterion: its conflict term is zero"
        )
    Z = minmax_normalize(matrix)
    rho = np.corrcoef(Z, rowvar=False)
    sigma = np.sqrt(((Z - Z.mean()) ** 2).sum(axis=0) / (m - ddof))
    conflict = (1.0 - rho).sum(axis=1)
    index = sigma * conflict
    total = index.sum()
    if total <= 0:
        raise ComputationError("CRITIC index vanished for every column")
    w = index / total
    return CriticReport(Z, rho, sigma, index, NamedWeightSet("critic", w))


def _checked_weights(raw, n: int | None, name: str) -> np.ndarray:
    """`raw` as a flat float vector of n finite, non-negative weights, not
    all zero; else ValueError naming `name` and the fault."""
    w = np.asarray(raw, dtype=float)
    reason = _weight_fault(w, n)
    if reason:
        raise ValueError(f"{name}: {reason}")
    return w


def normalize_custom_set(raw, n: int | None = None, name: str = "custom") -> NamedWeightSet:
    """Rescale a caller-supplied non-negative vector to unit sum.

    The vector is first scaled by the exact power of two that brings its
    largest entry into [0.5, 1), so the sum cannot overflow; the shares
    are the same bits wherever no value is subnormal.
    """
    w = _checked_weights(raw, n, name)
    w = np.ldexp(w, -np.frexp(w.max())[1])
    return NamedWeightSet(name, w / w.sum())
