"""Domain types shared by every stage of the ranking pipeline.

All containers are immutable after construction: ndarray fields are
write-locked copies, so instances can be shared across threads. The one
field that is not an array is a run's rank grid, which its pass hands to
:class:`RankMatrix` as a read-only kernels._Rows view.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .base import DEFAULT_ITERATIONS, DEFAULT_SEED, ValidationError, _config_faults, _name_fault
from .kernels import _rank_type, _Rows

WEIGHT_SUM_TOL = 1e-9


class Direction(enum.Enum):
    BENEFIT = "max"
    COST = "min"

    @classmethod
    def parse(cls, token: str) -> "Direction":
        t = str(token).strip().lower()
        if t in ("max", "benefit", "+"):
            return cls.BENEFIT
        if t in ("min", "cost", "-"):
            return cls.COST
        raise ValueError(f"unknown direction token {token!r} (expected max/min)")


def _readonly(a, dtype=None) -> np.ndarray:
    """A write-locked copy of `a`."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CriterionSpec:
    """One evaluation dimension: stable id, display label and direction."""

    id: str
    direction: Direction = Direction.BENEFIT
    label: str = ""


@dataclass(frozen=True)
class DecisionMatrix:
    """m alternatives x n criteria of raw performance values.

    Construction only coerces `values` to a float ndarray; structural
    invariants are checked by :func:`validate_problem` so that invalid
    instances can be built and then reported with a full violation list.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "criteria", tuple(self.criteria))
        object.__setattr__(
            self, "values", _readonly(self.values, float)
        )

    @property
    def m(self) -> int:
        return len(self.alternatives)

    @property
    def n(self) -> int:
        return len(self.criteria)

    @property
    def is_benefit(self) -> np.ndarray:
        """Boolean mask, True where the criterion is a benefit (max)."""
        return np.array([c.direction is Direction.BENEFIT for c in self.criteria], dtype=bool)

    def criterion_ids(self) -> list[str]:
        return [c.id for c in self.criteria]


@dataclass(frozen=True)
class NamedWeightSet:
    """A length-n weight vector with unit sum and a provenance name
    ("entropy", "critic", "custom 1", ...)."""

    name: str
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        reason = _weight_fault(w, None)
        if reason:
            raise ValueError(f"weight set {self.name!r}: {reason}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"weight set {self.name!r} sums to {w.sum()!r}, expected 1 within {WEIGHT_SUM_TOL}"
            )
        object.__setattr__(self, "weights", _readonly(w))

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class WeightBounds:
    """Per-criterion closed weight intervals [lower_j, upper_j]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if np.any(lo < 0) or np.any(hi > 1) or np.any(lo > hi):
            raise ValueError("bounds must satisfy 0 <= lower <= upper <= 1 per criterion")
        object.__setattr__(self, "lower", _readonly(lo))
        object.__setattr__(self, "upper", _readonly(hi))

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass(frozen=True)
class TopsisResult:
    """Closeness vector and 1-based rank permutation for one evaluation."""

    closeness: np.ndarray
    ranks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "closeness", _readonly(self.closeness, float))
        object.__setattr__(self, "ranks", _readonly(self.ranks, np.int64))


@dataclass(frozen=True)
class RankMatrix:
    """t x m grid of per-iteration rank permutations.

    The grid is held as kernels._rank_type(m), the narrowest unsigned
    type that holds m: one byte per rank up to m = 255, two up to
    65,535. Arithmetic on it stays in that type, so widen it first:
    under NumPy 2's promotion rules (NEP 50) `m + 1 - ranks` raises
    OverflowError at m = 255, where 256 does not fit uint8.

    Caller arrays, and views of any other type, are checked row by row
    and then copied into the rank type. A run's ranks come from its pass
    as a kernels._Rows view of the rank type, kept as it is: a read-only
    view over the rank rows the pass kept per chunk, one row for a chunk
    in one order (see pipeline._chunk_ranks).
    It reads a row, a run of rows (a slice of step 1) and np.asarray,
    each a new array of the rank type, and takes no operators.
    """

    ranks: np.ndarray  # or, from a run's pass, a kernels._Rows view

    def __post_init__(self):
        if isinstance(self.ranks, _Rows) and self.ranks.dtype == _rank_type(self.ranks.shape[1]):
            return
        r = np.asarray(self.ranks)
        if r.ndim != 2:
            raise ValueError("rank matrix must be two-dimensional (iterations x alternatives)")
        if not np.all(np.sort(r, axis=1) == np.arange(1, r.shape[1] + 1)):
            raise ValueError("every rank row must be a permutation of 1..m")
        object.__setattr__(self, "ranks", _readonly(r, _rank_type(r.shape[1])))

    @property
    def t(self) -> int:
        return self.ranks.shape[0]

    @property
    def m(self) -> int:
        return self.ranks.shape[1]


@dataclass(frozen=True)
class FinalRanking:
    """Aggregated outcome: per-alternative score histogram, modal score
    and final position, plus the tie-break statistics used."""

    positions: np.ndarray       # length m, permutation of 1..m (1 = best)
    modal_scores: np.ndarray    # length m
    score_histograms: np.ndarray  # m x (m+1), index = score, column 0 unused
    mean_scores: np.ndarray
    mean_closeness: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions", _readonly(self.positions, np.int64))
        object.__setattr__(self, "modal_scores", _readonly(self.modal_scores, np.int64))
        object.__setattr__(self, "score_histograms", _readonly(self.score_histograms, np.int64))
        object.__setattr__(self, "mean_scores", _readonly(self.mean_scores, float))
        object.__setattr__(self, "mean_closeness", _readonly(self.mean_closeness, float))

    @property
    def m(self) -> int:
        return self.positions.shape[0]

    @property
    def order(self) -> np.ndarray:
        """Alternative indices sorted best (position 1) to worst."""
        return np.argsort(self.positions, kind="stable")


@dataclass(frozen=True)
class RunConfig:
    """Run parameters: iteration count, seed, external weight sets and
    flags selecting which objective weighters feed the bounds."""

    iterations: int = DEFAULT_ITERATIONS
    seed: int = DEFAULT_SEED
    custom_sets: tuple[tuple[float, ...], ...] = ()
    include_entropy: bool = True
    include_critic: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "custom_sets", tuple(tuple(float(v) for v in s) for s in self.custom_sets)
        )


def _weight_fault(w: np.ndarray, n: int | None) -> str | None:
    """Why `w` is not a flat vector of n (any length if None) finite,
    non-negative weights, not all zero; None if it is one."""
    if w.ndim != 1:
        return "expected a flat vector"
    if n is not None and w.shape[0] != n:
        return f"wrong length: expected {n} weights, got {w.shape[0]}"
    if not np.all(np.isfinite(w)):
        return "non-finite weight"
    if np.any(w < 0):
        return "negative weight"
    if not np.any(w > 0):
        return "weights sum to zero"
    return None


def problem_violations(matrix: DecisionMatrix, config: RunConfig | None = None) -> list[str]:
    """Collect every invariant violation of a problem (empty list = valid)."""
    errors: list[str] = []
    v = matrix.values
    m, n = matrix.m, matrix.n

    if m < 2:
        errors.append(f"m >= 2 required, got {m} alternatives")
    if n < 1:
        errors.append(f"n >= 1 required, got {n} criteria")
    if v.ndim != 2:
        errors.append(f"values must be a 2-D grid, got {v.ndim} dimensions")
    elif v.shape != (m, n):
        errors.append(
            f"values shape {v.shape} does not match {m} alternatives x {n} criteria"
        )
    else:
        # named by alternative and criterion, which hold in every file format
        finite = np.isfinite(v)
        for kind, bad in (("non-finite", ~finite), ("negative", finite & (v < 0))):
            for i, j in np.argwhere(bad):
                errors.append(f"{kind} value of alternative {matrix.alternatives[i]!r}"
                              f" on criterion {matrix.criteria[j].id!r}")

    seen_alternatives: set[str] = set()
    for a in matrix.alternatives:
        if a in seen_alternatives:
            errors.append(f"duplicate alternative label {a!r}")
        seen_alternatives.add(a)

    seen: set[str] = set()
    for c in matrix.criteria:
        if not c.id:
            errors.append("empty criterion id")
        elif c.id in seen:
            errors.append(f"duplicate criterion id {c.id!r}")
        else:
            seen.add(c.id)

    names = [("alternative label", a) for a in matrix.alternatives]
    for c in matrix.criteria:
        names.append(("criterion id", c.id))
        if c.label != c.id:
            names.append(("criterion label", c.label))
    for kind, name in names:
        fault = _name_fault(str(name))
        if fault:
            errors.append(f"{fault} in {kind} {name!r}")

    if config is not None:
        faults = _config_faults(config.iterations, config.seed)
        errors.extend(f"{key} {fault}" for key, fault in faults)
        for k, s in enumerate(config.custom_sets, start=1):
            reason = _weight_fault(np.asarray(s, dtype=float), n)
            if reason:
                errors.append(f"custom set {k}: {reason}")

    return errors


def validate_problem(matrix: DecisionMatrix, config: RunConfig | None = None) -> DecisionMatrix:
    """Return the matrix unchanged if valid, else raise
    :class:`ValidationError` carrying the complete violation list."""
    errors = problem_violations(matrix, config)
    if errors:
        raise ValidationError(errors)
    return matrix
