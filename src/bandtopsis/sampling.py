"""Per-criterion weight bands and the randomized weight matrix drawn
from them.

Sampling is counter-based (see kernels.unit_uniforms): entry (i, j) is
stream value i * n + j moved into its band, lower_j + u * width_j, so
every entry is a pure function of (bounds, seed, i, j), whatever the
fill order or thread schedule. No t x n grid is held: a
RandomWeightMatrix is the description of a draw, and its `rows` view
(a kernels._Rows) draws only what is read. One chunk body, _draw_body,
draws runs of whole rows, for run_pipeline, np.asarray(rows), a row, a
run of rows and `bandtopsis rwm` alike.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import _config_faults
from .kernels import _chunk_rows, _fill_uniforms, _per_thread, _Rows, _uniform_scratch
from .model import NamedWeightSet, WeightBounds


def compute_bounds(sets: Sequence[NamedWeightSet]) -> WeightBounds:
    """Element-wise min/max envelope over the given weight sets."""
    if not sets:
        raise ValueError("at least one weight set is required to form bounds")
    n = len(sets[0])
    for s in sets:
        if len(s) != n:
            raise ValueError(
                f"weight set {s.name!r} has length {len(s)}, expected {n}"
            )
    stacked = np.vstack([s.weights for s in sets])
    return WeightBounds(stacked.min(axis=0), stacked.max(axis=0))


@dataclass(frozen=True)
class RandomWeightMatrix:
    """t weight rows drawn from a band, t x n, held as the description
    of the draw: the bounds, the iteration count t and the seed.

    `rows` is a read-only view of the t x n rows that draws only what is
    read: `rows[i]` is one row and `rows[lo:hi]` a run of rows, each a
    new float64 array; np.asarray(rows) fills the whole grid. Every
    value is the one the run ranked, bit for bit.

    t and the seed keep the rules of a run's config (see
    base._config_faults): a seed outside [0, 2^64) raises ValueError
    rather than naming another seed's stream."""

    bounds: WeightBounds
    iterations: int
    seed: int

    def __post_init__(self):
        iterations, seed = operator.index(self.iterations), operator.index(self.seed)
        faults = _config_faults(iterations, seed)
        if faults:
            raise ValueError("; ".join(f"{key} {fault}" for key, fault in faults))
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "seed", seed)

    @property
    def rows(self) -> _Rows:
        t, n = self.iterations, self.bounds.n
        return _Rows((t, n), lambda: _draw_body(self, min(t, _chunk_rows(n))))


def sample_weight_matrix(bounds: WeightBounds, iterations: int, seed: int) -> RandomWeightMatrix:
    """The t x n weight matrix drawn from `bounds` with `seed`: its
    description, which draws nothing until its rows are indexed.

    Each entry is uniform on the closed interval [lower_j, upper_j],
    independent across entries. Rows are NOT rescaled to unit sum: the
    closeness computation is invariant under uniform weight scaling, so
    raw band samples rank identically to normalized ones.
    """
    return RandomWeightMatrix(bounds, iterations, seed)


def _draw_body(rwm: RandomWeightMatrix, most: int):
    """The sampling stage as a chunk body: draw(lo, hi, out) writes
    weight rows lo:hi, at most `most` of them, into the C-contiguous
    (hi - lo) x n float64 array `out`: the stream's values from counter
    lo * n on, each moved into its band as lower + u * width, in place.
    Rows may be drawn in any order, one range at a time, on any thread;
    each thread works in its own stream scratch."""
    n, lower, width = rwm.bounds.n, rwm.bounds.lower, rwm.bounds.width
    scratch = _per_thread(lambda: _uniform_scratch(most * n))

    def draw(lo, hi, out):
        _fill_uniforms(rwm.seed, lo * n, out.reshape(-1), scratch())
        np.multiply(out, width, out=out)
        np.add(out, lower, out=out)

    return draw
