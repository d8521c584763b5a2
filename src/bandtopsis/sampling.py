"""Per-criterion weight bands and the randomized weight matrix drawn
from them.

Sampling is counter-based (see kernels.unit_uniforms): entry (i, j) is
stream value i * n + j moved into its band, lower_j + u * width_j, so
every entry is a pure function of (bounds, seed, i, j), whatever the
fill order or thread schedule. No t x n grid is held: a
RandomWeightMatrix is the description of a draw, and its `rows` view
regenerates only what is indexed. One chunk body, _draw_body, draws
runs of whole rows, for run_pipeline, np.asarray(rows), row slices and
`bandtopsis rwm` alike; a column, or rows at a step, is drawn alone at
a counter stride of n (or step * n) by _draw_column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import _chunk_rows, _fill_uniforms, _for_chunks, _per_thread, _uniform_scratch
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

    `rows` is a read-only view of the t x n rows that regenerates only
    what is indexed: `rows[i]`, `rows[lo:hi]` or `rows[:, j]` (any int
    or slice in either place) returns a new float64 array, and
    np.asarray(rows) fills the whole grid. Every value is the one the
    run ranked, bit for bit."""

    bounds: WeightBounds
    iterations: int
    seed: int

    def __post_init__(self):
        iterations = operator.index(self.iterations)
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "seed", operator.index(self.seed))

    @property
    def rows(self) -> "_WeightRows":
        return _WeightRows(self)


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


def _draw_column(rwm: RandomWeightMatrix, j: int, rows: range, out: np.ndarray, scratch) -> None:
    """Write entry j of each of the weight rows `rows` (a range of row
    indices, at any step) into the 1-D float64 array `out`: the stream's
    values from counter rows.start * n + j at a stride of rows.step * n,
    moved into band j in place, working in `scratch` from
    kernels._uniform_scratch(len(rows), rows.step * n)."""
    n = rwm.bounds.n
    _fill_uniforms(rwm.seed, rows.start * n + j, out, scratch, rows.step * n)
    np.multiply(out, rwm.bounds.width[j], out=out)
    np.add(out, rwm.bounds.lower[j], out=out)


class _WeightRows(np.lib.mixins.NDArrayOperatorsMixin):
    """The t x n rows of a RandomWeightMatrix as a read-only view (see
    RandomWeightMatrix). It holds no values: indexing and np.asarray
    draw fresh arrays, which the caller owns, and a ufunc or arithmetic
    operator takes the whole grid as np.asarray does."""

    dtype = np.dtype(np.float64)

    def __init__(self, rwm: RandomWeightMatrix):
        self._rwm = rwm
        self.shape = (rwm.iterations, rwm.bounds.n)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("weight rows are drawn on demand; a copy cannot be avoided")
        t, n = self.shape
        out = np.empty(self.shape)
        step = _chunk_rows(n)
        draw = _draw_body(self._rwm, min(t, step))
        _for_chunks(t, step, lambda lo, hi: draw(lo, hi, out[lo:hi]))
        return out if dtype is None else out.astype(dtype, copy=False)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if any(isinstance(o, _WeightRows) for o in kwargs.get("out", ())):
            return NotImplemented  # read-only
        inputs = [np.asarray(x) if isinstance(x, _WeightRows) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)

    def columns(self):
        """A function fill(j, out) that writes column j of every row into
        the 1-D float64 array `out` of length t, drawn alone at a counter
        stride of n, in the calling thread's own stream scratch."""
        t, n = self.shape
        scratch = _per_thread(lambda: _uniform_scratch(t, n))
        return lambda j, out: _draw_column(self._rwm, j, range(t), out, scratch())

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        if len(key) > 2:
            raise IndexError(f"too many indices: the weight rows are 2-D, got {len(key)}")
        row_key, col_key = key + (slice(None),) * (2 - len(key))
        t, n = self.shape
        rows, cols = range(t)[row_key], range(n)[col_key]  # an int, or a range for a slice
        row_range = rows if isinstance(rows, range) else range(rows, rows + 1)
        col_range = cols if isinstance(cols, range) else range(cols, cols + 1)
        out = np.empty((len(row_range), len(col_range)))
        if row_range.step == 1 and col_range == range(n):
            _draw_body(self._rwm, len(row_range))(row_range.start, row_range.stop, out)
        else:
            scratch = _uniform_scratch(len(row_range), row_range.step * n)
            for k, j in enumerate(col_range):
                _draw_column(self._rwm, j, row_range, out[:, k], scratch)
        return out[0 if isinstance(rows, int) else slice(None),
                   0 if isinstance(cols, int) else slice(None)]
