"""Per-criterion weight bands and the randomized weight matrix drawn
from them.

Sampling is counter-based (see kernels.unit_uniforms): entry (i, j) is
stream value i * n + j moved into its band, lower_j + u * width_j, so
the matrix is reproducible bit for bit whatever the fill order or thread
schedule. One chunk body, _draw_body, draws every weight row, for
sample_weight_matrix, run_pipeline and `bandtopsis rwm` alike; each
chunk is written straight into its rows of the one t x n buffer, which
the returned matrix owns without a further copy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .kernels import _chunk_rows, _fill_uniforms, _for_chunks, _per_thread, _uniform_scratch
from .model import NamedWeightSet, RandomWeightMatrix, WeightBounds, _Owned


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


def sample_weight_matrix(bounds: WeightBounds, iterations: int, seed: int) -> RandomWeightMatrix:
    """Draw the full t x n weight matrix.

    Each entry is uniform on the closed interval [lower_j, upper_j],
    independent across entries. Rows are NOT rescaled to unit sum: the
    closeness computation is invariant under uniform weight scaling, so
    raw band samples rank identically to normalized ones.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    rows, draw = _draw_body(bounds, iterations, seed)
    _for_chunks(iterations, _chunk_rows(bounds.n), draw)
    return RandomWeightMatrix(_Owned(rows))


def _draw_body(bounds: WeightBounds, iterations: int, seed: int):
    """The sampling stage as a chunk body: (rows, draw), where draw(lo, hi)
    writes weight rows lo:hi into the t x n buffer `rows`: the stream's
    values from counter lo * n on, each moved into its band as
    lower + u * width, in place. Rows may be drawn in any order, one
    range at a time, on any thread."""
    n, lower, width = bounds.n, bounds.lower, bounds.width
    rows = np.empty((iterations, n))
    scratch = _per_thread(lambda: _uniform_scratch(rows.size))

    def draw(lo, hi):
        block = rows[lo:hi]
        _fill_uniforms(seed, lo * n, block.reshape(-1), scratch())
        np.multiply(block, width, out=block)
        np.add(block, lower, out=block)

    return rows, draw
