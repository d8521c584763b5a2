"""Per-criterion weight bands and the randomized weight matrix drawn
from them.

Sampling is counter-based (see kernels.unit_uniforms): entry (i, j) is a
pure function of (seed, i, j, bounds), so the matrix is reproducible
bit-for-bit regardless of fill order or parallel scheduling. The stream
is generated in row chunks (see kernels._for_chunks), each written
straight into its rows of the one t x n buffer and moved into its band,
lower + u * width, in place; the returned matrix owns that buffer
without a further copy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .kernels import (
    _chunk_rows,
    _fill_uniforms,
    _for_chunks,
    _per_thread,
    _uniform_scratch,
    unit_uniforms,
)
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


def sample_rows(bounds: WeightBounds, seed: int, row_indices: Sequence[int]) -> np.ndarray:
    """Sample the given rows of the weight matrix, in the order requested.

    Row i always reproduces the same values no matter which other rows are
    drawn alongside it; this is the order-independence contract.
    """
    n = bounds.n
    lo, width = bounds.lower, bounds.width
    out = np.empty((len(row_indices), n))
    for k, i in enumerate(row_indices):
        u = unit_uniforms(seed, int(i) * n, n)
        out[k] = lo + u * width
    return out


def sample_weight_matrix(bounds: WeightBounds, iterations: int, seed: int) -> RandomWeightMatrix:
    """Draw the full t x n weight matrix.

    Each entry is uniform on the closed interval [lower_j, upper_j],
    independent across entries. Rows are NOT rescaled to unit sum: the
    closeness computation is invariant under uniform weight scaling, so
    raw band samples rank identically to normalized ones.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    n = bounds.n
    rows = np.empty((iterations, n))
    scratch = _per_thread(lambda: _uniform_scratch(iterations * n))

    def draw(lo, hi):
        block = rows[lo:hi]
        _fill_uniforms(seed, lo * n, block.reshape(-1), scratch())
        np.multiply(block, bounds.width, out=block)
        np.add(block, bounds.lower, out=block)

    _for_chunks(iterations, _chunk_rows(n), draw)
    return RandomWeightMatrix(iterations, _Owned(rows), int(seed), bounds)
