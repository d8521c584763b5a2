"""Hot numeric kernels: batch weighted-distance evaluation, row ranking
and the counter-based uniform stream the weight matrix is drawn from.

Each stage has one numpy implementation. The uniform stream and the
distance kernel avoid whole-array temporaries: the stream is generated
block by block through fixed-size scratch arrays, and the distance roots
are taken in place in the einsum outputs. Each output is bit-identical
to the plain whole-array expression it replaces.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- distances

def batch_distances(V, a_pos, a_neg, w_rows):
    """Weighted Euclidean distances of every alternative to both ideals,
    for every weight row.

    d_plus[t, i] = sqrt(sum_j w[t, j] * (V[i, j] - a_pos[j])^2), same for
    d_minus against a_neg. Weights sit inside the root, multiplying the
    squared deviations. The roots are taken in place, and each grid is
    a contiguous t x m array the caller may overwrite.
    """
    # optimize=False (the default) keeps a fixed reduction order, no BLAS call.
    dp = np.einsum("tj,ij->ti", w_rows, (V - a_pos) ** 2)
    dm = np.einsum("tj,ij->ti", w_rows, (V - a_neg) ** 2)
    return np.sqrt(dp, out=dp), np.sqrt(dm, out=dm)


# ------------------------------------------------------------------ ranking

def rank_rows(xi):
    """1-based rank of every closeness row, descending, ties to the
    lower alternative index (stable sort on the negated values)."""
    t, m = xi.shape
    order = np.argsort(-xi, axis=1, kind="stable")
    ranks = np.empty((t, m), dtype=np.int64)
    rows = np.arange(t)[:, None]
    ranks[rows, order] = np.arange(1, m + 1)
    return ranks


# --------------------------------------------------- counter-based uniforms

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = 0xFFFFFFFFFFFFFFFF

# Counters per block: the two uint64 scratch arrays (256 KiB each) stay in
# cache while the mixing steps run over them in place.
_BLOCK = 1 << 15


def unit_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Counter-based uniform doubles in [0, 1).

    Value k of the stream is splitmix64 output number (start + k) for the
    given seed: mix64(seed + (start + k + 1) * 0x9E3779B97F4A7C15), taking
    the top 53 bits as the mantissa. A value depends only on (seed, index),
    never on evaluation order, so any slice of the stream can be
    regenerated independently and bit-identically on any platform.

    The stream is computed in blocks of ``_BLOCK`` counters with in-place
    uint64 ufuncs (arithmetic mod 2^64), writing each block's doubles
    straight into the result; the block size changes speed, never a value.
    """
    out = np.empty(count, dtype=np.float64)
    ramp = np.arange(1, min(count, _BLOCK) + 1, dtype=np.uint64)
    z = np.empty_like(ramp)
    tmp = np.empty_like(ramp)
    seed64 = np.uint64(int(seed) & _U64)
    for lo in range(0, count, _BLOCK):
        k = min(_BLOCK, count - lo)
        zb, tb = z[:k], tmp[:k]
        np.add(ramp[:k], np.uint64((start + lo) & _U64), out=zb)  # counter + 1
        np.multiply(zb, _GAMMA, out=zb)
        np.add(zb, seed64, out=zb)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zb, np.uint64(shift), out=tb)
            np.bitwise_xor(zb, tb, out=zb)
            np.multiply(zb, mix, out=zb)
        np.right_shift(zb, np.uint64(31), out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.right_shift(zb, np.uint64(11), out=zb)
        np.multiply(zb, 2.0 ** -53, out=out[lo:lo + k])
    return out
