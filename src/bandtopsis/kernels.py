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

    The sum over j has a fixed order. With numpy 2.4.6 on x86-64 it
    equals, bit for bit, a two-lane sum without fused multiply-add: even
    j in one lane, odd j in the other, the lanes added last, and within
    each full block of 8 criteria the pairs taken in the order (6, 7),
    (4, 5), (2, 3), (0, 1). An einsum build with another lane count or a
    fused multiply-add may change the last bits; that is unverified off
    x86-64.
    """
    # optimize=False (the default) keeps a fixed reduction order, no BLAS call.
    dp = np.einsum("tj,ij->ti", w_rows, (V - a_pos) ** 2)
    dm = np.einsum("tj,ij->ti", w_rows, (V - a_neg) ** 2)
    return np.sqrt(dp, out=dp), np.sqrt(dm, out=dm)


# ------------------------------------------------------------------ ranking

# Rows of at most this many alternatives are ranked with the stable sort alone.
# On an AVX-512 CPU it took 0.85 to 1.2 times as long as the SIMD sort plus the
# tie check on rows of random values, and half as long on rows that share one
# order, as rows drawn from a narrow weight band do.
_STABLE_MAX_M = 8


def rank_rows(xi):
    """1-based rank of every closeness row, descending, ties to the
    lower alternative index: the ranks a stable sort of the negated
    values gives. `xi` must hold no NaN; closeness never does.

    Rows of more than ``_STABLE_MAX_M`` values are ordered by numpy's
    default argsort, which may dispatch to an unstable SIMD sort. Every
    sort orders distinct values alike, so only a row holding two equal
    values can differ from the stable order; such rows, found by
    comparing neighbours in sorted order, are ranked again with the
    stable sort. The ranks therefore do not depend on which sort the CPU
    runs.
    """
    xi = np.asarray(xi, dtype=np.float64)
    t, m = xi.shape
    ranks = np.empty((t, m), dtype=np.int64)
    if m <= _STABLE_MAX_M:
        _rank_stable(xi, np.arange(m - 1, t * m, m), ranks)
        return ranks
    order = np.argsort(xi, axis=1)
    order += np.arange(0, t * m, m, dtype=order.dtype)[:, None]  # flat indices into xi
    # the sorted values borrow the rank buffer until the ranks overwrite them;
    # the indices are in range, and mode="clip" lets take write into `out` unbuffered
    s = np.take(xi.ravel(), order, out=ranks.view(np.float64), mode="clip")
    tie = s[:, 1:] == s[:, :-1]
    tied = np.flatnonzero(tie.any(axis=1)) if tie.any() else ()
    del s, tie
    ranks.ravel()[order] = np.arange(m, 0, -1)
    if len(tied):
        _rank_stable(xi[tied], tied * m + m - 1, ranks)
    return ranks


def _rank_stable(xi, last, ranks):
    """Write the ranks of closeness rows `xi` into `ranks`, where `last`
    holds the flat index in `ranks` of each row's last alternative.

    The ascending stable order of a reversed row, read backwards, is the
    descending order with ties to the lower index, so no negated copy is
    needed: ascending position k of reversed index r gives alternative
    m - 1 - r the rank m - k.
    """
    m = xi.shape[1]
    order = np.argsort(xi[:, ::-1], axis=1, kind="stable")
    np.subtract(last[:, None], order, out=order)  # flat indices into ranks
    ranks.ravel()[order] = np.arange(m, 0, -1)


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
