"""Hot numeric kernels: batch weighted-distance evaluation, row ranking
and the counter-based uniform stream the weight matrix is drawn from,
plus the row-chunk runner the t-sized stages share.

Each stage has one numpy implementation. The uniform stream and the
distance kernel avoid whole-array temporaries: the stream is generated
block by block through fixed-size scratch arrays, and the distance roots
are taken in place in the einsum outputs. Each output is bit-identical
to the plain whole-array expression it replaces.

The t-sized stages (sampling, distances, ranking, rank counting and the
five-number summaries) work in chunks of about 2^16 elements. A call of
at least two full chunks runs them on as many threads as the process's
CPU affinity allows (``os.sched_getaffinity``, else ``os.cpu_count``);
smaller calls, and every call on one CPU, run the chunks inline in
order. A chunk is computed by the same arithmetic whichever thread runs
it, and no value depends on where a chunk starts, so output bytes do not
depend on the CPU count. There is no setting: ``taskset -c 0`` pins a
run to one CPU. ``OMP_NUM_THREADS`` and its kin are not read: they size
BLAS and OpenMP pools, and this package calls neither.
"""

from __future__ import annotations

import os
import threading

import numpy as np


# --------------------------------------------------------------- row chunks

# Elements per chunk: a 512 KiB float64 block stays in a core's cache.
_CHUNK = 1 << 16


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call off Linux
        return os.cpu_count() or 1


def _chunk_rows(width: int) -> int:
    """Rows of `width` elements that make one chunk, at least one."""
    return -(-_CHUNK // max(width, 1))


def _per_thread(make):
    """A function that returns the calling thread's own make() result,
    made on that thread's first call: scratch a chunk body reuses across
    the chunks one thread runs."""
    local = threading.local()

    def get():
        try:
            return local.value
        except AttributeError:
            local.value = make()
            return local.value

    return get


def _for_chunks(total: int, step: int, fn) -> None:
    """Call fn(lo, hi) on the consecutive ranges [0, step), [step, 2 step),
    ... that cover range(total).

    With at least two full chunks and more than one CPU the calls run on a
    thread pool made for this call, so no thread outlives it; otherwise
    they run inline, in order. Each call must write only its own rows. A
    chunk that raises cancels the chunks not yet started; once the running
    ones have finished, the exception of the first failed chunk is raised.
    """
    bounds = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    workers = min(_cpu_count(), len(bounds)) if total >= 2 * step else 1
    if workers <= 1:
        for lo, hi in bounds:
            fn(lo, hi)
        return
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    pool = ThreadPoolExecutor(workers)
    try:
        futures = [pool.submit(fn, lo, hi) for lo, hi in bounds]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    for future in futures:
        if not future.cancelled():
            future.result()


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
    x86-64. Each weight row's sums are taken alone, so row chunks give
    the whole-array values.
    """
    w_rows = np.asarray(w_rows, dtype=np.float64)
    t, m = w_rows.shape[0], V.shape[0]
    sq_pos, sq_neg = (V - a_pos) ** 2, (V - a_neg) ** 2
    dp = np.empty((t, m))
    dm = np.empty((t, m))

    def rows(lo, hi):
        # optimize=False (the default) keeps a fixed reduction order, no BLAS call.
        for sq, d in ((sq_pos, dp[lo:hi]), (sq_neg, dm[lo:hi])):
            np.einsum("tj,ij->ti", w_rows[lo:hi], sq, out=d)
            np.sqrt(d, out=d)

    _for_chunks(t, _chunk_rows(m), rows)
    return dp, dm


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
    runs, nor on the chunk boundaries.
    """
    xi = np.asarray(xi, dtype=np.float64)
    t, m = xi.shape
    ranks = np.empty((t, m), dtype=np.int64)

    def rank(lo, hi):
        if m <= _STABLE_MAX_M:
            _rank_stable(xi[lo:hi], np.arange(lo * m + m - 1, hi * m, m), ranks)
        else:
            _rank_fixed_up(xi[lo:hi], ranks[lo:hi])

    _for_chunks(t, _chunk_rows(m), rank)
    return ranks


def _rank_fixed_up(xi, ranks):
    """Rank closeness rows `xi` into the contiguous rows `ranks` with the
    default argsort, then rank again with the stable sort the rows that
    hold a tie."""
    t, m = xi.shape
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
    out = np.empty(int(count), dtype=np.float64)
    _fill_uniforms(seed, start, out, _uniform_scratch(len(out)))
    return out


def _uniform_scratch(count: int):
    """The counter ramp 1, 2, ... and the two uint64 work arrays that
    _fill_uniforms needs for `count` values, one block at a time."""
    ramp = np.arange(1, min(count, _BLOCK) + 1, dtype=np.uint64)
    return ramp, np.empty_like(ramp), np.empty_like(ramp)


def _fill_uniforms(seed: int, start: int, out: np.ndarray, scratch) -> None:
    """Write values start, start + 1, ... of the stream into the 1-D
    float64 array `out`, working in `scratch` from _uniform_scratch(n)
    for some n >= len(out)."""
    count, start = len(out), int(start)
    ramp, z, tmp = scratch
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
