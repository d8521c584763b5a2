"""Hot numeric kernels: batch weighted-distance evaluation, row ranking
and the counter-based uniform stream the weight matrix is drawn from,
plus the row-chunk runner the t-sized stages share and _Rows, the
read-only view over rows that a chunk body computes on demand: a run's
weight rows, closeness and ranks.

Each stage has one numpy implementation, written as a chunk body that
works on a range of rows: the public functions run one body over every
chunk, and ``run_pipeline`` runs one pass in which each chunk is drawn,
scored, ranked and counted while it is in cache. The uniform stream and
the distance kernel avoid whole-array temporaries: the stream is
generated block by block through fixed-size scratch arrays, and the
distance roots are taken in place in their output rows. Each output is
bit-identical to the plain whole-array expression it replaces.

Ranking has one rule for rows of any width: a chunk in which every row
strictly descends along the order of its first row takes that order's
ranks without a sort, which is almost every chunk when the weights come
from a narrow band. Any other chunk is ordered by numpy's default
argsort, and its rows that hold a tie are ranked again by the stable
sort.

The t-sized stages (sampling, distances, ranking, rank counting and the
five-number summaries) work in chunks of about 2^16 elements. A call of
at least two full chunks runs them on as many threads as the process's
CPU affinity allows (``os.sched_getaffinity``, else ``os.cpu_count``);
smaller calls, and every call on one CPU, run the chunks inline in
order. A chunk is computed by the same arithmetic whichever thread runs
it, and no value depends on where a chunk starts, so output bytes do not
depend on the CPU count; what depends on the order of the chunks, as a
carried sum does, is consumed in row order through ``_InOrder``. There
is no setting: ``taskset -c 0`` pins a run to one CPU.
``OMP_NUM_THREADS`` and its kin are not read: they size BLAS and OpenMP
pools, and this package calls neither.
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


class _Rows:
    """A t x k grid as a read-only view whose rows a chunk body computes
    on demand: make() returns fill(lo, hi, out), which writes rows lo:hi,
    at most `step` of them (one chunk, _chunk_rows(k), unless given),
    into the C-contiguous (hi - lo) x k array `out` of type `dtype`.
    The body is made at the first read and kept for the next, with the
    scratch it has made. A read makes a fresh array, in runs of `step`
    rows, which the caller owns.

    A row (an int), a run of rows (a slice of step 1) and np.asarray are
    all it reads; numpy operators and == raise TypeError rather than
    compute the grid unseen."""

    __array_ufunc__ = None  # numpy operators raise TypeError, not compute the grid

    def __init__(self, shape: tuple[int, int], make, dtype=np.float64, step: int | None = None):
        self.shape, self.dtype, self._make, self._fill = shape, np.dtype(dtype), make, None
        self._step = step or _chunk_rows(shape[1])

    def __eq__(self, other):
        raise TypeError("rows take no operators; compare np.asarray(rows)")

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("rows are computed on demand; a copy cannot be avoided")
        out = self._read(range(self.shape[0]))
        return out if dtype is None else out.astype(dtype, copy=False)

    def __getitem__(self, key):
        """Row `key` (an int) or the rows `key` (a slice of step 1) as a
        new array; any other key raises IndexError."""
        try:
            rows = range(self.shape[0])[key]  # an int, or a range for a slice
        except TypeError:
            rows = None
        run = range(rows, rows + 1) if isinstance(rows, int) else rows
        if run is None or run.step != 1:
            raise IndexError(f"rows take a row or a slice of step 1, got {key!r}")
        out = self._read(run)
        return out if run is rows else out[0]

    def _read(self, run: range) -> np.ndarray:
        out = np.empty((len(run), self.shape[1]), self.dtype)
        if self._fill is None:
            self._fill = self._make()
        fill = self._fill
        _for_chunks(len(run), self._step,
                    lambda lo, hi: fill(run.start + lo, run.start + hi, out[lo:hi]))
        return out


class _InOrder:
    """Hands the results of row chunks to consume(lo, hi, rows) in row
    order, whichever threads make them, starting from row 0.

    put(lo, hi, rows) consumes at once if every earlier chunk has been
    consumed and no thread is consuming; otherwise it parks a copy of
    `rows` and returns, and the thread that consumes the chunk before it
    consumes it next. So one thread consumes at a time, and the caller
    may reuse `rows` once put returns.

    At most as many copies are parked as the process has CPUs: a chunk
    that would park one more waits until the consumer moves on. The
    chunk due next never waits, and when the chunks are taken from one
    queue in row order some thread holds it, so every wait ends. A chunk
    that fails must call abandon(): the chunk due next may be the one
    that never comes, so every put waiting or yet to come returns
    without parking."""

    def __init__(self, consume):
        self._consume, self._most = consume, _cpu_count()
        self._moved = threading.Condition()
        self._parked: dict = {}
        self._next = 0
        self._busy = self._abandoned = False

    def put(self, lo: int, hi: int, rows: np.ndarray) -> None:
        with self._moved:
            while lo != self._next and len(self._parked) >= self._most and not self._abandoned:
                self._moved.wait()
            if self._abandoned:
                return
            if self._busy or lo != self._next:
                self._parked[lo] = hi, rows.copy()
                return
            self._busy = True
        while True:
            self._consume(lo, hi, rows)
            with self._moved:
                self._next = lo = hi
                self._moved.notify_all()
                if lo not in self._parked:
                    self._busy = False
                    return
                hi, rows = self._parked.pop(lo)

    def abandon(self) -> None:
        with self._moved:
            self._abandoned = True
            self._moved.notify_all()


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
    distances = _distance_body(V, a_pos, a_neg)
    dp = np.empty((t, m))
    dm = np.empty((t, m))
    _for_chunks(t, _chunk_rows(m), lambda lo, hi: distances(w_rows[lo:hi], dp[lo:hi], dm[lo:hi]))
    return dp, dm


def _distance_body(V, a_pos, a_neg):
    """The distance stage as a chunk body: body(w, dp, dm) writes the
    distances of weight rows `w` into the rows `dp` and `dm`."""
    sq_pos, sq_neg = (V - a_pos) ** 2, (V - a_neg) ** 2

    def body(w, dp, dm):
        # optimize=False (the default) keeps a fixed reduction order, no BLAS call.
        for sq, d in ((sq_pos, dp), (sq_neg, dm)):
            np.einsum("tj,ij->ti", w, sq, out=d)
            np.sqrt(d, out=d)

    return body


# ------------------------------------------------------------------ ranking

def _rank_type(m: int) -> np.dtype:
    """The narrowest unsigned integer type that holds the ranks 1..m:
    uint8 up to m = 255, uint16 up to 65,535. Every rank grid the
    package builds or keeps has this type."""
    return np.min_scalar_type(m)


def _chunk_scratch(t: int, m: int):
    """A function that returns the calling thread's own float64 scratch
    for one chunk of a t x m grid (see _per_thread): at most about
    512 KiB."""
    return _per_thread(lambda: np.empty((min(t, _chunk_rows(m)), m)))


def rank_rows(xi):
    """1-based rank of every closeness row, descending, ties to the
    lower alternative index: the ranks a stable sort of the negated
    values gives. `xi` must hold no NaN; closeness never does.

    The t x m result has the type _rank_type(m): uint8 for m <= 255,
    uint16 up to 65,535. Arithmetic on it stays in that type, so widen
    it first: under NumPy 2's promotion rules (NEP 50) `m + 1 - ranks`
    raises OverflowError at m = 255, where 256 does not fit uint8.

    Rows are ranked a chunk at a time. A chunk in which every row
    strictly descends along the order of the chunk's first row gets
    that order's ranks without a sort. Any other chunk is ordered by
    numpy's default argsort, which may dispatch to an unstable SIMD
    sort. Every sort orders distinct values alike, so only a row holding
    two equal values can differ from the stable order; such rows, found
    by comparing neighbours in sorted order, are ranked again with the
    stable sort. The ranks therefore do not depend on which sort the CPU
    runs, nor on the chunk boundaries.
    """
    xi = np.asarray(xi, dtype=np.float64)
    t, m = xi.shape
    ranks = np.empty((t, m), dtype=_rank_type(m))
    scratch = _chunk_scratch(t, m)
    _for_chunks(t, _chunk_rows(m),
                lambda lo, hi: _rank_chunk(xi[lo:hi], ranks[lo:hi], scratch()))
    return ranks


def _rank_chunk(xi, ranks, scratch):
    """The ranking stage as a chunk body: rank closeness rows `xi` into
    the contiguous rows `ranks`, using the float64 rows `scratch` (at
    least as many as `xi`, of its width). Returns the one rank row every
    row got when the chunk keeps one order, else None."""
    one = _one_order(xi)
    if one is None:
        _rank_fixed_up(xi, ranks, scratch)
    else:
        ranks[...] = one
    return one


def _one_order(xi):
    """The ranks of the first row of `xi` if every row strictly descends
    along that row's order, else None.

    Strict descent leaves no tie for the stable sort to break, so each
    row's stable ranks equal the first row's. The check stops at the
    first pair of neighbouring alternatives that fails it.
    """
    first = xi[0].tolist()
    order = sorted(range(len(first)), key=first.__getitem__, reverse=True)
    for a, b in zip(order, order[1:]):
        if not np.greater(xi[:, a], xi[:, b]).all():
            return None
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(1, len(order) + 1)
    return ranks


def _rank_fixed_up(xi, ranks, scratch):
    """Rank closeness rows `xi` into the contiguous rows `ranks` with the
    default argsort, then rank again with the stable sort the rows that
    hold a tie. The sorted values are taken into `scratch`."""
    t, m = xi.shape
    descending = np.arange(m, 0, -1, dtype=ranks.dtype)
    order = np.argsort(xi, axis=1)
    order += np.arange(0, t * m, m, dtype=order.dtype)[:, None]  # flat indices into xi
    # the indices are in range, and mode="clip" lets take write into `out` unbuffered
    s = np.take(xi.ravel(), order, out=scratch[:t], mode="clip")
    tie = s[:, 1:] == s[:, :-1]
    tied = np.flatnonzero(tie.any(axis=1)) if tie.any() else ()
    ranks.ravel()[order] = descending
    if len(tied):
        # the ascending stable order of a reversed row, read backwards, is the
        # descending order with ties to the lower index, so no negated copy is
        # needed: position k of reversed index r gives alternative m - 1 - r rank m - k
        order = np.argsort(xi[tied, ::-1], axis=1, kind="stable")
        np.subtract((tied * m + m - 1)[:, None], order, out=order)  # flat indices into ranks
        ranks.ravel()[order] = descending


# --------------------------------------------------- counter-based uniforms

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = 0xFFFFFFFFFFFFFFFF

# Counters per block: the block of the output and the uint64 work array
# (256 KiB each) stay in cache while the mixing steps run over them in place.
_BLOCK = 1 << 15


def unit_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Counter-based uniform doubles in [0, 1).

    Value k of the stream is splitmix64 output number start + k for the
    given seed: mix64(seed + (start + k + 1) * 0x9E3779B97F4A7C15),
    taking the top 53 bits as the mantissa. A value depends only on
    (seed, counter), never on evaluation order, so any slice of the
    stream can be regenerated independently and bit-identically on any
    platform.

    The stream is computed in blocks of ``_BLOCK`` values with in-place
    uint64 ufuncs (arithmetic mod 2^64), each block mixed in the result's
    own memory and converted there to doubles; the block size changes
    speed, never a value.
    """
    out = np.empty(int(count), dtype=np.float64)
    _fill_uniforms(seed, start, out, _uniform_scratch(len(out)))
    return out


def _uniform_scratch(count: int):
    """The ramp 0, gamma, 2 * gamma, ... (mod 2^64) and the uint64 work
    array that _fill_uniforms needs for `count` values, one block at a
    time."""
    ramp = np.arange(min(count, _BLOCK), dtype=np.uint64)
    np.multiply(ramp, _GAMMA, out=ramp)
    return ramp, np.empty_like(ramp)


def _fill_uniforms(seed: int, start: int, out: np.ndarray, scratch) -> None:
    """Write values start, start + 1, ... of the stream into the 1-D
    float64 array `out`, working in `scratch` from _uniform_scratch(n)
    for some n >= len(out). Each block is mixed as uint64 words in its
    own place in `out`."""
    count, start = len(out), int(start)
    ramp, tmp = scratch
    for lo in range(0, count, _BLOCK):
        k = min(_BLOCK, count - lo)
        ob = out[lo:lo + k]
        zb, tb = ob.view(np.uint64), tmp[:k]
        # (start + lo + i + 1) * gamma + seed for i = 0..k-1, in one add mod 2^64
        offset = (start + lo + 1) * int(_GAMMA) + int(seed)
        np.add(ramp[:k], np.uint64(offset & _U64), out=zb)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zb, np.uint64(shift), out=tb)
            np.bitwise_xor(zb, tb, out=zb)
            np.multiply(zb, mix, out=zb)
        np.right_shift(zb, np.uint64(31), out=tb)
        np.bitwise_xor(zb, tb, out=zb)
        np.right_shift(zb, np.uint64(11), out=zb)
        # below 2^53 the int64 view holds the same value and converts exactly;
        # cast, then scale, in place: one multiply with the cast would copy
        # the overlapping block first
        ob[...] = zb.view(np.int64)
        np.multiply(ob, 2.0 ** -53, out=ob)
