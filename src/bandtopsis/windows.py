"""Exact order statistics from row chunks that are counted and let go:
the windows of Floyd and Rivest (CACM 18(3), 1975) that give a run's
quartiles without holding its t x n weights or its t x m closeness; the
minimum and the maximum are carried as each column's running extremes.

Each window counts the values equal to its two edges and keeps only
those strictly between them: so a column of one value, as a zero-width
band gives its weights and the closeness, or of a few values, as a band
a few ulps wide gives, keeps counts in its windows, not its rows.

:class:`_Windows` is the one window routine, and its summary() the one
read of both summaries. This module places every window: by the law
the weights are drawn from (:func:`_law_windows`), and in the first
chunk of the closeness (:func:`_chunk_windows`); on a miss
pipeline.RunReport summarizes the whole grid. The values kept are held
and read one quartile at a time, so a read or a placing holds them
once, plus one quartile's grid and a copy of its values. A run whose
pass is one chunk, as a plain `run` of `data/social.csv` is, never
imports this module.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .aggregate import _PICKS, _QUARTILES, _five_numbers, _linear_pick
from .kernels import _per_thread


# A quartile window spans this many standard deviations of sample rank to
# each side of its quantile: a wider one keeps more values, a narrower one
# misses more often; a miss costs time, never a value.
_WINDOW_SIGMAS = 6.0
# Windows placed from a prefix are placed again, inside their own values,
# each time the rows counted reach this many times the rows they were last
# placed from.
_REPICK = 4
# Values of a weight chunk sorted at a time by each thread for its windows:
# half a chunk sorts as fast per value as a whole one, in half the scratch.
_SORTED = 1 << 15


def _window(n: int, q: float) -> tuple[int, int]:
    """First and last sorted index of quantile q's window among n values."""
    half = _WINDOW_SIGMAS * math.sqrt(q * (1 - q) * n)
    at = q * (n - 1)
    return max(0, math.floor(at - half)), min(n - 1, math.ceil(at + half) + 1)


def _law_window(t: int, q: float) -> tuple[float, float]:
    """The window of quartile q among t independent uniform values on
    [0, 1), from their law alone: _WINDOW_SIGMAS standard deviations of
    the sample quantile, and 2/t for the picks' offset, to each side of
    q; clipped to [0, 1], so that no window reaches into the next
    column's keys."""
    half = _WINDOW_SIGMAS * math.sqrt(q * (1 - q) / t) + 2 / t
    return max(0.0, q - half), min(1.0, q + half)


def _narrowed(at, total, below, rows: int, q: float, edges: np.ndarray):
    """The edges of quantile q's windows, narrowed inside their values:
    at(i) gives their order statistics i (clipped into the window), of
    `total` values above `below` counted below them, with `rows` values
    counted in all; `edges` holds their lo and hi on its last axis. Each
    edge moves to the order statistic at its end of _window(rows, q) if
    that lies inside the window, and stays otherwise. Every argument but
    `rows` and `q` may be an array over columns."""
    first, last = _window(rows, q)
    a, b = first - below, last - below
    lo = np.where((0 < a) & (a < total), at(a), edges[..., 0])
    hi = np.where((0 <= b) & (b < total - 1), at(b), edges[..., 1])
    return lo, hi


def _sides(values: np.ndarray, lo, hi):
    """Masks of the values below lo, at lo, at hi and inside (lo, hi), by
    value: a value equal to both edges is at lo."""
    at_lo = values == lo
    return values < lo, at_lo, (values == hi) & ~at_lo, (lo < values) & (values < hi)


def _runs(start: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices of the runs start[i]:start[i] + counts[i], in turn."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(start - ends + counts, counts)


class _Windows:
    """Exact order statistics of the five numbers of k columns of values
    in [0, 1], from row chunks that are counted and let go (Floyd and
    Rivest, CACM 18(3), 1975). Each column has a window [lo, hi] in
    [0, 1] for each quartile of _QUARTILES, held quartile-major: add()
    counts each chunk's values below every window and at each of its
    edges (`ends`, 3 x k x 2), keeps those strictly between them, and
    folds each column's least and greatest value into `low` and `high`;
    stats() reads every order statistic the quartiles need among its
    window's values, or gives None if one fell outside its window, and
    summary() gives the five numbers they and the extremes make. A miss
    costs the caller a whole-grid summary, never a value.

    The windows are placed by _law_windows or _chunk_windows. Given
    `placed`, the rows they were placed from, each window is placed
    again inside its own values (see _narrowed) whenever the rows
    counted reach _REPICK times the rows at the last placing, so the
    values kept grow as the square root of the rows, not as the rows.
    Adds may come from any thread unless the windows are placed again,
    which needs the adds one at a time; what a window keeps does not
    depend on their order.

    A chunk is sorted column-major, in the caller's `scratch()` of two
    float64 arrays of at least k values, a piece of as many rows as they
    hold at a time, and searched once for every window's edges through
    the keys value + 3j of column j, which lie in [3j, 3j + 1] and never
    decrease with its values: a value whose key is below lo's is below
    lo, and one whose key is above hi's is above hi. Rounding may tie
    the keys of distinct values, so a piece between a window's keys
    whose first value is at most lo, or whose last is at least hi, is
    split by value (see _sides); every other piece lies inside. The
    values kept are held per quartile, an array an add, and read one
    quartile at a time, as a k x S grid of each column's window values,
    sorted along its rows, between the values at its edges (see
    _reader); a quartile's arrays are let go as its grid is built."""

    def __init__(self, edges: np.ndarray, scratch, placed: int | None = None):
        self.edges = np.array(edges, dtype=float)  # 3 x k x 2
        k = self.edges.shape[1]
        self.offsets = 3.0 * np.arange(k)
        self.keys = self.edges + self.offsets[:, None]
        self.below = np.zeros(self.edges.shape[:2], dtype=np.int64)
        self.ends = np.zeros(self.edges.shape, dtype=np.int64)  # the values at lo and at hi
        self.kept = [[] for _ in self.edges]  # per quartile: the values kept, window after window
        self.sizes = []  # per add: the 3 x k count of values each window kept
        self.low, self.high = np.full(k, np.inf), np.full(k, -np.inf)  # each column's extremes
        self.rows, self.placed = 0, placed
        self.scratch, self.lock = scratch, threading.Lock()

    def add(self, chunk: np.ndarray) -> None:
        """Count the rows of `chunk`, k wide, in the fewest pieces of
        equal rows that the scratch holds."""
        r, room = len(chunk), len(self.scratch()[0]) // chunk.shape[1]
        step = -(-r // -(-r // room))
        for a in range(0, r, step):
            self._add(chunk[a:a + step])

    def _add(self, chunk: np.ndarray) -> None:
        r, k = chunk.shape
        values, keys = (a[:k * r].reshape(k, r) for a in self.scratch())
        np.copyto(values, chunk.T)
        values.sort(axis=1)
        flat = values.ravel()
        keys = np.add(values, self.offsets[:, None], out=keys).ravel()
        start = np.searchsorted(keys, self.keys[..., 0])
        below = (start - np.arange(0, k * r, r)).ravel()
        start = start.ravel()
        counts = np.searchsorted(keys, self.keys[..., 1].ravel(), side="right") - start
        ends = np.zeros((len(counts), 2), dtype=np.int64)
        lo, hi = self.edges.reshape(-1, 2).T
        cut = np.flatnonzero((counts > 0) & ((flat.take(start, mode="clip") <= lo)
                                             | (flat.take(start + counts - 1, mode="clip") >= hi)))
        if len(cut):  # the pieces that reach an edge, split by value
            c = counts[cut]
            sides = _sides(flat[_runs(start[cut], c)], np.repeat(lo[cut], c), np.repeat(hi[cut], c))
            under, ends[cut, 0], ends[cut, 1], counts[cut] = (
                np.add.reduceat(s, np.cumsum(c) - c, dtype=np.int64) for s in sides)
            below[cut] += under
            start[cut] += under + ends[cut, 0]
        index = _runs(start, counts)
        picks = [0, *np.cumsum(counts.reshape(-1, k).sum(axis=1)).tolist()]
        kept = [flat[index[a:b]] for a, b in zip(picks, picks[1:])]  # an array a quartile
        with self.lock:
            np.minimum(self.low, values[:, 0], out=self.low)
            np.maximum(self.high, values[:, -1], out=self.high)
            self.below += below.reshape(-1, k)
            self.ends += ends.reshape(-1, k, 2)
            for blocks, block in zip(self.kept, kept):
                if len(block):
                    blocks.append(block)
            self.sizes.append(counts.reshape(-1, k))
            self.rows += r
            if self.placed and self.rows >= _REPICK * self.placed:
                self._place_again()

    def _gather(self, p: int):
        """Quartile p's values kept, let go from their arrays as its grid
        is built: a k x S grid, row j the values of column j's window,
        sorted, then the pad 2.0, which lies above every value, in one
        buffer with a copy of the values in add order; and the count of
        values in each row."""
        counts = np.array([c[p] for c in self.sizes])
        size = counts.sum(axis=0)
        n, k, width = size.sum(), len(size), max(size.max(), 1)
        work = np.empty(n + k * width)
        kept, self.kept[p] = np.concatenate([np.empty(0), *self.kept[p]], out=work[:n]), []
        grid = work[n:].reshape(k, width)
        grid.fill(2.0)
        # the values add b kept in column j's window go to row j, after
        # those of the adds before b: their target index steps by one, and
        # jumps where each nonempty run of an add's column starts
        at = (np.arange(k) * width + np.cumsum(counts, axis=0) - counts).ravel()
        c = counts.ravel()
        starts, nonempty = np.cumsum(c) - c, c > 0
        at, c = at[nonempty], c[nonempty]
        target = np.ones(n, np.min_scalar_type(-grid.size))  # numpy casts it in buffers
        target[starts[nonempty]] = at - np.concatenate(([0], at[:-1] + c[:-1] - 1))
        np.cumsum(target, dtype=target.dtype, out=target)
        grid.ravel()[target] = kept
        grid.sort(axis=1)
        return grid, size

    def _reader(self, p: int, grid: np.ndarray, size: np.ndarray):
        """at(i), the order statistics i of quartile p's windows, i of
        shape k or k x 2, among each window's values at lo, the `size`
        values of each row of its sorted `grid` and its values at hi
        (clipped into the window); and the values in each window."""
        (lo, hi), (first, last) = self.edges[p].T, self.ends[p].T
        inside, columns, width = first + size, np.arange(len(grid)), grid.shape[1] - 1

        def at(i):
            i = np.clip(i.T, 0, np.maximum(inside + last - 1, 0))
            kept = grid[columns, np.clip(i - first, 0, width)]
            return np.where(i < first, lo, np.where(i < inside, kept, hi)).T

        return at, inside + last

    def _place_again(self) -> None:
        """Narrow every window inside its values around its quantile of
        the rows counted, one quartile at a time (see _narrow)."""
        self.sizes = [np.array([self._narrow(p, *self._gather(p)) for p in range(len(self.kept))])]
        self.placed = self.rows

    def _narrow(self, p: int, grid: np.ndarray, size: np.ndarray) -> np.ndarray:
        """Narrow quartile p's windows inside their values, as `grid`
        and `size` (see _gather) and the counts at their edges give them;
        by value (see _sides), count those below and at the new edges,
        which lie between the old ones, keep those inside (never a value at
        an old edge) and drop those above. Gives the count each keeps."""
        old = self.edges[p].copy()
        lo, hi = _narrowed(*self._reader(p, grid, size), self.below[p], self.rows, _QUARTILES[p], old)
        self.edges[p, :, 0], self.edges[p, :, 1] = lo, hi
        self.keys[p] = self.edges[p] + self.offsets[:, None]
        sides = _sides(grid, lo[:, None], hi[:, None])
        n = [s.sum(axis=1) + (self.ends[p] * e).sum(axis=1)
             for s, e in zip(sides, _sides(old, lo[:, None], hi[:, None]))]
        self.below[p] += n[0]
        self.ends[p, :, 0], self.ends[p, :, 1] = n[1], n[2]
        self.kept[p].append(grid[sides[3]])
        return n[3]

    def stats(self, t: int) -> np.ndarray | None:
        """The k x 5 x 2 order statistics the five numbers of t values
        read, or None if one fell outside its window; the extremes' pairs
        are (low, low) and (high, high). The windows are read once, one
        quartile at a time (see _gather), each grid let go before the
        next is built; the sort scratch goes first."""
        self.scratch = None
        stats = np.empty((len(self.low), len(_PICKS), 2))
        stats[:, 0], stats[:, -1] = self.low[:, None], self.high[:, None]
        for p, q in enumerate(_QUARTILES):
            rank = np.array(_linear_pick(t, q)[:2]) - self.below[p][:, None]
            at, total = self._reader(p, *self._gather(p))
            if (rank[:, 0] < 0).any() or (rank[:, 1] >= total).any():
                return None
            stats[:, p + 1] = at(rank)
            del at
        return stats

    def summary(self, t: int) -> list[dict[str, float]] | None:
        """min / q1 / median / q3 / max of every column of t values, as
        five_number_columns gives them, or None if an order statistic
        fell outside its window (see stats)."""
        stats = self.stats(t)
        return None if stats is None else _five_numbers(stats, t)


def _law_windows(rwm, most: int) -> _Windows:
    """Quartile windows for every weight column of `rwm`, placed by the
    law of the unit uniforms it is drawn from (see _law_window) and moved
    into its band as the draw moves a uniform, law * width + lower, with
    the same two roundings: each window then holds every weight whose
    uniform lies in the law's. Chunks of at most `most` drawn rows may
    be added from any thread, each thread sorting pieces of up to
    _SORTED values in its own scratch."""
    t, n = rwm.iterations, rwm.bounds.n
    size = max(n, min(n * most, _SORTED))
    law = np.array([_law_window(t, q) for q in _QUARTILES])[:, None]  # 3 x 1 x 2
    edges = law * rwm.bounds.width[:, None] + rwm.bounds.lower[:, None]
    return _Windows(edges, _per_thread(lambda: np.empty((2, size))))


def _chunk_windows(rows: np.ndarray) -> _Windows:
    """Quartile windows for every column of `rows`, the first chunk of a
    pass of more than one, placed in it, sorted down each column, as
    _narrowed places them inside [0, 1]; `rows` is counted, and later
    chunks are added one at a time."""
    first = np.sort(rows, axis=0)
    n, m = first.shape
    edges = np.full((len(_QUARTILES), m, 2), [0.0, 1.0])
    for p, q in enumerate(_QUARTILES):
        edges[p, :, 0], edges[p, :, 1] = _narrowed(
            lambda i: first[np.clip(i, 0, n - 1)], n, 0, n, q, edges[p])
    scratch = np.empty((2, rows.size))  # a sorted chunk and its keys
    windows = _Windows(edges, lambda: scratch, placed=n)
    windows.add(rows)
    return windows
