"""Aggregation of per-iteration rankings into a final order.

Ranks become scores (rank 1 = m points, rank m = 1 point), each
alternative takes the mode of its t scores, and alternatives are ordered
by descending modal score. Ties are resolved deterministically:

* multimodal histogram: the largest tied score wins (best showing);
* equal modal scores between alternatives: higher mean score, then higher
  mean closeness over the iterations, then the lower alternative index.

The five-number summaries of the weights and the closeness are taken
here too: of a whole column at a time by :func:`five_number_columns`,
and of the closeness of a run, with its mean, from the row chunks of the
one pass as they are made, by :class:`_ClosenessPass`.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .kernels import _chunk_rows, _for_chunks, _per_thread
from .model import FinalRanking, RankMatrix
from .sampling import _WeightRows
from .summary import _FIVE_NUMBERS


def build_rank_matrix(ranks: np.ndarray) -> RankMatrix:
    """Wrap a t x m array of per-iteration rank rows, checking that every
    row is a permutation of 1..m."""
    return RankMatrix(ranks)


def final_ranking(rm: RankMatrix, closeness_log: np.ndarray) -> FinalRanking:
    """Order alternatives by modal score with the documented tie chain."""
    xi = np.asarray(closeness_log, dtype=float)
    if xi.shape != rm.ranks.shape:
        raise ValueError(
            f"closeness log shape {xi.shape} does not match rank matrix {rm.ranks.shape}"
        )
    return _rank_by_mode(rank_frequency(rm), xi.mean(axis=0))


def _rank_by_mode(counts: np.ndarray, mean_xi: np.ndarray) -> FinalRanking:
    """final_ranking from the occupancy counts of rank_frequency and the
    mean of the closeness they were ranked from."""
    m, t = len(counts), int(counts[0].sum())
    # the first top count is the best rank, i.e. the largest tied score
    modal = m - counts.argmax(axis=1)
    hists = np.zeros((m, m + 1), dtype=np.int64)
    hists[:, 1:] = counts[:, ::-1]  # score = m + 1 - rank
    # integer sums below 2^53, so this equals scores.mean(axis=0) exactly
    mean_scores = hists @ np.arange(m + 1) / t

    order = sorted(
        range(m), key=lambda j: (-modal[j], -mean_scores[j], -mean_xi[j], j)
    )
    positions = np.zeros(m, dtype=np.int64)
    for pos, j in enumerate(order, start=1):
        positions[j] = pos
    return FinalRanking(positions, modal, hists, mean_scores, mean_xi)


def rank_frequency(rm: RankMatrix) -> np.ndarray:
    """Occupancy counts: entry (j, r-1) is how many iterations put
    alternative j at rank r. Every row sums to t.

    The rank grid is counted one row chunk at a time and each chunk's
    integer counts are added to the total as soon as they exist, so
    neither a t x m temporary nor a set of per-chunk counts is held."""
    ranks = rm.ranks
    t, m = ranks.shape
    counts = _RankCounts(m)
    _for_chunks(t, _chunk_rows(m), lambda lo, hi: counts.add(ranks[lo:hi]))
    return counts.grid()


class _RankCounts:
    """The counting stage as a chunk body: occupancy counts that chunks
    running on any thread add to."""

    def __init__(self, m: int):
        self.offsets = np.arange(-1, m * m - 1, m)  # rank r of alternative j -> cell j*m + r-1
        self.total = np.zeros(m * m, dtype=np.int64)
        self.lock = threading.Lock()

    def add(self, ranks: np.ndarray, one: np.ndarray | None = None) -> None:
        """Count the rank rows `ranks`; `one`, if given, is the rank row
        that every one of them equals, so each alternative adds the row
        count at one cell and no row is read."""
        if one is None:
            counts = np.bincount((ranks + self.offsets).ravel(), minlength=self.total.size)
            with self.lock:
                np.add(self.total, counts, out=self.total)
        else:
            with self.lock:
                self.total[self.offsets + one] += len(ranks)

    def grid(self) -> np.ndarray:
        m = len(self.offsets)
        return self.total.reshape(m, m)


# ------------------------------------------------------- five-number summaries

_QUARTILES = (0.25, 0.5, 0.75)


def _linear_pick(n: int, q: float) -> tuple[int, int, float]:
    """Order statistics and weight of quantile q among n sorted values,
    as numpy's default 'linear' method picks them: virtual index
    (n - 1) * q, its floor and the next index, and the fractional part.
    At or past the last index numpy moves both picks to index -1 before
    taking the weight, so the weight is then index + 1."""
    v = (n - 1) * q
    if v >= n - 1:
        return n - 1, n - 1, v + 1
    lo = math.floor(v)
    return lo, lo + 1, v - lo


def _lerp(a: float, b: float, g: float) -> float:
    """numpy's quantile interpolation between neighbours a <= b."""
    diff = b - a
    return b - diff * (1 - g) if g >= 0.5 else a + diff * g


def five_number_columns(table) -> list[dict[str, float]]:
    """min / q1 / median / q3 / max of every column of a t x k array, or
    of the weight rows of a RandomWeightMatrix.

    The columns are summarized in chunks (see kernels._for_chunks), each
    column put into its thread's contiguous buffer: a table's column is
    copied, and a weight column is regenerated alone by the rows view's
    columns(), so no t x n weight grid is drawn.
    Only the order statistics the five values read are put in place:
    three single-k partitions place the median's, then the lower
    quartile's below it and the upper quartile's above it, and the
    minimum and maximum are swapped to the ends. A value one past a
    placed index is the least value before the next placed one. The
    five values are then read with the arithmetic of numpy's 'linear'
    method, so every value equals
    np.percentile(column, [0, 25, 50, 75, 100]) bit for bit, whichever
    select algorithm the CPU runs. The one exception is the sign of a
    zero result in a column that holds both 0.0 and -0.0, which this
    select and numpy's may pick differently; sampled weights and
    closeness values are never -0.0.
    """
    if isinstance(table, _WeightRows):
        fill = table.columns()
    else:
        table = np.asarray(table, dtype=float)

        def fill(j: int, buf: np.ndarray) -> None:
            np.copyto(buf, table[:, j])

    t, k = table.shape
    picks = [_linear_pick(t, q) for q in (0.0, *_QUARTILES, 1.0)]
    k1, k2, k3 = (lo for lo, _, _ in picks[1:4])
    placed = sorted({0, k1, k2, k3, t - 1})
    following = dict(zip(placed, placed[1:]))
    out: list = [None] * k
    buffer = _per_thread(lambda: np.empty(t))

    def columns(first: int, stop: int) -> None:
        buf = buffer()

        def stat(i: int) -> float:
            """Order statistic i of the buffer: a placed index, or one past one."""
            if i in placed:
                return float(buf[i])
            return float(buf[i:following[i - 1] + 1].min())

        for j in range(first, stop):
            fill(j, buf)
            # one k per call: numpy may run a SIMD select for a single k, which on an
            # AVX-512 CPU took 2 ms per 10^6 values against 15 ms for partition([k, k + 1])
            buf.partition(k2)
            if k1 < k2:
                buf[:k2].partition(k1)
            if k3 > k2:
                buf[k2 + 1:].partition(k3 - k2 - 1)
            low, high = buf[:k1 + 1], buf[k3:]
            p = low.argmin()
            low[[0, p]] = low[[p, 0]]
            p = high.argmax()
            high[[-1, p]] = high[[p, -1]]
            out[j] = {
                name: _lerp(stat(lo), stat(hi), g)
                for name, (lo, hi, g) in zip(_FIVE_NUMBERS, picks)
            }

    _for_chunks(k, _chunk_rows(t), columns)
    return out


# A quartile window spans this many standard deviations of sample rank to
# each side of the prefix's order statistic: a wider one keeps more values,
# a narrower one misses more often; a miss costs time, never a value.
_WINDOW_SIGMAS = 6.0
# Leading rows the windows are picked from, at least, in whole chunks: one
# chunk of 200-wide rows is 328 rows, and its windows keep most values.
_PREFIX_ROWS = 1 << 13


def _window(n: int, q: float) -> tuple[int, int]:
    """First and last sorted index of quantile q's window among n values."""
    half = _WINDOW_SIGMAS * math.sqrt(q * (1 - q) * n)
    at = q * (n - 1)
    return max(0, math.floor(at - half)), min(n - 1, math.ceil(at + half) + 1)


class _ClosenessPass:
    """The mean closeness and the five-number summary of every
    alternative, taken from the t x m closeness one row chunk at a time
    in row order, so that no t x m grid is held. rows(lo, hi) gives the
    C-contiguous float64 rows that chunk lo:hi's closeness is to be
    written into; add(lo, hi, rows) then takes them, and may change
    them. result() gives the mean and the summaries, as
    five_number_columns gives them.

    The mean is a carried sum. numpy sums axis 0 of a C-contiguous grid
    row after row, so a chunk whose first row has the sum of the rows
    before it added in reduces to the sum of every row to its last, and
    the mean equals xi.mean(axis=0) bit for bit.

    The quartiles are exact order statistics read from windows (Floyd
    and Rivest, CACM 18(3), 1975). The chunks of a prefix, at least
    _PREFIX_ROWS rows, are written into one grid, which is then sorted
    down each alternative's column. If the prefix is the whole run, the
    five numbers are read from it. Otherwise a window of values is
    picked around each quartile's order statistics in the prefix,
    _WINDOW_SIGMAS standard deviations of sample rank to each side, and
    the prefix is let go. Every chunk, the prefix's too, is then sorted
    alternative-major: the values below each window are counted and
    those inside it kept, and the least two values and the largest are
    kept exactly. result() reads each order statistic among its window's
    values, or gives None for the summaries if one fell outside its
    window.

    A sorted chunk is searched once for every alternative's window edges,
    through the keys value + 3j of alternative j: closeness lies in
    [0, 1], so alternative j's keys lie in [3j, 3j + 1], in value order.
    Rounding may tie two keys; a value whose key ties an edge's counts as
    inside, so every value counted below a window still lies below every
    value kept in it, and each order statistic is read exactly."""

    def __init__(self, t: int, m: int, step: int):
        self.t, self.step = t, min(t, step)
        self.prefix_rows = min(t, -(-max(step, _PREFIX_ROWS) // step) * step)
        self.prefix = np.empty((self.prefix_rows, m))
        self.scratch = _per_thread(lambda: np.empty((self.step, m)))
        self.windows = None

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The prefix's own rows lo:hi, or the calling thread's scratch."""
        if hi <= self.prefix_rows:  # the prefix is held until these rows are added
            return self.prefix[lo:hi]
        return self.scratch()[:hi - lo]

    def add(self, lo: int, hi: int, rows: np.ndarray) -> None:
        if lo:
            first = rows[0].copy()
            rows[0] += self.sum
            self.sum = np.add.reduce(rows, axis=0)
            rows[0] = first
        else:
            self.sum = np.add.reduce(rows, axis=0)
        if self.windows is not None:
            values = self._values(rows.T)
            values.sort(axis=1)
            self._count(values)
        elif hi == self.prefix_rows:
            self.prefix.sort(axis=0)
            if hi < self.t:
                self._open_windows()

    def _open_windows(self) -> None:
        """Pick the windows from the sorted prefix, then count the prefix."""
        prefix, self.prefix = self.prefix, None
        n, m = prefix.shape
        self.sorted = np.empty((2, m * self.step))  # a sorted chunk and its keys
        self.offsets = 3.0 * np.arange(m)[:, None]
        first, last = zip(*(_window(n, q) for q in _QUARTILES))
        self.windows = prefix[list(first)].T + self.offsets, prefix[list(last)].T + self.offsets
        self.below = np.zeros((m, len(_QUARTILES)), dtype=np.int64)
        self.kept = []  # per chunk: the values inside the windows, and how many per window
        self.least, self.most = np.empty((m, 0)), np.zeros(m)
        for a in range(0, n, self.step):  # sorted already
            self._count(self._values(prefix[a:a + self.step].T))

    def _values(self, chunk: np.ndarray) -> np.ndarray:
        """A contiguous copy of an m x r chunk, in scratch."""
        m, r = chunk.shape
        values = self.sorted[0, :m * r].reshape(m, r)
        np.copyto(values, chunk)
        return values

    def _count(self, values: np.ndarray) -> None:
        """Count and keep the values of a sorted m x r chunk, in scratch,
        against the windows."""
        m, r = values.shape
        keys = np.add(values, self.offsets, out=self.sorted[1, :m * r].reshape(m, r)).ravel()
        start = np.searchsorted(keys, self.windows[0])
        stop = np.searchsorted(keys, self.windows[1], side="right")
        self.below += start - np.arange(0, m * r, r)[:, None]
        counts = (stop - start).ravel()
        ends = np.cumsum(counts)
        inside = np.arange(ends[-1]) + np.repeat(start.ravel() - ends + counts, counts)
        self.kept.append((values.ravel()[inside], counts))
        self.least = np.sort(np.hstack([self.least, values[:, :2]]), axis=1)[:, :2]
        np.maximum(self.most, values[:, -1], out=self.most)

    def result(self) -> tuple[np.ndarray, list[dict[str, float]] | None]:
        picks = [_linear_pick(self.t, q) for q in (0.0, *_QUARTILES, 1.0)]
        self.scratch = self.sorted = None
        if self.windows is None:  # the prefix is the whole closeness, sorted
            stats = self.prefix[[k for pick in picks for k in pick[:2]]].T
        else:
            stats = self._read_windows(picks)
        mean = self.sum / self.t
        if stats is None:
            return mean, None
        return mean, [{name: _lerp(x, y, g)
                       for name, (x, y), (_, _, g) in zip(_FIVE_NUMBERS, row, picks)}
                      for row in stats.reshape(len(stats), -1, 2).tolist()]

    def _read_windows(self, picks) -> np.ndarray | None:
        """The order statistics each pick reads, m x 10: each quartile's
        from its window, the extremes from those kept; None if one fell
        outside its window."""
        m = len(self.below)
        counts = np.array([c for _, c in self.kept])
        size = counts.sum(axis=0)
        # rank of each quartile's two order statistics among its window's values
        rank = np.array([p[:2] for p in picks[1:4]]) - self.below[:, :, None]
        if not ((rank >= 0) & (rank < size.reshape(m, -1, 1))).all():
            return None
        # every chunk's values of one window, window after window
        start = np.cumsum(size) - size
        values = np.empty(size.sum())
        for (kept, c), at in zip(self.kept, start + np.cumsum(counts, axis=0) - counts):
            ends = np.cumsum(c)
            values[np.arange(len(kept)) + np.repeat(at - ends + c, c)] = kept
        self.kept = None
        stats = []
        for a, n, (i, k) in zip(start, size, rank.reshape(-1, 2).tolist()):
            window = values[a:a + n]
            window.partition(i)
            stats.append((window[i], window[i] if k == i else window[k:].min()))
        most = self.most[:, None]
        return np.hstack([self.least, np.reshape(stats, (m, -1)), most, most])
