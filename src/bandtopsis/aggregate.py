"""Aggregation of per-iteration rankings into a final order.

Ranks become scores (rank 1 = m points, rank m = 1 point), each
alternative takes the mode of its t scores, and alternatives are ordered
by descending modal score. Ties are resolved deterministically:

* multimodal histogram: the largest tied score wins (best showing);
* equal modal scores between alternatives: higher mean score, then higher
  mean closeness over the iterations, then the lower alternative index.

The five-number summaries of the weights and the closeness are taken
here too, all read by :func:`_five_numbers` from order statistics: of a
whole column at a time by :func:`five_number_columns`, which sorts it,
and of a run's closeness, with its mean, from the one pass's row chunks
by :class:`_ClosenessPass`, from a sorted prefix that is the whole run
or through the exact windows of :mod:`bandtopsis.windows`, which also
give the weights' summary.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .kernels import _chunk_rows, _for_chunks, _per_thread
from .model import FinalRanking, RankMatrix
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
# The quantiles the five numbers read, from the minimum to the maximum.
_PICKS = (0.0, *_QUARTILES, 1.0)


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
    """min / q1 / median / q3 / max of every column of a t x k array.

    The columns are summarized in chunks (see kernels._for_chunks), each
    column copied into its thread's contiguous buffer, sorted there and
    read by _sorted_stats and _five_numbers, with the arithmetic of
    numpy's 'linear' method, so every value equals
    np.percentile(column, [0, 25, 50, 75, 100]) bit for bit. The one
    exception is the sign of a zero result in a column that holds both
    0.0 and -0.0, which a sort and numpy's select may place differently;
    sampled weights and closeness values are never -0.0.
    """
    table = np.asarray(table, dtype=float)
    t, k = table.shape
    out: list = [None] * k
    buffer = _per_thread(lambda: np.empty(t))

    def columns(first: int, stop: int) -> None:
        buf = buffer()
        for j in range(first, stop):
            np.copyto(buf, table[:, j])
            buf.sort()
            out[j] = _five_numbers(_sorted_stats(buf[:, None]), t)[0]

    _for_chunks(k, _chunk_rows(t), columns)
    return out


def _sorted_stats(grid: np.ndarray) -> np.ndarray:
    """The k x 5 x 2 order statistics that the five numbers of each
    column of the t x k `grid`, sorted down its columns, read."""
    picks = [_linear_pick(len(grid), q)[:2] for q in _PICKS]
    return grid[np.ravel(picks)].T.reshape(-1, len(_PICKS), 2)


def _five_numbers(stats: np.ndarray, t: int) -> list[dict[str, float]]:
    """The five numbers of each column of t values from its 5 x 2 order
    statistics in the k x 5 x 2 `stats`: the two that each quantile of
    _PICKS reads (see _linear_pick), interpolated as numpy's 'linear'
    method does."""
    picks = [_linear_pick(t, q) for q in _PICKS]
    return [{name: _lerp(x, y, g) for name, (x, y), (_, _, g) in zip(_FIVE_NUMBERS, row, picks)}
            for row in stats.tolist()]


# Leading rows the closeness windows are placed from, at least, in whole
# chunks: one chunk of 200-wide rows is 328 rows, and its windows keep most
# values.
_PREFIX_ROWS = 1 << 13


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

    The quartiles come from windows._Windows. The chunks of a prefix, at least
    _PREFIX_ROWS rows, are written into one grid, which is then sorted
    down each alternative's column. If the prefix is the whole run, the
    five numbers are read from it. Otherwise the windows are placed in
    the prefix, as windows._narrowed places them inside a window of [0, 1] that
    holds every value, and the prefix is counted and let go; every chunk
    after it is counted as it comes, and the windows narrow as the rows
    grow. result() gives None for the summaries if an order statistic
    fell outside its window."""

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
            self.windows.add(rows)
        elif hi == self.prefix_rows:
            self.prefix.sort(axis=0)
            if hi < self.t:
                self._open_windows()

    def _open_windows(self) -> None:
        """Place the windows in the sorted prefix, then count the prefix."""
        from .windows import _narrowed, _Windows  # compiled only for runs that need it

        prefix, self.prefix = self.prefix, None
        n, m = prefix.shape
        edges = np.empty((len(_PICKS), m, 2))
        edges[...] = 0.0, 1.0
        for p, q in enumerate(_PICKS):
            edges[p, :, 0], edges[p, :, 1] = _narrowed(
                lambda i: prefix[np.clip(i, 0, n - 1)], n, 0, n, q, edges[p])
        chunk = np.empty((2, m * self.step))  # a sorted chunk and its keys
        self.windows = _Windows(edges, lambda: chunk, placed=n)
        for a in range(0, n, self.step):  # sorted already
            self.windows.add(prefix[a:a + self.step], presorted=True)

    def result(self) -> tuple[np.ndarray, list[dict[str, float]] | None]:
        self.scratch = None
        # with no windows placed, the prefix is the whole closeness, sorted
        stats = _sorted_stats(self.prefix) if self.windows is None else self.windows.stats(self.t)
        return self.sum / self.t, None if stats is None else _five_numbers(stats, self.t)
