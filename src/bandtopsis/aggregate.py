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
by :class:`_ClosenessPass`, through the exact quartile windows and the
running extremes of :mod:`bandtopsis.windows`, opened on the first
chunk and read as the weights' are. A pass of one chunk summarizes both
grids whole with five_number_columns.
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
    read by _five_numbers, with the arithmetic of numpy's 'linear'
    method, so every value equals
    np.percentile(column, [0, 25, 50, 75, 100]) bit for bit. The one
    exception is the sign of a zero result in a column that holds both
    0.0 and -0.0, which a sort and numpy's select may place differently;
    sampled weights and closeness values are never -0.0.
    """
    table = np.asarray(table, dtype=float)
    t, k = table.shape
    out: list = [None] * k
    buffer = _per_thread(lambda: np.empty(t))
    picks = np.ravel([_linear_pick(t, q)[:2] for q in _PICKS])  # the order statistics read

    def columns(first: int, stop: int) -> None:
        buf = buffer()
        for j in range(first, stop):
            np.copyto(buf, table[:, j])
            buf.sort()
            out[j] = _five_numbers(buf[picks].reshape(1, -1, 2), t)[0]

    _for_chunks(k, _chunk_rows(t), columns)
    return out


def _five_numbers(stats: np.ndarray, t: int) -> list[dict[str, float]]:
    """The five numbers of each column of t values from its 5 x 2 order
    statistics in the k x 5 x 2 `stats`: the two that each quantile of
    _PICKS reads (see _linear_pick), interpolated as numpy's 'linear'
    method does."""
    picks = [_linear_pick(t, q) for q in _PICKS]
    return [{name: _lerp(x, y, g) for name, (x, y), (_, _, g) in zip(_FIVE_NUMBERS, row, picks)}
            for row in stats.tolist()]


class _ClosenessPass:
    """The mean closeness and the five-number summary of every
    alternative, taken from the t x m closeness one row chunk at a time
    in row order, so that no t x m grid is held. add(lo, hi, rows) takes
    the C-contiguous float64 closeness of chunk lo:hi, and may change it
    while it runs; result() gives the mean and the summaries, as
    five_number_columns gives them.

    The mean is a carried sum, from 0.0. numpy sums axis 0 of a
    C-contiguous grid row after row, so a chunk whose first row has the
    sum of the rows before it added in reduces to the sum of every row
    to its last, and the mean equals xi.mean(axis=0) bit for bit.

    The five numbers come from the windows of windows._chunk_windows,
    opened on the first chunk of a run of more than one, which count
    every later chunk as it comes. A run of one chunk opens no
    windows, and result() gives no summaries for it (its caller
    summarizes that chunk whole); otherwise it gives the windows'
    summary(), None on a miss."""

    def __init__(self, t: int):
        self.t, self.sum, self.windows = t, 0.0, None

    def add(self, lo: int, hi: int, rows: np.ndarray) -> None:
        # closeness is never -0.0, so adding the first chunk to 0.0 keeps its bits
        first = rows[0].copy()
        rows[0] += self.sum
        self.sum = np.add.reduce(rows, axis=0)
        rows[0] = first
        if lo:
            self.windows.add(rows)
        elif hi < self.t:
            from .windows import _chunk_windows  # compiled only for runs that need it

            self.windows = _chunk_windows(rows)

    def result(self) -> tuple[np.ndarray, list[dict[str, float]] | None]:
        return self.sum / self.t, None if self.windows is None else self.windows.summary(self.t)
