"""Aggregation of per-iteration rankings into a final order.

Ranks become scores (rank 1 = m points, rank m = 1 point), each
alternative takes the mode of its t scores, and alternatives are ordered
by descending modal score. Ties are resolved deterministically:

* multimodal histogram: the largest tied score wins (best showing);
* equal modal scores between alternatives: higher mean score, then higher
  mean closeness over the iterations, then the lower alternative index.
"""

from __future__ import annotations

import threading

import numpy as np

from .kernels import _chunk_rows, _for_chunks
from .model import FinalRanking, RankMatrix


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
    return _rank_by_mode(rank_frequency(rm), xi)


def _rank_by_mode(counts: np.ndarray, xi: np.ndarray) -> FinalRanking:
    """final_ranking from the occupancy counts of rank_frequency and the
    t x m closeness they were ranked from."""
    t, m = xi.shape
    # the first top count is the best rank, i.e. the largest tied score
    modal = m - counts.argmax(axis=1)
    hists = np.zeros((m, m + 1), dtype=np.int64)
    hists[:, 1:] = counts[:, ::-1]  # score = m + 1 - rank
    # integer sums below 2^53, so this equals scores.mean(axis=0) exactly
    mean_scores = hists @ np.arange(m + 1) / t
    mean_xi = xi.mean(axis=0)

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
