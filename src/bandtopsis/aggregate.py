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
    m = rm.m
    counts = rank_frequency(rm)
    # the first top count is the best rank, i.e. the largest tied score
    modal = m - counts.argmax(axis=1)
    hists = np.zeros((m, m + 1), dtype=np.int64)
    hists[:, 1:] = counts[:, ::-1]  # score = m + 1 - rank
    # integer sums below 2^53, so this equals scores.mean(axis=0) exactly
    mean_scores = hists @ np.arange(m + 1) / rm.t
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
    offsets = np.arange(-1, m * m - 1, m)  # rank r of alternative j -> cell j*m + r-1
    total = np.zeros(m * m, dtype=np.int64)
    lock = threading.Lock()

    def count(lo, hi):
        counts = np.bincount((ranks[lo:hi] + offsets).ravel(), minlength=m * m)
        with lock:
            np.add(total, counts, out=total)

    _for_chunks(t, _chunk_rows(m), count)
    return total.reshape(m, m)
