"""Aggregation of per-iteration rankings into a final order.

Ranks become scores (rank 1 = m points, rank m = 1 point), each
alternative takes the mode of its t scores, and alternatives are ordered
by descending modal score. Ties are resolved deterministically:

* multimodal histogram: the largest tied score wins (best showing);
* equal modal scores between alternatives: higher mean score, then higher
  mean closeness over the iterations, then the lower alternative index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import FinalRanking, RankMatrix, TopsisResult


def build_rank_matrix(results: Sequence[TopsisResult] | np.ndarray) -> RankMatrix:
    """Stack per-iteration rank rows into a t x m matrix.

    Accepts a sequence of evaluation results or a plain rank array.
    """
    if isinstance(results, np.ndarray):
        return RankMatrix(results)
    if len(results) == 0:
        raise ValueError("at least one iteration is required")
    m = results[0].m
    for r in results:
        if r.m != m:
            raise ValueError("all iterations must rank the same number of alternatives")
    return RankMatrix(np.vstack([r.ranks for r in results]))


def _largest_mode(hists: np.ndarray) -> np.ndarray:
    """Index of the top count along the last axis; the largest index wins
    a tie."""
    return hists.shape[-1] - 1 - np.argmax(hists[..., ::-1], axis=-1)


def modal_score(scores: np.ndarray, m: int | None = None) -> tuple[int, np.ndarray]:
    """Mode of one alternative's scores plus the full histogram.

    The histogram is indexed by score (entry 0 unused). When several
    scores share the top frequency the largest one is returned.
    """
    s = np.asarray(scores, dtype=np.int64)
    if s.size == 0:
        raise ValueError("empty score list")
    if m is None:
        m = int(s.max())
    hist = np.bincount(s, minlength=m + 1)
    return int(_largest_mode(hist)), hist


def final_ranking(rm: RankMatrix, closeness_log: np.ndarray) -> FinalRanking:
    """Order alternatives by modal score with the documented tie chain."""
    xi = np.asarray(closeness_log, dtype=float)
    if xi.shape != rm.ranks.shape:
        raise ValueError(
            f"closeness log shape {xi.shape} does not match rank matrix {rm.ranks.shape}"
        )
    m = rm.m
    hists = np.zeros((m, m + 1), dtype=np.int64)
    hists[:, 1:] = rank_frequency(rm)[:, ::-1]  # score = m + 1 - rank
    modal = _largest_mode(hists)
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
    alternative j at rank r. Every row sums to t."""
    m = rm.m
    cells = rm.ranks + np.arange(0, m * m, m) - 1  # cell j*m + r-1 of an m x m grid
    return np.bincount(cells.ravel(), minlength=m * m).reshape(m, m)
