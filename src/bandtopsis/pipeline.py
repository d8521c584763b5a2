"""End-to-end orchestration: weights -> bounds -> sampling -> batch
ranking -> aggregation, keeping what the outputs are made from."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import _ClosenessPass, _rank_by_mode, _RankCounts, five_number_columns
from .base import ComputationError
from .kernels import _chunk_rows, _for_chunks, _InOrder, _per_thread, _rank_type, _Rows
from .model import (
    DecisionMatrix,
    FinalRanking,
    NamedWeightSet,
    RankMatrix,
    RunConfig,
    WeightBounds,
    _readonly,
    validate_problem,
)
from .sampling import RandomWeightMatrix, _draw_body, compute_bounds
from .topsis import _score_body
from .weighting import critic_weights, entropy_weights, normalize_custom_set


@dataclass(frozen=True)
class RunReport:
    """Everything a run produced, sufficient to re-derive every output
    file. Re-running with the echoed config reproduces it exactly.

    `rank_matrix`, `final`, `closeness_summary` and `rwm_summary` are
    filled by one pass over row chunks (the summaries through windows
    that its drawn weights and their closeness are added to) and equal,
    bit for bit, what batch_topsis, final_ranking and
    five_number_columns give on the rows of `rwm`.
    Neither the weight rows nor the closeness are held. `rwm`
    describes the draw (bounds, t and seed), and its `rows` view draws a
    row, a run of rows or the whole grid bit for bit. `closeness` is a
    read-only view of the t x m closeness in the same way:
    `closeness[i]` and `closeness[lo:hi]` draw and score only those rows,
    through bodies the view makes at its first read and keeps, and
    np.asarray(closeness) computes the whole grid, which the caller then
    holds. A report built from a closeness array holds a write-locked
    copy of it instead. A report given no `closeness_summary` or no
    `rwm_summary`, as one built from its parts or one whose pass had an
    order statistic fall outside its window, computes that grid whole
    and takes the summary from five_number_columns: this is the one
    place a missing summary is made.

    A chunk whose rows all keep one order is ranked and counted without a
    sort; its ranks are the ones the stable sort would give.
    `rank_matrix.ranks` is a read-only view too, but of ranks the pass
    kept: one rank row for each chunk in one order, which is almost every
    chunk when the band is narrow, and a copy of the chunk's rank rows
    for any other chunk. It reads a row, a run of rows and np.asarray,
    each a new array, as closeness does. The ranks have the narrowest
    unsigned type that holds m: uint8 up to m = 255, so one byte per
    rank, and uint16 up to 65,535. Widen them before arithmetic: under
    NumPy 2's promotion rules (NEP 50) `m + 1 - ranks` raises
    OverflowError at m = 255."""

    matrix: DecisionMatrix
    config: RunConfig
    weight_sets: tuple[NamedWeightSet, ...]
    bounds: WeightBounds
    rwm: RandomWeightMatrix
    closeness: np.ndarray | _Rows  # t x m
    rank_matrix: RankMatrix
    final: FinalRanking
    closeness_summary: list[dict[str, float]] | None = None  # per alternative
    rwm_summary: list[dict[str, float]] | None = None  # per criterion

    def __post_init__(self):
        if not isinstance(self.closeness, _Rows):
            object.__setattr__(self, "closeness", _readonly(self.closeness, float))
        if self.rwm_summary is None:
            object.__setattr__(self, "rwm_summary", five_number_columns(np.asarray(self.rwm.rows)))
        if self.closeness_summary is None:
            object.__setattr__(self, "closeness_summary",
                               five_number_columns(np.asarray(self.closeness)))

    def weight_table(self) -> list[tuple[str, np.ndarray]]:
        """Display rows: each contributing set, then the band envelope."""
        return _weight_rows(self.weight_sets, self.bounds)


def _weight_rows(sets, bounds: WeightBounds) -> list[tuple[str, np.ndarray]]:
    """(name, weights) of each contributing set, then `lower` and `upper`."""
    return [(s.name, s.weights) for s in sets] + [("lower", bounds.lower), ("upper", bounds.upper)]


def collect_weight_sets(matrix: DecisionMatrix, config: RunConfig) -> list[NamedWeightSet]:
    """Objective weighters (as enabled) plus normalized custom sets."""
    sets: list[NamedWeightSet] = []
    if config.include_entropy:
        sets.append(entropy_weights(matrix).weights)
    if config.include_critic:
        sets.append(critic_weights(matrix).weights)
    for k, raw in enumerate(config.custom_sets, start=1):
        sets.append(normalize_custom_set(raw, matrix.n, name=f"custom {k}"))
    if not sets:
        raise ComputationError(
            "no weight sets: both objective weighters are disabled and no custom sets given"
        )
    return sets


def run_pipeline(matrix: DecisionMatrix, config: RunConfig | None = None) -> RunReport:
    """Validate the problem and run the full randomized-band ranking.

    The t-sized stages run as one pass over row chunks: each chunk's
    weight rows are drawn into the calling thread's chunk scratch, then
    scored, ranked and counted while they are in cache, by the same
    chunk bodies that np.asarray(rwm.rows), batch_topsis and
    rank_frequency run alone. The chunk's weight rows go to the
    rwm_summary windows (see windows._law_windows), and its closeness,
    in scratch too, goes in row order to the mean and the windows of
    _ClosenessPass, which opens them on the first chunk; both summaries
    are read by the windows' summary(). A pass of one chunk summarizes
    its weight rows and its closeness whole instead, and opens no
    windows. A chunk's ranks, ranked in scratch, are kept as one row if
    the chunk keeps one order and as a copy otherwise. No t x n weight
    grid, no t x m closeness grid and no t x m rank grid is held; only
    if an order statistic falls outside its window is that grid
    computed, whole, by RunReport.
    """
    config = config or RunConfig()
    validate_problem(matrix, config)
    sets = collect_weight_sets(matrix, config)
    bounds = compute_bounds(sets)
    rwm = RandomWeightMatrix(bounds, config.iterations, config.seed)
    ranks, counts, closeness, windows, whole = _one_pass(matrix, rwm)
    mean, summaries = closeness.result()  # the pass's chunk scratch is gone by now
    if windows is None:
        weights, summaries = whole
    else:
        weights = windows.summary(rwm.iterations)
    return RunReport(matrix, config, tuple(sets), bounds, rwm, _closeness_rows(matrix, rwm),
                     RankMatrix(ranks), _rank_by_mode(counts, mean), summaries, weights)


def _one_pass(matrix: DecisionMatrix, rwm: RandomWeightMatrix):
    """The pass of run_pipeline: the t x m ranks as a view over the rank
    rows each chunk kept (see _chunk_ranks), their occupancy counts, the
    _ClosenessPass that took every chunk's closeness, and the weight
    windows that took every chunk's drawn weights; or, for a pass of one
    chunk, no windows but the five numbers of the weights and of the
    closeness, taken from that chunk's rows whole."""
    t, m, step = rwm.iterations, matrix.m, _chunk_rows(matrix.m)
    # first, so that a t too large for memory fails before the pass starts
    table, kept = np.empty((-(-t // step), m), dtype=_rank_type(m)), {}
    most = min(t, step)
    windows, whole = None, []
    if t > step:  # one chunk holds every weight row at once; windows would only add memory
        from .windows import _law_windows

        windows = _law_windows(rwm, most)
    draw, score = _draw_body(rwm, most), _score_body(matrix, most)
    scratch = _per_thread(lambda: (np.empty((most, rwm.bounds.n)), np.empty((most, m)),
                                   np.empty((most, m), table.dtype)))
    counts, closeness = _RankCounts(m), _ClosenessPass(t)
    ordered = _InOrder(closeness.add)

    def chunk(lo, hi):
        try:
            weights, xi, ranks = (a[:hi - lo] for a in scratch())
            draw(lo, hi, weights)
            one = score(weights, xi, ranks)
            if windows is None:
                whole[:] = five_number_columns(weights), five_number_columns(xi)
            else:
                windows.add(weights)
            counts.add(ranks, one)
            if one is None:
                kept[lo // step] = ranks.copy()
            else:
                table[lo // step] = one
            ordered.put(lo, hi, xi)
        except BaseException:
            ordered.abandon()
            raise

    _for_chunks(t, step, chunk)
    return _chunk_ranks(t, step, table, kept), counts.grid(), closeness, windows, whole


def _chunk_ranks(t: int, step: int, table: np.ndarray, kept: dict) -> _Rows:
    """The t x m ranks of a pass in chunks of `step` rows as a read-only
    view (see _Rows): chunk c's rows are kept[c], or, for a chunk that
    keeps one order, as almost every chunk does when the band is
    narrow, row c of `table` repeated. A read copies, one run at a time
    on the calling thread."""

    def fill(lo, hi, out):
        for c in range(lo // step, (hi - 1) // step + 1):
            a, b = max(lo, c * step), min(hi, c * step + step)
            rows = kept.get(c)
            out[a - lo:b - lo] = table[c] if rows is None else rows[a - c * step:b - c * step]

    return _Rows((t, table.shape[1]), lambda: fill, table.dtype, t)


def _closeness_rows(matrix: DecisionMatrix, rwm: RandomWeightMatrix) -> _Rows:
    """The t x m closeness of a run as a read-only view (see _Rows): each
    chunk of rows is drawn into the calling thread's scratch and scored,
    by draw and score bodies made once, at the view's first read."""
    t, m = rwm.iterations, matrix.m

    def body():
        most = min(t, _chunk_rows(m))
        draw, score = _draw_body(rwm, most), _score_body(matrix, most)
        scratch = _per_thread(lambda: np.empty((most, rwm.bounds.n)))

        def fill(lo, hi, out):
            weights = scratch()[:hi - lo]
            draw(lo, hi, weights)
            score(weights, out)

        return fill

    return _Rows((t, m), body)
