import json

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtopsis import (
    ComputationError,
    RankMatrix,
    RunConfig,
    RunReport,
    ValidationError,
    batch_topsis,
    build_summary,
    collect_weight_sets,
    compute_bounds,
    final_ranking,
    kernels,
    run_pipeline,
    sample_weight_matrix,
    topsis_run,
)
from bandtopsis import aggregate, topsis, windows
from bandtopsis.aggregate import five_number_columns
from conftest import REF_POSITIONS, SOCIAL_DIRECTIONS, SOCIAL_VALUES, make_matrix


def test_social_run_reproduces_reference_ranking(social_matrix):
    cfg = RunConfig(custom_sets=((0.05,) * 12,))
    report = run_pipeline(social_matrix, cfg)
    assert report.final.positions.tolist() == REF_POSITIONS
    assert report.rwm.rows.shape == (10_000, 12)
    assert report.closeness.shape == (10_000, 6)
    names = [name for name, _ in report.weight_table()]
    assert names == ["entropy", "critic", "custom 1", "lower", "upper"]


def test_degenerate_single_set_run_equals_single_evaluation(social_matrix):
    w = tuple([1.0 / 12] * 12)
    cfg = RunConfig(
        iterations=1, include_entropy=False, include_critic=False, custom_sets=(w,)
    )
    report = run_pipeline(social_matrix, cfg)
    single = topsis_run(social_matrix, np.array(w))
    assert np.allclose(report.closeness[0], single.closeness, atol=1e-12)
    assert np.array_equal(report.rank_matrix.ranks[0], single.ranks)
    assert report.final.positions.tolist() == single.ranks.tolist()
    # zero-width bounds: the sampled row is the set itself
    assert np.allclose(report.rwm.rows[0], w, atol=1e-15)


def test_rerun_with_same_seed_is_identical(social_matrix):
    cfg = RunConfig(iterations=500, seed=4242, custom_sets=((0.05,) * 12,))
    a = run_pipeline(social_matrix, cfg)
    b = run_pipeline(social_matrix, cfg)
    assert np.array_equal(a.rwm.rows, b.rwm.rows)
    assert np.array_equal(a.closeness, b.closeness)
    assert np.array_equal(a.rank_matrix.ranks, b.rank_matrix.ranks)
    assert np.array_equal(a.final.positions, b.final.positions)


def test_no_weight_sets_rejected(social_matrix):
    cfg = RunConfig(include_entropy=False, include_critic=False)
    with pytest.raises(ValueError, match="no weight sets"):
        run_pipeline(social_matrix, cfg)


def test_invalid_problem_rejected_with_all_violations():
    matrix = make_matrix([[1.0, np.nan]], ["max", "min"])
    with pytest.raises(ValidationError) as err:
        run_pipeline(matrix, RunConfig())
    assert len(err.value.violations) == 2


def test_custom_sets_are_rescaled(social_matrix):
    cfg = RunConfig(iterations=10, custom_sets=((2.0,) * 12,))
    report = run_pipeline(social_matrix, cfg)
    custom = report.weight_sets[2]
    assert np.allclose(custom.weights, 1 / 12)


_SCALE_CFG = RunConfig(iterations=500, seed=42, custom_sets=((0.05,) * 12,))
_SCALE_REF = build_summary(run_pipeline(make_matrix(SOCIAL_VALUES, SOCIAL_DIRECTIONS), _SCALE_CFG))


@given(st.integers(0, 11), st.integers(-1000, 1000))
@settings(max_examples=60, deadline=None)
def test_power_of_two_column_scale_leaves_summary_unchanged(j, k):
    # every stage is invariant to a positive column scale, and 2^k is exact
    values = SOCIAL_VALUES.copy()
    values[:, j] = np.ldexp(values[:, j], k)
    scaled = build_summary(run_pipeline(make_matrix(values, SOCIAL_DIRECTIONS), _SCALE_CFG))
    assert scaled == _SCALE_REF


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "j, k",
    [
        pytest.param(2, 1023, id="benefit-g3-times-2^1023"),
        pytest.param(7, -1000, id="cost-g8-times-2^-1000"),
    ],
)
def test_extreme_power_of_two_column_scale_leaves_summary_unchanged(j, k):
    # near the top of the double range the entropy column sum must not overflow
    values = SOCIAL_VALUES.copy()
    values[:, j] = np.ldexp(values[:, j], k)
    scaled = build_summary(run_pipeline(make_matrix(values, SOCIAL_DIRECTIONS), _SCALE_CFG))
    assert scaled == _SCALE_REF


@pytest.mark.parametrize("wide", [False, True], ids=["social", "13-wide-a13-equals-a2"])
def test_pipeline_rank_rows_are_permutations(wide):
    # RankMatrix takes the pipeline's ranks without re-checking them. The wide
    # problem goes through the SIMD sort, and its repeated alternative ties in
    # every row, so every row also takes the stable fix-up.
    values = SOCIAL_VALUES
    if wide:
        values = np.vstack([SOCIAL_VALUES, SOCIAL_VALUES * 0.9, SOCIAL_VALUES[1]])
    cfg = RunConfig(iterations=3000, seed=7, custom_sets=((0.05,) * 12,))
    ranks = np.asarray(run_pipeline(make_matrix(values, SOCIAL_DIRECTIONS), cfg).rank_matrix.ranks)
    m = values.shape[0]
    assert np.array_equal(np.sort(ranks, axis=1), np.broadcast_to(np.arange(1, m + 1), ranks.shape))
    if wide:  # equal closeness: the lower index ranks first
        assert np.all(ranks[:, 12] == ranks[:, 1] + 1)


def _report_arrays(report):
    return [np.asarray(a).tobytes() for a in (
        report.rwm.rows, report.closeness, report.rank_matrix.ranks, report.final.positions,
        report.final.modal_scores, report.final.score_histograms, report.final.mean_scores,
        report.final.mean_closeness)]


_PROBLEMS = {
    # seed 1 puts one of the 20,000 rows in a second order
    "social-two-orders": SOCIAL_VALUES,
    # a7 equals a2, so every row holds a tie
    "7-narrow-a7-equals-a2": np.vstack([SOCIAL_VALUES, SOCIAL_VALUES[1]]),
    "13-wide": np.vstack([SOCIAL_VALUES, SOCIAL_VALUES * 0.9, SOCIAL_VALUES[1]]),
}


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("problem", sorted(_PROBLEMS))
def test_one_pass_equals_the_public_stages_in_turn(cpus, problem, monkeypatch):
    # small chunks: many chunks keep one order, and the others do not
    monkeypatch.setattr(kernels, "_CHUNK", 1 << 9)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    matrix = make_matrix(_PROBLEMS[problem], SOCIAL_DIRECTIONS)
    cfg = RunConfig(iterations=20_000, seed=1, custom_sets=((0.05,) * 12,))
    fused = run_pipeline(matrix, cfg)

    bounds = compute_bounds(collect_weight_sets(matrix, cfg))
    rwm = sample_weight_matrix(bounds, cfg.iterations, cfg.seed)
    xi, ranks = batch_topsis(matrix, np.asarray(rwm.rows))
    rm = RankMatrix(ranks)
    staged = type(fused)(matrix, cfg, fused.weight_sets, bounds, rwm, xi, rm,
                         final_ranking(rm, xi))
    assert _report_arrays(fused) == _report_arrays(staged)
    assert build_summary(fused) == build_summary(staged)
    if problem == "social-two-orders":
        assert len(np.unique(ranks, axis=0)) == 2


def test_a_run_on_a_narrow_band_holds_no_t_sized_array(social_matrix, monkeypatch):
    # on one CPU the peak is deterministic: one thread's chunk scratch (the
    # chunk's weight rows, 1 MiB, its float64 closeness and distances and
    # the sorted first chunk the closeness windows are placed in, 512 KiB
    # each, its ranks, 64 KiB, the uniform stream's blocks,
    # 512 KiB, the sorted chunks and their keys for the weight and the
    # closeness windows, 1 MiB each, and the argsort order of a chunk not in
    # one order, 512 KiB); the ranks the pass keeps, one row for each chunk
    # in one order and 64 KiB for each other chunk; and the values the
    # windows keep, which grow as the square root of t: allowed 8 MiB in
    # all. No t x n weight grid, no t x m closeness grid, no t x m rank grid
    # and no t-sized share of any of them is held
    import tracemalloc

    monkeypatch.setattr(kernels, "_cpu_count", lambda: 1)
    cfg = RunConfig(iterations=200_000, custom_sets=((0.05,) * 12,))
    run_pipeline(social_matrix, RunConfig(iterations=100))  # imports and caches
    tracemalloc.start()
    try:
        report = run_pipeline(social_matrix, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.rank_matrix.ranks.dtype == np.uint8
    assert peak <= 8 * 2 ** 20


def test_pass_summaries_hold_memory_that_barely_grows_with_t(social_matrix, monkeypatch):
    # on one CPU: the peak of run_pipeline and build_summary; the windows
    # keep values that grow as the square root of t, and the pass keeps the
    # rank rows of the few chunks not in one order, so ten times the rows
    # add under 4 MiB
    import tracemalloc

    monkeypatch.setattr(kernels, "_cpu_count", lambda: 1)
    build_summary(run_pipeline(social_matrix, RunConfig(iterations=100)))  # imports and caches
    peaks = []
    for t in (200_000, 2_000_000):
        cfg = RunConfig(iterations=t, custom_sets=((0.05,) * 12,))
        tracemalloc.start()
        try:
            build_summary(run_pipeline(social_matrix, cfg))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4 * 2 ** 20


def test_pass_summaries_leave_build_summary_little_to_allocate(social_matrix, monkeypatch):
    # on one CPU: a pass-built report carries both five-number summaries, so
    # build_summary draws nothing and holds no t-sized buffer; allowed 256 KiB
    import tracemalloc

    monkeypatch.setattr(kernels, "_cpu_count", lambda: 1)
    report = run_pipeline(social_matrix, RunConfig(iterations=200_000,
                                                   custom_sets=((0.05,) * 12,)))
    build_summary(run_pipeline(social_matrix, RunConfig(iterations=100)))  # imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = build_summary(report)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(summary["rwm_summary"]) == social_matrix.n
    assert peak <= 2 ** 18


def test_pass_summaries_hold_one_quantile_at_a_time(monkeypatch):
    # on one CPU: the peak of run_pipeline and build_summary on 200
    # alternatives of 40 criteria at t = 2*10^4 comes at the last read of the
    # closeness windows, which then keep 0.9 million of the 4 million values,
    # 7 MiB. They are read one quantile at a time, each quantile's values
    # let go as its grid is built, so the read holds the values kept once
    # and one quantile's grid, its values in add order and their target
    # index, next to the rank rows the pass keeps (no 200-wide chunk keeps
    # one order, so t x m bytes, 3.8 MiB): allowed 18.75 MiB in all
    import tracemalloc

    monkeypatch.setattr(kernels, "_cpu_count", lambda: 1)
    wide = make_matrix(1.01 - kernels.unit_uniforms(7, 0, 8000).reshape(200, 40),
                       ["max", "min"] * 20)
    build_summary(run_pipeline(wide, RunConfig(iterations=100)))  # imports and caches
    tracemalloc.start()
    try:
        summary = build_summary(run_pipeline(wide, RunConfig(iterations=20_000, seed=42)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(summary["closeness_summary"]) == 200
    assert peak <= 18.75 * 2 ** 20


# ------------------------------------------------------------ pass summaries

# 13 alternatives, the last equal to the second: 5,042 rows a chunk; the
# closeness windows open on the first chunk and are placed again at 4 and
# 16 chunks
_WIDE = make_matrix(_PROBLEMS["13-wide"], SOCIAL_DIRECTIONS)
_STEP = kernels._chunk_rows(_WIDE.m)
_PASS_ITERATIONS = {
    "1": 1, "2": 2, "3": 3, "7": 7, "below-one-chunk": 100,
    "chunk-1": _STEP - 1, "chunk": _STEP, "chunk+1": _STEP + 1,
    "placing-1": 4 * _STEP - 1, "placing": 4 * _STEP, "placing+1": 4 * _STEP + 1,
    "past-the-first-placing": 6 * _STEP + 7,
    "past-two-re-picks": windows._REPICK ** 2 * _STEP + 7,
}
# 10 alternatives of 40 criteria from the counter stream, every other one a cost
_FORTY = make_matrix(1.01 - kernels.unit_uniforms(7, 0, 400).reshape(10, 40), ["max", "min"] * 20)


def _whole_grid_reads(monkeypatch):
    """The shapes of the whole weight or closeness grids drawn from now
    on, as a report draws them only when an order statistic fell outside
    its window."""
    calls, real = [], kernels._Rows.__array__

    def counted(self, *args, **kwargs):
        calls.append(self.shape)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(kernels._Rows, "__array__", counted)
    return calls


def _placings(monkeypatch):
    """The rows counted each time a set of windows was placed again."""
    rows, real = [], windows._Windows._place_again

    def counted(self):
        rows.append(self.rows)
        real(self)

    monkeypatch.setattr(windows._Windows, "_place_again", counted)
    return rows


def _plain(w):
    """The count of plain values each window of `w` keeps, quartile by column."""
    return np.sum(w.sizes, axis=0)


def _assert_pass_summaries_exact(report):
    xi = np.asarray(report.closeness)
    assert json.dumps(report.closeness_summary) == json.dumps(five_number_columns(xi))
    assert report.final.mean_closeness.tobytes() == xi.mean(axis=0).tobytes()
    weights = np.asarray(report.rwm.rows)
    assert json.dumps(report.rwm_summary) == json.dumps(five_number_columns(weights))


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("t", list(_PASS_ITERATIONS))
def test_pass_summaries_equal_those_of_the_whole_grid(t, cpus, monkeypatch):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    whole, placings = _whole_grid_reads(monkeypatch), _placings(monkeypatch)
    cfg = RunConfig(iterations=_PASS_ITERATIONS[t], seed=11, custom_sets=((0.05,) * 12,))
    report = run_pipeline(_WIDE, cfg)
    assert not whole  # every order statistic was in its window
    if t == "past-two-re-picks":
        assert placings == [4 * _STEP, 16 * _STEP]
    _assert_pass_summaries_exact(report)


def test_pass_summaries_of_identical_rows(social_matrix, monkeypatch):
    # a zero-width band repeats one row, so each closeness window holds one
    # value t times, kept as that value and its count, past two placings
    whole, placings = _whole_grid_reads(monkeypatch), _placings(monkeypatch)
    cfg = RunConfig(iterations=17 * kernels._chunk_rows(6) + 3, include_entropy=False,
                    include_critic=False, custom_sets=((0.05,) * 12,))
    report = run_pipeline(social_matrix, cfg)
    assert not whole and len(placings) == 2
    _assert_pass_summaries_exact(report)


@pytest.mark.parametrize("cpus", [1, 3])
def test_pass_summaries_of_a_dominating_alternative(cpus, monkeypatch):
    # an alternative that is the ideal on every criterion has closeness 1.0 on
    # every row, which each of its windows counts on an edge and keeps no
    # plain value of, while the other columns vary and their windows keep
    # plain values; the windows are placed in the first chunk and again at 4
    # and 16 chunks
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    benefit = np.array(SOCIAL_DIRECTIONS) == "max"
    ideal = np.where(benefit, SOCIAL_VALUES.max(axis=0), SOCIAL_VALUES.min(axis=0))
    matrix = make_matrix(np.vstack([SOCIAL_VALUES, ideal]), SOCIAL_DIRECTIONS)
    step = kernels._chunk_rows(matrix.m)
    whole, placings = _whole_grid_reads(monkeypatch), _placings(monkeypatch)
    read, real = [], windows._Windows.stats

    def stats(self, t):  # the edges, the counts at them and the plain values of every window
        read.append((self.edges.copy(), self.ends.copy(), _plain(self)))
        return real(self, t)

    monkeypatch.setattr(windows._Windows, "stats", stats)
    cfg = RunConfig(iterations=windows._REPICK ** 2 * step + 7, seed=3,
                    custom_sets=((0.05,) * 12,))
    report = run_pipeline(matrix, cfg)
    assert not whole and placings == [4 * step, 16 * step]
    edges, ends, plain = next(r for r in read if r[0].shape[1] == matrix.m)  # the closeness'
    assert (edges[:, -1] == 1.0).any(axis=1).all() and (plain[:, -1] == 0).all()
    assert (ends[:, -1].sum(axis=1) == cfg.iterations).all()
    assert (plain[:, :-1] > 0).all()
    _assert_pass_summaries_exact(report)
    assert set(report.closeness_summary[-1].values()) == {1.0}
    assert all(s["min"] < s["max"] for s in report.closeness_summary[:-1])


def test_pass_summaries_count_the_values_at_their_edges(monkeypatch):
    # pieces of 8 rows of one column, each all one value: the first three,
    # 0.25, 0.75 and 0.25, lie inside every window, [0, 1], and are kept as
    # plain values. The fourth, 0.75 again, brings the rows to 4 times the 8
    # placed from, and narrow windows are placed again on the two values:
    # q1's [0.25, 0.25], the median's [0.25, 0.75] and q3's [0.75, 0.75],
    # which count each value at an edge, below or above, and keep none. A
    # fifth piece of 0.25 is counted at the edges it is equal to and below
    # the rest. The extremes are the column's least and greatest value.
    monkeypatch.setattr(windows, "_WINDOW_SIGMAS", 0.5)
    scratch = np.empty((2, 8))
    w = windows._Windows(np.broadcast_to([0.0, 1.0], (3, 1, 2)), lambda: scratch, placed=8)
    pieces = [np.full((8, 1), v) for v in (0.25, 0.75, 0.25, 0.75, 0.25)]
    for piece in pieces[:3]:
        w.add(piece)
    assert (w.ends == 0).all() and (w.below == 0).all()
    assert (_plain(w) == 24).all()
    assert w.low.tolist() == [0.25] and w.high.tolist() == [0.75]
    w.add(pieces[3])
    assert w.edges[:, 0].tolist() == [[0.25, 0.25], [0.25, 0.75], [0.75, 0.75]]
    assert w.ends[:, 0].tolist() == [[16, 0], [16, 16], [16, 0]]
    assert w.below[:, 0].tolist() == [0, 0, 16]
    assert (_plain(w) == 0).all()
    assert w.low.tolist() == [0.25] and w.high.tolist() == [0.75]
    w.add(pieces[4])
    assert w.ends[:, 0].tolist() == [[24, 0], [24, 16], [16, 0]]
    assert w.below[:, 0].tolist() == [0, 0, 24]
    assert (_plain(w) == 0).all()
    assert w.low.tolist() == [0.25] and w.high.tolist() == [0.75]
    stats = w.stats(40)
    assert stats is not None
    whole = np.sort(np.concatenate(pieces), axis=0)
    picks = np.ravel([aggregate._linear_pick(40, q)[:2] for q in aggregate._PICKS])
    assert stats.tobytes() == whole[picks].T.reshape(-1, 5, 2).tobytes()


# pairs of sets that agree on paper: the first two on the first criterion,
# which the first pair gives a zero-width band and the second, its shares
# rounded apart, a band one ulp wide, whose weights are two values, each drawn
# about t/2 times; the third, the same shares written at a tenth of the scale,
# on every criterion, which it gives bands of no width or of one ulp, so each
# alternative's closeness spans a few ulps
_NARROW_BANDS = {
    "zero-width": ((1.0,) * 12, (1.0, 2.0, 0.5, 0.5) + (1.0,) * 8),
    "one-ulp": ((0.1, 0.7, 0.6, 0.3, 0.5, 0.8, 0.1, 0.7, 0.1, 0.1, 0.6, 0.3),
                (0.1, 0.3, 0.3, 0.5, 0.5, 0.7, 0.7, 0.3, 0.2, 0.4, 0.8, 0.1)),
    "few-ulps": ((5, 5, 7, 9, 1, 2, 8, 9, 3, 3, 8, 4),
                 (0.5, 0.5, 0.7, 0.9, 0.1, 0.2, 0.8, 0.9, 0.3, 0.3, 0.8, 0.4)),
}


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("t", [1, 5, 3 * kernels._chunk_rows(6) + 5])
def test_pass_summaries_of_a_zero_width_column(t, cpus, social_matrix, monkeypatch):
    # a band of no width or of a few ulps draws few distinct weights, each
    # tied many times, and a closeness that spans a few ulps; in a pass of
    # more than one chunk their windows count the values on their edges and
    # keep at most 8 sqrt(t) plain values each, not t: none in a weight
    # column of no width or of one ulp. A closeness column with spread keeps
    # what windows placed in a first chunk of `step` rows hold until they are
    # placed again, about 6 t / sqrt(step) at the median
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    step = kernels._chunk_rows(social_matrix.m)
    whole, read, real = _whole_grid_reads(monkeypatch), [], windows._Windows.stats

    def stats(self, t):  # the plain values of every window, the weights' or the closeness'
        read.append((self.edges.shape[1] == social_matrix.n, _plain(self)))
        return real(self, t)

    monkeypatch.setattr(windows._Windows, "stats", stats)
    for name, sets in _NARROW_BANDS.items():
        cfg = RunConfig(iterations=t, seed=5, include_entropy=False, include_critic=False,
                        custom_sets=sets)
        report = run_pipeline(social_matrix, cfg)
        lower, upper = report.bounds.lower, report.bounds.upper
        ulp = np.nextafter(lower, 1.0, dtype=float) == upper
        if name == "few-ulps":
            assert ((lower == upper) | ulp).all() and ulp.any()
        else:
            assert ulp[0] if name == "one-ulp" else lower[0] == upper[0]
            assert report.bounds.width[1] > 0
        assert not whole
        _assert_pass_summaries_exact(report)
        assert len(read) == 2 * (t > step)
        for weights, plain in read:
            spread = not weights and name != "few-ulps"
            assert (plain <= (8 * t / np.sqrt(step) if spread else 8 * np.sqrt(t))).all()
            if weights and name != "few-ulps":
                assert (plain[:, 0] == 0).all()
        whole.clear()
        read.clear()


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("t", [7, 3 * kernels._chunk_rows(10) + 5])
def test_pass_summaries_of_forty_criteria(t, cpus, monkeypatch):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    whole = _whole_grid_reads(monkeypatch)
    report = run_pipeline(_FORTY, RunConfig(iterations=t, seed=2024))
    assert report.rwm.rows.shape == (t, 40)
    assert not whole
    _assert_pass_summaries_exact(report)


@pytest.mark.parametrize("cpus", [1, 3])
def test_pass_summaries_fall_back_to_the_whole_grid_on_a_window_miss(cpus, monkeypatch):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(windows, "_WINDOW_SIGMAS", 0.0)  # quartile windows of a few values
    whole = _whole_grid_reads(monkeypatch)
    t = 6 * _STEP + 7
    report = run_pipeline(_WIDE, RunConfig(iterations=t, seed=11))
    assert whole == [(t, _WIDE.n), (t, _WIDE.m)]  # the weights', then the closeness'
    _assert_pass_summaries_exact(report)


@pytest.mark.parametrize("cpus", [1, 3])
def test_pass_summaries_of_a_positional_report(cpus, monkeypatch):
    # a report built from its parts, as perfbench's replay builds it, draws its
    # weight grid once, whole, for its weight summary
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    cfg = RunConfig(iterations=6 * _STEP + 7, seed=11, custom_sets=((0.05,) * 12,))
    fused = run_pipeline(_WIDE, cfg)
    xi, ranks = batch_topsis(_WIDE, np.asarray(fused.rwm.rows))
    rm = RankMatrix(ranks)
    whole = _whole_grid_reads(monkeypatch)
    staged = RunReport(_WIDE, cfg, fused.weight_sets, fused.bounds, fused.rwm, xi, rm,
                       final_ranking(rm, xi))
    assert whole == [(cfg.iterations, _WIDE.n)]
    assert json.dumps(build_summary(staged)) == json.dumps(build_summary(fused))


@st.composite
def _reference_cases(draw):
    """A problem of m alternatives and n criteria drawn from a few value
    levels (ties, constant columns), mixed directions, maybe a duplicate
    alternative and an alternative at the column-wise ideal; weight sets
    that give a zero-width band, zero-width columns, bands of a few ulps
    (two sets equal on paper) or objective bands;
    knobs that put misses and placings at small t; and t near one of the
    pass's edges, or late enough for many placings when chunks are small."""
    m, n = draw(st.integers(2, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.sampled_from([2, 3, 1000]))
    values = rng.integers(1, levels + 1, (m, n)).astype(float)
    directions = rng.choice(["max", "min"], n)
    if m > 2 and draw(st.booleans()):
        values[rng.integers(m)] = values[rng.integers(m)]
    if draw(st.booleans()):
        benefit = directions == "max"
        values[rng.integers(m)] = np.where(benefit, values.max(axis=0), values.min(axis=0))
    hypothesis.assume(np.ptp(values, axis=0).any())  # else every row is ideal and anti-ideal
    w = rng.integers(1, 4, n).astype(float)
    bands = draw(st.sampled_from(["zero-width", "two-sets", "rounded-apart", "objective"]))
    if bands == "zero-width":
        cfg = dict(include_entropy=False, include_critic=False, custom_sets=(w,))
    elif bands == "two-sets":  # equal sums: every column but two has zero width
        v = w.copy()
        v[[0, -1]] = v[[-1, 0]]
        cfg = dict(include_entropy=False, include_critic=False, custom_sets=(w, v))
    elif bands == "rounded-apart":  # equal on paper: bands of no width or a few ulps
        cfg = dict(include_entropy=False, include_critic=False, custom_sets=(w, w * 0.1))
    else:
        cfg = dict(include_critic=bool(n > 1 and np.ptp(values, axis=0).all()),
                   custom_sets=(w,) if draw(st.booleans()) else ())
    knobs = dict(chunk=draw(st.sampled_from([1 << 7, 1 << 9, 1 << 11])),
                 repick=draw(st.integers(2, 4)),
                 sigmas=draw(st.sampled_from([0.5, 2.0, 6.0])),
                 cpus=draw(st.integers(1, 3)))
    edge = draw(st.sampled_from(["small", "chunk", "placing", "second-placing", "late"]))
    offset = draw(st.integers(-3, 3)) if edge != "small" else draw(st.integers(1, 7))
    return make_matrix(values, directions), cfg, knobs, edge, offset, draw(st.integers(0, 99))


def _plain_reference(matrix, weights):
    """The closeness of every weight row, its mean, the ranks (a stable
    argsort), the score histograms and the final positions by the tie
    chain of the README's Method, from whole grids."""
    xi = batch_topsis(matrix, weights)[0]
    t, m = xi.shape
    ranks = np.empty((t, m), dtype=np.int64)
    np.put_along_axis(ranks, np.argsort(-xi, axis=1, kind="stable"), np.arange(1, m + 1), axis=1)
    scores = m + 1 - ranks
    hists = np.stack([np.bincount(scores[:, j], minlength=m + 1) for j in range(m)])
    modal = m - np.argmax(hists[:, ::-1], axis=1)  # the largest of the top scores
    mean_scores, mean_xi = scores.mean(axis=0), xi.mean(axis=0)
    positions = np.empty(m, dtype=np.int64)
    order = sorted(range(m), key=lambda j: (-modal[j], -mean_scores[j], -mean_xi[j], j))
    positions[order] = np.arange(1, m + 1)
    return xi, mean_xi, ranks, hists, positions


def _percentiles(grid):
    return np.percentile(grid, [0, 25, 50, 75, 100], axis=0).T


def _summary_grid(summary):
    return np.array([[s[k] for k in ("min", "q1", "median", "q3", "max")] for s in summary])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_reference_cases())
def test_pass_summaries_match_a_plain_reference(case):
    matrix, cfg, knobs, edge, offset, seed = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_CHUNK", knobs["chunk"])
        mp.setattr(kernels, "_cpu_count", lambda: knobs["cpus"])
        mp.setattr(windows, "_REPICK", knobs["repick"])
        mp.setattr(windows, "_WINDOW_SIGMAS", knobs["sigmas"])
        step, repick = kernels._chunk_rows(matrix.m), knobs["repick"]
        edges = {"small": 0, "chunk": step, "placing": repick * step,
                 "second-placing": repick ** 2 * step, "late": repick ** 2 * max(step, 300)}
        t = max(1, edges[edge] + offset)
        try:
            report = run_pipeline(matrix, RunConfig(iterations=t, seed=seed, **cfg))
        except ComputationError:  # a refused problem, e.g. CRITIC's vanished index
            hypothesis.reject()
        weights_summary, closeness_summary = report.rwm_summary, report.closeness_summary
        weights = np.asarray(report.rwm.rows)
        ranks = np.asarray(report.rank_matrix.ranks)
    xi, mean_xi, ref_ranks, hists, positions = _plain_reference(matrix, weights)
    assert _summary_grid(weights_summary).tobytes() == _percentiles(weights).tobytes()
    assert _summary_grid(closeness_summary).tobytes() == _percentiles(xi).tobytes()
    assert report.final.mean_closeness.tobytes() == mean_xi.tobytes()
    assert np.array_equal(ranks, ref_ranks)
    assert np.array_equal(report.final.score_histograms, hists)
    assert np.array_equal(report.final.positions, positions)


def test_the_closeness_view_makes_its_bodies_once(social_matrix, monkeypatch):
    report = run_pipeline(social_matrix, RunConfig(iterations=50_000, seed=3))
    calls, real = [], topsis.vector_normalize
    monkeypatch.setattr(topsis, "vector_normalize", lambda matrix: calls.append(1) or real(matrix))
    rows = [report.closeness[i] for i in range(0, 32 * 1500, 1500)]
    assert len(rows) == 32 and len(calls) == 1
    assert rows[5].tobytes() == np.asarray(report.closeness)[7500].tobytes()


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_closeness_view_reads_rows_slices_and_the_whole_grid(cpus, monkeypatch):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    report = run_pipeline(_WIDE, RunConfig(iterations=2 * _STEP + 5, seed=3))
    full, _ = batch_topsis(_WIDE, np.asarray(report.rwm.rows))
    view = report.closeness
    assert view.shape == full.shape and view.dtype == np.float64
    assert np.asarray(view).tobytes() == full.tobytes()
    for key in (0, _STEP - 1, _STEP, -1, slice(None), slice(_STEP - 3, _STEP + 4),
                slice(2 * _STEP - 1, None), slice(5, 5)):
        got = view[key]
        assert got.shape == full[key].shape and got.tobytes() == full[key].tobytes(), key
    for key in (len(full), slice(None, None, 2), (slice(None), 0), (0, 0)):
        with pytest.raises(IndexError):
            view[key]
    # an operator would compute the whole t x m grid unseen, as on the weight rows
    for op in (lambda: full <= view, lambda: np.add(view, 1), lambda: full == view,
               lambda: view == 0.0, lambda: view != 0.0, lambda: view * 2.0):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_rank_view_reads_rows_slices_and_the_whole_grid(cpus, monkeypatch):
    # small chunks: all but one keep one order, so the view repeats one rank
    # row for each of them, and the one other chunk keeps its rank rows
    monkeypatch.setattr(kernels, "_CHUNK", 1 << 9)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    matrix = make_matrix(_PROBLEMS["social-two-orders"], SOCIAL_DIRECTIONS)
    report = run_pipeline(matrix, RunConfig(iterations=20_000, seed=1,
                                            custom_sets=((0.05,) * 12,)))
    full = kernels.rank_rows(np.asarray(report.closeness))
    view, step = report.rank_matrix.ranks, kernels._chunk_rows(matrix.m)
    assert view.shape == full.shape and view.dtype == np.uint8
    assert np.asarray(view).dtype == np.uint8 and np.asarray(view).tobytes() == full.tobytes()
    odd = np.flatnonzero((full != full[0]).any(axis=1))
    assert len(odd) == 1  # the row in a second order
    edge = odd[0] // step * step
    for key in (0, step - 1, step, odd[0], -1, slice(step - 3, step + 4),
                slice(edge - 2, edge + step + 2), slice(5, 3 * step + 2), slice(None),
                slice(5, 5)):
        got = view[key]
        assert got.dtype == np.uint8 and got.tobytes() == full[key].tobytes(), key
    # widen before arithmetic: an operator would compute the whole grid unseen
    for op in (lambda: view + 1, lambda: matrix.m + 1 - view, lambda: np.add(view, 1),
               lambda: view == 1, lambda: full <= view):
        with pytest.raises(TypeError):
            op()
