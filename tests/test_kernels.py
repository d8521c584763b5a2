import numpy as np
import pytest

from bandtopsis import kernels


def _batch_distances_loops(V, a_pos, a_neg, w_rows):
    """Plain-loop reference for kernels.batch_distances."""
    t = w_rows.shape[0]
    m, n = V.shape
    dp = np.empty((t, m))
    dm = np.empty((t, m))
    for k in range(t):
        for i in range(m):
            sp = 0.0
            sm = 0.0
            for j in range(n):
                ep = V[i, j] - a_pos[j]
                em = V[i, j] - a_neg[j]
                sp += w_rows[k, j] * ep * ep
                sm += w_rows[k, j] * em * em
            dp[k, i] = np.sqrt(sp)
            dm[k, i] = np.sqrt(sm)
    return dp, dm


def _rank_rows_loops(xi):
    """Plain-loop reference for kernels.rank_rows: one plus the number of
    alternatives with higher closeness or an equal one at a lower index."""
    ranks = []
    for row in xi.tolist():
        ranks.append([
            1 + sum(x > xi_i or (x == xi_i and j < i) for j, x in enumerate(row))
            for i, xi_i in enumerate(row)
        ])
    return np.array(ranks, dtype=np.int64).reshape(xi.shape)


def _random_case(rng, t=40, m=6, n=9):
    V = rng.uniform(0.0, 1.0, size=(m, n))
    a_pos = V.max(axis=0)
    a_neg = V.min(axis=0)
    W = rng.uniform(0.01, 0.3, size=(t, n))
    return V, a_pos, a_neg, W


def test_numpy_distances_against_plain_loops():
    rng = np.random.default_rng(3)
    V, a_pos, a_neg, W = _random_case(rng)
    dp, dm = kernels.batch_distances(V, a_pos, a_neg, W)
    dp_ref, dm_ref = _batch_distances_loops(V, a_pos, a_neg, W)
    assert np.allclose(dp, dp_ref, atol=1e-13)
    assert np.allclose(dm, dm_ref, atol=1e-13)


def _two_lane_sums(w, sq):
    """sum_j w[:, j] * sq[:, j] in the order batch_distances documents:
    blocks of 8 criteria taking the pairs (6, 7), (4, 5), (2, 3), (0, 1),
    then the remaining pairs in ascending order, each pair's first
    criterion into the even lane and its second into the odd lane (an odd
    last criterion into the even lane), then even lane + odd lane; plain
    multiplies and adds, no fused multiply-add."""
    n = w.shape[1]
    full = n - n % 8
    order = [b + j for b in range(0, full, 8) for j in (6, 7, 4, 5, 2, 3, 0, 1)]
    lanes = [np.zeros((w.shape[0], sq.shape[0])) for _ in range(2)]
    for k, j in enumerate(order + list(range(full, n))):
        lanes[k % 2] += w[:, j, None] * sq[:, j]
    return lanes[0] + lanes[1]


def test_distances_sum_in_the_documented_two_lane_order():
    rng = np.random.default_rng(41)
    for n in range(1, 42):
        V, a_pos, a_neg, W = _random_case(rng, t=9, m=5, n=n)
        dp, dm = kernels.batch_distances(V, a_pos, a_neg, W)
        assert np.array_equal(dp, np.sqrt(_two_lane_sums(W, (V - a_pos) ** 2))), n
        assert np.array_equal(dm, np.sqrt(_two_lane_sums(W, (V - a_neg) ** 2))), n


def test_numpy_ranks_against_plain_loops():
    rng = np.random.default_rng(4)
    xi = rng.uniform(size=(60, 5))
    xi[10] = [0.5, 0.5, 0.2, 0.5, 0.2]  # tie-heavy row
    assert np.array_equal(kernels.rank_rows(xi), _rank_rows_loops(xi))


def _closeness_rows(rng, kind, t, m):
    if kind == "distinct":
        return rng.uniform(size=(t, m))
    if kind == "tie-heavy":
        return rng.integers(0, 3, size=(t, m)) / 4.0
    if kind == "equal-pair":  # two alternatives tie in every row
        xi = rng.uniform(size=(t, m))
        a, b = rng.choice(m, size=2, replace=False)
        xi[:, b] = xi[:, a]
        return xi
    if kind == "ulps":  # distinct rows one ulp apart, then rows with ties
        ulp = np.spacing(0.5)
        xi = 0.5 + rng.integers(-3, 4, size=(t, m)) * ulp
        xi[: t // 2] = 0.5 + rng.permuted(np.tile(np.arange(m), (t // 2, 1)), axis=1) * ulp
        return xi
    if kind == "signed-zeros":
        return rng.choice([0.0, -0.0, 0.25, 1.0], size=(t, m))
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["distinct", "tie-heavy", "equal-pair", "ulps", "signed-zeros"])
def test_ranks_against_plain_loops_on_random_shapes(kind):
    # any sort orders distinct values alike; rows with equal values take the
    # stable fix-up, which must agree with the lower-index-first rule
    rng = np.random.default_rng(7)
    shapes = [(1, 2), (300, 64), (200, 8), (200, 9)] + [
        (int(rng.integers(1, 301)), int(rng.integers(2, 65))) for _ in range(8)
    ]
    if kind != "equal-pair":
        shapes.append((5, 1))
    for t, m in shapes:
        xi = _closeness_rows(rng, kind, t, m)
        assert np.array_equal(kernels.rank_rows(xi), _rank_rows_loops(xi)), (kind, t, m)


def _one_order_grid(rng, t, m):
    """t rows that strictly descend along one random order of m columns."""
    steps = rng.uniform(0.01, 0.1, size=(t, m))
    xi = np.empty((t, m))
    xi[:, rng.permutation(m)] = 1.0 - np.cumsum(steps, axis=1)
    return xi


def _plant(xi, row, how, pair):
    """Break the shared order in one row: tie or swap the columns at
    places `pair` and `pair` + 1 of its descending order."""
    a, b = np.argsort(-xi[row], kind="stable")[pair:pair + 2]
    if how == "tie":
        xi[row, a] = xi[row, b]
    else:
        xi[row, [a, b]] = xi[row, [b, a]]


@pytest.mark.parametrize("m", [2, 3, 6, 8, 9, 12, 40])
def test_rows_of_one_order_against_plain_loops(m, monkeypatch):
    # a chunk whose rows all keep its first row's order is ranked without a
    # sort, at any width; one tied or flipped row anywhere in it sends it to
    # the argsort and its stable fix-up
    monkeypatch.setattr(kernels, "_CHUNK", 64)
    step = kernels._chunk_rows(m)
    fallbacks = []
    real = kernels._rank_fixed_up
    monkeypatch.setattr(kernels, "_rank_fixed_up",
                        lambda *a: fallbacks.append(1) or real(*a))
    rng = np.random.default_rng(m)
    t = 5 * step + 3
    xi = _one_order_grid(rng, t, m)
    assert np.array_equal(kernels.rank_rows(xi), _rank_rows_loops(xi))
    assert not fallbacks
    cases = [(how, where, pair) for how in ("tie", "flip") for where in (0, step // 2, step - 1)
             for pair in sorted({0, m - 2})]
    for how, where, pair in cases:
        planted = xi.copy()
        _plant(planted, 2 * step + where, how, pair)
        assert np.array_equal(kernels.rank_rows(planted), _rank_rows_loops(planted)), (
            how, where, pair)
    assert len(fallbacks) == len(cases)  # only the chunk holding the planted row
    # a tie in a chunk's first row: every row shares that row's sorted order,
    # but the tie must still go to the lower alternative index
    planted = xi.copy()
    planted[step:, :] = xi[step]
    _plant(planted, step, "tie", m - 2)
    assert np.array_equal(kernels.rank_rows(planted), _rank_rows_loops(planted))


@pytest.mark.parametrize("m", [3, 6, 8])
@pytest.mark.parametrize("grid", ["one-order", "random"])
def test_rows_where_one_alternative_repeats_another_against_plain_loops(m, grid, monkeypatch):
    # every row holds a tie, so every chunk falls back to the argsort and has
    # each of its rows ranked again by the stable sort
    monkeypatch.setattr(kernels, "_CHUNK", 64)
    step = kernels._chunk_rows(m)
    fallbacks = []
    real = kernels._rank_fixed_up
    monkeypatch.setattr(kernels, "_rank_fixed_up",
                        lambda *a: fallbacks.append(1) or real(*a))
    rng = np.random.default_rng(10 + m)
    t = 5 * step + 3
    for copy, source in ((m - 1, 0), (0, m - 1), (m // 2, m // 2 - 1)):
        xi = _one_order_grid(rng, t, m) if grid == "one-order" else rng.uniform(size=(t, m))
        xi[:, copy] = xi[:, source]
        assert np.array_equal(kernels.rank_rows(xi), _rank_rows_loops(xi)), (copy, source)
    assert len(fallbacks) == 3 * 6  # every chunk of each grid


@pytest.mark.parametrize("m, dtype", [(255, np.uint8), (256, np.uint16)])
def test_rank_grids_hold_one_type_from_m(m, dtype):
    # every rank grid, built by the kernel, the pipeline or a caller, takes the
    # narrowest unsigned type that holds m; its counts equal int64 counts
    from bandtopsis import RankMatrix, RunConfig, rank_frequency, run_pipeline
    from bandtopsis.model import CriterionSpec, DecisionMatrix

    rng = np.random.default_rng(m)
    t = 300
    ranks = kernels.rank_rows(rng.uniform(size=(t, m)))
    values = rng.uniform(0.1, 1.0, size=(m, 3))
    matrix = DecisionMatrix([f"a{i}" for i in range(m)],
                            [CriterionSpec(f"g{j}") for j in range(3)], values)
    report = run_pipeline(matrix, RunConfig(iterations=t, include_critic=False))
    caller = RankMatrix(ranks.astype(np.int64))
    for grid in (ranks, np.asarray(report.rank_matrix.ranks), caller.ranks):
        assert grid.dtype == dtype
        wide = grid.astype(np.int64)
        assert np.array_equal(np.sort(wide, axis=1),
                              np.broadcast_to(np.arange(1, m + 1), wide.shape))
        counts = np.stack([np.bincount(wide[:, j], minlength=m + 1)[1:] for j in range(m)])
        assert np.array_equal(rank_frequency(RankMatrix(grid)), counts)
    assert np.array_equal(caller.ranks, ranks)
    hists = report.final.score_histograms[:, 1:]
    assert np.array_equal(hists[:, ::-1], rank_frequency(report.rank_matrix))
