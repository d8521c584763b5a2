import numpy as np
import pytest

from bandtopsis import (
    ComputationError,
    batch_topsis,
    ideal_solutions,
    kernels,
    topsis_run,
    vector_normalize,
)
from conftest import IDOCRIW_WEIGHTS, MEREC_WEIGHTS, make_matrix

# Closeness of a1..a6 on the social matrix under equal weights 1/12,
# frozen from an element-wise loop evaluation of the distance formulas.
EQUAL_WEIGHT_XI = [
    0.6513493989769892,
    0.5246587632475529,
    0.2379548663911356,
    0.4533354482493356,
    0.4318446441768042,
    0.29738850160229746,
]


# ------------------------------------------------------------ normalization

def test_vector_normalize_triangle():
    v = vector_normalize(make_matrix([[3.0], [4.0]], ["max"]))
    assert v[:, 0].tolist() == pytest.approx([0.6, 0.8])


def test_vector_normalize_identity_kernel():
    assert vector_normalize(make_matrix([[1.0]], ["max"]))[0, 0] == 1.0


def test_vector_normalize_social_fourth_column(social_matrix):
    V = vector_normalize(social_matrix)
    col = social_matrix.values[:, 3]
    assert V[3, 3] == 0.0  # the exact 0.000 cell
    assert V[0, 3] == pytest.approx(col[0] / np.sqrt((col ** 2).sum()), abs=1e-15)
    assert V[0, 3] == pytest.approx(0.7604695836453975, abs=1e-12)


def test_vector_normalize_unit_columns(social_matrix):
    V = vector_normalize(social_matrix)
    assert np.allclose(np.sqrt((V ** 2).sum(axis=0)), 1.0, atol=1e-9)


def test_vector_normalize_zero_column_rejected():
    with pytest.raises(ComputationError, match="'g1'"):
        vector_normalize(make_matrix([[0.0, 1.0], [0.0, 2.0]], ["max", "max"]))


# ------------------------------------------------------------------- ideals

def test_ideals_benefit_and_cost():
    V = np.array([[0.1], [0.9]])
    ben = ideal_solutions(V, [True])
    assert (ben.positive[0], ben.negative[0]) == (0.9, 0.1)
    cost = ideal_solutions(V, [False])
    assert (cost.positive[0], cost.negative[0]) == (0.1, 0.9)


def test_ideals_social_second_column_is_cost_min(social_matrix):
    V = vector_normalize(social_matrix)
    ideals = ideal_solutions(V, social_matrix.is_benefit)
    assert ideals.positive[1] == V[:, 1].min()
    assert ideals.negative[1] == V[:, 1].max()


# ---------------------------------------------------------------- distances

def _distances(V, w, is_benefit):
    ideals = ideal_solutions(V, is_benefit)
    dp, dm = kernels.batch_distances(V, ideals.positive, ideals.negative, np.array([w], float))
    return dp[0], dm[0]


def test_distance_zero_at_ideal():
    V = np.array([[1.0, 0.5], [0.2, 0.1]])
    d_plus, d_minus = _distances(V, [0.7, 0.3], [True, True])
    assert d_plus[0] == 0.0
    assert d_minus[1] == 0.0


def test_distance_scales_with_sqrt_of_weights():
    V = vector_normalize(make_matrix([[1.0, 4.0], [2.0, 1.0], [3.0, 2.0]], ["max", "min"]))
    w = np.array([0.4, 0.6])
    d1 = _distances(V, w, [True, False])
    d4 = _distances(V, 4 * w, [True, False])
    assert np.allclose(d4[0], 2 * d1[0], atol=1e-15)
    assert np.allclose(d4[1], 2 * d1[1], atol=1e-15)


def test_distance_two_point_endpoints():
    d_plus, d_minus = _distances(np.array([[0.0], [1.0]]), [1.0], [True])
    assert d_plus.tolist() == [1.0, 0.0]
    assert d_minus.tolist() == [0.0, 1.0]


def test_distance_weight_preconditions():
    matrix = make_matrix([[0.0], [1.0]], ["max"])
    with pytest.raises(ValueError, match="negative"):
        topsis_run(matrix, [-0.5])
    with pytest.raises(ValueError, match="sum to zero"):
        topsis_run(matrix, [0.0])


@pytest.mark.parametrize("weights, match", [
    pytest.param([np.nan] + [1.0] * 11, "non-finite", id="nan"),
    pytest.param([np.inf] + [1.0] * 11, "non-finite", id="inf"),
    pytest.param([1.0] * 11, "expected 12 weights, got 11", id="short"),
    pytest.param([1.0] * 13, "expected 12 weights, got 13", id="long"),
    pytest.param([[1.0] * 12], "flat vector", id="nested"),
])
def test_topsis_run_rejects_malformed_weights(social_matrix, weights, match):
    with pytest.raises(ValueError, match=match):
        topsis_run(social_matrix, weights)


# ---------------------------------------------------------------- closeness

def test_closeness_endpoints_and_midpoint():
    # a1 sits at the ideal, a3 at the anti-ideal and a2 halfway between:
    # the power-of-two prescale keeps V[2] exactly 2 * V[1]
    res = topsis_run(make_matrix([[2.0], [1.0], [0.0]], ["max"]), [1.0])
    assert res.closeness.tolist() == [1.0, 0.5, 0.0]
    assert res.ranks.tolist() == [1, 2, 3]


def test_closeness_degenerate_rejected():
    # criterion 1 is constant and criterion 2 unweighted: both ideals coincide
    matrix = make_matrix([[1.0, 1.0], [1.0, 2.0]], ["max", "max"])
    with pytest.raises(ComputationError, match="degenerate"):
        topsis_run(matrix, [1.0, 0.0])
    with pytest.raises(ComputationError, match="degenerate"):
        batch_topsis(matrix, [[0.5, 0.5], [1.0, 0.0]])


# ------------------------------------------------------------------ ranking

def test_rank_descending():
    assert kernels.rank_rows(np.array([[0.9, 0.1, 0.5]])).tolist() == [[1, 3, 2]]


def test_rank_tie_goes_to_lower_index():
    assert kernels.rank_rows(np.array([[0.5, 0.5]])).tolist() == [[1, 2]]
    assert kernels.rank_rows(np.array([[0.2, 0.7, 0.7, 0.2]])).tolist() == [[3, 1, 2, 4]]


# ----------------------------------------------------------------- full run

def test_published_idocriw_weights_rank_a1_first_a3_last(social_matrix):
    res = topsis_run(social_matrix, IDOCRIW_WEIGHTS)
    assert res.ranks[0] == 1
    assert res.ranks[2] == 6


def test_published_merec_weights_rank_a1_first_a3_last(social_matrix):
    res = topsis_run(social_matrix, MEREC_WEIGHTS)
    assert res.ranks[0] == 1
    assert res.ranks[2] == 6


def test_equal_weights_regression_fixture(social_matrix):
    res = topsis_run(social_matrix, [1 / 12] * 12)
    assert np.allclose(res.closeness, EQUAL_WEIGHT_XI, atol=1e-12)
    assert res.ranks.tolist() == [1, 2, 6, 3, 4, 5]


def test_scale_invariance_identity(social_matrix):
    r1 = topsis_run(social_matrix, IDOCRIW_WEIGHTS)
    r3 = topsis_run(social_matrix, 3 * np.array(IDOCRIW_WEIGHTS))
    assert np.max(np.abs(r1.closeness - r3.closeness)) <= 1e-12
    assert np.array_equal(r1.ranks, r3.ranks)


def test_ranks_are_consistent_with_closeness(social_matrix):
    res = topsis_run(social_matrix, MEREC_WEIGHTS)
    assert sorted(res.ranks.tolist()) == list(range(1, 7))
    order = np.argsort(-res.closeness, kind="stable")
    assert np.array_equal(res.ranks[order], np.arange(1, 7))
    assert np.all((res.closeness >= 0) & (res.closeness <= 1))


def test_row_permutation_equivariance(social_matrix):
    w = np.full(12, 1 / 12)
    base = topsis_run(social_matrix, w)
    perm = [2, 0, 4, 1, 5, 3]
    dirs = [c.direction.value for c in social_matrix.criteria]
    shuffled = make_matrix(social_matrix.values[perm], dirs)
    res = topsis_run(shuffled, w)
    assert np.allclose(res.closeness, base.closeness[perm], atol=1e-15)
    assert np.array_equal(res.ranks, base.ranks[perm])


def test_improving_a_benefit_value_never_hurts_two_alternatives():
    rng = np.random.default_rng(8)
    for _ in range(200):
        vals = rng.uniform(0.1, 1.0, size=(2, 3))
        dirs = ["max", "min", "max"]
        w = rng.uniform(0.1, 1.0, size=3)
        base = topsis_run(make_matrix(vals, dirs), w)
        improved = vals.copy()
        improved[0, 0] += rng.uniform(0.01, 0.5)
        res = topsis_run(make_matrix(improved, dirs), w)
        assert res.closeness[0] >= base.closeness[0] - 1e-12


def test_batch_matches_single_runs(social_matrix):
    """topsis_run is row k of batch_topsis bit for bit, on the case study
    and on random shapes across wide magnitudes."""
    rng = np.random.default_rng(5)
    cases = [(social_matrix, rng.uniform(0.01, 0.2, size=(25, 12)))]
    for _ in range(60):
        m, n = int(rng.integers(2, 31)), int(rng.integers(1, 21))
        scale = 10.0 ** rng.integers(-50, 51, size=n)
        dirs = ["max" if b else "min" for b in rng.integers(0, 2, size=n)]
        values = rng.uniform(0.1, 1.0, size=(m, n)) * scale
        cases.append((make_matrix(values, dirs), rng.uniform(0.01, 1.0, size=(4, n))))
    for matrix, W in cases:
        xi, ranks = batch_topsis(matrix, W)
        for k in range(W.shape[0]):
            single = topsis_run(matrix, W[k])
            assert np.array_equal(xi[k], single.closeness)
            assert np.array_equal(ranks[k], single.ranks)
