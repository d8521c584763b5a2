import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bandtopsis import (
    ComputationError,
    RunConfig,
    critic_weights,
    entropy_weights,
    minmax_normalize,
    normalize_custom_set,
    run_pipeline,
)
from conftest import REF_CRITIC, REF_ENTROPY, make_matrix


def pearson(col_a, col_b) -> float:
    """Reference for one entry of CRITIC's correlation grid: Pearson
    linear correlation of two equal-length vectors."""
    a = np.asarray(col_a, dtype=float)
    b = np.asarray(col_b, dtype=float)
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0:
        raise ComputationError("pearson correlation undefined for a zero-variance input")
    return float((da * db).sum() / denom)


# ------------------------------------------------------------------ entropy

def test_entropy_matches_published_social_weights(social_matrix):
    w = entropy_weights(social_matrix).weights.weights
    assert np.max(np.abs(w - np.array(REF_ENTROPY))) <= 0.001


def test_entropy_constant_column_gets_zero_weight():
    w = entropy_weights(make_matrix([[1, 1], [1, 3]], ["max", "max"])).weights.weights
    assert w.tolist() == [0.0, 1.0]


def test_entropy_single_column_with_zero_entry():
    rep = entropy_weights(make_matrix([[0], [1]], ["max"]))
    assert rep.share[:, 0].tolist() == [0.0, 1.0]
    assert rep.entropy[0] == 0.0
    assert rep.weights.weights.tolist() == [1.0]


def test_entropy_report_invariants(social_matrix):
    rep = entropy_weights(social_matrix)
    assert np.allclose(rep.share.sum(axis=0), 1.0, atol=1e-9)
    assert np.all((rep.share >= 0) & (rep.share <= 1))
    assert np.all((rep.entropy >= 0) & (rep.entropy <= 1))
    assert rep.diversity == pytest.approx((1 - rep.entropy).tolist())


def test_entropy_zero_sum_column_rejected():
    with pytest.raises(ComputationError, match="sums to zero"):
        entropy_weights(make_matrix([[0.0, 1.0], [0.0, 2.0]], ["max", "max"]))


def test_entropy_cost_column_with_zero_rejected():
    with pytest.raises(ComputationError, match="non-positive"):
        entropy_weights(make_matrix([[0.0, 1.0], [2.0, 2.0]], ["min", "max"]))


@pytest.mark.filterwarnings("error")
def test_entropy_cost_column_spanning_past_the_double_range(tmp_path, capsys):
    """A cost column whose largest entry is 1e600 times its smallest: the
    largest entry, scaled before its reciprocal, would pass the largest
    double. Its share, 1e-600, is zero as a double, so the weights equal
    those with that entry at 1e8, which the scaled path handled too."""
    from bandtopsis.cli import cli_main

    report = entropy_weights(make_matrix([[1e-300, 1], [1e300, 2], [1, 3]], ["min", "max"]))
    assert report.share[:, 0].tolist() == [1.0, 0.0, 1e-300]
    near = entropy_weights(make_matrix([[1e-300, 1], [1e8, 2], [1, 3]], ["min", "max"]))
    assert np.array_equal(report.weights.weights, near.weights.weights)

    path = tmp_path / "spanning.csv"
    path.write_text("c0,c1\nmin,max\na0,1e-300,1\na1,1e300,2\na2,1,3\n")
    assert cli_main(["weights", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["entropy", "0.926", "0.074"]


def test_entropy_all_uniform_rejected():
    with pytest.raises(ComputationError, match="uniform"):
        entropy_weights(make_matrix([[2.0, 3.0], [2.0, 3.0]], ["max", "max"]))


def test_entropy_row_permutation_invariant(social_matrix):
    w0 = entropy_weights(social_matrix).weights.weights
    perm = [3, 0, 5, 1, 4, 2]
    shuffled = make_matrix(social_matrix.values[perm], [c.direction.value for c in social_matrix.criteria])
    assert np.allclose(entropy_weights(shuffled).weights.weights, w0, atol=1e-12)


def test_entropy_column_permutation_equivariant(social_matrix):
    w0 = entropy_weights(social_matrix).weights.weights
    perm = [5, 2, 8, 0, 11, 4, 1, 10, 3, 7, 6, 9]
    dirs = [social_matrix.criteria[j].direction.value for j in perm]
    shuffled = make_matrix(social_matrix.values[:, perm], dirs)
    assert np.allclose(entropy_weights(shuffled).weights.weights, w0[perm], atol=1e-15)


# ------------------------------------------------------------------- minmax

def test_minmax_benefit_column():
    z = minmax_normalize(make_matrix([[1], [3], [2]], ["max"]))
    assert z[:, 0].tolist() == [0.0, 1.0, 0.5]


def test_minmax_cost_column():
    z = minmax_normalize(make_matrix([[1], [3], [2]], ["min"]))
    assert z[:, 0].tolist() == [1.0, 0.0, 0.5]


def test_minmax_social_first_column(social_matrix):
    z = minmax_normalize(social_matrix)
    assert z[0, 0] == 1.0   # best positive-tweet ratio 0.315
    assert z[4, 0] == 0.0   # worst 0.013


def test_minmax_constant_column_named():
    with pytest.raises(ComputationError, match="'g2'"):
        minmax_normalize(make_matrix([[1, 5], [2, 5]], ["max", "max"]))


def test_minmax_every_column_attains_both_ends(social_matrix):
    z = minmax_normalize(social_matrix)
    assert np.all(z.min(axis=0) == 0.0)
    assert np.all(z.max(axis=0) == 1.0)


# ------------------------------------------------------------------ pearson

def test_pearson_fixtures():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    # hand evaluation: 3 / sqrt(2 * 42/9) = 9 / sqrt(84)
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-5)
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / np.sqrt(84), abs=1e-12)


def test_pearson_symmetric():
    assert pearson([1, 5, 2], [4, 0, 3]) == pytest.approx(pearson([4, 0, 3], [1, 5, 2]), abs=1e-15)


def test_pearson_zero_variance_rejected():
    with pytest.raises(ComputationError):
        pearson([2, 2, 2], [1, 2, 3])


# ------------------------------------------------------------------- critic

def test_critic_matches_published_social_weights(social_matrix):
    w = critic_weights(social_matrix).weights.weights
    assert np.max(np.abs(w - np.array(REF_CRITIC))) <= 0.001


def test_critic_two_by_two_symmetry():
    rep = critic_weights(make_matrix([[0, 1], [1, 0]], ["max", "max"]))
    assert rep.correlation[0, 1] == pytest.approx(-1.0)
    assert rep.weights.weights.tolist() == pytest.approx([0.5, 0.5])


def test_critic_constant_column_rejected():
    with pytest.raises(ComputationError, match="constant"):
        critic_weights(make_matrix([[1, 7], [2, 7]], ["max", "max"]))


def test_critic_single_criterion_rejected():
    with pytest.raises(ComputationError, match="single criterion"):
        critic_weights(make_matrix([[1], [2]], ["max"]))


def test_critic_report_invariants(social_matrix):
    rep = critic_weights(social_matrix)
    assert np.all((rep.normalized >= 0) & (rep.normalized <= 1))
    assert np.max(np.abs(rep.correlation - rep.correlation.T)) < 1e-12
    assert np.allclose(np.diag(rep.correlation), 1.0)
    assert np.all(rep.correlation >= -1 - 1e-12) and np.all(rep.correlation <= 1 + 1e-12)
    assert np.all(rep.index >= 0)


def test_critic_grid_agrees_with_pearson(social_matrix):
    rep = critic_weights(social_matrix)
    z = rep.normalized
    for j in (0, 3, 7):
        for k in (1, 5, 11):
            assert rep.correlation[j, k] == pytest.approx(pearson(z[:, j], z[:, k]), abs=1e-12)


def test_critic_divisor_invariance(social_matrix):
    w1 = critic_weights(social_matrix, ddof=1).weights.weights
    w0 = critic_weights(social_matrix, ddof=0).weights.weights
    assert np.max(np.abs(w1 - w0)) <= 1e-12


# ------------------------------------------------------------- custom sets

def test_custom_set_uniform_rescale():
    s = normalize_custom_set([0.05] * 12, 12)
    assert np.allclose(s.weights, 1 / 12)
    assert all(f"{v:.3f}" == "0.083" for v in s.weights)
    assert normalize_custom_set([1.0, 1.0], 2).weights.tolist() == [0.5, 0.5]


def test_custom_set_rejections():
    with pytest.raises(ValueError, match="negative"):
        normalize_custom_set([0.2, -0.1], 2)
    with pytest.raises(ValueError, match="expected 3"):
        normalize_custom_set([0.2, 0.8], 3)
    with pytest.raises(ValueError, match="zero"):
        normalize_custom_set([0.0, 0.0], 2)


def test_custom_set_idempotent():
    once = normalize_custom_set([3.0, 1.0, 4.0], 3).weights
    twice = normalize_custom_set(once, 3).weights
    assert np.max(np.abs(once - twice)) <= 1e-12


# Two entries 2^23 times the rest: scaled by 2^1000 they sum past the
# largest double.
_SKEWED_SET = (2.0 ** 23, 2.0 ** 23) + (1.0,) * 10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-1000, -500, -1, 1, 500, 1000])
def test_custom_set_scaled_by_a_power_of_two_runs_the_same(social_matrix, k):
    def run(custom):
        report = run_pipeline(social_matrix, RunConfig(iterations=300, custom_sets=(custom,)))
        return report.weight_table(), report.final.positions

    table, positions = run(_SKEWED_SET)
    scaled_table, scaled_positions = run(tuple(2.0 ** k * v for v in _SKEWED_SET))
    assert [name for name, _ in scaled_table] == [name for name, _ in table]
    for (_, scaled), (_, plain) in zip(scaled_table, table):
        assert np.array_equal(scaled, plain)
    assert np.array_equal(scaled_positions, positions)


# --------------------------------------------------------------- properties

@st.composite
def positive_matrices(draw):
    m = draw(st.integers(min_value=2, max_value=7))
    n = draw(st.integers(min_value=2, max_value=6))
    vals = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
                min_size=n, max_size=n,
            ),
            min_size=m, max_size=m,
        )
    )
    dirs = draw(st.lists(st.sampled_from(["max", "min"]), min_size=n, max_size=n))
    return make_matrix(vals, dirs)


@given(positive_matrices())
@settings(max_examples=150, deadline=None)
def test_weight_vectors_are_distributions(matrix):
    v = matrix.values
    assume(np.all(v.max(axis=0) > v.min(axis=0)))  # no constant columns
    try:
        sets = (entropy_weights(matrix).weights, critic_weights(matrix).weights)
    except ComputationError:
        # perfectly correlated columns: zero conflict, weights undefined
        assume(False)
    for weights in sets:
        w = weights.weights
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-9


@given(positive_matrices())
@settings(max_examples=100, deadline=None)
def test_critic_divisor_invariance_property(matrix):
    v = matrix.values
    assume(np.all(v.max(axis=0) > v.min(axis=0)))
    try:
        w1 = critic_weights(matrix, ddof=1).weights.weights
    except ComputationError:
        assume(False)
    w0 = critic_weights(matrix, ddof=0).weights.weights
    assert np.max(np.abs(w1 - w0)) <= 1e-12
