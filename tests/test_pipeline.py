import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtopsis import (
    RunConfig,
    ValidationError,
    build_summary,
    run_pipeline,
    topsis_run,
)
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
