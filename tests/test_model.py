import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtopsis import (
    CriterionSpec,
    DecisionMatrix,
    Direction,
    NamedWeightSet,
    RandomWeightMatrix,
    RankMatrix,
    RunConfig,
    RunReport,
    ValidationError,
    WeightBounds,
    build_rank_matrix,
    problem_violations,
    run_pipeline,
    validate_problem,
)
from conftest import make_matrix


def test_direction_parsing():
    assert Direction.parse("max") is Direction.BENEFIT
    assert Direction.parse("MIN") is Direction.COST
    assert Direction.parse(" Benefit ") is Direction.BENEFIT
    assert Direction.parse("cost") is Direction.COST
    with pytest.raises(ValueError):
        Direction.parse("sideways")


def test_social_problem_is_valid(social_matrix):
    cfg = RunConfig(custom_sets=((0.05,) * 12,))
    assert validate_problem(social_matrix, cfg) is social_matrix
    assert problem_violations(social_matrix, cfg) == []


def test_single_alternative_rejected():
    matrix = make_matrix([[1.0, 2.0, 3.0]], ["max", "max", "max"])
    errors = problem_violations(matrix)
    assert any("m >= 2" in e for e in errors)
    with pytest.raises(ValidationError):
        validate_problem(matrix)


def test_nan_cell_named_by_coordinates():
    matrix = make_matrix([[1.0, 2.0], [3.0, float("nan")]], ["max", "min"])
    errors = problem_violations(matrix)
    assert errors == ["non-finite value at row 2, column 2"]


def test_all_violations_reported_not_just_first():
    matrix = DecisionMatrix(
        ("a1",),
        (CriterionSpec("g1"), CriterionSpec("g1")),
        np.array([[np.inf, -1.0]]),
    )
    errors = problem_violations(matrix)
    assert len(errors) >= 3  # m < 2, non-finite, duplicate id
    assert any("duplicate" in e for e in errors)


def test_duplicate_alternative_label_rejected():
    matrix = DecisionMatrix(
        ("a", "a", "b"),
        (CriterionSpec("g1"), CriterionSpec("g2")),
        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]),
    )
    assert problem_violations(matrix) == ["duplicate alternative label 'a'"]
    with pytest.raises(ValidationError):
        validate_problem(matrix)


def _matrices_naming(bad):
    """kind of name -> a valid 2 x 2 problem but for that one name `bad`."""
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    return {
        "alternative label": DecisionMatrix((bad, "x"), (CriterionSpec("g1"), CriterionSpec("g2")),
                                            values),
        "criterion id": DecisionMatrix(("x", "y"), (CriterionSpec(bad), CriterionSpec("g2")),
                                       values),
        "criterion label": DecisionMatrix(
            ("x", "y"), (CriterionSpec("g1", label=bad), CriterionSpec("g2")), values),
    }


@pytest.mark.parametrize("char", ["\r", "\n", "\t", "\x00", "\x1f", "\x7f"])
def test_control_characters_in_names_rejected(char):
    bad = f"a{char}b"
    for kind, matrix in _matrices_naming(bad).items():
        assert problem_violations(matrix) == [f"control character in {kind} {bad!r}"]


@pytest.mark.parametrize("char", ["\ud800", "\udbff", "\udc00", "\udfff"])
def test_lone_surrogates_in_names_rejected(char):
    # no UTF-8 encoding exists, so no output file or printed line could hold the name
    bad = f"a{char}1"
    for kind, matrix in _matrices_naming(bad).items():
        assert problem_violations(matrix) == [f"lone surrogate in {kind} {bad!r}"]


def test_printable_names_accepted():
    matrix = DecisionMatrix(("a b", "x,\"y\"\u00e9"), (CriterionSpec("g 1", label="G\u2013one"),),
                            np.array([[1.0], [2.0]]))
    assert problem_violations(matrix) == []


def test_negative_values_rejected():
    matrix = make_matrix([[1.0, -2.0], [3.0, 4.0]], ["max", "max"])
    assert problem_violations(matrix) == ["negative value at row 1, column 2"]


def test_config_custom_set_checks():
    matrix = make_matrix([[1.0, 2.0], [3.0, 4.0]], ["max", "max"])
    cfg = RunConfig(custom_sets=((0.2, -0.1), (1.0,), (0.0, 0.0)))
    errors = problem_violations(matrix, cfg)
    assert any("negative" in e for e in errors)
    assert any("length" in e for e in errors)
    assert any("zero" in e for e in errors)
    assert problem_violations(matrix, RunConfig(iterations=0)) == [
        "iterations must be >= 1, got 0"
    ]


def test_validation_is_pure(social_matrix):
    before = social_matrix.values.copy()
    validate_problem(social_matrix)
    validate_problem(social_matrix)
    assert np.array_equal(social_matrix.values, before)


def test_values_are_immutable(social_matrix):
    with pytest.raises(ValueError):
        social_matrix.values[0, 0] = 99.0


def test_named_weight_set_invariants():
    NamedWeightSet("ok", [0.25, 0.75])
    with pytest.raises(ValueError):
        NamedWeightSet("bad", [0.5, 0.6])
    with pytest.raises(ValueError):
        NamedWeightSet("bad", [-0.1, 1.1])


def test_weight_bounds_invariants():
    b = WeightBounds([0.1, 0.2], [0.3, 0.2])
    assert b.width.tolist() == pytest.approx([0.2, 0.0])
    with pytest.raises(ValueError):
        WeightBounds([0.5, 0.1], [0.4, 0.2])
    with pytest.raises(ValueError):
        WeightBounds([0.0], [1.5])


def test_rank_matrix_requires_permutations():
    RankMatrix(np.array([[1, 2, 3], [3, 2, 1]]))
    with pytest.raises(ValueError):
        RankMatrix(np.array([[1, 1, 3]]))


@st.composite
def matrices(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=5))
    vals = draw(
        st.lists(
            st.lists(
                st.one_of(
                    st.floats(min_value=0.0, max_value=100.0),
                    st.just(float("nan")),
                    st.floats(min_value=-10.0, max_value=-0.001),
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=m,
            max_size=m,
        )
    )
    dirs = draw(st.lists(st.sampled_from(["max", "min"]), min_size=n, max_size=n))
    return make_matrix(vals, dirs)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_acceptance_matches_invariant_evaluation(matrix):
    v = matrix.values
    should_pass = (
        matrix.m >= 2
        and matrix.n >= 1
        and bool(np.all(np.isfinite(v)))
        and bool(np.all(v >= 0))
    )
    errors = problem_violations(matrix)
    assert (errors == []) == should_pass


# --------------------------------------------- defensive copies and locking

def test_random_weight_matrix_copies_caller_rows():
    rows = np.array([[0.2, 0.3], [0.25, 0.35]])
    rwm = RandomWeightMatrix(rows)
    rows[0, 0] = 9.0
    assert rwm.rows[0, 0] == 0.2
    assert not rwm.rows.flags.writeable


def test_rank_matrix_copies_caller_ranks():
    ranks = np.array([[1, 2, 3], [3, 1, 2]])
    rm = RankMatrix(ranks)
    ranks[0] = [3, 2, 1]
    assert rm.ranks[0].tolist() == [1, 2, 3]
    rm2 = build_rank_matrix(ranks)
    ranks[0] = [2, 3, 1]
    assert rm2.ranks[0].tolist() == [3, 2, 1]


def test_run_report_copies_caller_closeness(social_matrix):
    report = run_pipeline(social_matrix, RunConfig(iterations=50))
    xi = np.array(report.closeness)
    rebuilt = RunReport(report.matrix, report.config, report.weight_sets, report.bounds,
                        report.rwm, xi, report.rank_matrix, report.final)
    xi[:] = -1.0
    assert np.array_equal(rebuilt.closeness, report.closeness)


def _arrays_of(obj, seen=None):
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays_of(item, seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays_of(getattr(obj, f.name), seen)


def test_every_run_report_array_is_write_locked(social_matrix):
    report = run_pipeline(social_matrix, RunConfig(iterations=300, custom_sets=((0.05,) * 12,)))
    arrays = list(_arrays_of(report))
    assert len(arrays) >= 12
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]
        base = a.base
        while isinstance(base, np.ndarray):
            assert not base.flags.writeable
            base = base.base
