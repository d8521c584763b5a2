import csv
import dataclasses
import io as _io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandtopsis import (
    CriterionSpec,
    DecisionMatrix,
    Direction,
    NamedWeightSet,
    ProblemFormatError,
    RunConfig,
    build_summary,
    emit_rwm,
    emit_tables,
    load_summary,
    parse_problem,
    run_pipeline,
)
from bandtopsis.io import _write_rows, five_number_columns
from conftest import REF_LOWER, REF_POSITIONS, REF_UPPER, SOCIAL_DIRECTIONS, SOCIAL_VALUES

DATA = Path(__file__).resolve().parent.parent / "data"


# ------------------------------------------------------------------ parsing

def test_parse_social_csv(social_csv):
    matrix, cfg = parse_problem(social_csv)
    assert matrix.m == 6 and matrix.n == 12
    assert matrix.alternatives == tuple(f"a{i}" for i in range(1, 7))
    assert [c.direction.value for c in matrix.criteria] == SOCIAL_DIRECTIONS
    assert np.allclose(matrix.values, SOCIAL_VALUES)
    assert cfg == RunConfig()


def test_parse_csv_without_corner_cell():
    text = "g1,g2\nmax,min\nrow a,1,2\nrow b,3,4\n"
    matrix, _ = parse_problem(_io.StringIO(text), fmt="csv")
    assert matrix.criterion_ids() == ["g1", "g2"]
    assert matrix.alternatives == ("row a", "row b")


def test_parse_csv_with_utf8_bom_without_corner_cell(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfg1,g2\nmax,min\na,1,2\nb,3,4\n")
    matrix, _ = parse_problem(p)
    assert matrix.criterion_ids() == ["g1", "g2"]


def test_parse_json_with_utf8_bom(tmp_path):
    doc = {"criteria": [["g1", "max"]], "alternatives": ["x", "y"], "values": [[1], [2]]}
    p = tmp_path / "bom.json"
    p.write_bytes(b"\xef\xbb\xbf" + json.dumps(doc).encode())
    matrix, _ = parse_problem(p)
    assert matrix.alternatives == ("x", "y")


def test_social_json_is_social_csv_with_the_equal_weight_set():
    matrix, cfg = parse_problem(DATA / "social.json")
    csv_matrix, _ = parse_problem(DATA / "social.csv")
    assert matrix.alternatives == csv_matrix.alternatives
    assert matrix.criteria == csv_matrix.criteria
    assert np.array_equal(matrix.values, csv_matrix.values)
    assert cfg == RunConfig(custom_sets=((1.0,) * 12,))
    assert run_pipeline(matrix, cfg).final.positions.tolist() == REF_POSITIONS


def test_parse_csv_direction_case_folding():
    text = "c,g1,g2\nc,MAX,Min\na,1,2\nb,3,4\n"
    matrix, _ = parse_problem(_io.StringIO(text), fmt="csv")
    assert matrix.criteria[0].direction is Direction.BENEFIT
    assert matrix.criteria[1].direction is Direction.COST


def test_parse_csv_ragged_row():
    text = "c,g1,g2\n,max,min\na,1,2\nb,3\n"
    with pytest.raises(ProblemFormatError, match=r"row 4: expected 2 values, got 1"):
        parse_problem(_io.StringIO(text), fmt="csv")


def test_parse_csv_bad_direction_token():
    text = "c,g1,g2\n,max,upward\na,1,2\n"
    with pytest.raises(ProblemFormatError, match="direction"):
        parse_problem(_io.StringIO(text), fmt="csv")


def test_parse_csv_non_numeric_cell_coordinates():
    text = "c,g1,g2\n,max,min\na,1,2\nb,oops,4\n"
    with pytest.raises(ProblemFormatError, match=r"row 4, column 2"):
        parse_problem(_io.StringIO(text), fmt="csv")


def test_parse_json_round_trip(tmp_path):
    doc = {
        "criteria": [
            {"id": "g1", "direction": "max", "label": "speed"},
            ["g2", "min"],
        ],
        "alternatives": ["x", "y"],
        "values": [[1.0, 2.0], [3.0, 4.0]],
        "custom_sets": [[0.5, 0.5]],
        "iterations": 77,
        "seed": 5,
    }
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    matrix, cfg = parse_problem(p)
    assert matrix.criteria[0].label == "speed"
    assert matrix.criteria[1].direction is Direction.COST
    assert cfg.iterations == 77 and cfg.seed == 5
    assert cfg.custom_sets == ((0.5, 0.5),)


def test_parse_json_error_coordinates():
    bad_row = {"criteria": [["g1", "max"]], "alternatives": ["x"], "values": [[1, 2]]}
    with pytest.raises(ProblemFormatError, match=r"values\[0\]"):
        parse_problem(_io.StringIO(json.dumps(bad_row)), fmt="json")
    bad_cell = {"criteria": [["g1", "max"]], "alternatives": ["x"], "values": [["zz"]]}
    with pytest.raises(ProblemFormatError, match=r"values\[0\]\[0\]"):
        parse_problem(_io.StringIO(json.dumps(bad_cell)), fmt="json")


def test_unknown_format_rejected():
    with pytest.raises(ProblemFormatError):
        parse_problem("problem.txt")


# ----------------------------------------------------------------- emission

@pytest.fixture(scope="module")
def social_report(social_matrix):
    return run_pipeline(
        social_matrix, RunConfig(iterations=400, custom_sets=((0.05,) * 12,))
    )


def test_emit_writes_expected_files(social_report, tmp_path):
    paths = emit_tables(social_report, tmp_path)
    paths.update(emit_rwm(load_summary(tmp_path), tmp_path))
    for key in ("weights", "weights_display", "rwm", "rwm_display", "ranks", "summary"):
        assert paths[key].exists()


def test_weights_csv_band_rows_match_reference(social_report, tmp_path):
    paths = emit_tables(social_report, tmp_path)
    lines = paths["weights_display"].read_text().splitlines()
    rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]] for line in lines[1:]}
    assert rows["lower"] == pytest.approx(REF_LOWER, abs=0.0005)
    assert rows["upper"] == pytest.approx(REF_UPPER, abs=0.0005)


def test_ranks_csv_row_count_matches_iterations(social_matrix, tmp_path):
    report = run_pipeline(social_matrix, RunConfig(iterations=2, custom_sets=((0.05,) * 12,)))
    paths = emit_tables(report, tmp_path)
    lines = paths["ranks"].read_text().splitlines()
    assert len(lines) == 3  # header + 2 iterations
    for line in lines[1:]:
        ranks = sorted(int(v) for v in line.split(",")[1:])
        assert ranks == list(range(1, 7))


def test_summary_round_trips_final_ranking(social_report, tmp_path):
    paths = emit_tables(social_report, tmp_path)
    assert load_summary(paths["summary"])["final"] == build_summary(social_report)["final"]


def test_load_summary_accepts_directory(social_report, tmp_path):
    emit_tables(social_report, tmp_path)
    assert load_summary(tmp_path) == load_summary(tmp_path / "summary.json")


def test_emission_is_byte_deterministic(social_report, tmp_path):
    a = emit_tables(social_report, tmp_path / "one")
    b = emit_tables(social_report, tmp_path / "two")
    a.update(emit_rwm(load_summary(tmp_path / "one"), tmp_path / "one"))
    b.update(emit_rwm(build_summary(social_report), tmp_path / "two"))
    assert len(a) == 6
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key


def test_full_precision_columns_round_trip(social_report, tmp_path):
    paths = emit_rwm(build_summary(social_report), tmp_path)
    lines = paths["rwm"].read_text().splitlines()[1:]
    parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
    assert np.array_equal(parsed, social_report.rwm.rows)


def test_set_names_are_quoted_as_csv_writer_quotes_them(social_report, tmp_path):
    name = 'the "fair", set'
    weights = np.full(12, 1 / 12)
    report = dataclasses.replace(
        social_report, weight_sets=(NamedWeightSet(name, weights),) + social_report.weight_sets
    )
    paths = emit_tables(report, tmp_path)
    with open(paths["weights"], newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[1] == [name] + [repr(float(v)) for v in weights]
    names = [s.name for s in social_report.weight_sets] + ["lower", "upper"]
    assert [row[0] for row in rows[2:]] == names


@pytest.mark.parametrize("label", [
    "plain", 'a "quoted" name', "a, b", "line\nbreak", "carriage\rreturn", "", " padded ",
])
def test_row_labels_match_csv_writer_bytes(tmp_path, label):
    rows = np.array([[0.1, 2.5]])
    _write_rows(tmp_path / "t.csv", ["set", "x", "y"], [label], rows, "%r")
    expected = _io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["set", "x", "y"])
    writer.writerow([label, "0.1", "2.5"])
    assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode("utf-8")


def test_summary_config_echo(social_report, tmp_path):
    paths = emit_tables(social_report, tmp_path)
    summary = load_summary(paths["summary"])
    assert summary["config"]["iterations"] == 400
    assert summary["config"]["seed"] == social_report.config.seed
    assert summary["config"]["custom_sets"] == [[0.05] * 12]
    assert summary["final"]["order"][0] == "a1"
    assert summary["final"]["order"][-1] == "a3"


# ----------------------------------------------------- five-number summaries

def _assert_matches_percentile(table):
    got = five_number_columns(table)
    assert len(got) == table.shape[1]
    for j, summary in enumerate(got):
        with np.errstate(over="ignore", invalid="ignore"):  # where the range overflows
            ref = np.percentile(table[:, j], [0, 25, 50, 75, 100])
        values = np.array([summary[k] for k in ("min", "q1", "median", "q3", "max")])
        assert values.tobytes() == ref.tobytes(), (table.shape, j)


@pytest.mark.parametrize("t", range(1, 65))
def test_five_numbers_equal_percentile_small_t(t):
    rng = np.random.default_rng(t)
    scale = 10.0 ** rng.integers(-300, 301, size=(t, 1))
    table = np.hstack([
        rng.uniform(-1.0, 1.0, (t, 3)) * scale,                 # mixed signs, wide magnitudes
        rng.integers(0, 3, (t, 2)).astype(float) * 1e-300,      # heavy ties
        rng.uniform(0.0, 1.0, (t, 1)),                          # uniform
        rng.uniform(-2.0, -1.0, (t, 1)),                        # negative
        rng.integers(-3, 0, (t, 1)).astype(float),              # negative with ties
        rng.choice([-1.5e308, 1.5e308], (t, 1)),                # range overflows
        np.full((t, 1), 0.1),                                   # constant column
        np.full((t, 1), 7.5e299),
    ])
    _assert_matches_percentile(table)


@pytest.mark.parametrize("t", [100_000, 100_001, 100_002, 100_003, 262_147])
def test_five_numbers_equal_percentile_large_t(t):
    rng = np.random.default_rng(t)
    table = np.column_stack([
        rng.uniform(0.0, 1.0, t),
        rng.uniform(0.0, 1.0, t) * 1e300,
        rng.uniform(0.0, 1.0, t) * 1e-300,
        rng.integers(0, 5, t) * 0.25,                            # ties at every quartile
        rng.uniform(-2.0, -1.0, t),
        rng.integers(-3, 0, t).astype(float),
        np.full(t, 3.0),
    ])
    _assert_matches_percentile(table)


@given(
    st.lists(
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False).filter(lambda x: x != 0.0)
        | st.just(0.0),
        min_size=1, max_size=80,
    )
)
@settings(max_examples=300, deadline=None)
def test_five_numbers_equal_percentile_property(values):
    _assert_matches_percentile(np.array(values)[:, None])


def test_five_numbers_leave_the_table_unsorted():
    table = np.arange(12.0).reshape(4, 3)[::-1]
    before = table.copy()
    five_number_columns(table)
    assert np.array_equal(table, before)


def test_summarised_arrays_hold_no_negative_zero():
    # five_number_columns may differ from np.percentile only in the sign of
    # a zero drawn from a column holding both 0.0 and -0.0
    m = DecisionMatrix(
        ("worst", "mid", "best"),
        (CriterionSpec("g1"), CriterionSpec("g2")),
        np.array([[1.0, 1.0], [1.5, 1.2], [2.0, 2.0]]),
    )
    cfg = RunConfig(iterations=500, include_entropy=False, include_critic=False,
                    custom_sets=((0.0, 1.0), (-0.0, 1.0)))
    report = run_pipeline(m, cfg)
    assert np.all(report.closeness[:, 0] == 0.0)
    assert not np.signbit(report.closeness).any()
    assert np.any(report.rwm.rows == 0.0)
    assert not np.signbit(report.rwm.rows).any()
