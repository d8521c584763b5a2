"""`bandtopsis rwm` rebuilds the sampled weight tables from summary.json
alone: the rows must be the ones the run ranked, bit for bit, and the
bytes must be those of the plain per-cell csv.writer formatting."""

import csv
import io
import json

import numpy as np
import pytest

from bandtopsis import RunConfig, parse_problem, run_pipeline
from bandtopsis.cli import cli_main
from conftest import SOCIAL_DIRECTIONS, SOCIAL_VALUES

BLOCK = 1 << 15  # splitmix64 block size in kernels.unit_uniforms
CUSTOM_A = ",".join(["0.05"] * 12)
CUSTOM_B = ",".join(str(k) for k in range(1, 13))


def _per_cell_csv(ids, rows, fmt) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["iteration"] + ids)
    w.writerows([str(i + 1)] + [fmt(float(v)) for v in row] for i, row in enumerate(rows))
    return buf.getvalue()


def _first_difference(got: str, want: str):
    """(line number, got line, wanted line) of the first differing line,
    or None; cheap to report for tables of 10^4+ lines."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for k in range(max(len(got_lines), len(want_lines))):
        pair = [lines[k] if k < len(lines) else None for lines in (got_lines, want_lines)]
        if pair[0] != pair[1]:
            return k + 1, *pair
    return None


def _social_json(tmp_path):
    p = tmp_path / "social.json"
    p.write_text(json.dumps({
        "criteria": [[f"g{j + 1}", d] for j, d in enumerate(SOCIAL_DIRECTIONS)],
        "alternatives": [f"a{i + 1}" for i in range(6)],
        "values": SOCIAL_VALUES.tolist(),
        "iterations": 300,
        "seed": 7,
    }))
    return p


@pytest.mark.parametrize(
    "args, config",
    [
        pytest.param(["--iterations", "1"], RunConfig(iterations=1), id="t1"),
        pytest.param(["--iterations", str(BLOCK - 1), "--seed", "2024"],
                     RunConfig(iterations=BLOCK - 1, seed=2024), id="block-minus-1"),
        pytest.param(["--iterations", str(BLOCK + 1), "--seed", "2024"],
                     RunConfig(iterations=BLOCK + 1, seed=2024), id="block-plus-1"),
        pytest.param(["--iterations", "500", "--no-entropy"],
                     RunConfig(iterations=500, include_entropy=False), id="no-entropy"),
        pytest.param(["--iterations", "500", "--custom", CUSTOM_A, "--custom", CUSTOM_B],
                     RunConfig(iterations=500, custom_sets=(
                         (0.05,) * 12, tuple(float(k) for k in range(1, 13)))),
                     id="two-custom-sets"),
        pytest.param([], None, id="json-own-seed"),
    ],
)
def test_rwm_rebuilds_the_rows_the_run_ranked(social_csv, tmp_path, capsys, args, config):
    problem = social_csv if config is not None else _social_json(tmp_path)
    matrix, file_config = parse_problem(problem)
    report = run_pipeline(matrix, config or file_config)
    out = tmp_path / "out"
    assert cli_main(["run", str(problem), *args, "--out", str(out)]) == 0
    assert not (out / "rwm.csv").exists()
    assert cli_main(["rwm", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote 2 files to {out}\n")

    text = (out / "rwm.csv").read_text(encoding="utf-8")
    parsed = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in text.splitlines()[1:]])
    rows = np.asarray(report.rwm.rows)
    assert parsed.shape == rows.shape
    assert np.array_equal(parsed.view(np.uint64), rows.view(np.uint64))

    ids = matrix.criterion_ids()
    assert _first_difference(text, _per_cell_csv(ids, rows, repr)) is None
    display = (out / "rwm_display.csv").read_text(encoding="utf-8")
    want = _per_cell_csv(ids, rows, lambda v: f"{v:.3f}")
    assert _first_difference(display, want) is None


def test_rwm_accepts_the_summary_path(social_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["run", str(social_csv), "--iterations", "20", "--out", str(out)]) == 0
    assert cli_main(["rwm", str(out / "summary.json")]) == 0
    capsys.readouterr()
    assert len((out / "rwm.csv").read_text().splitlines()) == 21


def test_rwm_draws_and_writes_one_block_of_rows_at_a_time(tmp_path):
    # two criteria keep the traced formatting of 2 * 10^5 lines short; their
    # t x n float64 grid is 3.05 MiB, and one block of 1,024 rows, as
    # doubles, Python floats and lines, stays within 1 MiB
    import tracemalloc

    from bandtopsis import build_summary
    from bandtopsis.io import emit_rwm
    from conftest import make_matrix

    matrix = make_matrix([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]], ["max", "max"])
    summary = build_summary(run_pipeline(matrix, RunConfig(iterations=200_000)))
    emit_rwm(build_summary(run_pipeline(matrix, RunConfig(iterations=10))), tmp_path)
    tracemalloc.start()
    try:
        paths = emit_rwm(summary, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20 < 200_000 * matrix.n * 8
    with open(paths["rwm"], "rb") as f:
        assert sum(1 for _ in f) == 200_001
