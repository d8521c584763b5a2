"""Fuzz of `cli_main`: generated CSV and JSON problem text goes through
`weights`, `run` and `topsis` with every warning raised as an error.
Each call must return 0, 1 or 2 and never raise: a malformed input exits
2, a degenerate one 1, and no input reaches a traceback or a numpy
floating-point warning."""

import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bandtopsis.cli import cli_main

# magnitudes at and past the ends of the double range, and zero
_EDGES = [0.0, 1.0, 5e-324, 2.2e-308, 1e-300, 1e300, 1.7976931348623157e308]
values = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(min_value=0.0, max_value=1e308),
    st.integers(min_value=0, max_value=10),
)
faults = st.one_of(st.sampled_from([-1.0, float("nan"), float("inf")]), st.floats())
directions = st.sampled_from(["max", "min", "benefit", "cost", "+", "-", "MAX"])
names = st.text("ab ,\"\r\n\t", min_size=1, max_size=3)


def _spoil(draw, items, spoiled):
    """items, with one of them sometimes replaced by a draw of `spoiled`."""
    if items and draw(st.integers(0, 3)) == 0:
        items[draw(st.integers(0, len(items) - 1))] = draw(spoiled)
    return items


@st.composite
def problems(draw):
    """(suffix, text, weights flag value) of a problem file, most of them
    valid, the others with one fault: a bad value, name, direction or
    weight, or a ragged row."""
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=4))
    ids = _spoil(draw, draw(st.lists(names, min_size=n, max_size=n, unique=True)), names)
    dirs = _spoil(draw, draw(st.lists(directions, min_size=n, max_size=n)), st.just("up"))
    alternatives = _spoil(draw, draw(st.lists(names, min_size=m, max_size=m, unique=True)), names)
    grid = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=m, max_size=m))
    _spoil(draw, grid[draw(st.integers(0, m - 1))], faults)
    if draw(st.integers(0, 7)) == 0:
        grid[draw(st.integers(0, m - 1))].pop()
    w = _spoil(draw, draw(st.lists(values, min_size=n, max_size=n)), faults)
    weights = ",".join(repr(float(v)) for v in w)
    if draw(st.booleans()):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["alternative"] + ids)
        writer.writerow(["direction"] + dirs)
        writer.writerows([a] + [repr(v) for v in row] for a, row in zip(alternatives, grid))
        return ".csv", buf.getvalue(), weights
    doc = {"criteria": [{"id": i, "direction": d} for i, d in zip(ids, dirs)],
           "alternatives": alternatives, "values": grid}
    if draw(st.booleans()):
        doc["custom_sets"] = [_spoil(draw, draw(st.lists(values, min_size=n, max_size=n)),
                                     faults)]
    if draw(st.integers(0, 3)) == 0:
        doc["seed"] = draw(st.integers(min_value=-1, max_value=2 ** 65))
    return ".json", json.dumps(doc), weights


@settings(max_examples=200, deadline=None)
@given(problems())
def test_cli_returns_an_exit_code_for_any_problem_text(problem):
    suffix, text, weights = problem
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"problem{suffix}"
        path.write_text(text, encoding="utf-8")
        for argv in (["weights", str(path)],
                     ["run", str(path), "--iterations", "20", "--out", str(Path(tmp) / "out")],
                     ["topsis", str(path), f"--weights={weights}"]):
            sink = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                warnings.simplefilter("error")
                code = cli_main(argv)
            assert code in (0, 1, 2), (argv, sink.getvalue())
