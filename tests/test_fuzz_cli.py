"""Fuzz of `cli_main`: generated CSV and JSON problem text goes through
`weights`, `run` and `topsis` with every warning raised as an error.
Each call must return 0, 1 or 2 and never raise: a malformed input exits
2, a degenerate one 1, and no input reaches a traceback or a numpy
floating-point warning. Generated `summary.json` text goes through
`plot` and `rwm`, which must return 0 or 2 and write well-formed files."""

import contextlib
import copy
import csv
import functools
import io
import json
import tempfile
import warnings
import xml.etree.ElementTree as ET
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
# an int past the double range reaches the values and custom sets of a JSON
# problem; the --weights string is built with float(), which cannot hold it
json_faults = st.one_of(faults, st.just(10 ** 400))
directions = st.sampled_from(["max", "min", "benefit", "cost", "+", "-", "MAX"])
# a lone surrogate reaches a JSON problem as a "\ud800" escape and a CSV one
# as the bytes ED A0 80, which are not UTF-8
names = st.text("ab ,\"\r\n\t\ud800", min_size=1, max_size=3)


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
    _spoil(draw, grid[draw(st.integers(0, m - 1))], json_faults)
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
                                     json_faults)]
    if draw(st.integers(0, 3)) == 0:
        doc["seed"] = draw(st.integers(min_value=-1, max_value=2 ** 65))
    return ".json", json.dumps(doc), weights


@settings(max_examples=200, deadline=None)
@given(problems())
def test_cli_returns_an_exit_code_for_any_problem_text(problem):
    suffix, text, weights = problem
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"problem{suffix}"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        for argv in (["weights", str(path)],
                     ["run", str(path), "--iterations", "20", "--out", str(Path(tmp) / "out")],
                     ["topsis", str(path), f"--weights={weights}"]):
            code, said = _call(argv)
            assert code in (0, 1, 2), (argv, said)


def _call(argv):
    """cli_main(argv) with every warning raised as an error: (exit code,
    what it printed)."""
    sink = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        warnings.simplefilter("error")
        code = cli_main(argv)
    return code, sink.getvalue()


@functools.lru_cache(maxsize=None)
def _valid_summary() -> str:
    """summary.json text of a t = 20 run on a 3 x 2 problem."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps({
            "criteria": [["g1", "max"], ["g2", "min"]], "alternatives": ["a1", "a2", "a3"],
            "values": [[0.3, 0.1], [0.2, 0.3], [0.5, 0.2]], "iterations": 20}))
        assert _call(["run", str(path), "--out", tmp])[0] == 0
        return (Path(tmp) / "summary.json").read_text(encoding="utf-8")


# values of the wrong type, out of range or not finite (10**400 is an int past
# the double range)
odd_values = st.one_of(
    st.sampled_from([None, True, "x", [], {}, [0.5], {"min": 0.0}, -1, 0, 2 ** 64, -0.5, 1.5,
                     float("nan"), float("inf"), 10 ** 400]),
    st.integers(min_value=-2, max_value=2 ** 65),
    st.floats(),
)
unwritable = st.sampled_from([chr(c) for c in range(32)] + ["\x7f", "\ud800", "\udfff"])


def _node(draw, doc):
    """(container, key) of a node below the root, chosen by a random walk;
    (None, None) when the root is empty."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    return parent, key


@st.composite
def summary_texts(draw):
    """summary.json text from a valid t = 20 run with a few faults: a name
    with a control character or a lone surrogate (renamed in its
    five-number table too), then deleted keys and values of a wrong type
    or out of range, and sometimes the text cut short."""
    doc = json.loads(_valid_summary())
    if draw(st.integers(0, 3)) == 0:
        names = [(doc["alternatives"], k, "closeness_summary") for k in range(3)]
        names += [(c, "id", "rwm_summary") for c in doc["criteria"]]
        holder, key, table = draw(st.sampled_from(names))
        old = holder[key]
        cut = draw(st.integers(0, len(old)))
        holder[key] = old[:cut] + draw(unwritable) + old[cut:]
        doc[table][holder[key]] = doc[table].pop(old)
    for _ in range(draw(st.integers(0, 2))):
        parent, key = _node(draw, doc)
        if parent is None:
            break
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(odd_values))  # a later step may edit it
    config = doc.get("config")
    if isinstance(config, dict) and isinstance(config.get("iterations"), int):
        config["iterations"] = min(config["iterations"], 1000)  # rwm draws this many rows
    text = json.dumps(doc)
    if draw(st.integers(0, 7)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=200, deadline=None)
@given(summary_texts())
def test_plot_and_rwm_return_an_exit_code_for_any_summary_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "summary.json").write_text(text, encoding="utf-8")
        for command in ("plot", "rwm"):
            before = set(out.iterdir())
            code, said = _call([command, tmp])
            assert code in (0, 2), (command, said)
            written = set(out.iterdir()) - before
            assert bool(written) == (code == 0), (command, said)
            for path in written:
                if path.suffix == ".svg":
                    ET.parse(path)
                else:
                    with open(path, newline="", encoding="utf-8") as f:
                        header = next(csv.reader(f))
                    assert len(header) == len(json.loads(text)["criteria"]) + 1, path.name
