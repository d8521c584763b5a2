"""Problem ingestion (CSV/JSON) and machine-readable result emission.

Every malformed input is reported by CSV row (the line it starts on)
and column, or by JSON field. Emitted files are byte-deterministic for
a fixed report: floats are written with shortest round-trip repr,
display variants with 3 decimals, and all newlines are '\\n'.
"""

from __future__ import annotations

import csv
import json
from io import StringIO
from pathlib import Path
from typing import IO

import numpy as np

from .base import ProblemFormatError, _is_number, _read_json, _read_text, _Shape
from .model import (
    CriterionSpec,
    DecisionMatrix,
    Direction,
    RunConfig,
    WeightBounds,
)
from .pipeline import RunReport
from .sampling import sample_weight_matrix


# ------------------------------------------------------------------ parsing

def _infer_format(source, fmt: str | None) -> str:
    if fmt:
        f = fmt.lower()
        if f not in ("csv", "json"):
            raise ProblemFormatError(f"unknown format {fmt!r} (expected csv or json)")
        return f
    suffix = Path(str(source)).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".json":
        return "json"
    raise ProblemFormatError(
        f"cannot infer format of {source!r}; pass format explicitly"
    )


def parse_problem(source, fmt: str | None = None) -> tuple[DecisionMatrix, RunConfig]:
    """Read a problem file.

    CSV layout: a header row of criterion ids (optionally preceded by a
    corner cell), a direction row of max/min tokens (same optional corner
    cell), then one row per alternative: label followed by n values.

    JSON layout: one object with "criteria" (id/direction/label objects),
    "alternatives", "values", and optional "custom_sets", "iterations",
    "seed".

    A file must be UTF-8 text; other bytes raise ProblemFormatError
    giving the offset of the first that cannot be decoded. JSON goes
    through :mod:`bandtopsis.base`'s reader and shape checker, as
    summary.json does.
    """
    fmt = _infer_format(source, fmt)
    if fmt == "json":
        return _parse_json(_read_json(source, "problem"))
    return _parse_csv(source if hasattr(source, "read") else
                      StringIO(_read_text(source), newline=""))


def _parse_direction(token, where: str) -> Direction:
    try:
        return Direction.parse(token)
    except ValueError:
        raise ProblemFormatError(f"{where}: unknown direction token {token!r}") from None


def _parse_csv(f: IO[str]) -> tuple[DecisionMatrix, RunConfig]:
    """The problem in CSV `f`; blank records are skipped, rows named by the line they start on."""
    reader, lines, rows, start = csv.reader(f), [], [], 1
    for row in reader:
        if any(c.strip() for c in row):
            lines.append(start)
            rows.append([c.strip() for c in row])
        start = reader.line_num + 1
    if len(rows) < 3:
        raise ProblemFormatError(
            "CSV needs a header row, a direction row and at least one data row"
        )
    header, dir_row = rows[0], rows[1]
    try:
        Direction.parse(dir_row[0])
        corner = 0
    except ValueError:  # a corner cell, unless it is the only cell
        corner = int(len(dir_row) > 1)
    directions = [_parse_direction(t, f"row {lines[1]}, column {k}")
                  for k, t in enumerate(dir_row[corner:], start=corner + 1)]
    n = len(directions)
    if len(header) not in (n, n + 1):
        raise ProblemFormatError(f"row {lines[0]}: expected {n} criterion ids "
                                 f"(plus optional corner cell), got {len(header)} cells")
    ids = header[-n:]

    alternatives: list[str] = []
    values: list[list[float]] = []
    for r, row in zip(lines[2:], rows[2:]):
        if len(row) != n + 1:
            raise ProblemFormatError(f"row {r}: expected {n} values, got {len(row) - 1}")
        alternatives.append(row[0])
        parsed = []
        for c, cell in enumerate(row[1:], start=2):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ProblemFormatError(
                    f"row {r}, column {c}: cannot parse {cell!r} as a number"
                ) from None
        values.append(parsed)

    criteria = tuple(
        CriterionSpec(id=i, direction=d, label=i) for i, d in zip(ids, directions)
    )
    return DecisionMatrix(tuple(alternatives), criteria, np.array(values)), RunConfig()


_PROBLEM = _Shape("problem")


def _name(value, where: str) -> str:
    """An id or label: a JSON string as is, or a JSON number as its text."""
    if isinstance(value, str) or _is_number(value):
        return str(value)
    raise ProblemFormatError(
        f"problem {where!r}: expected a string or number, got {type(value).__name__}"
    )


def _criterion(entry, where: str) -> CriterionSpec:
    """A criteria entry: an {"id", "direction"[, "label"]} object or an
    [id, direction] pair."""
    if isinstance(entry, list) and len(entry) == 2:
        cid = _name(entry[0], f"{where}[0]")
        return CriterionSpec(cid, _parse_direction(entry[1], f"{where}[1]"), cid)
    if not isinstance(entry, dict):
        raise ProblemFormatError(f"problem {where!r}: expected an object or [id, direction] pair")
    cid = _name(_PROBLEM.key(entry, "id", object, where), f"{where}.id")
    d = _parse_direction(_PROBLEM.key(entry, "direction", object, where), f"{where}.direction")
    label = _name(entry["label"], f"{where}.label") if "label" in entry else cid
    return CriterionSpec(cid, d, label)


def _parse_json(doc) -> tuple[DecisionMatrix, RunConfig]:
    _PROBLEM.expect(doc, dict, "")
    criteria = [_criterion(e, f"criteria[{k}]")
                for k, e in enumerate(_PROBLEM.key(doc, "criteria", list))]
    alternatives = [_name(a, f"alternatives[{k}]")
                    for k, a in enumerate(_PROBLEM.key(doc, "alternatives", list))]
    values = [_PROBLEM.expect(row, list, f"values[{r}]", len(criteria), of=float)
              for r, row in enumerate(_PROBLEM.key(doc, "values", list))]
    config = {key: _PROBLEM.key(doc, key, int) for key in ("iterations", "seed") if key in doc}
    if "custom_sets" in doc:
        config["custom_sets"] = [_PROBLEM.expect(s, list, f"custom_sets[{k}]", of=float)
                                 for k, s in enumerate(_PROBLEM.key(doc, "custom_sets", list))]
    return DecisionMatrix(alternatives, criteria, values), RunConfig(**config)


# ----------------------------------------------------------------- emission

_ROW_BLOCK = 1 << 10


def _csv_label(label):
    """`label` as csv.writer writes it ahead of other fields; an int, such
    as a row number, needs no quotes and is returned as is."""
    if isinstance(label, int):
        return label
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow([label, ""])
    return buf.getvalue()[:-2]  # drop the empty field's "," and the "\n"


def _write_rows(path: Path, header: list[str], labels, rows, cell: str,
                most: int | None = None) -> None:
    """Write the header through csv.writer, then one line per row of a
    t x k array or a _Rows view (a run's weight rows or ranks), of which
    only `shape` and runs of rows `rows[lo:hi]` are read: labels[i] (see
    _csv_label) and the row's values in `cell` format ('%r' gives a
    float's shortest round-trip repr). Rows are read, and so drawn, and
    written one block at a time, so memory stays bounded.

    Given `most`, the rows hold unsigned integers no larger than `most`
    under a range of labels counting up from 0 or more, as ranks.csv's
    do: their lines are built as bytes (see _uint_lines), equal to what
    the '%d' format gives, and never become Python numbers. Other rows
    become Python numbers a block at a time."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerow(header)
        if most is not None:
            f.flush()  # the header goes ahead of the bytes
            for block in _uint_lines(labels, rows, most):
                f.buffer.write(block)
            return
        line = "%s" + ("," + cell) * rows.shape[1] + "\n"
        for start in range(0, rows.shape[0], _ROW_BLOCK):
            stop = start + _ROW_BLOCK
            block = zip(map(_csv_label, labels[start:stop]), rows[start:stop].tolist())
            f.writelines(line % (label, *row) for label, row in block)


def _uint_lines(labels: range, rows, most: int):
    """The lines "label,v1,...,vk\\n" of a counting range of non-negative
    labels and the rows of unsigned integers up to `most` (an array or a
    _Rows view, read a run of rows at a time), as uint8 arrays of up to
    _ROW_BLOCK lines each.

    A block is built as a byte grid of one line per row: the label's
    digits, right-aligned in the width of the last label; per cell a
    comma and the value's digits, looked up in a table of the digits of
    0 up to the largest value; and a newline. A place a shorter number
    leaves empty holds a NUL byte, and the NULs are dropped."""
    t, k = rows.shape
    cw = len(str(most))
    digits = np.frombuffer("".join(f"{v:>{cw}}" for v in range(most + 1)).encode(), np.uint8)
    digits = np.where(digits == ord(" "), 0, digits).reshape(most + 1, cw)
    lw = len(str(labels[-1])) if t else 1
    place = 10 ** np.arange(lw - 1, -1, -1)
    lead = np.where(place == 1, 0, place)  # a digit shows from its place value on; units always
    grid = np.zeros((min(t, _ROW_BLOCK), lw + k * (cw + 1) + 1), np.uint8)
    cells = grid[:, lw:-1].reshape(len(grid), k, cw + 1)  # a view: only the last axis splits
    cells[:, :, 0] = ord(",")
    grid[:, -1] = ord("\n")
    for start in range(0, t, _ROW_BLOCK):
        block = labels[start:start + _ROW_BLOCK]
        lines = len(block)
        label = np.arange(block.start, block.stop, block.step)[:, None]
        grid[:lines, :lw] = np.where(label >= lead, label // place % 10 + ord("0"), 0)
        cells[:lines, :, 1:] = digits[rows[start:start + lines]]
        flat = grid[:lines].ravel()
        yield flat[flat != 0]


def _write_pair(out: Path, stem: str, header: list[str], labels, rows) -> dict[str, Path]:
    """Write stem.csv at full precision and stem_display.csv with 3 decimals."""
    paths = {}
    for suffix, cell in (("", "%r"), ("_display", "%.3f")):
        paths[stem + suffix] = p = out / f"{stem}{suffix}.csv"
        _write_rows(p, header, labels, rows, cell)
    return paths


def build_summary(report: RunReport) -> dict:
    """Plain-data view of a run, sufficient to reconstruct the final
    ranking exactly and to redraw every chart."""
    matrix, final = report.matrix, report.final
    return {
        "config": {
            "iterations": report.config.iterations,
            "seed": report.config.seed,
            "include_entropy": report.config.include_entropy,
            "include_critic": report.config.include_critic,
            "custom_sets": [list(s) for s in report.config.custom_sets],
        },
        "alternatives": list(matrix.alternatives),
        "criteria": [
            {"id": c.id, "label": c.label, "direction": c.direction.value}
            for c in matrix.criteria
        ],
        "weights": [{"name": name, "values": vec.tolist()} for name, vec in report.weight_table()],
        "rwm_summary": {name: dict(five) for name, five in
                        zip(matrix.criterion_ids(), report.rwm_summary)},
        "closeness_summary": {name: dict(five) for name, five in
                              zip(matrix.alternatives, report.closeness_summary)},
        "final": {
            "positions": final.positions.tolist(),
            "modal_scores": final.modal_scores.tolist(),
            "score_histograms": final.score_histograms[:, 1:].tolist(),
            "mean_scores": final.mean_scores.tolist(),
            "mean_closeness": final.mean_closeness.tolist(),
            "order": [matrix.alternatives[j] for j in final.order],
        },
    }


def emit_tables(report: RunReport, out_dir) -> dict[str, Path]:
    """Write the weights table (full precision plus its 3-decimal display
    variant), ranks.csv and summary.json under out_dir. The t sampled
    weight rows are not written: :func:`emit_rwm` rebuilds them exactly
    from summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrix = report.matrix
    names, vectors = zip(*report.weight_table())
    paths = _write_pair(out, "weights", ["set"] + matrix.criterion_ids(), names, np.array(vectors))
    paths["ranks"] = p = out / "ranks.csv"
    rm = report.rank_matrix  # each row a permutation of 1..m
    _write_rows(p, ["iteration"] + list(matrix.alternatives), range(1, rm.t + 1), rm.ranks, "%d",
                most=rm.m)
    paths["summary"] = p = out / "summary.json"
    with open(p, "w", encoding="utf-8", newline="") as f:
        json.dump(build_summary(report), f, indent=2)
        f.write("\n")
    return paths


def emit_rwm(summary: dict, out_dir) -> dict[str, Path]:
    """Rebuild a run's t sampled weight rows from its summary document and
    write them under out_dir as rwm.csv (full precision) and
    rwm_display.csv (3 decimals).

    Row i is a pure function of (bounds, seed, i), and the summary records
    the bounds (its last two weights rows), the seed and t exactly, so the
    rows equal those the run ranked, bit for bit. Each file is drawn and
    written one block of _ROW_BLOCK rows at a time, so no t x n grid is
    held.
    """
    lower, upper = (row["values"] for row in summary["weights"][-2:])
    try:
        bounds = WeightBounds(lower, upper)
    except ValueError as e:
        raise ProblemFormatError(f"summary 'weights': {e}") from None
    config = summary["config"]
    rows = sample_weight_matrix(bounds, config["iterations"], config["seed"]).rows
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["iteration"] + [c["id"] for c in summary["criteria"]]
    return _write_pair(out, "rwm", header, range(1, rows.shape[0] + 1), rows)
