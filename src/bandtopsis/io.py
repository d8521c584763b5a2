"""Problem ingestion (CSV/JSON) and machine-readable result emission.

Every malformed input is reported with row/column (or JSON field)
coordinates. Emitted files are byte-deterministic for a fixed report:
floats are written with shortest round-trip repr, display variants with 3
decimals, and all newlines are '\\n'.
"""

from __future__ import annotations

import csv
import json
import math
from io import StringIO
from pathlib import Path
from typing import IO

import numpy as np

from .base import ProblemFormatError, _read_text
from .kernels import _chunk_rows, _for_chunks, _per_thread
from .model import (
    CriterionSpec,
    DecisionMatrix,
    Direction,
    RunConfig,
    WeightBounds,
)
from .pipeline import RunReport
from .sampling import sample_weight_matrix
from .summary import _FIVE_NUMBERS, _is_number


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
    giving the offset of the first that cannot be decoded.
    """
    fmt = _infer_format(source, fmt)
    f = source if hasattr(source, "read") else StringIO(_read_text(source), newline="")
    return _parse_csv(f) if fmt == "csv" else _parse_json(f)


def _parse_direction(token: str, where: str) -> Direction:
    try:
        return Direction.parse(token)
    except ValueError:
        raise ProblemFormatError(f"{where}: unknown direction token {token!r}") from None


def _parse_csv(f: IO[str]) -> tuple[DecisionMatrix, RunConfig]:
    rows = [[c.strip() for c in row] for row in csv.reader(f)]
    rows = [r for r in rows if any(c != "" for c in r)]
    if len(rows) < 3:
        raise ProblemFormatError(
            "CSV needs a header row, a direction row and at least one data row"
        )
    header, dir_row = rows[0], rows[1]

    def is_dir(tok: str) -> bool:
        try:
            Direction.parse(tok)
            return True
        except ValueError:
            return False

    if all(is_dir(t) for t in dir_row):
        n = len(dir_row)
        directions = [Direction.parse(t) for t in dir_row]
    elif len(dir_row) > 1 and all(is_dir(t) for t in dir_row[1:]):
        n = len(dir_row) - 1
        directions = [Direction.parse(t) for t in dir_row[1:]]
    else:
        bad = next(
            (k for k, t in enumerate(dir_row[1:], start=2) if not is_dir(t)),
            1,
        )
        raise ProblemFormatError(
            f"row 2, column {bad}: unknown direction token {dir_row[bad - 1]!r}"
        )

    if len(header) == n:
        ids = header
    elif len(header) == n + 1:
        ids = header[1:]
    else:
        raise ProblemFormatError(
            f"row 1: expected {n} criterion ids (plus optional corner cell), got {len(header)} cells"
        )

    alternatives: list[str] = []
    values: list[list[float]] = []
    for r, row in enumerate(rows[2:], start=3):
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


def _name(value, where: str) -> str:
    """An id or label: a JSON string as is, or a JSON number as its text."""
    if isinstance(value, str):
        return value
    if _is_number(value):
        return str(value)
    raise ProblemFormatError(f"{where}: expected a string or number, got {value!r}")


def _parse_json(f: IO[str]) -> tuple[DecisionMatrix, RunConfig]:
    try:
        doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ProblemFormatError("top-level JSON value must be an object")

    for key in ("criteria", "alternatives", "values"):
        if key not in doc:
            raise ProblemFormatError(f"missing required key {key!r}")

    for key in ("criteria", "alternatives"):
        if not isinstance(doc[key], list):
            raise ProblemFormatError(f"{key!r} must be a list")

    criteria = []
    for k, entry in enumerate(doc["criteria"]):
        where = f"criteria[{k}]"
        if isinstance(entry, dict):
            if "id" not in entry or "direction" not in entry:
                raise ProblemFormatError(f"{where}: need 'id' and 'direction'")
            d = _parse_direction(str(entry["direction"]), f"{where}.direction")
            cid = _name(entry["id"], f"{where}.id")
            label = _name(entry["label"], f"{where}.label") if "label" in entry else cid
            criteria.append(CriterionSpec(id=cid, direction=d, label=label))
        elif isinstance(entry, list) and len(entry) == 2:
            d = _parse_direction(str(entry[1]), f"{where}[1]")
            cid = _name(entry[0], f"{where}[0]")
            criteria.append(CriterionSpec(id=cid, direction=d, label=cid))
        else:
            raise ProblemFormatError(f"{where}: expected an object or [id, direction] pair")

    alternatives = [_name(a, f"alternatives[{k}]") for k, a in enumerate(doc["alternatives"])]
    n = len(criteria)
    values = []
    raw_values = doc["values"]
    if not isinstance(raw_values, list):
        raise ProblemFormatError("'values' must be a list of rows")
    for r, row in enumerate(raw_values):
        if not isinstance(row, list) or len(row) != n:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise ProblemFormatError(f"values[{r}]: expected {n} numbers, got {got}")
        parsed = []
        for c, cell in enumerate(row):
            if not _is_number(cell):
                raise ProblemFormatError(
                    f"values[{r}][{c}]: cannot use {cell!r} as a number"
                )
            parsed.append(float(cell))
        values.append(parsed)

    kwargs = {}
    for key in ("iterations", "seed"):
        if key in doc:
            v = doc[key]
            if not isinstance(v, int) or isinstance(v, bool):
                raise ProblemFormatError(f"{key!r}: expected an integer, got {v!r}")
            kwargs[key] = v
    if "custom_sets" in doc:
        cs = doc["custom_sets"]
        if not isinstance(cs, list) or not all(isinstance(s, list) for s in cs):
            raise ProblemFormatError("'custom_sets' must be a list of weight lists")
        for k, s in enumerate(cs):
            for c, v in enumerate(s):
                if not _is_number(v):
                    raise ProblemFormatError(
                        f"custom_sets[{k}][{c}]: cannot use {v!r} as a number"
                    )
        kwargs["custom_sets"] = tuple(tuple(float(v) for v in s) for s in cs)

    matrix = DecisionMatrix(tuple(alternatives), tuple(criteria), np.array(values))
    return matrix, RunConfig(**kwargs)


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


def _write_rows(path: Path, header: list[str], labels, rows: np.ndarray, cell: str) -> None:
    """Write the header through csv.writer, then one line per row of a
    t x k array: labels[i] (see _csv_label) and the row's values in
    `cell` format ('%r' gives a float's shortest round-trip repr). Rows
    become Python numbers one block at a time, so memory stays bounded."""
    line = "%s" + ("," + cell) * rows.shape[1] + "\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerow(header)
        for start in range(0, rows.shape[0], _ROW_BLOCK):
            stop = start + _ROW_BLOCK
            block = zip(map(_csv_label, labels[start:stop]), rows[start:stop].tolist())
            f.writelines(line % (label, *row) for label, row in block)


def _write_pair(out: Path, stem: str, header: list[str], labels, rows) -> dict[str, Path]:
    """Write stem.csv at full precision and stem_display.csv with 3 decimals."""
    paths = {}
    for suffix, cell in (("", "%r"), ("_display", "%.3f")):
        paths[stem + suffix] = p = out / f"{stem}{suffix}.csv"
        _write_rows(p, header, labels, rows, cell)
    return paths


def _linear_pick(n: int, q: float) -> tuple[int, int, float]:
    """Order statistics and weight of quantile q among n sorted values,
    as numpy's default 'linear' method picks them: virtual index
    (n - 1) * q, its floor and the next index, and the fractional part.
    At or past the last index numpy moves both picks to index -1 before
    taking the weight, so the weight is then index + 1."""
    v = (n - 1) * q
    if v >= n - 1:
        return n - 1, n - 1, v + 1
    lo = math.floor(v)
    return lo, lo + 1, v - lo


def _lerp(a: float, b: float, g: float) -> float:
    """numpy's quantile interpolation between neighbours a <= b."""
    diff = b - a
    return b - diff * (1 - g) if g >= 0.5 else a + diff * g


def five_number_columns(table: np.ndarray) -> list[dict[str, float]]:
    """min / q1 / median / q3 / max of every column of a t x k array.

    The columns are summarized in chunks (see kernels._for_chunks), each
    column copied into its thread's contiguous buffer, and only the order
    statistics the five values read are put in place: three single-k
    partitions place the median's, then the lower quartile's below it
    and the upper quartile's above it, and the minimum and maximum are
    swapped to the ends. A value one past a placed index is the least
    value before the next placed one. The five values are then read with
    the arithmetic of numpy's 'linear' method, so every value equals
    np.percentile(column, [0, 25, 50, 75, 100]) bit for bit, whichever
    select algorithm the CPU runs. The one exception is the sign of a
    zero result in a column that holds both 0.0 and -0.0, which this
    select and numpy's may pick differently; sampled weights and
    closeness values are never -0.0.
    """
    table = np.asarray(table, dtype=float)
    t, k = table.shape
    picks = [_linear_pick(t, q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    k1, k2, k3 = (lo for lo, _, _ in picks[1:4])
    placed = sorted({0, k1, k2, k3, t - 1})
    following = dict(zip(placed, placed[1:]))
    out: list = [None] * k
    buffer = _per_thread(lambda: np.empty(t))

    def columns(first: int, stop: int) -> None:
        buf = buffer()

        def stat(i: int) -> float:
            """Order statistic i of the buffer: a placed index, or one past one."""
            if i in placed:
                return float(buf[i])
            return float(buf[i:following[i - 1] + 1].min())

        for j in range(first, stop):
            np.copyto(buf, table[:, j])
            # one k per call: numpy may run a SIMD select for a single k, which on an
            # AVX-512 CPU took 2 ms per 10^6 values against 15 ms for partition([k, k + 1])
            buf.partition(k2)
            if k1 < k2:
                buf[:k2].partition(k1)
            if k3 > k2:
                buf[k2 + 1:].partition(k3 - k2 - 1)
            low, high = buf[:k1 + 1], buf[k3:]
            p = low.argmin()
            low[[0, p]] = low[[p, 0]]
            p = high.argmax()
            high[[-1, p]] = high[[p, -1]]
            out[j] = {
                name: _lerp(stat(lo), stat(hi), g)
                for name, (lo, hi, g) in zip(_FIVE_NUMBERS, picks)
            }

    _for_chunks(k, _chunk_rows(t), columns)
    return out


def build_summary(report: RunReport) -> dict:
    """Plain-data view of a run, sufficient to reconstruct the final
    ranking exactly and to redraw every chart."""
    matrix, final = report.matrix, report.final
    m = matrix.m
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
        "weights": [
            {"name": name, "values": [float(v) for v in vec]}
            for name, vec in report.weight_table()
        ],
        "rwm_summary": dict(zip(matrix.criterion_ids(), five_number_columns(report.rwm.rows))),
        "closeness_summary": dict(zip(matrix.alternatives, five_number_columns(report.closeness))),
        "final": {
            "positions": [int(p) for p in final.positions],
            "modal_scores": [int(s) for s in final.modal_scores],
            "score_histograms": [
                [int(c) for c in final.score_histograms[j, 1:]] for j in range(m)
            ],
            "mean_scores": [float(v) for v in final.mean_scores],
            "mean_closeness": [float(v) for v in final.mean_closeness],
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
    _write_rows(p, ["iteration"] + list(matrix.alternatives), range(1, report.rank_matrix.t + 1),
                report.rank_matrix.ranks, "%d")
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
    rows equal those the run ranked, bit for bit.
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
