"""Reading a run's summary.json back, with the standard library alone.

`plot` and `rwm` start from this file, so every key they read is checked
here, with the types, lengths and ranges :func:`bandtopsis.io.build_summary`
writes; a malformed document raises ProblemFormatError naming the first
key at fault.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .base import ProblemFormatError, _name_fault, _read_text

_FIVE_NUMBERS = ("min", "q1", "median", "q3", "max")

_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a finite number"}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load_summary(path) -> dict:
    """Read a run's summary.json (or the one in a run directory). A file
    that is not UTF-8, or a key that `plot` or `rwm` reads and that is
    missing, mistyped or out of range, raises ProblemFormatError naming it."""
    p = Path(path)
    if p.is_dir():
        p = p / "summary.json"
    return _check_summary(json.loads(_read_text(p)))


def _expect(value, kind, where: str, length: int | None = None, of=None):
    """`value` checked to be a `kind` (of `length` entries, each an `of`);
    the error names `where`."""
    if kind is float:
        ok = _is_number(value) and math.isfinite(value)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    loc = f" {where!r}" if where else ""
    if not ok:
        raise ProblemFormatError(
            f"summary{loc}: expected {_KINDS[kind]}, got {type(value).__name__}"
        )
    if length is not None and len(value) != length:
        raise ProblemFormatError(f"summary{loc}: expected {length} entries, got {len(value)}")
    if of is not None:
        for k, v in enumerate(value):
            _expect(v, of, f"{where}[{k}]")
    return value


def _key(doc: dict, key: str, kind, where: str = "", length: int | None = None, of=None):
    path = f"{where}.{key}" if where else key
    if key not in doc:
        raise ProblemFormatError(f"summary: missing key {path!r}")
    return _expect(doc[key], kind, path, length, of)


def _names(values: list[str], where: str) -> None:
    """Raise naming `where` (formatted with the index) at the first value
    that holds a control character or a lone surrogate, or repeats an
    earlier one."""
    seen: set[str] = set()
    for k, v in enumerate(values):
        fault = _name_fault(v)
        if fault:
            raise ProblemFormatError(f"summary {where.format(k)!r}: {fault} in {v!r}")
        if v in seen:
            raise ProblemFormatError(f"summary {where.format(k)!r}: repeats {v!r}")
        seen.add(v)


def _check_summary(summary) -> dict:
    """Return a summary document unchanged if it has every key that
    `plot` and `rwm` read, and the whole `final` ranking, with the types,
    lengths and ranges :func:`build_summary` writes (a seed in
    [0, 2^64), m >= 2 distinct alternatives, n >= 1 distinct criteria,
    names free of control characters and lone surrogates,
    positions a permutation of 1..m, modal scores in 1..m, non-negative
    histogram counts summing to the iteration count, and five-number
    summaries in order); else raise ProblemFormatError naming the first
    key at fault."""
    _expect(summary, dict, "")
    config = _key(summary, "config", dict)
    iterations = _key(config, "iterations", int, "config")
    if iterations < 1:
        raise ProblemFormatError("summary 'config.iterations': must be >= 1")
    if not 0 <= _key(config, "seed", int, "config") < 2 ** 64:
        raise ProblemFormatError("summary 'config.seed': must be in [0, 2^64)")
    alternatives = _key(summary, "alternatives", list, of=str)
    m = len(alternatives)
    if m < 2:
        raise ProblemFormatError(f"summary 'alternatives': m >= 2 required, got {m}")
    _names(alternatives, "alternatives[{}]")
    ids = []
    for k, c in enumerate(_key(summary, "criteria", list)):
        ids.append(_key(_expect(c, dict, f"criteria[{k}]"), "id", str, f"criteria[{k}]"))
    if not ids:
        raise ProblemFormatError("summary 'criteria': n >= 1 required, got 0")
    _names(ids, "criteria[{}].id")
    weights = _key(summary, "weights", list)
    for k, row in enumerate(weights):
        where = f"weights[{k}]"
        _key(_expect(row, dict, where), "name", str, where)
        _key(row, "values", list, where, len(ids), of=float)
    if [row["name"] for row in weights[-2:]] != ["lower", "upper"]:
        raise ProblemFormatError("summary 'weights': must end with the 'lower' and 'upper' rows")
    for table, keys in (("rwm_summary", ids), ("closeness_summary", alternatives)):
        fives = _key(summary, table, dict)
        for key in keys:
            five = _key(fives, key, dict, table)
            values = [_key(five, name, float, f"{table}.{key}") for name in _FIVE_NUMBERS]
            if values != sorted(values):
                raise ProblemFormatError(
                    f"summary '{table}.{key}': must satisfy min <= q1 <= median <= q3 <= max"
                )
    final = _key(summary, "final", dict)
    if sorted(_key(final, "positions", list, "final", m, of=int)) != list(range(1, m + 1)):
        raise ProblemFormatError(f"summary 'final.positions': must be a permutation of 1..{m}")
    for k, score in enumerate(_key(final, "modal_scores", list, "final", m, of=int)):
        if not 1 <= score <= m:
            raise ProblemFormatError(
                f"summary 'final.modal_scores[{k}]': must be in 1..{m}, got {score}"
            )
    for name in ("mean_scores", "mean_closeness"):
        _key(final, name, list, "final", m, of=float)
    for a, hist in enumerate(_key(final, "score_histograms", list, "final", m)):
        where = f"final.score_histograms[{a}]"
        _expect(hist, list, where, m, of=int)
        for s, count in enumerate(hist):
            if count < 0:
                raise ProblemFormatError(f"summary '{where}[{s}]': must be >= 0, got {count}")
        if sum(hist) != iterations:
            raise ProblemFormatError(
                f"summary {where!r}: counts sum to {sum(hist)}, "
                f"expected config.iterations = {iterations}"
            )
    return summary
