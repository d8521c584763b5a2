"""Names every layer shares that need no numpy: the exception types, the
run defaults, the rules of a run's config, the rule for the characters
no name may hold, the reading of UTF-8 input files and the one reader
and shape checker of the JSON documents the package reads (a problem
file and a run's summary.json).

The CLI imports only this module (and :mod:`bandtopsis.summary`) before it
knows the command, so `--help`, usage errors and `plot` never load numpy.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

DEFAULT_ITERATIONS = 10_000
DEFAULT_SEED = 42
# The most iterations a run takes. A run's time and its ranks.csv grow
# with t: on a 2-CPU x86-64 VM the pass ranks 2.4-3.4 million rows of
# data/social.csv a second, so 10^9 rows take 5-7 minutes and write a
# ranks.csv of about 20 GB.
_MAX_ITERATIONS = 10 ** 9

# C0 controls and DEL: a CSV writer may leave "\r" unquoted, a line break or
# tab in a name splits a table row or a printed line, and XML forbids most of
# them. A lone surrogate (a JSON "\ud800" escape) has no UTF-8 encoding, so no
# output file or printed line could hold the name.
_NAME_FAULTS = (("control character", re.compile(r"[\x00-\x1f\x7f]")),
                ("lone surrogate", re.compile("[\ud800-\udfff]")))


class ProblemFormatError(ValueError):
    """Malformed problem file; message carries the offending location."""


class ValidationError(ValueError):
    """Raised when a problem violates structural invariants.

    Carries the complete list of violations, not just the first.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ComputationError(ValueError):
    """Raised when a computation is undefined for the given input
    (constant column, zero column sum, degenerate ideal, ...)."""


def _config_faults(iterations: int, seed: int) -> list[tuple[str, str]]:
    """The rules a run's config keeps, in a problem and in the summary
    that echoes it: (key, fault) for each of `iterations` and `seed` that
    breaks one. t must be in [1, _MAX_ITERATIONS] and the seed in
    [0, 2^64)."""
    faults = []
    if iterations < 1:
        faults.append(("iterations", f"must be >= 1, got {iterations}"))
    elif iterations > _MAX_ITERATIONS:
        faults.append(("iterations", f"must be <= {_MAX_ITERATIONS}, got {iterations}"))
    if not 0 <= seed < 2 ** 64:
        faults.append(("seed", f"must be in [0, 2^64), got {seed}"))
    return faults


def _name_fault(name: str) -> str | None:
    """What `name` holds that no output may: "control character" or
    "lone surrogate"; None if it holds neither."""
    return next((fault for fault, chars in _NAME_FAULTS if chars.search(name)), None)


def _read_text(path) -> str:
    """The text of a UTF-8 file, less a leading byte order mark. The
    whole file is decoded at once, so bytes that are not UTF-8 raise
    ProblemFormatError giving their offset from the start of the file."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise ProblemFormatError(f"{path}: not valid UTF-8 at byte offset {e.start}") from None


def _read_json(source, doc: str):
    """The JSON value in a UTF-8 file (see _read_text) or an open text file.
    Bad syntax, nesting too deep for the decoder and an integer literal
    longer than int() converts raise ProblemFormatError "<doc>: invalid JSON"."""
    text = source.read() if hasattr(source, "read") else _read_text(source)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ProblemFormatError(f"{doc}: invalid JSON: {e}") from None


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a finite number"}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class _Shape:
    """The shape checks of one JSON document, named `doc` ("summary" or
    "problem") in every ProblemFormatError they raise with the key path."""

    doc: str

    def expect(self, value, kind, where: str, length: int | None = None, of=None):
        """`value` checked to be a `kind` (of `length` entries, each an
        `of`). `object` is any value; `float` is a finite number, which
        an int past the double range is not (compared without converting)."""
        if kind is float:
            ok = _is_number(value) and abs(value) <= sys.float_info.max
        else:
            ok = isinstance(value, kind) and not (kind is int and isinstance(value, bool))
        at = f"{self.doc} {where!r}" if where else self.doc
        if not ok:
            raise ProblemFormatError(f"{at}: expected {_KINDS[kind]}, got {type(value).__name__}")
        if length is not None and len(value) != length:
            raise ProblemFormatError(f"{at}: expected {length} entries, got {len(value)}")
        if of is not None:
            for k, v in enumerate(value):
                self.expect(v, of, f"{where}[{k}]")
        return value

    def key(self, obj: dict, key: str, kind, where="", length=None, of=None):
        """obj[key], checked as by expect; its path is `where`.`key`."""
        path = f"{where}.{key}" if where else key
        if key not in obj:
            raise ProblemFormatError(f"{self.doc}: missing key {path!r}")
        return self.expect(obj[key], kind, path, length, of)
