"""Names every layer shares that need no numpy: the exception types, the
run defaults, the rule for the characters no name may hold and the
reading of UTF-8 input files.

The CLI imports only this module (and :mod:`bandtopsis.summary`) before it
knows the command, so `--help`, usage errors and `plot` never load numpy.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Sequence

DEFAULT_ITERATIONS = 10_000
DEFAULT_SEED = 42

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
