"""Names every layer shares that need no numpy: the exception types, the
run defaults and the characters no name may hold.

The CLI imports only this module (and :mod:`bandtopsis.summary`) before it
knows the command, so `--help`, usage errors and `plot` never load numpy.
"""

from __future__ import annotations

import re
from typing import Sequence

DEFAULT_ITERATIONS = 10_000
DEFAULT_SEED = 42

# C0 controls and DEL: a CSV writer may leave "\r" unquoted, a line break or
# tab in a name splits a table row or a printed line, and XML forbids most of them.
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


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
