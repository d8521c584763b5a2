"""Names every layer shares that need no numpy: the exception types and
the run defaults.

The CLI imports only this module (and :mod:`bandtopsis.summary`) before it
knows the command, so `--help`, usage errors and `plot` never load numpy.
"""

from __future__ import annotations

from typing import Sequence

DEFAULT_ITERATIONS = 10_000
DEFAULT_SEED = 42


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
