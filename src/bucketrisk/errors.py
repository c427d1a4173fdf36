"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems (including anything
raised while parsing input files) exit with 2, blown enumeration budgets with
3. "No safe node found" is not an exception; the search returns an empty
result and the CLI exits 4.
"""

from __future__ import annotations

import numbers

# The default --budget, and the default budget of the oracle's enumerations.
DEFAULT_BUDGET = 10_000_000


class BucketRiskError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BucketRiskError):
    """Malformed or inconsistent input data."""


class ParseError(ValidationError):
    """Syntax error in a knowledge file.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InconsistentKnowledgeError(BucketRiskError):
    """No world consistent with the bucketization satisfies the knowledge."""


class BudgetExceededError(BucketRiskError):
    """An enumeration, or other work, would exceed the configured budget.

    ``count`` is the size that tripped the check, so callers can shrink the
    instance or raise the budget; ``what`` names what it counts.
    """

    def __init__(self, count: int, budget: int, what: str = "enumeration size"):
        super().__init__(f"{what} {count} exceeds budget {budget}")
        self.count = count
        self.budget = budget


def _check_count(value: object, name: str, least: int | None = 0) -> None:
    """Refuse a non-integer count (bool is one), or one below ``least`` unless it is None."""
    if type(value) is not int and not isinstance(value, numbers.Integral):  # int: no ABC lookup
        raise ValidationError(f"{name} must be an integer")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be " + (f">= {least}" if least else "non-negative"))


def _check_sequence(value: object, name: str) -> None:
    """Refuse what is not a list or a tuple, naming its type: an iterator's
    repr holds a memory address."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list or a tuple, not {type(value).__name__}")
