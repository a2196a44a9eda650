"""Error hierarchy.

Everything the toolkit raises on bad input derives from GzaspError, so
callers (and the fuzz tests) can catch one type and know the failure was
structured rather than a crash.
"""

from __future__ import annotations

__all__ = [
    "GzaspError",
    "DuplicateAggregateElementError",
    "EmptyAggregateDomainError",
    "AggregateOverflowError",
    "ParseError",
    "ReservedNameError",
    "NegatedAggregateError",
    "UnsupportedConstructError",
    "PreconditionError",
    "NotAspMError",
    "DomainTooLargeError",
    "TooManyAtomsError",
]


class GzaspError(Exception):
    """Base class for all toolkit errors."""


class DuplicateAggregateElementError(GzaspError):
    """An aggregate lists the same atom twice."""


class EmptyAggregateDomainError(GzaspError):
    """avg/min/max/odd/even need a nonempty domain."""


class AggregateOverflowError(GzaspError, OverflowError):
    """A weight, bound, sum, or avg comparison leaves the 64-bit range."""


class ParseError(GzaspError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, column: int, expected: str | None = None):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"{line}:{column}: {message}"
        if expected is not None:
            detail += f" (expected {expected})"
        super().__init__(detail)


class ReservedNameError(ParseError):
    """Input used a `__`-prefixed atom; that namespace belongs to rewritings."""


class NegatedAggregateError(ParseError):
    """`not` applied to an aggregate literal."""


class UnsupportedConstructError(GzaspError):
    """The requested output dialect cannot express part of the program."""


class PreconditionError(GzaspError):
    """A rewriting was applied to a program outside its fragment."""


class NotAspMError(GzaspError):
    """Fixpoint reasoning asked for on a program outside the monotone fragment."""


class DomainTooLargeError(GzaspError):
    """An aggregate's truth table asked for beyond DEFAULT_MAX_ATOMS."""


class TooManyAtomsError(GzaspError):
    """Model enumeration asked for beyond the atom-count guard."""
