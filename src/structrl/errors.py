"""Exception types raised across the package.

All inherit from StructRLError so callers can catch package failures in one
clause. Parse errors name, when known, the file and the 1-based line number
of the offending record.
"""
from __future__ import annotations


class StructRLError(Exception):
    """Base class for all package-specific failures."""


class EmptyDocs(StructRLError):
    """Main prompt requested with no retrieved documents."""


class NoFormats(StructRLError):
    """Re-inference requested for a trajectory without format blocks."""


class EmptyGolds(StructRLError):
    """Metric requested with no gold answers."""


class NegativeLambda(StructRLError):
    """Reward mixing weight must be non-negative."""


class ZeroSteps(StructRLError):
    """Linear schedule needs a positive step horizon."""


class EmptyGroup(StructRLError):
    """Advantage computation needs at least one sample."""


class NonPositiveRatio(StructRLError):
    """Importance ratio must be strictly positive."""


class LengthMismatch(StructRLError):
    """Paired token-level sequences differ in length."""


class BackendError(StructRLError):
    """Generation backend call failed.

    ``retryable`` is False when repeating the same request cannot succeed,
    such as a client error or a prompt no mock fixture answers.
    """

    def __init__(self, message: str, retryable: bool = True) -> None:
        super().__init__(message)
        self.retryable = retryable


class ParseError(StructRLError):
    """Malformed dataset record."""

    def __init__(self, message: str, line: int | None = None, path: object = None) -> None:
        where = [] if path is None else [str(path)]
        if line is not None:
            where.append(f"line {line}")
        super().__init__(f"{' '.join(where)}: {message}" if where else message)
        self.line = line


class MissingField(ParseError):
    """Dataset record lacks a required field."""

    def __init__(self, field: str, line: int | None = None, path: object = None) -> None:
        super().__init__(f"missing field {field!r}", line, path)
        self.field = field


class DuplicateId(ParseError):
    """Two dataset records share an id."""


class SampleTooLarge(StructRLError):
    """Requested sample exceeds the population size."""


class EmptyInput(StructRLError):
    """Aggregation requested over zero instances."""


class EmptyText(StructRLError):
    """Density requested for text with no tokens."""


class EmptyCandidates(StructRLError):
    """Structure selection requested with no candidates."""
