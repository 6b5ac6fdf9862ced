"""Exception types raised across the package, and its one range check.

One type per kind of failure:

- a bad value passed to a function (an empty group, a negative lambda, a
  sample larger than its population) raises the built-in ``ValueError``;
  every bounded number is checked by ``check_least``;
- a record read from disk that is malformed raises ``ParseError``, naming,
  when known, the file and the 1-based line number of the record; it is
  raised in ``dataset`` only, most often by ``dataset.check``;
- a failed generation call raises ``BackendError``.

The last two inherit from StructRLError, so the CLI catches package failures
in one clause beside ``ValueError`` and ``OSError``.
"""
from __future__ import annotations

import math


def check_least(name: str, value: float, least: float) -> None:
    """The range rule of every bounded number: at least ``least``, and not +inf."""
    # written so that NaN fails too, as below least
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    # a comparison, not isfinite, so an integer too large for a float passes
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


class StructRLError(Exception):
    """Base class for all package-specific failures."""


class BackendError(StructRLError):
    """Generation backend call failed.

    ``retryable`` is False when repeating the same request cannot succeed,
    such as a client error or a prompt no mock fixture answers.
    """

    def __init__(self, message: str, retryable: bool = True) -> None:
        super().__init__(message)
        self.retryable = retryable


class ParseError(StructRLError):
    """Malformed record read from disk."""

    def __init__(self, message: str, line: int | None = None, path: object = None) -> None:
        where = [] if path is None else [str(path)]
        if line is not None:
            where.append(f"line {line}")
        super().__init__(f"{' '.join(where)}: {message}" if where else message)
        self.line = line

