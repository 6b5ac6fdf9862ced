"""Exception types raised across the package, its one range check, and the
least value of each bounded setting.

One type per kind of failure:

- a bad value passed to a function (an empty group, a negative lambda, a
  sample larger than its population) raises the built-in ``ValueError``;
  every bounded number is checked by ``check_least``, and every bounded
  setting against its value in ``LEAST``;
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


# the least value of each bounded setting; lambda's bounds both ends of the
# schedule that ``reward.parse_schedule`` reads
LEAST = {"k": 1, "lambda": 0, "epsilon": 0, "beta": 0, "parallel": 1, "temperature": 0,
         "max_tokens": 1, "retries": 0}


def check_settings(config: dict) -> None:
    """Fail unless each bounded number that a settings record holds is at
    least its least value; the record may hold only the settings its reader
    uses. Lambda, a schedule, is checked where it is parsed."""
    for name, least in LEAST.items():
        if name in config and name != "lambda":
            check_least(name, config[name], least)


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

