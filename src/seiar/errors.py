"""Exception types shared across the package, the integer check of the
settings records and the check of a count of days."""

from __future__ import annotations

import numbers


class IntegrationError(RuntimeError):
    """Numerical integration failed; ``t`` is the time of failure.

    ``member`` is the index of the ensemble column whose own state failed
    (turned non-finite or left the nonnegativity band, also when the step
    underflowed on the band), or None when the failure is shared by every
    member (step budget, a step underflow on the error test).
    ``args[0]`` is the message alone; ``str`` appends the time.
    """

    def __init__(self, message: str, t: float, member: int | None = None):
        super().__init__(message)
        self.t = t
        self.member = member

    def __str__(self) -> str:
        return f"{self.args[0]} (at t = {self.t:g})"


class ConfigError(ValueError):
    """Run configuration is malformed or inconsistent."""


class DataError(ValueError):
    """Observed-series file violates the expected schema; a 1-based ``line``
    of the offending row, when known, prefixes the message as ``line N:``."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class FitError(RuntimeError):
    """Calibration could not produce a usable result."""


def require_integers(record, *names: str) -> None:
    """Raise ValueError naming the first of ``record``'s fields ``names``
    that is not an integer: a float, even a whole one, and a bool are not."""
    for name in names:
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def whole_days(value, name: str) -> int:
    """``value`` as an int when it is a whole number, at least 1, and not a
    bool; a ValueError naming ``name`` otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (value >= 1 and float(value).is_integer())):
        raise ValueError(f"{name} must be a whole number, at least 1; got {value!r}")
    return int(value)
