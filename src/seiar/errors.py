"""Exception types shared across the package."""

from __future__ import annotations


class IntegrationError(RuntimeError):
    """Numerical integration failed; ``t`` is the time of failure.

    ``member`` is the index of the ensemble column whose own state failed
    (turned non-finite or left the nonnegativity band), or None when the
    failure is shared by every member (step budget, step underflow).
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
