"""Exception types shared across the package.

Everything raised on purpose derives from :class:`KinlatError` so callers
can distinguish our failures from genuine bugs.  The CLI maps these onto
exit codes (config -> 1, numerics -> 2, failed checks -> 3).
"""

from __future__ import annotations

import math

__all__ = [
    "KinlatError",
    "ConfigError",
    "SizeMismatchError",
    "NumericalBlowupError",
    "CheckFailure",
    "require",
    "check_step",
]


class KinlatError(Exception):
    """Base class for all deliberate failures."""


class ConfigError(KinlatError):
    """Invalid run configuration (unknown key, wrong type, bad range)."""

    def __init__(self, message: str, field: str | None = None):
        self.message = message
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


class SizeMismatchError(KinlatError, ValueError):
    """Array shape does not match the lattice or grid it claims to live on."""


class NumericalBlowupError(KinlatError, RuntimeError):
    """Integration produced non-finite values, exceeded the growth bound or would be unstable."""

    def __init__(self, message: str, step: int | None = None):
        self.message = message
        self.step = step
        super().__init__(message if step is None else f"step {step}: {message}")


class CheckFailure(KinlatError):
    """An acceptance-style assertion requested via --check did not hold."""


def require(ok: bool, name: str, value: float, rule: str) -> None:
    """Raise :class:`ConfigError` at parameter ``name`` unless ``ok`` holds (NaN fails it)."""
    if not ok:
        raise ConfigError(f"must be {rule}, got {value}", field=name)


def check_step(name: str, dt: float) -> None:
    """Raise ``ValueError`` unless the time step argument ``name`` is finite and positive."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {dt!r}")
