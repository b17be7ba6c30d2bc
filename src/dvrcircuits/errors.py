"""Shared exception types and the checks of config values and field names."""

import math
from collections.abc import Iterable


class ConfigError(ValueError):
    """Invalid circuit, basis, grid, or run configuration."""


class IncompatibleRepresentationError(ConfigError):
    """Representation cannot describe the given circuit family."""


class NumericalError(RuntimeError):
    """A numerical routine failed or received an invalid matrix."""


def json_int(value, name: str) -> int:
    """value if it is a JSON integer (not a bool, not a float), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def json_number(value, name: str) -> float:
    """value as a float if it is a finite JSON number (an integer or a float,
    not a bool), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def reject_unknown(data: dict, known: Iterable[str], what: str) -> None:
    """ConfigError naming every key of data that is not in known."""
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
