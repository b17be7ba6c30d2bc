"""Shared exception types, the checks of config values, and the JSON codec that
reads (:func:`from_json`) and writes (:func:`to_json`) every config descriptor."""

import math
from collections.abc import Callable, Iterable
from dataclasses import MISSING, fields
from enum import Enum


class ConfigError(ValueError):
    """Invalid circuit, basis, grid, or run configuration."""


class IncompatibleRepresentationError(ConfigError):
    """Representation cannot describe the given circuit family."""


class NumericalError(RuntimeError):
    """A numerical routine failed or received an invalid matrix."""


def is_finite(value) -> bool:
    """math.isfinite(value), and False for an integer beyond the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
    if not is_finite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def reject_unknown(data: dict, known: Iterable[str], what: str) -> None:
    """ConfigError naming every key of data that is not in known."""
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")


def from_json(cls, data, parsers: dict[str, Callable], what: str):
    """The dataclass cls read from the JSON object data, with one parser per
    field it may hold: an unknown field or a missing one without a default is
    a ConfigError naming it, and a field left out takes the dataclass default.
    Only parsing is wrapped, so the errors of cls itself keep their message."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {data!r}")
    reject_unknown(data, parsers, what)
    for field in fields(cls):
        if field.default is MISSING and field.name not in data:
            raise ConfigError(f"{what} requires a '{field.name}' field")
    try:
        parsed = {name: parse(data[name]) for name, parse in parsers.items() if name in data}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what} value: {exc}") from exc
    return cls(**parsed)


def to_json(obj) -> dict:
    """The fields of the dataclass obj in declaration order, as JSON values:
    an enum as its value, a tuple as a list, a nested descriptor through its
    ``to_dict``."""
    return {field.name: _json_value(getattr(obj, field.name)) for field in fields(obj)}


def _json_value(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value
