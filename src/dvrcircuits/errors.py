"""Shared exception types and the check of integer config values."""


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
