"""Exception hierarchy shared across the package, and the config type check."""
import dataclasses
import numbers


class NegtextError(Exception):
    """Base class for all package errors."""


class FormatError(NegtextError):
    """Malformed binary header or container structure."""


class DataError(NegtextError):
    """Numeric payload violates a contract (non-finite values, dim mismatch)."""


class ConfigError(NegtextError):
    """Configuration value outside its permitted range."""


class InputError(NegtextError):
    """Caller-supplied input violates an operation precondition."""


class GenerationError(NegtextError):
    """Generation client failed after bounded retries."""

    def __init__(self, message: str, image_id: str | None = None):
        super().__init__(message)
        self.image_id = image_id


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real}


def check_field_types(config) -> None:
    """Raise ConfigError where a dataclass field's value does not fit its
    annotation: an `int` takes no bool or float, and a `float` takes an int
    but no bool. Annotations are read as strings, as `from __future__ import
    annotations` leaves them."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in _FIELD_TYPES and (
            isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type])
        ):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
