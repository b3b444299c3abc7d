"""Exception hierarchy shared across the package, and the config and
manifest key checks."""
import dataclasses
import numbers
import reprlib


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


# the JSON types a key table names, and the Python types that hold them; a
# path is a string that is not empty (an empty one would read as no file)
_JSON_TYPES = {
    "string": str, "path": str, "integer": int, "object": dict,
    "list of strings": list, "list of paths": list,
}


def _is_json(value, name: str) -> bool:
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[name]):
        return False
    if name.startswith("list of "):  # "list of paths" holds "path" items
        return all(_is_json(v, name.removeprefix("list of ")[:-1]) for v in value)
    return name != "path" or value != ""


def check_keys(block, keys: dict, where, what: str, hint: str = "") -> dict:
    """`block` without its null values, once checked against the key table
    `keys`: `block` is a JSON object, `keys` names each of its keys, each
    value that is not null is of the JSON type its key takes ("string or
    object", say), and each key whose type `keys` marks "required" is there,
    not null and not empty. Else a ConfigError naming the file `where`, the
    block `what` and the key, and ending with `hint`."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: {what} must be a JSON object{hint}")
    for key, value in block.items():
        if key not in keys:
            raise ConfigError(f"{where}: unknown {what} key {key!r}{hint}")
        types = keys[key].removeprefix("required ")
        if value is not None and not any(
            _is_json(value, name) for name in types.split(" or ")
        ):
            raise ConfigError(
                f"{where}: {what} {key!r} must be of type {types}, "
                f"got {reprlib.repr(value)}{hint}"
            )
    for key, types in keys.items():
        if types.startswith("required ") and not block.get(key):
            raise ConfigError(f"{where}: {what} needs {key!r}{hint}")
    return {key: value for key, value in block.items() if value is not None}
