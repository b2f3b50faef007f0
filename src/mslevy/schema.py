"""The one engine that validates every JSON config block.

A schema maps each key of a block to `(required, default, checker)`.
`apply_schema` refuses unknown and missing keys, fills defaults, and
calls `checker(value, path)` with the key's dotted path (`table.box`,
`model.nu2.size.lo`), which the checker names when it refuses a value.
A checker returns the validated value or raises ConfigurationError.
Numbers must be finite: Python's json parses NaN and Infinity.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, fields

from .errors import ConfigurationError


def _is_num(v) -> bool:
    # the comparison is False for NaN and exact for integers of any size
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def finite(v, path):
    """A finite number, kept as given (an integer stays an integer)."""
    if not _is_num(v):
        raise ConfigurationError(f"{path}: expected a finite number, got {v!r}")
    return v


def num(v, path) -> float:
    """A finite number, as a float."""
    return float(finite(v, path))


def integer(minimum=1):
    def check(v, path):
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise ConfigurationError(f"{path}: expected an integer >= {minimum}")
        return v
    return check


def num_list(min_len=1):
    def check(v, path):
        if not isinstance(v, list) or len(v) < min_len or not all(map(_is_num, v)):
            raise ConfigurationError(
                f"{path}: expected a list of >= {min_len} finite numbers, got {v!r}")
        return [float(u) for u in v]
    return check


def pair(v, path) -> list[float]:
    if not isinstance(v, list) or len(v) != 2 or not all(map(_is_num, v)):
        raise ConfigurationError(f"{path}: expected [lo, hi] finite numbers, got {v!r}")
    return [float(v[0]), float(v[1])]


def string(choices=None):
    def check(v, path):
        if not isinstance(v, str) or (choices and v not in choices):
            raise ConfigurationError(
                f"{path}: expected one of {choices}, got {v!r}" if choices
                else f"{path}: expected a string, got {v!r}")
        return v
    return check


def boolean(v, path) -> bool:
    if not isinstance(v, bool):
        raise ConfigurationError(f"{path}: expected true or false, got {v!r}")
    return v


def mapping(v, path) -> dict:
    if not isinstance(v, dict):
        raise ConfigurationError(f"{path}: expected a mapping, got {v!r}")
    return v


def maybe(checker):
    """`checker`, or None for a null value."""
    return lambda v, path: None if v is None else checker(v, path)


def block(schema):
    """A nested mapping validated by `schema`."""
    return lambda v, path: apply_schema(v, schema, path)


def dataclass_of(cls):
    """A checker that builds a `cls` from a mapping of its dataclass
    fields, each a finite number kept as given; a field without a default
    is required."""
    schema = {f.name: (f.default is MISSING, f.default, finite) for f in fields(cls)}
    return lambda v, path: cls(**apply_schema(v, schema, path))


def apply_schema(raw, schema: dict, path: str = "") -> dict:
    """The validated copy of the config block `raw` at `path` ("" for the
    root): every key of `schema` checked, or set to its default."""
    def at(key):
        return f"{path}.{key}" if path else key

    unknown = set(mapping(raw, path or "config root")) - set(schema)
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {sorted(map(at, unknown))}")
    out = {}
    missing = []
    for key, (required, default, checker) in schema.items():
        if key in raw:
            out[key] = checker(raw[key], at(key))
        elif required:
            missing.append(at(key))
        else:
            out[key] = default
    if missing:
        raise ConfigurationError(f"missing required config key(s): {missing}")
    return out
