"""The type rule for values read from outside the package.

has_type and check_types check model settings (from a config file or a
checkpoint), a split's seed and ratios, and checkpoint headers.
"""

from __future__ import annotations

from reprlib import repr as brief
from types import UnionType
from typing import get_args, get_origin


def has_type(value, kind) -> bool:
    """The type rule for every value read from outside: a bool is not an
    int, a float also takes an int, X | Y takes either, list[X] and
    tuple[X, ...] take any number of X, and tuple[X, Y] exactly X then Y."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType:
        return any(has_type(value, k) for k in args)
    if origin in (list, tuple):
        if type(value) is not origin:
            return False
        if origin is list or args[-1:] == (...,):
            args = (args[0],) * len(value)
        return len(value) == len(args) and all(map(has_type, value, args))
    return type(value) in ((int, float) if kind is float else (kind,))


def check_types(values: dict, types: dict, error=TypeError) -> None:
    """Raise error naming the first key whose value lacks its type in types
    (has_type): "no <key>" for a missing key whose type excludes None."""
    for key, kind in types.items():
        value = values.get(key)
        if key not in values and not has_type(None, kind):
            raise error(f"no {key}")
        if not has_type(value, kind):
            name = kind.__name__ if type(kind) is type else kind
            raise error(f"{key} must be of type {name}, got {brief(value)}")
