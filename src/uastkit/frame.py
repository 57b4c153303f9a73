"""The binary frame that checkpoints and featurized corpus files share.

Layout: an 8-byte magic | u32 format version | u64 header length | a
sorted-keys JSON header object | a payload that each format lays out
itself.  Each caller names its magic, version and error class.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from reprlib import repr as brief
from types import UnionType
from typing import get_args, get_origin

_PREFIX = struct.Struct("<8sIQ")


def write_frame(fh, magic: bytes, version: int, header: dict) -> None:
    """Write the frame's prefix and JSON header; the payload follows."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(_PREFIX.pack(magic, version, len(blob)))
    fh.write(blob)


def read_frame(path: str | Path, magic: bytes, version: int, error,
               what: str) -> tuple[dict, bytes, int]:
    """The JSON header, the file's bytes and the payload's offset; raises
    error for a file that is unreadable or not framed as magic and version."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if raw[:len(magic)] != magic:
        raise error(f"{path}: not a {what} file")
    if len(raw) < _PREFIX.size:
        raise error(f"{path}: truncated header")
    _, found, header_len = _PREFIX.unpack_from(raw)
    if found != version:
        raise error(f"{path}: unsupported format version {found}")
    start = _PREFIX.size + header_len
    if len(raw) < start:
        raise error(f"{path}: truncated header")
    try:
        header = json.loads(raw[_PREFIX.size:start].decode("utf-8"))
    except ValueError as exc:
        raise error(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise error(f"{path}: corrupt header: not a JSON object")
    return header, raw, start


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
