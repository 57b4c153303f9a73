"""The binary frame that checkpoints and featurized corpus files share.

Layout: an 8-byte magic | u32 format version | u64 header length | a
sorted-keys JSON header object | a payload that each format lays out
itself.  Each caller names its magic, version and error class.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

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


def string_list(header: dict, key: str) -> list[str]:
    """header[key], which must be a list of strings (TypeError if not)."""
    value = header[key]
    if not (isinstance(value, list)
            and all(isinstance(name, str) for name in value)):
        raise TypeError(f"{key} is not a list of strings")
    return value
