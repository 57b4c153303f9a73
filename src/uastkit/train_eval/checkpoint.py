"""Versioned binary checkpoints.

Layout: the 8-byte magic ``UASTCKPT`` | u32 format version | u64 header
length | a sorted-keys JSON header object | the parameter matrices as raw
little-endian float64, concatenated in manifest order.  The header carries
the model configuration, vocabulary, table hash, label and language sets,
run provenance (config dict and seed), and the epoch/step counters.
Nothing time-dependent is written, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..ast_frontend import Vocabulary, vocabulary_from_kinds
from ..errors import CheckpointError, ConfigError
from ..model import ModelConfig, ModelParams, empty_params
from ..typecheck import check_types

MAGIC = b"UASTCKPT"
FORMAT_VERSION = 3
_PREFIX = struct.Struct("<8sIQ")

# each header value's type (typecheck.has_type); a nullable one may be absent
_HEADER_TYPES = {
    "config": dict, "vocab_kinds": list[str], "labels": list[str],
    "languages": list[str], "table_hash": str, "unified": bool, "seed": int,
    "epoch": int, "step": int, "params": list[dict],
    "run_config": dict | None, "val_metrics": dict | None}


@dataclass
class Checkpoint:
    config: ModelConfig
    params: ModelParams
    vocab: Vocabulary
    labels: tuple[str, ...]
    languages: tuple[str, ...]
    table_hash: str
    unified: bool
    seed: int
    epoch: int = 0
    step: int = 0
    run_config: dict | None = None
    val_metrics: dict | None = None

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.languages = tuple(self.languages)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    manifest = ckpt.params.manifest()
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(ckpt.config),
        "labels": list(ckpt.labels),
        "languages": list(ckpt.languages),
        "table_hash": ckpt.table_hash,
        "unified": ckpt.unified,
        "seed": ckpt.seed,
        "epoch": ckpt.epoch,
        "step": ckpt.step,
        "run_config": ckpt.run_config,
        "val_metrics": ckpt.val_metrics,
        "vocab_kinds": list(ckpt.vocab.kinds),
        "params": [{"name": name, "rows": t.shape[0], "cols": t.shape[1]}
                   for name, t in manifest],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(_PREFIX.pack(MAGIC, FORMAT_VERSION, len(blob)))
            fh.write(blob)
            for _, t in manifest:
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def _read_frame(path: str | Path) -> tuple[dict, bytes, int]:
    """The JSON header, the file's bytes and the parameters' offset."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(raw) < _PREFIX.size:
        raise CheckpointError(f"{path}: truncated header")
    _, version, header_len = _PREFIX.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    start = _PREFIX.size + header_len
    if len(raw) < start:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[_PREFIX.size:start].decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: not a JSON object")
    return header, raw, start


def load_checkpoint(path: str | Path) -> Checkpoint:
    header, raw, at = _read_frame(path)
    try:
        check_types(header, _HEADER_TYPES)
        # every setting by name: one left out would load as its default
        names = {f.name for f in fields(ModelConfig)}
        for k in sorted(names ^ header["config"].keys()):
            raise ValueError(f"no {k}" if k in names else f"unknown key {k}")
        config = ModelConfig(**header["config"]).validate()
        vocab = vocabulary_from_kinds(header["vocab_kinds"])
    except (ValueError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    labels, declared = header["labels"], header["params"]
    # the model indexes its embedding and GCN rows by kind and its output
    # columns by label, so both sizes must be the stored ones
    if config.vocab_size != vocab.size:
        raise CheckpointError(
            f"{path}: config vocab_size {config.vocab_size} does not match "
            f"the stored vocabulary of size {vocab.size}")
    if config.k != len(labels):
        raise CheckpointError(f"{path}: config k {config.k} does not match "
                              f"the {len(labels)} stored labels")
    params = empty_params(config)
    manifest = params.manifest()
    if len(declared) != len(manifest):
        raise CheckpointError(f"{path}: parameter count mismatch")
    for entry, (name, t) in zip(declared, manifest):
        shape = (entry.get("rows"), entry.get("cols"))
        if entry.get("name") != name or shape != t.shape:
            raise CheckpointError(
                f"{path}: parameter {entry.get('name')!r} does not match the "
                f"expected {name} {t.shape}")
        nbytes = t.data.size * 8
        if at + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated parameter data")
        t.data[...] = np.frombuffer(raw, dtype="<f8", count=t.data.size,
                                    offset=at).reshape(t.shape)
        at += nbytes
    if at != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after parameters")
    return Checkpoint(config=config, params=params, vocab=vocab, **{
        key: header.get(key) for key in _HEADER_TYPES
        if key not in ("config", "vocab_kinds", "params")})
