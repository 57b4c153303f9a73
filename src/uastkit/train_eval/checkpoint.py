"""Versioned binary checkpoints.

Layout: magic ``UASTCKPT`` | u32 format version | u64 header length | a
sorted-keys JSON header | the parameter matrices as raw little-endian
float64, concatenated in manifest order.  The header carries the model
configuration, vocabulary, table hash, label and language sets, run
provenance (config dict and seed), and the epoch/step counters.  Nothing
time-dependent is written, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..ast_frontend import Vocabulary, vocabulary_from_kinds
from ..errors import CheckpointError, ConfigError
from ..model import ModelConfig, ModelParams, empty_params

MAGIC = b"UASTCKPT"
FORMAT_VERSION = 2


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
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _, t in manifest:
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    base = len(MAGIC) + 4 + 8
    if len(raw) < base or raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", raw, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC) + 4)
    if len(raw) < base + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[base:base + header_len].decode("utf-8"))
        config = ModelConfig(**header["config"]).validate()
        vocab = vocabulary_from_kinds(header["vocab_kinds"])
        labels = list(header["labels"])
        declared = header["params"]
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
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
    at = base + header_len
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
    return Checkpoint(
        config=config, params=params, vocab=vocab, labels=labels,
        languages=list(header["languages"]),
        table_hash=header["table_hash"], unified=bool(header["unified"]),
        seed=int(header["seed"]), epoch=int(header["epoch"]),
        step=int(header["step"]), run_config=header.get("run_config"),
        val_metrics=header.get("val_metrics"))
