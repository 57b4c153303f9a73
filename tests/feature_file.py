"""The reference reader of the feature file that `uast featurize` writes.

The package only writes the file (uastkit.featurizer.write_featurized);
nothing in it reads one back.  This reader checks every part of the
layout: the frame, each header value's type, and that each record could
have been written from a featurized sample.  The tests hold the writer to
it, so it refuses what the writer could not have produced with DataError.

A record is: u16 label index | u16 language index | u8 split tag (0 train,
1 validation, 2 test) | u32 true_length | u32 node_count | u32 m | m u32
kind indices (the longer view's prefix) | u32 edge count | 2 u32 per edge.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from uastkit.ast_frontend import Vocabulary, vocabulary_from_kinds
from uastkit.errors import DataError
from uastkit.featurizer import FORMAT_VERSION, MAGIC, GraphSample, PathSequence
from uastkit.frame import check_types, read_frame
from uastkit.train_eval import SPLIT_NAMES, LabeledSample

# the type of each header value (frame.has_type)
HEADER_TYPES = {"L": int, "N": int, "kinds": list[str], "labels": list[str],
                "languages": list[str], "unified": bool, "table_hash": str,
                "count": int}
RECORD = struct.Struct("<HHBIII")


@dataclass(frozen=True)
class FeaturizedSet:
    """A file's contents, named as write_featurized's parameters, so
    write_featurized(path, **vars(fset)) writes it again."""
    splits: dict[str, list[LabeledSample]]
    vocab: Vocabulary
    labels: tuple[str, ...]
    languages: tuple[str, ...]
    L: int
    N: int
    unified: bool
    table_hash: str


def record_problem(header: dict, vocab: Vocabulary, label: int,
                   language: int, prefix: np.ndarray, true_length: int,
                   node_count: int, pairs: np.ndarray) -> str | None:
    """Why a record read back could not have been written from a sample."""
    for name, value in (("true_length", true_length),
                        ("node_count", node_count)):
        if value == 0:
            return f"{name} 0, but every tree has a root"
    if len(prefix) != max(true_length, node_count):
        return (f"{len(prefix)} kinds for true_length {true_length} and "
                f"node_count {node_count}")
    if true_length > header["L"]:
        return f"true_length {true_length} exceeds L={header['L']}"
    if node_count > header["N"]:
        return f"node_count {node_count} exceeds N={header['N']}"
    for name, index, size in (
            ("label", label, len(header["labels"])),
            ("language", language, len(header["languages"])),
            ("kind", int(prefix.max(initial=0)), vocab.size)):
        if index >= size:
            return f"{name} index {index} outside [0, {size})"
    if pairs.size:
        if pairs.max() >= node_count:
            return f"edge endpoint {pairs.max()} outside [0, {node_count})"
        low, high = pairs.min(axis=1), pairs.max(axis=1)
        if (low == high).any():
            return f"self edge at node {low[low == high][0]}"
        if np.unique(low * node_count + high).size < len(pairs):
            return "repeated edge"
    return None


def read_featurized(path: str | Path) -> FeaturizedSet:
    header, data, offset = read_frame(path, MAGIC, FORMAT_VERSION, DataError,
                                      "featurized corpus")
    try:
        check_types(header, HEADER_TYPES)
    except TypeError as exc:
        raise DataError(f"{path}: corrupt header: {exc}") from exc
    vocab = vocabulary_from_kinds(header["kinds"])
    labels, languages = header["labels"], header["languages"]
    splits: dict[str, list[LabeledSample]] = {name: [] for name in SPLIT_NAMES}
    try:
        for n in range(header["count"]):
            (label, language, tag, true_length, node_count,
             m) = RECORD.unpack_from(data, offset)
            offset += RECORD.size
            if tag >= len(SPLIT_NAMES) or offset + 4 * m > len(data):
                raise DataError(f"{path}: corrupt record")
            prefix = np.frombuffer(data, dtype="<u4", count=m,
                                   offset=offset).astype(np.int64)
            offset += 4 * m
            (edge_count,) = struct.unpack_from("<I", data, offset)
            offset += 4
            if offset + 8 * edge_count > len(data):
                raise DataError(f"{path}: corrupt record")
            pairs = np.frombuffer(data, dtype="<u4", count=2 * edge_count,
                                  offset=offset).astype(np.int64).reshape(-1, 2)
            offset += 8 * edge_count
            problem = record_problem(header, vocab, label, language, prefix,
                                     true_length, node_count, pairs)
            if problem:
                raise DataError(f"{path}: record {n}: {problem}")
            splits[SPLIT_NAMES[tag]].append(LabeledSample(
                source_path=f"{path}:{n}", language=languages[language],
                label=labels[label], label_index=label,
                path_seq=PathSequence(prefix[:true_length]),
                graph=GraphSample(prefix[:node_count], pairs)))
    except (struct.error, ValueError) as exc:
        raise DataError(f"{path}: truncated record data: {exc}") from exc
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes")
    return FeaturizedSet(
        splits=splits, vocab=vocab, labels=tuple(labels),
        languages=tuple(languages), L=header["L"], N=header["N"],
        unified=header["unified"], table_hash=header["table_hash"])
