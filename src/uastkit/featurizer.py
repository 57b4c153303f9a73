"""Model inputs derived from unified ASTs.

Each tree yields two views from one pre-order walk, sharing its numbering:
the first L kind indices as the path, and the first N nodes' kinds with
their parent-child edges as the graph, which the model propagates over.
Both views are slices of one int64 array of kind indices, nothing is
padded, and the edges are one int64 [E x 2] array.  The model never builds
the dense GraphSample.norm_adj: the tests check the edge-list propagation
against it, and the benchmark's per-layer probe times it.

A featurized corpus is serializable to a single binary file of edge lists,
in the frame checkpoints share (uastkit.frame).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .ast_frontend import AstNode, Vocabulary, vocabulary_from_kinds
from .ast_frontend import node_count as tree_size
from .errors import DataError, EmptyCorpus
from .frame import check_types, read_frame, write_frame

MAGIC = b"UASTFEAT"
FORMAT_VERSION = 1

SPLIT_TAGS = {"train": 0, "val": 1, "test": 2}
TAG_SPLITS = {v: k for k, v in SPLIT_TAGS.items()}
# the type of each header value (frame.has_type)
_HEADER_TYPES = {"L": int, "N": int, "kinds": list[str], "labels": list[str],
                 "languages": list[str], "unified": bool, "table_hash": str,
                 "count": int}


@dataclass(frozen=True)
class PathSequence:
    indices: np.ndarray  # int64 kind indices of the first nodes in pre-order

    def __post_init__(self):
        assert self.indices.ndim == 1

    @property
    def true_length(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class GraphSample:
    node_kinds: np.ndarray  # int64 kind indices of the first nodes in pre-order
    edges: np.ndarray  # int64 [E x 2] parent-child pairs, both < node_count

    @property
    def node_count(self) -> int:
        return len(self.node_kinds)

    @property
    def norm_adj(self) -> np.ndarray:
        """Dense [node_count x node_count], (i, j) = a~_ij / sqrt(d_i * d_j).

        a~ is the undirected adjacency plus self-loops.  The model never
        builds it; the tests check the edge-list path against it.
        """
        tilde = np.eye(self.node_count)
        parent, child = self.edges.T
        tilde[parent, child] = tilde[child, parent] = 1.0
        deg = tilde.sum(axis=1)
        return tilde / np.sqrt(np.outer(deg, deg))


def featurize_sample(ast: AstNode, vocab: Vocabulary, L: int,
                     N: int) -> tuple[PathSequence, GraphSample]:
    """Both views in one pre-order pass; they share node numbering.

    The path is the first L kinds and the graph the first N nodes: two
    views of one array of the first max(L, N) kinds.
    """
    if L < 1 or N < 1:
        raise ValueError(f"L and N must be >= 1, got L={L} N={N}")
    limit = max(L, N)
    index, unk = vocab.index, vocab.unk_index
    kinds, parents = [], []  # kind indices and parents' indices, in pre-order
    nodes, stacked = [ast], [-1]  # a stack of nodes, with their parents' indices
    while nodes and len(kinds) < limit:
        node, parent, count = nodes.pop(), stacked.pop(), len(kinds)
        kinds.append(index.get(node.kind, unk))
        parents.append(parent)
        if node.children:
            nodes.extend(reversed(node.children))
            stacked.extend([count] * len(node.children))
    prefix = np.array(kinds, dtype=np.int64)
    # a parent precedes its children, so node i's edge is row i - 1
    n = min(len(kinds), N)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    edges[:, 0] = parents[1:n]
    edges[:, 1] = np.arange(1, n)
    return PathSequence(prefix[:L]), GraphSample(prefix[:N], edges)


# --- corpus statistics ----------------------------------------------------

@dataclass(frozen=True)
class StatsReport:
    count: int
    mean: float
    median: int
    p70: int
    p80: int
    p90: int
    min: int
    max: int


def _nearest_rank(sorted_values: list[int], pct: float) -> int:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def path_length_stats(corpus: Iterable[AstNode]) -> StatsReport:
    """Distribution of untruncated pre-order lengths across a corpus."""
    lengths = [tree_size(root) for root in corpus]
    if not lengths:
        raise EmptyCorpus("no trees to take statistics over")
    lengths.sort()
    return StatsReport(
        count=len(lengths),
        mean=sum(lengths) / len(lengths),
        median=_nearest_rank(lengths, 50),
        p70=_nearest_rank(lengths, 70),
        p80=_nearest_rank(lengths, 80),
        p90=_nearest_rank(lengths, 90),
        min=lengths[0],
        max=lengths[-1],
    )


# --- featurized corpus file ------------------------------------------------

@dataclass(frozen=True)
class SampleRecord:
    label: int
    language: int
    split: str  # train | val | test
    path: PathSequence
    graph: GraphSample


@dataclass(frozen=True)
class FeaturizedSet:
    L: int
    N: int
    vocab: Vocabulary
    labels: tuple[str, ...]
    languages: tuple[str, ...]
    unified: bool
    table_hash: str
    records: tuple[SampleRecord, ...]

    def split_records(self, split: str) -> list[SampleRecord]:
        return [r for r in self.records if r.split == split]


def write_featurized(path: str | Path, fset: FeaturizedSet) -> None:
    header = {
        "L": fset.L,
        "N": fset.N,
        "kinds": list(fset.vocab.kinds),
        "labels": list(fset.labels),
        "languages": list(fset.languages),
        "unified": fset.unified,
        "table_hash": fset.table_hash,
        "count": len(fset.records),
    }
    with open(path, "wb") as fh:
        write_frame(fh, MAGIC, FORMAT_VERSION, header)
        for rec in fset.records:
            # both views slice one pre-order prefix; the longer one is it
            prefix = max(rec.path.indices, rec.graph.node_kinds, key=len)
            fh.write(struct.pack("<HHBIII", rec.label, rec.language,
                                 SPLIT_TAGS[rec.split], rec.path.true_length,
                                 rec.graph.node_count, len(prefix)))
            fh.write(prefix.astype("<u4").tobytes())
            fh.write(struct.pack("<I", len(rec.graph.edges)))
            fh.write(rec.graph.edges.astype("<u4").tobytes())


def _record_problem(header: dict, vocab: Vocabulary, label: int,
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
        check_types(header, _HEADER_TYPES)
        vocab = vocabulary_from_kinds(header["kinds"])
    except KeyError as exc:
        raise DataError(f"{path}: corrupt header: no {exc.args[0]}") from exc
    except TypeError as exc:
        raise DataError(f"{path}: corrupt header: {exc}") from exc
    records: list[SampleRecord] = []
    try:
        for _ in range(header["count"]):
            (label, language, tag, true_length, node_count,
             m) = struct.unpack_from("<HHBIII", data, offset)
            offset += struct.calcsize("<HHBIII")
            if tag not in TAG_SPLITS or offset + 4 * m > len(data):
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
            problem = _record_problem(header, vocab, label, language, prefix,
                                      true_length, node_count, pairs)
            if problem:
                raise DataError(f"{path}: record {len(records)}: {problem}")
            records.append(SampleRecord(
                label=label, language=language, split=TAG_SPLITS[tag],
                path=PathSequence(prefix[:true_length]),
                graph=GraphSample(prefix[:node_count], pairs)))
    except (struct.error, ValueError) as exc:
        raise DataError(f"{path}: truncated record data: {exc}") from exc
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes")
    return FeaturizedSet(
        L=header["L"], N=header["N"], vocab=vocab,
        labels=tuple(header["labels"]), languages=tuple(header["languages"]),
        unified=header["unified"], table_hash=header["table_hash"],
        records=tuple(records))
