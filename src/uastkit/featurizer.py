"""Model inputs derived from unified ASTs.

Each tree yields two views from one pre-order walk, sharing its numbering:
the flattened kind-index sequence (padded or truncated to L) and the first
N nodes' kinds with their parent-child edge list, which the model
propagates over.  The model never builds the dense GraphSample.norm_adj:
the tests check the edge-list propagation against it, and the benchmark's
per-layer probe times it.

A featurized corpus is serializable to a single binary file of edge lists.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .ast_frontend import AstNode, Vocabulary, vocabulary_from_kinds
from .ast_frontend import node_count as tree_size
from .errors import DataError, EmptyCorpus

MAGIC = b"UASTFEAT"
FORMAT_VERSION = 1

SPLIT_TAGS = {"train": 0, "val": 1, "test": 2}
TAG_SPLITS = {v: k for k, v in SPLIT_TAGS.items()}


@dataclass(frozen=True)
class PathSequence:
    indices: np.ndarray  # int64, fixed length L; 0 beyond true_length
    true_length: int

    def __post_init__(self):
        assert self.indices.ndim == 1

    @property
    def L(self) -> int:
        return int(self.indices.shape[0])


@dataclass(frozen=True)
class GraphSample:
    node_kinds: np.ndarray  # int64, fixed length N; 0 beyond node_count
    node_count: int
    edges: tuple[tuple[int, int], ...]  # parent-child pairs, both < node_count

    @property
    def N(self) -> int:
        return int(self.node_kinds.shape[0])

    @property
    def norm_adj(self) -> np.ndarray:
        """Dense N x N matrix with entry (i, j) = a~_ij / sqrt(d_i * d_j).

        a~ is the undirected adjacency plus self-loops over the real nodes;
        rows and columns at or beyond node_count stay zero.  The model never
        builds it; the tests check the edge-list path against it.
        """
        size = self.N
        out = np.zeros((size, size), dtype=np.float64)
        n = self.node_count
        if n == 0:
            return out
        tilde = np.zeros((n, n), dtype=np.float64)
        idx = np.arange(n)
        tilde[idx, idx] = 1.0
        for i, j in self.edges:
            tilde[i, j] = 1.0
            tilde[j, i] = 1.0
        deg = tilde.sum(axis=1)
        out[:n, :n] = tilde / np.sqrt(np.outer(deg, deg))
        return out


def _views(prefix: np.ndarray, true_length: int, node_count: int,
           edges: tuple[tuple[int, int], ...], L: int,
           N: int) -> tuple[PathSequence, GraphSample]:
    """Both views, zero-padded to L and N, from a pre-order kind prefix."""
    indices = np.zeros(L, dtype=np.int64)
    indices[:true_length] = prefix[:true_length]
    kinds = np.zeros(N, dtype=np.int64)
    kinds[:node_count] = prefix[:node_count]
    return (PathSequence(indices=indices, true_length=true_length),
            GraphSample(node_kinds=kinds, node_count=node_count, edges=edges))


def featurize_sample(ast: AstNode, vocab: Vocabulary, L: int,
                     N: int) -> tuple[PathSequence, GraphSample]:
    """Both views in one pre-order pass; they share node numbering."""
    if L < 1 or N < 1:
        raise ValueError(f"L and N must be >= 1, got L={L} N={N}")
    limit = max(L, N)
    prefix = np.zeros(limit, dtype=np.int64)
    edges: list[tuple[int, int]] = []
    stack: list[tuple[int, AstNode]] = [(-1, ast)]  # (parent index, node)
    count = 0
    while stack and count < limit:
        parent, node = stack.pop()
        prefix[count] = vocab.index_of(node.kind)
        if 0 <= parent and count < N:  # a parent precedes its children
            edges.append((parent, count))
        stack.extend((count, child) for child in reversed(node.children))
        count += 1
    return _views(prefix, min(count, L), min(count, N), tuple(edges), L, N)


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
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for rec in fset.records:
            true_length = rec.path.true_length
            node_count = rec.graph.node_count
            m = max(true_length, node_count)
            prefix = np.zeros(m, dtype=np.int64)
            prefix[:true_length] = rec.path.indices[:true_length]
            prefix[:node_count] = rec.graph.node_kinds[:node_count]
            fh.write(struct.pack("<HHBIII", rec.label, rec.language,
                                 SPLIT_TAGS[rec.split], true_length,
                                 node_count, m))
            fh.write(prefix.astype("<u4").tobytes())
            fh.write(struct.pack("<I", len(rec.graph.edges)))
            if rec.graph.edges:
                flat = np.asarray(rec.graph.edges, dtype="<u4")
                fh.write(flat.tobytes())


def _record_problem(header: dict, vocab: Vocabulary, label: int,
                    language: int, prefix: np.ndarray, true_length: int,
                    node_count: int, pairs: np.ndarray) -> str | None:
    """Why a record read back could not have been written from a sample."""
    for name, value in (("true_length", true_length),
                        ("node_count", node_count)):
        if value == 0:
            return f"{name} 0, but every tree has a root"
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
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if data[:8] != MAGIC:
        raise DataError(f"{path}: not a featurized corpus file")
    version, header_len = struct.unpack_from("<IQ", data, 8)
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    offset = 8 + 12
    try:
        header = json.loads(data[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt header: {exc}") from exc
    offset += header_len
    L, N = header["L"], header["N"]
    vocab = vocabulary_from_kinds(header["kinds"])
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
            edges = tuple((int(a), int(b)) for a, b in pairs)
            path_seq, graph = _views(prefix, true_length, node_count, edges,
                                     L, N)
            records.append(SampleRecord(
                label=label, language=language, split=TAG_SPLITS[tag],
                path=path_seq, graph=graph))
    except (struct.error, ValueError) as exc:
        raise DataError(f"{path}: truncated record data: {exc}") from exc
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes")
    return FeaturizedSet(
        L=L, N=N, vocab=vocab,
        labels=tuple(header["labels"]), languages=tuple(header["languages"]),
        unified=header["unified"], table_hash=header["table_hash"],
        records=tuple(records))
