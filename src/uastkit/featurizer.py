"""Model inputs derived from unified ASTs.

Each tree yields two views of its flat pre-order form, sharing its
numbering: the first L kind indices as the path, and the first N nodes'
kinds with their parent-child edges as the graph, which the model
propagates over.  Both views are slices of one int64 array, the indices of
the tree's first max(L, N) kinds; nothing is padded, and the edges are one
int64 [E x 2] array read from the tree's parents.  The model never builds
the dense GraphSample.norm_adj: the tests check the edge-list propagation
against it, and the benchmark's per-layer probe times it.  Features live
in memory only: every command featurizes the corpus it runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ast_frontend import FlatTree, Vocabulary
from .ast_frontend import node_count as tree_size
from .errors import EmptyCorpus


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


def featurize_sample(ast: FlatTree, vocab: Vocabulary, L: int,
                     N: int) -> tuple[PathSequence, GraphSample]:
    """Both views of one tree; they share its pre-order numbering.

    The path is the first L kinds and the graph the first N nodes: two
    views of one array of the first max(L, N) kinds.
    """
    if L < 1 or N < 1:
        raise ValueError(f"L and N must be >= 1, got L={L} N={N}")
    index, unk = vocab.index, vocab.unk_index
    prefix = np.array([index.get(kind, unk) for kind in ast.kinds[:max(L, N)]],
                      dtype=np.int64)
    # a parent precedes its children, so node i's edge is row i - 1
    n = min(len(prefix), N)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    edges[:, 0] = np.frombuffer(ast.parents, dtype=np.intc, count=n)[1:]
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


def path_length_stats(corpus: Iterable[FlatTree]) -> StatsReport:
    """Distribution of untruncated pre-order lengths across a corpus."""
    lengths = [tree_size(tree) for tree in corpus]
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
