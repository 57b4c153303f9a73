"""Path sequences, graph views, what training featurizes, and corpus
statistics."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_CORPUS, chain_tree, random_tree, sexpr_tree
import oracle
from uastkit.ast_frontend import (
    build_vocabulary,
    node_count,
    parse_source,
    unify_ast,
    vocabulary_from_kinds,
)
from uastkit.cli import build_parser, resolve_run_config
from uastkit.datagen import generate_corpus
from uastkit.errors import EmptyCorpus
from uastkit.featurizer import (
    GraphSample,
    StatsReport,
    featurize_sample,
    path_length_stats,
)
from uastkit.train_eval import (
    SPLIT_NAMES,
    build_features,
    ingest_corpus,
    split_dataset,
)

KINDS = ("alpha", "beta", "gamma", "delta", "epsilon")


def expected_indices(tree, vocab):
    return [vocab.index.get(kind, vocab.unk_index) for kind in tree.kinds]


@pytest.fixture(scope="module")
def vocab():
    return vocabulary_from_kinds(KINDS)


# --- path sequences ---------------------------------------------------------

class TestPreorderPath:
    def test_matches_preorder_without_padding(self, vocab):
        tree = sexpr_tree("(alpha (beta (gamma) (delta)) (epsilon))")
        seq = featurize_sample(tree, vocab, L=8, N=1)[0]
        assert seq.true_length == 5
        assert seq.indices.tolist() == expected_indices(tree, vocab)

    def test_truncates_long_trees(self, vocab):
        tree = chain_tree(["alpha"] * 20)
        seq = featurize_sample(tree, vocab, L=6, N=1)[0]
        assert seq.true_length == 6
        assert seq.indices.shape == (6,)
        assert (seq.indices == vocab.index["alpha"]).all()

    def test_unknown_kinds_become_unk(self, vocab):
        seq = featurize_sample(chain_tree(["mystery"]), vocab, L=3, N=1)[0]
        assert seq.indices[0] == vocab.unk_index

    def test_rejects_nonpositive_length(self, vocab):
        with pytest.raises(ValueError):
            featurize_sample(chain_tree(["alpha"]), vocab, L=0, N=1)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_truncate_invariants(self, seed, L):
        vocab = vocabulary_from_kinds(KINDS)
        tree = random_tree(np.random.default_rng(seed), max_nodes=50,
                           kinds=KINDS)
        seq = featurize_sample(tree, vocab, L, 1)[0]
        n = node_count(tree)
        want = expected_indices(tree, vocab)
        assert seq.true_length == min(n, L)
        assert seq.indices.shape == (seq.true_length,)
        assert seq.indices.tolist() == want[:L]
        assert (seq.indices > 0).all()


# --- graph view ---------------------------------------------------------------

def oracle_norm_adj(graph: GraphSample) -> np.ndarray:
    """Entry-by-entry rebuild: (adjacency + identity) over the nodes,
    each entry divided by sqrt(d_i * d_j)."""
    n = graph.node_count
    tilde = np.zeros((n, n))
    for i in range(n):
        tilde[i, i] = 1.0
    for i, j in graph.edges.tolist():
        tilde[i, j] = 1.0
        tilde[j, i] = 1.0
    deg = tilde.sum(axis=1)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = tilde[i, j] / math.sqrt(deg[i] * deg[j])
    return out


class TestGraph:
    def test_edges_follow_preorder_numbering(self, vocab):
        tree = sexpr_tree("(alpha (beta (gamma)) (delta))")
        graph = featurize_sample(tree, vocab, L=1, N=6)[1]
        assert graph.node_count == 4
        assert graph.edges.tolist() == [[0, 1], [1, 2], [0, 3]]
        assert graph.node_kinds.tolist() == expected_indices(tree, vocab)

    def test_truncation_drops_edges_to_cut_nodes(self, vocab):
        tree = chain_tree(["alpha"] * 10)
        graph = featurize_sample(tree, vocab, L=1, N=4)[1]
        assert graph.node_count == 4
        assert graph.edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_norm_adj_matches_entrywise_oracle(self, vocab):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tree = random_tree(rng, max_nodes=30, kinds=KINDS)
            graph = featurize_sample(tree, vocab, L=1, N=35)[1]
            assert np.array_equal(graph.norm_adj, oracle_norm_adj(graph))

    def test_norm_adj_structure(self, vocab):
        tree = sexpr_tree("(alpha (beta) (gamma) (delta))")
        adj = featurize_sample(tree, vocab, L=1, N=6)[1].norm_adj
        # root: degree 4 (three children plus self loop); leaves: degree 2
        assert adj[0, 0] == pytest.approx(1 / 4)
        assert adj[1, 1] == pytest.approx(1 / 2)
        assert adj[0, 1] == pytest.approx(1 / math.sqrt(8))
        assert np.array_equal(adj, adj.T)
        assert adj.shape == (4, 4)

    def test_single_node_graph(self, vocab):
        adj = featurize_sample(chain_tree(["alpha"]), vocab, L=1, N=3)[1].norm_adj
        assert np.array_equal(adj, np.ones((1, 1)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 25))
    @settings(max_examples=150, deadline=None)
    def test_graph_invariants(self, seed, N):
        vocab = vocabulary_from_kinds(KINDS)
        tree = random_tree(np.random.default_rng(seed), max_nodes=30,
                           kinds=KINDS)
        graph = featurize_sample(tree, vocab, 1, N)[1]
        assert graph.node_count == min(node_count(tree), N)
        for parent, child in graph.edges.tolist():
            assert 0 <= parent < child < graph.node_count
        # every surviving non-root node keeps exactly one parent edge
        children = graph.edges[:, 1].tolist()
        assert sorted(children) == list(range(1, graph.node_count))
        assert np.array_equal(graph.norm_adj, oracle_norm_adj(graph))


class TestSharedNumbering:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_combined_equals_separate(self, seed, L, N):
        # truncating one view to its limit leaves the other as it is
        vocab = vocabulary_from_kinds(KINDS)
        tree = random_tree(np.random.default_rng(seed), max_nodes=30,
                           kinds=KINDS)
        path, graph = featurize_sample(tree, vocab, L, N)
        alone_path = featurize_sample(tree, vocab, L, 1)[0]
        alone_graph = featurize_sample(tree, vocab, 1, N)[1]
        assert np.array_equal(path.indices, alone_path.indices)
        assert path.true_length == alone_path.true_length
        assert np.array_equal(graph.node_kinds, alone_graph.node_kinds)
        assert graph.node_count == alone_graph.node_count
        assert np.array_equal(graph.edges, alone_graph.edges)


class TestLayout:
    def test_views_share_one_prefix(self, vocab):
        tree = chain_tree(["alpha"] * 10)
        for L, N in ((4, 7), (7, 4), (20, 3), (2, 20)):
            path, graph = featurize_sample(tree, vocab, L, N)
            assert np.shares_memory(path.indices, graph.node_kinds)
            assert path.indices.dtype == graph.node_kinds.dtype == np.int64
            assert (path.true_length, graph.node_count) == \
                (min(10, L), min(10, N))

    def test_edges_are_one_int64_array(self, vocab):
        for tree, shape in ((sexpr_tree("(alpha (beta) (gamma))"), (2, 2)),
                            (chain_tree(["alpha"]), (0, 2))):
            edges = featurize_sample(tree, vocab, L=1, N=5)[1].edges
            assert edges.shape == shape and edges.dtype == np.int64
            assert edges.flags.c_contiguous


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@pytest.fixture(scope="module")
def corpus_trees(tmp_path_factory, default_table):
    """Raw and unified trees of the seed-1 datagen corpus and the golden
    files, with a vocabulary fitted to half of the unified ones."""
    root = tmp_path_factory.mktemp("datagen")
    generate_corpus(root, seed=1)
    trees, unified = [], []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        text, language = path.read_text(encoding="utf-8"), path.parent.name
        trees.append(parse_source(text, language))
        unified.append(unify_ast(parse_source(text, language), language,
                                 default_table))
    golden = [sexpr_tree(p.read_text(encoding="utf-8"))
              for p in sorted(GOLDEN.glob("*.sexpr"))]
    return trees + unified + golden, build_vocabulary(unified[::2])


def reference_views(tree, vocab, L, N):
    """featurize_sample's fields, from preorder and Vocabulary.index."""
    nodes = list(oracle.preorder(oracle.unflatten(tree)))
    number = {id(node): i for i, node in enumerate(nodes)}
    parent = {number[id(child)]: i for i, node in enumerate(nodes)
              for child in node.children}
    indices = [vocab.index.get(node.kind, vocab.unk_index) for node in nodes]
    true_length, node_count = min(len(nodes), L), min(len(nodes), N)
    return (indices[:L], true_length, indices[:N], node_count,
            [[parent[i], i] for i in range(1, node_count)])


class TestAgainstPreorder:
    @pytest.mark.parametrize("L, N", [(200, 400), (16, 24), (40, 12)])
    def test_every_corpus_tree(self, corpus_trees, L, N):
        trees, vocab = corpus_trees
        truncated = 0
        for tree in trees:
            path, graph = featurize_sample(tree, vocab, L, N)
            got = (path.indices.tolist(), path.true_length,
                   graph.node_kinds.tolist(), graph.node_count,
                   graph.edges.tolist())
            assert got == reference_views(tree, vocab, L, N)
            assert path.indices.dtype == graph.node_kinds.dtype == np.int64
            truncated += node_count(tree) > max(L, N)
        # the small limits cut most trees; the larger ones a few
        assert truncated > (len(trees) // 2 if max(L, N) < 50 else 0)


# --- what training featurizes -----------------------------------------------

# sha256 of features_digest: the bundled toy corpus at the toy profile, and
# a `datagen --seed 1 --count 4` corpus at leetcode
GOLDEN_FEATURES = {
    "toy": "8f24c2d98d5209be9de7347d52275cdb83e983cf06620efc813924c6dbc5c9c9",
    "datagen":
        "d6debbda29526d56be08fbb86eb655fdeb4b156840d5426950fea9234f2d2771",
}


def features_digest(root, profile: str, table) -> str:
    """sha256 over what `uast train` featurizes from the corpus at root:
    each sample in split order, its split, label index, language and view
    shapes, then its path indices, graph kinds and edges as <i8."""
    rc = resolve_run_config(build_parser().parse_args(
        ["train", "--corpus", str(root), "--profile", profile]))
    splits = split_dataset(ingest_corpus(rc.corpus), rc.seed, rc.ratios)
    build_features(splits, table, rc.unified, rc.L, rc.N)
    digest = hashlib.sha256()
    for name in SPLIT_NAMES:
        for s in splits[name]:
            views = (s.path_seq.indices, s.graph.node_kinds, s.graph.edges)
            digest.update(f"{name} {s.label_index} {s.language} "
                          f"{[v.shape for v in views]}\n".encode())
            for view in views:
                digest.update(view.astype("<i8").tobytes())
    return digest.hexdigest()


class TestFeaturizedCorpusIsPinned:
    @pytest.mark.parametrize("corpus, profile", [("toy", "toy"),
                                                 ("datagen", "leetcode")])
    def test_digest(self, tmp_path, default_table, corpus, profile):
        # what every model trains on: a change here changes every run
        root = TOY_CORPUS
        if corpus == "datagen":
            root = tmp_path / "gen"
            generate_corpus(root, seed=1, per_pair=4)
        assert features_digest(root, profile, default_table) == \
            GOLDEN_FEATURES[corpus]


# --- statistics -----------------------------------------------------------------

class TestStats:
    def test_nearest_rank_hand_example(self):
        trees = [chain_tree(["alpha"] * n) for n in (15, 20, 35, 40, 50)]
        stats = path_length_stats(trees)
        assert stats == StatsReport(count=5, mean=32.0, median=35, p70=40,
                                    p80=40, p90=50, min=15, max=50)

    def test_even_count_median_takes_lower_rank(self):
        trees = [chain_tree(["alpha"] * n) for n in (1, 2, 3, 4)]
        assert path_length_stats(trees).median == 2

    def test_single_tree(self):
        stats = path_length_stats([chain_tree(["alpha"] * 7)])
        assert (stats.count, stats.mean, stats.median) == (1, 7.0, 7)
        assert stats.p70 == stats.p80 == stats.p90 == 7

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            path_length_stats([])

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_percentiles_are_observed_lengths(self, lengths):
        stats = path_length_stats(chain_tree(["alpha"] * n) for n in lengths)
        assert stats.count == len(lengths)
        assert stats.min == min(lengths)
        assert stats.max == max(lengths)
        for value in (stats.median, stats.p70, stats.p80, stats.p90):
            assert value in lengths
        assert stats.median <= stats.p70 <= stats.p80 <= stats.p90

