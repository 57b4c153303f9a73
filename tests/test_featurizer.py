"""Path sequences, graph views, corpus statistics, and the featurized file."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_tree, random_tree
from uastkit.ast_frontend import (
    AstNode,
    load_ast_sexpr,
    node_count,
    preorder,
    vocabulary_from_kinds,
)
from uastkit.errors import DataError, EmptyCorpus
from uastkit.featurizer import (
    FeaturizedSet,
    GraphSample,
    PathSequence,
    SampleRecord,
    StatsReport,
    featurize_sample,
    path_length_stats,
    read_featurized,
    write_featurized,
)

KINDS = ("alpha", "beta", "gamma", "delta", "epsilon")


def expected_indices(tree, vocab):
    return [vocab.index_of(n.kind) for n in preorder(tree)]


@pytest.fixture(scope="module")
def vocab():
    return vocabulary_from_kinds(KINDS)


# --- path sequences ---------------------------------------------------------

class TestPreorderPath:
    def test_matches_preorder_and_pads(self, vocab):
        tree = load_ast_sexpr("(alpha (beta (gamma) (delta)) (epsilon))")
        seq = featurize_sample(tree, vocab, L=8, N=1)[0]
        want = expected_indices(tree, vocab)
        assert seq.true_length == 5
        assert seq.indices[:5].tolist() == want
        assert seq.indices[5:].tolist() == [0, 0, 0]

    def test_truncates_long_trees(self, vocab):
        tree = chain_tree(["alpha"] * 20)
        seq = featurize_sample(tree, vocab, L=6, N=1)[0]
        assert seq.true_length == 6
        assert seq.indices.shape == (6,)
        assert (seq.indices == vocab.index_of("alpha")).all()

    def test_unknown_kinds_become_unk(self, vocab):
        seq = featurize_sample(AstNode("mystery"), vocab, L=3, N=1)[0]
        assert seq.indices[0] == vocab.unk_index

    def test_rejects_nonpositive_length(self, vocab):
        with pytest.raises(ValueError):
            featurize_sample(AstNode("alpha"), vocab, L=0, N=1)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_pad_truncate_invariants(self, seed, L):
        vocab = vocabulary_from_kinds(KINDS)
        tree = random_tree(np.random.default_rng(seed), max_nodes=50,
                           kinds=KINDS)
        seq = featurize_sample(tree, vocab, L, 1)[0]
        n = node_count(tree)
        want = expected_indices(tree, vocab)
        assert seq.true_length == min(n, L)
        assert seq.indices.shape == (L,)
        assert seq.indices[:seq.true_length].tolist() == want[:L]
        assert (seq.indices[seq.true_length:] == 0).all()
        assert (seq.indices[:seq.true_length] > 0).all()


# --- graph view ---------------------------------------------------------------

def oracle_norm_adj(graph: GraphSample) -> np.ndarray:
    """Entry-by-entry rebuild: (adjacency + identity) over real nodes,
    each entry divided by sqrt(d_i * d_j)."""
    size = graph.N
    n = graph.node_count
    tilde = np.zeros((size, size))
    for i in range(n):
        tilde[i, i] = 1.0
    for i, j in graph.edges:
        tilde[i, j] = 1.0
        tilde[j, i] = 1.0
    deg = tilde.sum(axis=1)
    out = np.zeros((size, size))
    for i in range(n):
        for j in range(n):
            out[i, j] = tilde[i, j] / math.sqrt(deg[i] * deg[j])
    return out


class TestGraph:
    def test_edges_follow_preorder_numbering(self, vocab):
        tree = load_ast_sexpr("(alpha (beta (gamma)) (delta))")
        graph = featurize_sample(tree, vocab, L=1, N=6)[1]
        assert graph.node_count == 4
        assert graph.edges == ((0, 1), (1, 2), (0, 3))
        assert graph.node_kinds[:4].tolist() == expected_indices(tree, vocab)
        assert (graph.node_kinds[4:] == 0).all()

    def test_truncation_drops_edges_to_cut_nodes(self, vocab):
        tree = chain_tree(["alpha"] * 10)
        graph = featurize_sample(tree, vocab, L=1, N=4)[1]
        assert graph.node_count == 4
        assert graph.edges == ((0, 1), (1, 2), (2, 3))

    def test_norm_adj_matches_entrywise_oracle(self, vocab):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tree = random_tree(rng, max_nodes=30, kinds=KINDS)
            graph = featurize_sample(tree, vocab, L=1, N=35)[1]
            assert np.array_equal(graph.norm_adj, oracle_norm_adj(graph))

    def test_norm_adj_structure(self, vocab):
        tree = load_ast_sexpr("(alpha (beta) (gamma) (delta))")
        adj = featurize_sample(tree, vocab, L=1, N=6)[1].norm_adj
        # root: degree 4 (three children plus self loop); leaves: degree 2
        assert adj[0, 0] == pytest.approx(1 / 4)
        assert adj[1, 1] == pytest.approx(1 / 2)
        assert adj[0, 1] == pytest.approx(1 / math.sqrt(8))
        assert np.array_equal(adj, adj.T)
        assert (adj[4:, :] == 0).all()
        assert (adj[:, 4:] == 0).all()

    def test_single_node_graph(self, vocab):
        adj = featurize_sample(AstNode("alpha"), vocab, L=1, N=3)[1].norm_adj
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.array_equal(adj, want)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 25))
    @settings(max_examples=150, deadline=None)
    def test_graph_invariants(self, seed, N):
        vocab = vocabulary_from_kinds(KINDS)
        tree = random_tree(np.random.default_rng(seed), max_nodes=30,
                           kinds=KINDS)
        graph = featurize_sample(tree, vocab, 1, N)[1]
        assert graph.node_count == min(node_count(tree), N)
        for parent, child in graph.edges:
            assert 0 <= parent < child < graph.node_count
        # every surviving non-root node keeps exactly one parent edge
        children = [c for _, c in graph.edges]
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
        assert graph.edges == alone_graph.edges


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


# --- featurized corpus file -------------------------------------------------------

def _toy_set(vocab) -> FeaturizedSet:
    rng = np.random.default_rng(5)
    records = []
    for i, split in enumerate(("train", "train", "val", "test")):
        tree = random_tree(rng, max_nodes=25, kinds=KINDS)
        path, graph = featurize_sample(tree, vocab, L=12, N=10)
        records.append(SampleRecord(label=i % 2, language=i % 3, split=split,
                                    path=path, graph=graph))
    return FeaturizedSet(L=12, N=10, vocab=vocab, labels=("neg", "pos"),
                         languages=("cpp", "java", "python"), unified=True,
                         table_hash="ab" * 32, records=tuple(records))


class TestFeaturizedFile:
    def test_roundtrip(self, vocab, tmp_path):
        fset = _toy_set(vocab)
        out = tmp_path / "corpus.feat"
        write_featurized(out, fset)
        back = read_featurized(out)
        assert (back.L, back.N) == (fset.L, fset.N)
        assert back.vocab.kinds == fset.vocab.kinds
        assert back.labels == fset.labels
        assert back.languages == fset.languages
        assert back.unified is True
        assert back.table_hash == fset.table_hash
        assert len(back.records) == len(fset.records)
        for orig, got in zip(fset.records, back.records):
            assert (got.label, got.language, got.split) == (
                orig.label, orig.language, orig.split)
            assert np.array_equal(got.path.indices, orig.path.indices)
            assert got.path.true_length == orig.path.true_length
            assert np.array_equal(got.graph.node_kinds, orig.graph.node_kinds)
            assert got.graph.node_count == orig.graph.node_count
            assert got.graph.edges == orig.graph.edges
            assert np.array_equal(got.graph.norm_adj, orig.graph.norm_adj)

    def test_rewrite_is_bitwise_stable(self, vocab, tmp_path):
        fset = _toy_set(vocab)
        a, b = tmp_path / "a.feat", tmp_path / "b.feat"
        write_featurized(a, fset)
        write_featurized(b, read_featurized(a))
        assert a.read_bytes() == b.read_bytes()

    def test_split_records_filter(self, vocab):
        fset = _toy_set(vocab)
        assert len(fset.split_records("train")) == 2
        assert len(fset.split_records("val")) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_featurized(tmp_path / "absent.feat")

    def test_wrong_magic(self, vocab, tmp_path):
        out = tmp_path / "c.feat"
        write_featurized(out, _toy_set(vocab))
        data = bytearray(out.read_bytes())
        data[0] ^= 0xFF
        out.write_bytes(bytes(data))
        with pytest.raises(DataError):
            read_featurized(out)

    def test_unsupported_version(self, vocab, tmp_path):
        out = tmp_path / "c.feat"
        write_featurized(out, _toy_set(vocab))
        data = bytearray(out.read_bytes())
        data[8] = 99
        out.write_bytes(bytes(data))
        with pytest.raises(DataError):
            read_featurized(out)

    def test_corrupt_header_json(self, vocab, tmp_path):
        out = tmp_path / "c.feat"
        write_featurized(out, _toy_set(vocab))
        data = bytearray(out.read_bytes())
        data[25] = ord("{")
        out.write_bytes(bytes(data))
        with pytest.raises(DataError):
            read_featurized(out)

    def test_truncated_records(self, vocab, tmp_path):
        out = tmp_path / "c.feat"
        write_featurized(out, _toy_set(vocab))
        out.write_bytes(out.read_bytes()[:-9])
        with pytest.raises(DataError):
            read_featurized(out)

    def test_trailing_bytes(self, vocab, tmp_path):
        out = tmp_path / "c.feat"
        write_featurized(out, _toy_set(vocab))
        out.write_bytes(out.read_bytes() + b"\x00\x01")
        with pytest.raises(DataError):
            read_featurized(out)


def _bad_record(vocab, **changes) -> FeaturizedSet:
    """The toy set with its first record's graph or fields replaced."""
    fset = _toy_set(vocab)
    first = fset.records[0]
    graph = changes.pop("graph", None)
    if graph is not None:
        kinds, count, edges = graph
        arr = np.zeros(fset.N, dtype=np.int64)
        arr[:len(kinds)] = kinds
        changes["graph"] = GraphSample(node_kinds=arr, node_count=count,
                                       edges=edges)
    records = (dataclasses.replace(first, **changes),) + fset.records[1:]
    return dataclasses.replace(fset, records=records)


class TestFeaturizedRecordChecks:
    """Records no featurized sample can produce are refused on reading."""

    @pytest.mark.parametrize("graph, reason", [
        # such a record once read back silently and then broke propagate
        (([1, 2, 3], 3, ((0, 5),)), "edge endpoint 5 outside [0, 3)"),
        (([1, 2, 3], 3, ((0, 1), (1, 1))), "self edge"),
        (([1, 2, 3], 3, ((0, 1), (1, 2), (1, 0))), "repeated edge"),
        (([1, 2, 3], 3, ((0, 1), (0, 1))), "repeated edge"),
    ])
    def test_bad_edges_raise_data_error(self, vocab, tmp_path, graph, reason):
        out = tmp_path / "bad.feat"
        write_featurized(out, _bad_record(vocab, graph=graph))
        with pytest.raises(DataError, match=re.escape("record 0: " + reason)):
            read_featurized(out)

    @pytest.mark.parametrize("view, name", [("path", "true_length"),
                                            ("graph", "node_count")])
    def test_empty_views_raise(self, vocab, tmp_path, view, name):
        # every tree has its root, so no sample has an empty view; a sast
        # model once read such a record back and classified it
        empty = {"path": PathSequence(indices=np.zeros(12, dtype=np.int64),
                                      true_length=0),
                 "graph": ([], 0, ())}
        out = tmp_path / "bad.feat"
        write_featurized(out, _bad_record(vocab, **{view: empty[view]}))
        with pytest.raises(DataError, match=f"record 0: {name} 0"):
            read_featurized(out)

    def test_lengths_beyond_the_header_raise(self, vocab, tmp_path):
        fset = _toy_set(vocab)
        long_path, big_graph = featurize_sample(
            chain_tree(["alpha"] * 20), vocab, L=fset.L + 1, N=fset.N + 1)
        for changes, reason in (({"path": long_path}, "true_length 13"),
                                ({"graph": big_graph}, "node_count 11")):
            records = (dataclasses.replace(fset.records[0], **changes),) \
                + fset.records[1:]
            out = tmp_path / "bad.feat"
            write_featurized(out, dataclasses.replace(fset, records=records))
            with pytest.raises(DataError, match=reason):
                read_featurized(out)

    @pytest.mark.parametrize("changes, reason", [
        ({"label": 2}, "label index 2 outside [0, 2)"),
        ({"language": 3}, "language index 3 outside [0, 3)"),
    ])
    def test_indices_outside_header_lists_raise(self, vocab, tmp_path,
                                                changes, reason):
        out = tmp_path / "bad.feat"
        write_featurized(out, _bad_record(vocab, **changes))
        with pytest.raises(DataError, match=re.escape(reason)):
            read_featurized(out)

    def test_kind_outside_vocabulary_raises(self, vocab, tmp_path):
        fset = _toy_set(vocab)
        small = vocabulary_from_kinds(KINDS[:1])
        out = tmp_path / "bad.feat"
        write_featurized(out, dataclasses.replace(fset, vocab=small))
        with pytest.raises(DataError, match="kind index"):
            read_featurized(out)
