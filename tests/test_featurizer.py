"""Path sequences, graph views, corpus statistics, and the featurized file."""

import dataclasses
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    chain_tree,
    make_graph,
    make_path,
    random_tree,
    rewrite_json_header,
    sexpr_tree,
)
from feature_file import FeaturizedSet, read_featurized
import oracle
from uastkit.ast_frontend import (
    build_vocabulary,
    node_count,
    parse_source,
    unify_ast,
    vocabulary_from_kinds,
)
from uastkit.datagen import generate_corpus
from uastkit.errors import DataError, EmptyCorpus
from uastkit.featurizer import (
    FORMAT_VERSION,
    MAGIC,
    GraphSample,
    StatsReport,
    featurize_sample,
    path_length_stats,
    write_featurized,
)
from uastkit.train_eval import LabeledSample

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
    labels, languages = ("neg", "pos"), ("cpp", "java", "python")
    splits = {"train": [], "validation": [], "test": []}
    for i, split in enumerate(("train", "train", "validation", "test")):
        tree = random_tree(rng, max_nodes=25, kinds=KINDS)
        path, graph = featurize_sample(tree, vocab, L=12, N=10)
        splits[split].append(LabeledSample(
            source_path=f"s{i}", language=languages[i % 3],
            label=labels[i % 2], label_index=i % 2, path_seq=path,
            graph=graph))
    return FeaturizedSet(splits=splits, vocab=vocab, labels=labels,
                         languages=languages, L=12, N=10, unified=True,
                         table_hash="ab" * 32)


def _records(fset: FeaturizedSet) -> list[tuple[str, LabeledSample]]:
    return [(name, s) for name, samples in fset.splits.items()
            for s in samples]


class TestFeaturizedFile:
    def test_roundtrip(self, vocab, tmp_path):
        fset = _toy_set(vocab)
        out = tmp_path / "corpus.feat"
        write_featurized(out, **vars(fset))
        back = read_featurized(out)
        assert (back.L, back.N) == (fset.L, fset.N)
        assert back.vocab.kinds == fset.vocab.kinds
        assert back.labels == fset.labels
        assert back.languages == fset.languages
        assert back.unified is True
        assert back.table_hash == fset.table_hash
        assert len(_records(back)) == len(_records(fset))
        for (split, orig), (got_split, got) in zip(_records(fset),
                                                   _records(back)):
            assert (got.label, got.label_index, got.language, got_split) == (
                orig.label, orig.label_index, orig.language, split)
            assert np.array_equal(got.path_seq.indices, orig.path_seq.indices)
            assert got.path_seq.true_length == orig.path_seq.true_length
            assert np.array_equal(got.graph.node_kinds, orig.graph.node_kinds)
            assert got.graph.node_count == orig.graph.node_count
            assert np.array_equal(got.graph.edges, orig.graph.edges)
            assert np.array_equal(got.graph.norm_adj, orig.graph.norm_adj)

    def test_rewrite_is_bitwise_stable(self, vocab, tmp_path):
        fset = _toy_set(vocab)
        a, b = tmp_path / "a.feat", tmp_path / "b.feat"
        write_featurized(a, **vars(fset))
        write_featurized(b, **vars(read_featurized(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_featurized(tmp_path / "absent.feat")

    def test_wrong_magic(self, vocab, tmp_path):
        out = tmp_path / "c.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        data = bytearray(out.read_bytes())
        data[0] ^= 0xFF
        out.write_bytes(bytes(data))
        with pytest.raises(DataError):
            read_featurized(out)

    def test_unsupported_version(self, vocab, tmp_path):
        out = tmp_path / "c.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        data = bytearray(out.read_bytes())
        data[8] = 99
        out.write_bytes(bytes(data))
        with pytest.raises(DataError):
            read_featurized(out)

    def test_corrupt_header_json(self, vocab, tmp_path):
        out = tmp_path / "c.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        data = bytearray(out.read_bytes())
        data[25] = ord("{")
        out.write_bytes(bytes(data))
        with pytest.raises(DataError):
            read_featurized(out)

    def test_truncated_records(self, vocab, tmp_path):
        out = tmp_path / "c.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        out.write_bytes(out.read_bytes()[:-9])
        with pytest.raises(DataError):
            read_featurized(out)

    def test_trailing_bytes(self, vocab, tmp_path):
        out = tmp_path / "c.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        out.write_bytes(out.read_bytes() + b"\x00\x01")
        with pytest.raises(DataError):
            read_featurized(out)

    @pytest.mark.parametrize("key", ["L", "N", "kinds", "count"])
    def test_header_without_a_field(self, vocab, tmp_path, key):
        out = tmp_path / "c.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        rewrite_json_header(out, lambda h: h.pop(key))
        with pytest.raises(DataError, match=f"corrupt header: no {key}$"):
            read_featurized(out)

    @pytest.mark.parametrize("key, value", [("count", "x"), ("L", "x"),
                                            ("N", 2.5), ("kinds", 5)])
    def test_header_field_of_the_wrong_type(self, vocab, tmp_path, key,
                                            value):
        out = tmp_path / "c.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        rewrite_json_header(out, lambda h: h.update({key: value}))
        with pytest.raises(DataError, match="corrupt header"):
            read_featurized(out)

    # values of another type, each refused with the type its key needs
    @pytest.mark.parametrize("key, kind, value", [
        ("unified", "bool", "no"), ("table_hash", "str", 5),
        ("L", "int", True)])
    def test_header_value_of_another_type_names_it(self, vocab, tmp_path,
                                                   key, kind, value):
        out = tmp_path / "c.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        rewrite_json_header(out, lambda h: h.update({key: value}))
        with pytest.raises(DataError, match=re.escape(
                f"corrupt header: {key} must be of type {kind}, "
                f"got {value!r}")):
            read_featurized(out)

    @pytest.mark.parametrize("key", ["labels", "languages", "kinds"])
    @pytest.mark.parametrize("value", ["xy", [1, 2], ["x", None], {"x": 1}])
    def test_header_names_that_are_not_a_list_of_strings(self, vocab, tmp_path,
                                                         key, value):
        out = tmp_path / "c.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        rewrite_json_header(out, lambda h: h.update({key: value}))
        with pytest.raises(DataError, match=re.escape(
                f"corrupt header: {key} must be of type list[str]")):
            read_featurized(out)

    def test_file_shorter_than_its_frame(self, tmp_path):
        out = tmp_path / "c.feat"
        out.write_bytes(MAGIC + b"\x01\x00")
        with pytest.raises(DataError, match="truncated header"):
            read_featurized(out)

    def test_header_that_is_not_an_object(self, tmp_path):
        out = tmp_path / "c.feat"
        blob = b"[1, 2, 3]"
        out.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob))
                        + blob)
        with pytest.raises(DataError, match="not a JSON object"):
            read_featurized(out)


def _bad_record(vocab, **changes) -> FeaturizedSet:
    """The toy set with its first sample's views replaced."""
    fset = _toy_set(vocab)
    train = fset.splits["train"]
    train[0] = dataclasses.replace(train[0], **changes)
    return fset


def _patch_first_record(path: Path, field: str, value: int) -> None:
    """Overwrite one u16 index of the file's first record."""
    data = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<Q", data, 12)
    at = 20 + header_len + {"label": 0, "language": 2}[field]
    struct.pack_into("<H", data, at, value)
    path.write_bytes(bytes(data))


class TestFeaturizedRecordChecks:
    """Records no featurized sample can produce are refused on reading."""

    @pytest.mark.parametrize("graph, reason", [
        # such a record once read back silently and then broke propagate
        (([1, 2, 3], [(0, 5)]), "edge endpoint 5 outside [0, 3)"),
        (([1, 2, 3], [(0, 1), (1, 1)]), "self edge"),
        (([1, 2, 3], [(0, 1), (1, 2), (1, 0)]), "repeated edge"),
        (([1, 2, 3], [(0, 1), (0, 1)]), "repeated edge"),
    ])
    def test_bad_edges_raise_data_error(self, vocab, tmp_path, graph, reason):
        out = tmp_path / "bad.feat"
        fset = _bad_record(vocab, graph=make_graph(*graph))
        write_featurized(out, **vars(fset))
        with pytest.raises(DataError, match=re.escape("record 0: " + reason)):
            read_featurized(out)

    @pytest.mark.parametrize("view, name", [("path", "true_length"),
                                            ("graph", "node_count")])
    def test_empty_views_raise(self, vocab, tmp_path, view, name):
        # every tree has its root, so no sample has an empty view; a sast
        # model once read such a record back and classified it
        empty = {"path": {"path_seq": make_path([])},
                 "graph": {"graph": make_graph([], [])}}
        out = tmp_path / "bad.feat"
        write_featurized(out, **vars(_bad_record(vocab, **empty[view])))
        with pytest.raises(DataError, match=f"record 0: {name} 0"):
            read_featurized(out)

    def test_lengths_that_disagree_with_the_prefix_raise(self, vocab,
                                                         tmp_path):
        # a record holds the longer view's kinds; one kind more than both
        # lengths would once have been dropped without a word
        out = tmp_path / "bad.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        data = bytearray(out.read_bytes())
        (header_len,) = struct.unpack_from("<Q", data, 12)
        at = 20 + header_len + 5  # the first record's true_length
        m = struct.unpack_from("<III", data, at)[2]
        struct.pack_into("<II", data, at, m - 1, m - 1)
        out.write_bytes(bytes(data))
        with pytest.raises(DataError, match=f"record 0: {m} kinds for "
                                            f"true_length {m - 1}"):
            read_featurized(out)

    def test_lengths_beyond_the_header_raise(self, vocab, tmp_path):
        fset = _toy_set(vocab)
        long_path, big_graph = featurize_sample(
            chain_tree(["alpha"] * 20), vocab, L=fset.L + 1, N=fset.N + 1)
        for changes, reason in (({"path_seq": long_path}, "true_length 13"),
                                ({"graph": big_graph}, "node_count 11")):
            out = tmp_path / "bad.feat"
            write_featurized(out, **vars(_bad_record(vocab, **changes)))
            with pytest.raises(DataError, match=reason):
                read_featurized(out)

    @pytest.mark.parametrize("changes, reason", [
        ({"label": 2}, "label index 2 outside [0, 2)"),
        ({"language": 3}, "language index 3 outside [0, 3)"),
    ])
    def test_indices_outside_header_lists_raise(self, vocab, tmp_path,
                                                changes, reason):
        # the writer maps each sample's language name through the header's
        # list, so an index outside it can only be planted in the bytes
        out = tmp_path / "bad.feat"
        write_featurized(out, **vars(_toy_set(vocab)))
        [(field, value)] = changes.items()
        _patch_first_record(out, field, value)
        with pytest.raises(DataError, match=re.escape(reason)):
            read_featurized(out)

    def test_kind_outside_vocabulary_raises(self, vocab, tmp_path):
        fset = _toy_set(vocab)
        small = vocabulary_from_kinds(KINDS[:1])
        out = tmp_path / "bad.feat"
        write_featurized(out, **vars(dataclasses.replace(fset, vocab=small)))
        with pytest.raises(DataError, match="kind index"):
            read_featurized(out)
