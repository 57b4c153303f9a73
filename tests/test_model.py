"""Classifier model: configuration, initialization, and both encoders."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import chain_tree, make_graph, make_path, random_tree, tape_tensors
from oracle import (
    attend_one,
    attention_mask,
    oracle_probs,
    padded_probs,
)
from uastkit import autograd as ag
from uastkit.ast_frontend import vocabulary_from_kinds
from uastkit.autograd import Tensor, cross_entropy_loss, zero_grads
from uastkit.errors import ConfigError, IndexOutOfVocab, ShapeMismatch
from uastkit.featurizer import GraphSample, PathSequence, featurize_sample
from uastkit.model import (
    INIT_STREAM,
    MODES,
    ModelConfig,
    forward,
    forward_batch,
    freeze_pad_gradient,
    init_params,
    prepare_sample,
    self_attention,
)
from uastkit.optim import adam_init, adam_step
from uastkit.train_eval.checkpoint import (
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)


def variant(cfg, **changes) -> ModelConfig:
    return dataclasses.replace(cfg, **changes).validate()


def in_longer_buffer(view: np.ndarray, fill: int) -> np.ndarray:
    """view's values as the head of a buffer whose tail holds fill."""
    buffer = np.full(len(view) + 4, fill, dtype=np.int64)
    buffer[:len(view)] = view
    return buffer[:len(view)]


def sample_inputs(rng, cfg, n_nodes=5):
    """A random in-vocabulary path and a small chain graph."""
    idx = rng.integers(1, cfg.vocab_size, size=n_nodes)
    path = make_path(idx.tolist())
    edges = [(i, i + 1) for i in range(n_nodes - 1)]
    graph = make_graph(idx.tolist(), edges)
    return path, graph


# --- configuration -----------------------------------------------------------

class TestConfig:
    def test_head_dim_and_fusion_dim(self, tiny_config):
        assert tiny_config.d // tiny_config.heads == 4
        assert tiny_config.fusion_dim == 2 * 4 + 4
        assert variant(tiny_config, mode="sast").fusion_dim == 8
        assert variant(tiny_config, mode="gast").fusion_dim == 4

    def test_view_flags(self, tiny_config):
        assert tiny_config.uses_path and tiny_config.uses_graph
        sast = variant(tiny_config, mode="sast")
        assert sast.uses_path and not sast.uses_graph
        gast = variant(tiny_config, mode="gast")
        assert gast.uses_graph and not gast.uses_path

    @pytest.mark.parametrize("changes", [
        {"mode": "full"},
        {"gcn_hidden": 0},
        {"d_out": 0},
        {"d": 9},                      # not divisible by heads
        {"heads": 0},
        {"L": 0}, {"N": 0}, {"k": 0}, {"d": 0}, {"h": 0},
        {"lstm_layers": 0}, {"gcn_layers": 0}, {"vocab_size": 0},
        {"attn_dropout": -0.1}, {"attn_dropout": 1.0},
        {"lstm_dropout": 1.5},
    ])
    def test_invalid_configs_rejected(self, tiny_config, changes):
        with pytest.raises(ConfigError):
            dataclasses.replace(tiny_config, **changes).validate()


# --- parameter initialization ---------------------------------------------------

class TestInit:
    def test_manifest_covers_all_modes(self, tiny_config):
        names = [n for n, _ in init_params(tiny_config, 0).manifest()]
        # attention has no parameters: the LSTM reads the embedding's rows
        assert names[:2] == ["embedding", "lstm.0.fwd.w"]
        assert names[-2:] == ["classifier.w", "classifier.b"]
        assert "lstm.1.bwd.w" in names and "lstm.1.bwd.b" in names
        assert "gcn.0" in names and "gcn.1" in names

        sast = [n for n, _ in
                init_params(variant(tiny_config, mode="sast"), 0).manifest()]
        assert not any(n.startswith("gcn.") for n in sast)

        gast = [n for n, _ in
                init_params(variant(tiny_config, mode="gast"), 0).manifest()]
        assert gast == ["gcn.0", "gcn.1", "classifier.w", "classifier.b"]

    def test_same_seed_same_parameters(self, tiny_config):
        a = init_params(tiny_config, 7)
        b = init_params(tiny_config, 7)
        for (name, ta), (_, tb) in zip(a.manifest(), b.manifest()):
            assert np.array_equal(ta.data, tb.data), name

    def test_different_seed_different_parameters(self, tiny_config):
        a = init_params(tiny_config, 7)
        b = init_params(tiny_config, 8)
        assert not np.array_equal(a.embedding.data, b.embedding.data)

    def test_lstm_directions_are_one_weight_and_one_bias(self, tiny_config):
        cfg = tiny_config
        lstm = [(n, t.shape) for n, t in init_params(cfg, 0).manifest()
                if n.startswith("lstm.")]
        h, in1 = cfg.h, 2 * cfg.h
        assert lstm == [
            ("lstm.0.fwd.w", (h + cfg.d, 4 * h)), ("lstm.0.fwd.b", (1, 4 * h)),
            ("lstm.0.bwd.w", (h + cfg.d, 4 * h)), ("lstm.0.bwd.b", (1, 4 * h)),
            ("lstm.1.fwd.w", (h + in1, 4 * h)), ("lstm.1.fwd.b", (1, 4 * h)),
            ("lstm.1.bwd.w", (h + in1, 4 * h)), ("lstm.1.bwd.b", (1, 4 * h))]

    def test_forget_gate_bias_starts_at_one(self, tiny_config):
        h = tiny_config.h
        params = init_params(tiny_config, 0)
        for fwd, bwd in params.lstm:
            for _, b in (fwd, bwd):
                assert (b.data[:, h:2 * h] == 1.0).all()     # f
                assert (b.data[:, :h] == 0.0).all()          # i
                assert (b.data[:, 2 * h:] == 0.0).all()      # o, c

    def test_lstm_weight_holds_four_gate_draws(self, tiny_config):
        # the layout of four [h x fan] draws, one per gate in the order
        # i f o c, each transposed into its column block
        cfg = tiny_config
        params = init_params(cfg, 5)
        rng = np.random.default_rng([5, INIT_STREAM])
        bound = math.sqrt(1 / cfg.d)
        rng.uniform(-bound, bound, size=(cfg.vocab_size, cfg.d))  # embedding
        in_dim = cfg.d
        for fwd, bwd in params.lstm:
            fan = cfg.h + in_dim
            bound = math.sqrt(1 / fan)
            for w, _ in (fwd, bwd):
                gates = [rng.uniform(-bound, bound, size=(cfg.h, fan))
                         for _ in range(4)]
                assert w.data.flags.c_contiguous
                for j, gate in enumerate(gates):
                    block = w.data[:, j * cfg.h:(j + 1) * cfg.h]
                    assert np.array_equal(block.T, gate)
            in_dim = 2 * cfg.h

    def test_pad_embedding_row_starts_zero(self, tiny_config):
        params = init_params(tiny_config, 3)
        assert (params.embedding.data[0] == 0.0).all()
        assert params.embedding.data[1:].any()

    def test_uniform_bounds_follow_fan_in(self, tiny_config):
        cfg = tiny_config
        params = init_params(cfg, 1)
        assert np.abs(params.embedding.data).max() <= math.sqrt(1 / cfg.d)
        fan0 = cfg.h + cfg.d
        for w, _ in params.lstm[0]:
            assert np.abs(w.data).max() <= math.sqrt(1 / fan0)
        fan1 = cfg.h + 2 * cfg.h
        for w, _ in params.lstm[1]:
            assert np.abs(w.data).max() <= math.sqrt(1 / fan1)
        assert np.abs(params.gcn[0].data).max() <= math.sqrt(1 / cfg.vocab_size)
        assert np.abs(params.clf_w.data).max() <= math.sqrt(1 / cfg.fusion_dim)

    def test_checkpoint_load_overwrites_every_array(self, tiny_config,
                                                    tmp_path):
        # loading starts from init_params(config, 0), so parameters drawn
        # from another seed must come back from the file, every one
        for mode in MODES:
            cfg = variant(tiny_config, mode=mode)
            saved = init_params(cfg, 7)
            path = tmp_path / f"{mode}.ckpt"
            save_checkpoint(Checkpoint(
                config=cfg, params=saved,
                vocab=vocabulary_from_kinds([f"k{i}" for i in range(8)]),
                labels=("a", "b", "c"), languages=("python",),
                table_hash="00" * 32, unified=True, seed=7), path)
            loaded = load_checkpoint(path).params.manifest()
            seed0 = init_params(cfg, 0).manifest()
            assert [n for n, _ in loaded] == [n for n, _ in saved.manifest()]
            for (name, got), (_, want), (_, fresh) in zip(
                    loaded, saved.manifest(), seed0):
                assert got.data.tobytes() == want.data.tobytes(), name
                assert got.requires_grad and got.data.flags.c_contiguous
                if not name.endswith(".b"):  # biases start constant
                    assert not np.array_equal(got.data, fresh.data), name

    def test_all_parameters_require_grad(self, tiny_config):
        params = init_params(tiny_config, 0)
        assert all(t.requires_grad for t in params.parameters())
        assert all(np.isfinite(t.data).all() for t in params.parameters())


# --- attention oracle --------------------------------------------------------------

def oracle_attention(x: np.ndarray, true_length: int, heads: int) -> np.ndarray:
    """Plain numpy multi-head attention with key masking, no dropout."""
    L, d = x.shape
    hd = d // heads
    outs = []
    for i in range(heads):
        q = x[:, i * hd:(i + 1) * hd]
        scores = (q @ q.T) * (1.0 / math.sqrt(hd))
        if true_length < L:
            scores = scores + np.where(
                np.arange(L) >= true_length, -np.inf, 0.0)[None, :]
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append((e / e.sum(axis=1, keepdims=True)) @ q)
    return np.concatenate(outs, axis=1)


class TestAttention:
    def test_matches_numpy_oracle(self, tiny_config):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(tiny_config.L, tiny_config.d))
        for true_length in (1, 3, tiny_config.L):
            got = self_attention(Tensor(x[:true_length]), true_length,
                                 tiny_config).data
            want = oracle_attention(x, true_length, tiny_config.heads)
            assert got.shape == (true_length, tiny_config.d)
            assert np.max(np.abs(got - want[:true_length])) < 1e-12

    def test_packed_batch_matches_numpy_oracle(self, tiny_config):
        # each sequence of the packed rows attends within itself only
        rng = np.random.default_rng(3)
        lengths = [3, 1, tiny_config.L, 3]
        xs = [rng.normal(size=(n, tiny_config.d)) for n in lengths]
        got = ag.attention(Tensor(np.concatenate(xs)), np.arange(sum(lengths)),
                           ag.Packing(lengths), tiny_config.heads).data
        want = np.concatenate([oracle_attention(x, len(x), tiny_config.heads)
                               for x in xs])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_rows_attend_only_to_real_keys(self, tiny_config):
        # the path's rows alone give what masking every later key gives
        rng = np.random.default_rng(4)
        x = rng.normal(size=(tiny_config.L, tiny_config.d))
        got = self_attention(Tensor(x[:3]), 3, tiny_config).data
        want = oracle_attention(x, 3, tiny_config.heads)[:3]
        assert got.shape == (3, tiny_config.d)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_shape_guards(self, tiny_config):
        with pytest.raises(ShapeMismatch):
            self_attention(Tensor(np.zeros((3, 3))), 3, tiny_config)
        with pytest.raises(ShapeMismatch):
            self_attention(Tensor(np.zeros((3, tiny_config.d))), 2,
                           tiny_config)
        with pytest.raises(ShapeMismatch):
            self_attention(Tensor(np.zeros((0, tiny_config.d))), 0,
                           tiny_config)

    def test_dropout_only_in_training(self, tiny_config):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, tiny_config.d)))
        evald = self_attention(x, 4, tiny_config).data
        t1 = self_attention(x, 4, tiny_config, training=True,
                            rng=np.random.default_rng(1)).data
        t2 = self_attention(x, 4, tiny_config, training=True,
                            rng=np.random.default_rng(1)).data
        assert np.array_equal(t1, t2)
        assert not np.array_equal(t1, evald)


# --- full passes --------------------------------------------------------------------

class TestForward:
    def setup_method(self):
        self.rng = np.random.default_rng(12)

    def test_probability_rows(self, tiny_config):
        params = init_params(tiny_config, 0)
        path, graph = sample_inputs(self.rng, tiny_config)
        probs = forward(path, graph, params, tiny_config).data
        assert probs.shape == (1, tiny_config.k)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert (probs > 0).all()

    def test_batch_rows_equal_single_forwards(self, tiny_config):
        params = init_params(tiny_config, 0)
        pairs = [sample_inputs(self.rng, tiny_config, n) for n in (2, 5, 6, 3)]
        batch = [prepare_sample(p, g, tiny_config) for p, g in pairs]
        together = forward_batch(batch, params, tiny_config).data
        for row, (path, graph) in zip(together, pairs):
            alone = forward(path, graph, params, tiny_config).data[0]
            assert np.max(np.abs(row - alone)) < 1e-12

    def test_composed_stages_equal_forward(self, tiny_config):
        params = init_params(tiny_config, 0)
        path, graph = sample_inputs(self.rng, tiny_config)
        by_stages = oracle_probs([(path, graph)], params, tiny_config).data
        whole = forward(path, graph, params, tiny_config).data
        assert np.max(np.abs(by_stages - whole)) < 1e-12

    def test_content_beyond_the_views_is_ignored(self, tiny_config):
        # featurize_sample's views are prefixes of one longer buffer
        params = init_params(tiny_config, 0)
        path, graph = sample_inputs(self.rng, tiny_config, n_nodes=3)
        clean = forward(path, graph, params, tiny_config).data
        dirty = forward(
            PathSequence(in_longer_buffer(path.indices,
                                          tiny_config.vocab_size - 1)),
            GraphSample(in_longer_buffer(graph.node_kinds,
                                         tiny_config.vocab_size - 1),
                        graph.edges),
            params, tiny_config).data
        assert np.array_equal(clean, dirty)

    def test_fusion_layout_sequence_first(self, tiny_config):
        # with the head's first 2h rows zero, the path no longer counts and
        # the graph still does; with its last d_out rows zero, the reverse
        h = tiny_config.h
        params = init_params(tiny_config, 0)
        path_a, graph_a = sample_inputs(self.rng, tiny_config)
        path_b, graph_b = sample_inputs(self.rng, tiny_config, n_nodes=4)
        weights = params.clf_w.data.copy()

        def moves(rows: slice, which: str) -> bool:
            params.clf_w.data = weights.copy()
            params.clf_w.data[rows] = 0.0
            base = forward(path_a, graph_a, params, tiny_config).data
            other = forward(path_b if which == "path" else path_a,
                            graph_b if which == "graph" else graph_a,
                            params, tiny_config).data
            return not np.array_equal(base, other)

        assert params.clf_w.shape[0] == 2 * h + tiny_config.d_out
        assert not moves(slice(0, 2 * h), "path")
        assert moves(slice(0, 2 * h), "graph")
        assert not moves(slice(2 * h, None), "graph")
        assert moves(slice(2 * h, None), "path")

    def test_sequence_only_mode_ignores_graph(self, tiny_config):
        cfg = variant(tiny_config, mode="sast")
        params = init_params(cfg, 0)
        path, graph_a = sample_inputs(self.rng, cfg)
        _, graph_b = sample_inputs(self.rng, cfg)
        a = forward(path, graph_a, params, cfg).data
        b = forward(path, graph_b, params, cfg).data
        c = forward(path, None, params, cfg).data
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_graph_only_mode_ignores_path(self, tiny_config):
        cfg = variant(tiny_config, mode="gast")
        params = init_params(cfg, 0)
        path_a, graph = sample_inputs(self.rng, cfg)
        path_b, _ = sample_inputs(self.rng, cfg)
        a = forward(path_a, graph, params, cfg).data
        b = forward(path_b, graph, params, cfg).data
        c = forward(None, graph, params, cfg).data
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_modes_demand_their_view(self, tiny_config):
        params = init_params(tiny_config, 0)
        path, graph = sample_inputs(self.rng, tiny_config)
        with pytest.raises(ShapeMismatch):
            forward(path, None, params, tiny_config)
        with pytest.raises(ShapeMismatch):
            forward(None, graph, params, tiny_config)
        with pytest.raises(ShapeMismatch):
            forward_batch([], params, tiny_config)

    def test_graph_shape_guards(self, tiny_config):
        # a graph or a path without a root cannot be pooled or attended over
        params = init_params(tiny_config, 0)
        path, graph = sample_inputs(self.rng, tiny_config)
        with pytest.raises(ShapeMismatch):
            forward(path, make_graph([], []), params, tiny_config)
        with pytest.raises(ShapeMismatch):
            forward(make_path([]), graph, params, tiny_config)

    def test_training_dropout_is_seeded(self, tiny_config):
        params = init_params(tiny_config, 0)
        path, graph = sample_inputs(self.rng, tiny_config)
        batch = [prepare_sample(path, graph, tiny_config)]
        t1, t2 = (forward_batch(batch, params, tiny_config, training=True,
                                rng=np.random.default_rng(3)).data
                  for _ in range(2))
        evald = forward(path, graph, params, tiny_config).data
        assert np.array_equal(t1, t2)
        assert not np.array_equal(t1, evald)


# --- edge-list GCN against the dense composition -------------------------------------

ORACLE_KINDS = ("alpha", "beta", "gamma", "delta", "epsilon")


def oracle_batch(rng, cfg, sizes):
    """Random trees of mixed sizes (some beyond N) plus a single node."""
    vocab = vocabulary_from_kinds(ORACLE_KINDS)
    trees = [random_tree(rng, max_nodes=m, kinds=ORACLE_KINDS) for m in sizes]
    trees.append(chain_tree(["gamma"]))
    return [featurize_sample(t, vocab, cfg.L, cfg.N) for t in trees]


class TestEdgeListOracle:
    def _config(self, tiny_config, **changes):
        return variant(tiny_config, vocab_size=len(ORACLE_KINDS) + 2, L=12,
                       N=9, **changes)

    def _compare(self, cfg, seed, pairs=None):
        if pairs is None:
            pairs = oracle_batch(np.random.default_rng(seed), cfg,
                                 (3, 30, 1, 9, 14, 40, 2))
        assert {g.node_count for _, g in pairs} >= {1, cfg.N}
        labels = [i % cfg.k for i in range(len(pairs))]
        params = init_params(cfg, seed)
        tensors = params.parameters()

        zero_grads(tensors)
        want = oracle_probs(pairs, params, cfg)
        ag.backward(cross_entropy_loss(want, labels))
        want_grads = [t.grad.copy() for t in tensors]

        zero_grads(tensors)
        batch = [prepare_sample(p, g, cfg) for p, g in pairs]
        got = forward_batch(batch, params, cfg)
        ag.backward(cross_entropy_loss(got, labels))

        assert np.max(np.abs(got.data - want.data)) < 1e-12
        for (name, t), g in zip(params.manifest(), want_grads):
            assert np.max(np.abs(t.grad - g)) < 1e-12, name

    def test_graph_mode_matches_dense(self, tiny_config):
        self._compare(self._config(tiny_config, mode="gast"), seed=8)

    def test_fused_mode_matches_dense(self, tiny_config):
        cfg = self._config(tiny_config, gcn_layers=3)
        self._compare(cfg, seed=11)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_wide_vocabulary_matches_dense(self, tiny_config, layers):
        # the first layer multiplies (Â X) by W0; at V = 140 that GEMM sums
        # over 140 kinds where the dense oracle gathers W0's rows
        kinds = tuple(f"kind{i}" for i in range(138))
        vocab = vocabulary_from_kinds(kinds)
        cfg = variant(tiny_config, mode="gast", vocab_size=vocab.size, L=12,
                      N=40, gcn_layers=layers, gcn_hidden=16)
        assert cfg.vocab_size == 140
        rng = np.random.default_rng(layers)
        pairs = [featurize_sample(random_tree(rng, max_nodes=m, kinds=kinds),
                                  vocab, cfg.L, cfg.N)
                 for m in (300, 200, 5, 1, 30)]
        self._compare(cfg, seed=layers, pairs=pairs)

    def test_kind_outside_the_vocabulary_is_refused(self, tiny_config):
        cfg = self._config(tiny_config, mode="gast")
        params = init_params(cfg, 0)
        _, graph = oracle_batch(np.random.default_rng(6), cfg, (8,))[0]
        kinds = graph.node_kinds.copy()
        kinds[-1] = cfg.vocab_size
        bad = GraphSample(kinds, graph.edges)
        good = prepare_sample(None, graph, cfg)
        with pytest.raises(IndexOutOfVocab):
            forward_batch([good, prepare_sample(None, bad, cfg)], params, cfg)

    def test_single_node_graph_alone(self, tiny_config):
        cfg = self._config(tiny_config, mode="gast")
        vocab = vocabulary_from_kinds(ORACLE_KINDS)
        pairs = [featurize_sample(chain_tree(["beta"]), vocab, cfg.L, cfg.N)]
        params = init_params(cfg, 2)
        got = forward_batch([prepare_sample(*pairs[0], cfg)], params, cfg)
        want = oracle_probs(pairs, params, cfg)
        assert np.max(np.abs(got.data - want.data)) < 1e-12

    def test_prepared_graph_is_an_edge_list(self, tiny_config):
        cfg = self._config(tiny_config)
        for path, graph in oracle_batch(np.random.default_rng(1), cfg,
                                        (40, 5)):
            p = prepare_sample(path, graph, cfg)
            assert p.adj.dtype == np.int64 and p.adj.flags.c_contiguous
            assert p.adj.shape == (graph.node_count - 1, 2)
            # the views' own arrays, not copies
            assert p.adj is graph.edges
            assert p.node_kinds is graph.node_kinds
            assert p.path is path

    def test_graph_side_reads_real_rows_only(self, tiny_config):
        # the buffer past each graph's nodes holds a kind no node has;
        # W0's row for that kind must get no gradient
        cfg = variant(self._config(tiny_config, mode="gast"),
                      vocab_size=len(ORACLE_KINDS) + 3)
        params = init_params(cfg, 0)
        spare = cfg.vocab_size - 1
        pairs = oracle_batch(np.random.default_rng(5), cfg, (6, 40, 2))
        batch = []
        for _, graph in pairs:
            assert spare not in graph.node_kinds
            batch.append(prepare_sample(None, GraphSample(
                in_longer_buffer(graph.node_kinds, spare), graph.edges), cfg))
        assert {s.node_count for s in batch} != {cfg.N}
        zero_grads(params.parameters())
        probs = forward_batch(batch, params, cfg)
        ag.backward(cross_entropy_loss(probs, [0] * len(batch)))
        assert not params.gcn[0].grad[spare].any()
        assert params.gcn[0].grad[1:spare].any()


# --- fused sequence encoder against the op-by-op composition ------------------------

def mixed_length_pairs(rng, cfg, lengths):
    pairs = []
    for n in lengths:
        idx = rng.integers(1, cfg.vocab_size, size=n).tolist()
        count = min(n, cfg.N)
        pairs.append((make_path(idx),
                      make_graph(idx[:count],
                                 [(i // 2, i) for i in range(1, count)])))
    return pairs


class TestFusedSequenceOracle:
    def _config(self, tiny_config, **changes):
        return variant(tiny_config, L=9, N=9, **changes)

    @pytest.mark.parametrize("mode", ["uast", "sast"])
    def test_forward_batch_matches_composition(self, tiny_config, mode):
        cfg = self._config(tiny_config, mode=mode)
        rng = np.random.default_rng(len(mode))
        for lengths in ((1, 9, 4, 2, 7), (3, 1, 3), (5, 5, 5), (9,),
                        (1,)):
            pairs = mixed_length_pairs(rng, cfg, lengths)
            labels = [i % cfg.k for i in range(len(pairs))]
            params = init_params(cfg, len(lengths))
            tensors = params.parameters()

            zero_grads(tensors)
            want = oracle_probs(pairs, params, cfg)
            ag.backward(cross_entropy_loss(want, labels))
            want_grads = [t.grad.copy() for t in tensors]

            zero_grads(tensors)
            got = forward_batch([prepare_sample(p, g, cfg) for p, g in pairs],
                                params, cfg)
            ag.backward(cross_entropy_loss(got, labels))

            assert np.max(np.abs(got.data - want.data)) < 1e-12
            for (name, t), g in zip(params.manifest(), want_grads):
                assert np.max(np.abs(t.grad - g)) < 1e-12, (lengths, name)

    def test_self_attention_matches_composition(self, tiny_config):
        cfg = tiny_config
        x = Tensor(np.random.default_rng(6).normal(size=(cfg.L, cfg.d)))
        for n in (1, 3, cfg.L):
            got = self_attention(Tensor(x.data[:n]), n, cfg).data
            want = attend_one(x, attention_mask(cfg.L, n), cfg).data
            assert np.max(np.abs(got - want[:n])) < 1e-12

    @pytest.mark.parametrize("mode", ["uast", "sast"])
    def test_training_matches_padded_composition(self, tiny_config, mode):
        # the packed encoder draws each dropout mask path by path, the
        # padded one in one draw over the padded layout: one stream, so the
        # same rng gives the same numbers
        cfg = self._config(tiny_config, mode=mode, attn_dropout=0.2,
                           lstm_dropout=0.5)
        pairs = mixed_length_pairs(np.random.default_rng(9), cfg,
                                   (4, 9, 1, 6, 9, 2))
        labels = [i % cfg.k for i in range(len(pairs))]
        params = init_params(cfg, 7)
        tensors = params.parameters()
        runs = []
        for probs_of in (
                lambda rng: padded_probs(pairs, params, cfg, True, rng),
                lambda rng: forward_batch(
                    [prepare_sample(p, g, cfg) for p, g in pairs], params,
                    cfg, training=True, rng=rng)):
            zero_grads(tensors)
            probs = probs_of(np.random.default_rng(13))
            loss = cross_entropy_loss(probs, labels)
            ag.backward(loss)
            runs.append((loss.item(), probs.data,
                         [t.grad.copy() for t in tensors]))
        (want_loss, want, want_grads), (loss, got, grads) = runs
        assert abs(loss - want_loss) < 1e-12
        assert np.max(np.abs(got - want)) < 1e-12
        for (name, _), g, w in zip(params.manifest(), grads, want_grads):
            assert np.max(np.abs(g - w)) < 1e-12, name
        eval_probs = forward_batch([prepare_sample(p, g, cfg)
                                    for p, g in pairs], params, cfg).data
        assert not np.allclose(got, eval_probs)

    def test_training_draws_repeat_with_the_seed(self, tiny_config):
        params = init_params(tiny_config, 0)
        pairs = mixed_length_pairs(np.random.default_rng(8), tiny_config,
                                   (1, 6, 3))
        batch = [prepare_sample(p, g, tiny_config) for p, g in pairs]
        runs = [forward_batch(batch, params, tiny_config, training=True,
                              rng=np.random.default_rng(2)).data
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])
        assert not np.array_equal(runs[0],
                                  forward_batch(batch, params,
                                                tiny_config).data)


def tape_ops(probs: Tensor) -> list[str]:
    """The sorted names of the ops that recorded probs' tape nodes."""
    return sorted(t._backward_fn.__qualname__.split(".")[0]
                  for t in tape_tensors(probs) if t._backward_fn is not None)


# each encoder's nodes at two LSTM layers and two GCN layers
SEQUENCE_OPS = ["attention", *["lstm_direction"] * 4, "dropout",
                "gather_rows", "gather_rows"]
GRAPH_OPS = ["gcn_layer", "gcn_layer", "segment_pool"]


class TestTapeSize:
    @pytest.mark.parametrize("mode", MODES)
    def test_tape_holds_one_node_per_op(self, tiny_config, mode):
        cfg = variant(tiny_config, mode=mode, L=9, N=9)
        pairs = mixed_length_pairs(np.random.default_rng(4), cfg, (9, 3, 1))
        probs = forward_batch([prepare_sample(p, g, cfg) for p, g in pairs],
                              init_params(cfg, 0), cfg, training=True,
                              rng=np.random.default_rng(0))
        ops = (SEQUENCE_OPS if cfg.uses_path else []) + (
            GRAPH_OPS if cfg.uses_graph else [])
        assert tape_ops(probs) == sorted(ops + ["classify"])

    @pytest.mark.parametrize("mode", ["uast", "sast"])
    def test_training_tape_does_not_grow_with_steps_or_batch(self, tiny_config,
                                                             mode):
        cfg = variant(tiny_config, mode=mode, L=9, N=9)
        params = init_params(cfg, 0)

        def count(lengths) -> int:
            pairs = mixed_length_pairs(np.random.default_rng(1), cfg, lengths)
            batch = [prepare_sample(p, g, cfg) for p, g in pairs]
            probs = forward_batch(batch, params, cfg, training=True,
                                  rng=np.random.default_rng(0))
            return len(tape_tensors(probs))

        short_pair = count((3, 2))
        assert count((9, 2)) == short_pair
        assert count((3, 2, 1, 3, 2)) == short_pair
        assert count((9, 4, 9, 1, 5)) == short_pair

    def test_parameters_enter_the_tape_unpacked(self, tiny_config):
        # every parameter is a leaf of the tape, read only by the fused ops
        # that take it as it is stored, never joined or transposed on it
        cfg = variant(tiny_config, L=9, N=9)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(3)
        pairs = mixed_length_pairs(rng, cfg, rng.integers(1, 10, size=64))
        probs = forward_batch([prepare_sample(p, g, cfg) for p, g in pairs],
                              params, cfg, training=True,
                              rng=np.random.default_rng(0))
        tape = tape_tensors(probs)
        leaves = {id(t) for t in tape if t.requires_grad and not t._parents}
        ids = {id(t) for t in params.parameters()}
        assert leaves == ids and len(ids) == 13
        for t in tape:
            if any(id(p) in ids for p in t._parents):
                op = t._backward_fn.__qualname__.split(".")[0]
                assert op in ("attention", "lstm_direction", "gcn_layer",
                              "classify"), op

    def test_backward_frees_more_than_the_gradients_take(self, tiny_config):
        # each node's saved arrays go as its backward function runs, so a
        # training step holds less when backward returns than after its
        # forward pass, although every parameter then has a .grad
        cfg = variant(tiny_config, L=24, N=24, d=16, h=8)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        pairs = mixed_length_pairs(rng, cfg,
                                   [1, 24, *rng.integers(1, 25, size=14)])
        batch = [prepare_sample(p, g, cfg) for p, g in pairs]
        labels = [i % cfg.k for i in range(len(batch))]
        tracemalloc.start()
        try:
            loss = cross_entropy_loss(forward_batch(
                batch, params, cfg, training=True,
                rng=np.random.default_rng(1)), labels)
            after_forward = tracemalloc.get_traced_memory()[0]
            ag.backward(loss)
            after_backward = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after_backward < after_forward, (after_backward, after_forward)

    def test_uast_tape_per_packed_row(self):
        # at leetcode widths, 31 kinds and 16 paths of 40-200 rows, one
        # node a row: 16.1 KB a row, against 20.8 when the tape held the
        # embedded path, the joined LSTM outputs under their dropout and
        # every LSTM direction's cell states
        cfg = ModelConfig(vocab_size=31, k=3).validate()
        params = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        pairs = mixed_length_pairs(rng, cfg, rng.integers(40, 201, size=16))
        batch = [prepare_sample(p, g, cfg) for p, g in pairs]
        rows = sum(s.true_length for s in batch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            probs = forward_batch(batch, params, cfg, training=True,
                                  rng=np.random.default_rng(1))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert probs.shape == (16, 3)
        assert held / rows < 18_500, held / rows

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_graph_tape_holds_one_node_per_gcn_layer(self, tiny_config,
                                                     layers):
        cfg = variant(tiny_config, mode="gast", L=9, N=9, gcn_layers=layers)
        pairs = mixed_length_pairs(np.random.default_rng(4), cfg, (9, 3, 1))
        probs = forward_batch([prepare_sample(p, g, cfg) for p, g in pairs],
                              init_params(cfg, 0), cfg, training=True,
                              rng=np.random.default_rng(0))
        assert tape_ops(probs) == sorted(["gcn_layer"] * layers + [
            "segment_pool", "classify"])


class TestGradientOwnership:
    """After a backward pass each parameter holds the one gradient on the
    tape, and no two of them share memory."""

    @pytest.mark.parametrize("mode", ["uast", "gast"])
    def test_batch_gradients_are_distinct_arrays(self, tiny_config, mode):
        cfg = variant(tiny_config, mode=mode, L=9, N=9, heads=1)
        params = init_params(cfg, 0)
        pairs = mixed_length_pairs(np.random.default_rng(5), cfg, (9, 4, 1))
        probs = forward_batch([prepare_sample(p, g, cfg) for p, g in pairs],
                              params, cfg, training=True,
                              rng=np.random.default_rng(0))
        ag.backward(cross_entropy_loss(probs, [0, 1, 2]))
        grads = [t.grad for t in tape_tensors(probs) if t.grad is not None]
        assert len(grads) == len(params.parameters())
        assert all(t.grad is not None for t in params.parameters())
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)


# --- short optimization runs -----------------------------------------------------

class TestTrainingSteps:
    def _minibatch(self, cfg, rng, size=8):
        batch = []
        labels = []
        for i in range(size):
            path, graph = sample_inputs(rng, cfg, n_nodes=2 + i % 4)
            batch.append(prepare_sample(path, graph, cfg, label=i % cfg.k))
            labels.append(i % cfg.k)
        return batch, labels

    def test_pad_row_never_moves(self, tiny_config):
        rng = np.random.default_rng(0)
        params = init_params(tiny_config, 0)
        batch, labels = self._minibatch(tiny_config, rng)
        tensors = params.parameters()
        state = adam_init(tensors, lr=0.01)
        before = {n: t.data.copy() for n, t in params.manifest()}
        for _ in range(5):
            zero_grads(tensors)
            probs = forward_batch(batch, params, tiny_config, training=True,
                                  rng=np.random.default_rng(1))
            ag.backward(cross_entropy_loss(probs, labels))
            # as in train(), which does not zero the PAD row's gradient
            assert not params.embedding.grad[0].any()
            adam_step(tensors, state)
        assert (params.embedding.data[0] == 0.0).all()
        assert not np.array_equal(params.embedding.data[1:],
                                  before["embedding"][1:])
        assert not np.array_equal(params.clf_w.data, before["classifier.w"])

    def test_parameters_stay_finite_and_loss_drops(self, tiny_config):
        rng = np.random.default_rng(1)
        params = init_params(tiny_config, 5)
        batch, labels = self._minibatch(tiny_config, rng)
        tensors = params.parameters()
        state = adam_init(tensors, lr=0.01)
        losses = []
        for _ in range(30):
            zero_grads(tensors)
            probs = forward_batch(batch, params, tiny_config)
            loss = cross_entropy_loss(probs, labels)
            losses.append(loss.item())
            ag.backward(loss)
            freeze_pad_gradient(params)
            adam_step(tensors, state)
        assert all(np.isfinite(t.data).all() for t in params.parameters())
        assert all(np.isfinite(v) for v in losses)
        assert losses[-1] < losses[0]
