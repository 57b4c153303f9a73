"""Tensor core: gradients against finite differences, op semantics, Adam."""

import ast
import inspect
import json
import platform
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import chain_tree, random_tree, src_env, tape_tensors
from oracle import (
    add,
    add_at_propagate,
    clamp_min,
    composed_classify,
    composed_cross_entropy_loss,
    composed_gcn_layer,
    concat,
    log,
    matmul,
    mul,
    packed_dropout,
    padded_attention,
    padded_dropout,
    padded_lstm_direction,
    propagate,
    relu,
    saved_attention,
    saved_lstm_direction,
    scale,
    sigmoid,
    slice_cols,
    slice_rows,
    softmax_rows,
    tanh,
    transpose,
)
from uastkit import autograd as ag
from uastkit.ast_frontend import vocabulary_from_kinds
from uastkit.autograd import Tensor
from uastkit.errors import (
    IndexOutOfVocab,
    LabelOutOfRange,
    MissingGradient,
    NonScalarLoss,
    ShapeMismatch,
    UastError,
)
from uastkit.featurizer import featurize_sample
from uastkit.optim import adam_init, adam_step

EPS = 1e-5
TOL = 1e-6


def fd_check(make_loss, params):
    """Central differences per coordinate against the reverse-mode gradient.

    make_loss rebuilds the graph from the current parameter values, so it
    can be re-evaluated after each perturbation.
    """
    loss = make_loss()
    ag.zero_grads(params)
    ag.backward(loss)
    for p in params:
        assert p.grad is not None
        grad = p.grad.copy()
        for pos in np.ndindex(*p.data.shape):
            keep = p.data[pos]
            p.data[pos] = keep + EPS
            up = make_loss().item()
            p.data[pos] = keep - EPS
            down = make_loss().item()
            p.data[pos] = keep
            fd = (up - down) / (2 * EPS)
            err = abs(fd - grad[pos]) / max(1e-6, abs(fd), abs(grad[pos]))
            assert err < TOL, (pos, fd, grad[pos])


def leaf(rng, rows, cols, low=-1.0, high=1.0):
    return Tensor(rng.uniform(low, high, (rows, cols)), requires_grad=True)


# --- gradient correctness per op -----------------------------------------------

class TestGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add(self):
        a, b = leaf(self.rng, 2, 3), leaf(self.rng, 2, 3)
        fd_check(lambda: ag.sum_all(mul(ag.add(a, b), ag.add(a, b))),
                 [a, b])

    def test_add_broadcasts_rows_and_cols(self):
        a = leaf(self.rng, 3, 4)
        row, col = leaf(self.rng, 1, 4), leaf(self.rng, 3, 1)
        fd_check(lambda: ag.sum_all(tanh(add(add(a, row), col))),
                 [a, row, col])

    def test_mul_broadcast(self):
        a, b = leaf(self.rng, 3, 2), leaf(self.rng, 1, 2)
        fd_check(lambda: ag.sum_all(mul(a, b)), [a, b])

    def test_scale(self):
        a = leaf(self.rng, 2, 3)
        fd_check(lambda: ag.sum_all(sigmoid(scale(a, -2.5))), [a])

    def test_matmul(self):
        a, b = leaf(self.rng, 3, 4), leaf(self.rng, 4, 2)
        fd_check(lambda: ag.sum_all(matmul(a, b)), [a, b])

    def test_matmul_chain_with_transpose(self):
        a, b = leaf(self.rng, 2, 3), leaf(self.rng, 2, 3)
        fd_check(lambda: ag.sum_all(matmul(a, transpose(b))), [a, b])

    def test_concat_both_axes(self):
        a, b = leaf(self.rng, 2, 3), leaf(self.rng, 2, 3)
        fd_check(lambda: ag.sum_all(mul(concat([a, b], axis=0),
                                        concat([b, a], axis=0))),
                 [a, b])
        fd_check(lambda: ag.sum_all(concat([a, b, a], axis=1)), [a, b])

    def test_slices(self):
        a = leaf(self.rng, 4, 5)
        fd_check(lambda: ag.sum_all(slice_rows(a, 1, 3)), [a])
        fd_check(lambda: ag.sum_all(mul(slice_cols(a, 0, 2),
                                        slice_cols(a, 3, 5))), [a])

    def test_gather_rows_accumulates_duplicates(self):
        a = leaf(self.rng, 4, 3)
        idx = np.array([2, 0, 2, 2])
        fd_check(lambda: ag.sum_all(tanh(ag.gather_rows(a, idx))), [a])

    def test_propagate_over_edge_list(self):
        # a star with a tail: node 0 has three children, node 2 one; then
        # a ring in which node 1 has two parents
        for edges in ([[0, 1], [0, 2], [0, 3], [2, 4]],
                      [[0, 1], [0, 2], [3, 1], [2, 3]]):
            graph = ag.Graph(np.array(edges), 5)
            h = leaf(self.rng, 5, 3)
            w = Tensor(self.rng.uniform(-1, 1, (5, 3)))
            fd_check(lambda: ag.sum_all(mul(tanh(propagate(
                h, graph)), w)), [h])

    def test_propagate_without_edges_scales_by_self_loop(self):
        h = leaf(self.rng, 1, 4)
        graph = ag.Graph(np.zeros((0, 2), dtype=np.int64), 1)
        fd_check(lambda: ag.sum_all(tanh(propagate(h, graph))), [h])
        assert np.array_equal(propagate(h, graph).data, h.data)

    def test_embedding_lookup(self):
        table = leaf(self.rng, 5, 3)
        idx = np.array([0, 4, 1, 0])
        fd_check(lambda: ag.sum_all(ag.gather_rows(table, idx)), [table])

    def test_sigmoid_tanh_relu(self):
        a = Tensor(self.rng.uniform(0.2, 1.5, (2, 3)) *
                   np.array([[1, -1, 1], [-1, 1, -1]]), requires_grad=True)
        fd_check(lambda: ag.sum_all(sigmoid(a)), [a])
        fd_check(lambda: ag.sum_all(tanh(a)), [a])
        fd_check(lambda: ag.sum_all(relu(a)), [a])

    def test_log(self):
        a = leaf(self.rng, 2, 3, low=0.5, high=2.0)
        fd_check(lambda: ag.sum_all(log(a)), [a])

    def test_clamp_min_away_from_floor(self):
        a = Tensor(np.array([[0.5, 2.0], [-1.0, 1.0]]), requires_grad=True)
        fd_check(lambda: ag.sum_all(mul(clamp_min(a, 0.1),
                                        clamp_min(a, 0.1))), [a])

    def test_clamp_min_blocks_gradient_below_floor(self):
        a = Tensor(np.array([[-1.0, 3.0]]), requires_grad=True)
        ag.backward(ag.sum_all(clamp_min(a, 0.0)))
        assert a.grad.tolist() == [[0.0, 1.0]]

    def test_softmax(self):
        a = leaf(self.rng, 3, 4, low=-2, high=2)
        w = Tensor(self.rng.uniform(-1, 1, (3, 4)))
        fd_check(lambda: ag.sum_all(mul(softmax_rows(a), w)), [a])

    def test_cross_entropy_via_softmax(self):
        logits = leaf(self.rng, 4, 3, low=-2, high=2)
        labels = [0, 2, 1, 2]
        fd_check(lambda: ag.cross_entropy_loss(softmax_rows(logits),
                                               labels), [logits])

    def test_shared_input_used_twice(self):
        a = leaf(self.rng, 2, 2)
        fd_check(lambda: ag.sum_all(matmul(a, a)), [a])


# --- op semantics -----------------------------------------------------------------

class TestOpValues:
    def test_propagate_weights_equal_dense_form_bitwise(self):
        # propagating the identity scatters the op's weights into a dense
        # matrix; each entry is one weight times 1.0 added to 0.0, so exact
        rng = np.random.default_rng(3)
        vocab = vocabulary_from_kinds(("alpha", "beta", "gamma", "delta",
                                       "epsilon"))
        graphs = [featurize_sample(random_tree(rng, max_nodes=40), vocab, 1,
                                   25)[1]
                  for _ in range(40)]
        graphs.append(featurize_sample(chain_tree(["alpha"]), vocab, 1, 3)[1])
        for graph in graphs:
            n = graph.node_count
            dense = propagate(Tensor(np.eye(n)),
                                 ag.Graph(graph.edges, n)).data
            assert np.array_equal(dense, graph.norm_adj)

    def test_propagate_matches_dense_product(self):
        rng = np.random.default_rng(4)
        vocab = vocabulary_from_kinds(("alpha", "beta"))
        graph = featurize_sample(random_tree(rng, max_nodes=30,
                                             kinds=("alpha", "beta")),
                                 vocab, 1, 30)[1]
        n = graph.node_count
        h = rng.normal(size=(n, 3))
        got = propagate(Tensor(h), ag.Graph(graph.edges, n))
        want = graph.norm_adj @ h
        assert np.max(np.abs(got.data - want)) < 1e-14

    def test_tensors_are_strictly_2d(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2)))

    def test_scalar_and_item(self):
        assert Tensor([[2.5]]).item() == 2.5
        with pytest.raises(NonScalarLoss):
            Tensor(np.zeros((1, 2))).item()

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-30, 30, (6, 9)))
        out = softmax_rows(x).data
        assert np.all(out > 0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = softmax_rows(Tensor(x)).data
        b = softmax_rows(Tensor(x + 500.0)).data
        assert np.allclose(a, b, atol=1e-15)
        assert np.isfinite(b).all()

    def test_cross_entropy_hand_value(self):
        probs = Tensor(np.array([[0.5, 0.25, 0.25]]))
        loss = ag.cross_entropy_loss(probs, [0])
        assert loss.item() == pytest.approx(-np.log(0.5), rel=1e-12)

    def test_cross_entropy_batch_is_mean(self):
        probs = Tensor(np.array([[0.5, 0.5], [0.1, 0.9]]))
        loss = ag.cross_entropy_loss(probs, [0, 1])
        want = -(np.log(0.5) + np.log(0.9)) / 2
        assert loss.item() == pytest.approx(want, rel=1e-12)

    def test_cross_entropy_clamps_zero_probability(self):
        probs = Tensor(np.array([[0.0, 1.0]]))
        loss = ag.cross_entropy_loss(probs, [0])
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(-np.log(1e-12))

    def test_matmul_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_add_shape_guard(self):
        # autograd's add does not broadcast; the oracle's add does
        for shape in ((2, 4), (1, 3), (2, 1)):
            with pytest.raises(ShapeMismatch):
                ag.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(shape)))
        with pytest.raises(ShapeMismatch):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_embedding_lookup_bounds(self):
        # gather_rows is the embedding lookup, and refuses a row outside
        # its table
        table = Tensor(np.zeros((4, 2)))
        with pytest.raises(IndexOutOfVocab):
            ag.gather_rows(table, np.array([0, 4]))
        with pytest.raises(IndexOutOfVocab):
            ag.gather_rows(table, np.array([-1]))

    def test_label_bounds(self):
        probs = Tensor(np.full((1, 3), 1 / 3))
        with pytest.raises(LabelOutOfRange):
            ag.cross_entropy_loss(probs, [3])
        with pytest.raises(LabelOutOfRange):
            ag.cross_entropy_loss(probs, [-1])
        with pytest.raises(ShapeMismatch):
            ag.cross_entropy_loss(probs, [0, 1])

    def test_backward_requires_scalar(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(NonScalarLoss):
            ag.backward(ag.add(a, a))


# --- propagate against the np.add.at oracle ----------------------------------------

def wide_tree_edges(rng, max_fanout: int) -> tuple[np.ndarray, int]:
    """A random tree of up to max_fanout children per node, its nodes
    relabelled and its edges shuffled and flipped at random."""
    n, edges, frontier = int(rng.integers(2, 400)), [], [0]
    while frontier and len(edges) < n - 1:
        parent = frontier.pop(0)
        for _ in range(min(int(rng.integers(0, max_fanout + 1)),
                           n - 1 - len(edges))):
            edges.append((parent, len(edges) + 1))
            frontier.append(len(edges))
    n = len(edges) + 1
    edges = rng.permutation(n)[np.array(edges, dtype=np.int64).reshape(-1, 2)]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return edges[rng.permutation(len(edges))], n


def distinct_edge_graphs() -> list[tuple[np.ndarray, int]]:
    """Non-trees with distinct edges and no self edge, as read_featurized
    accepts them: a node with two parents, a hub of degree 100 whose
    leaves also form a ring, and a dense random graph."""
    two_parents = np.array([[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]])
    leaves = np.arange(1, 101)
    hub = np.concatenate([np.stack([np.zeros(100, np.int64), leaves], 1),
                          np.stack([leaves, np.roll(leaves, 1)], 1)])
    pairs = np.argwhere(np.triu(np.random.default_rng(9).random((30, 30))
                                < 0.3, k=1))
    return [(two_parents, 5), (hub[::-1].copy(), 101), (pairs, 30)]


class TestPropagateOracle:
    def _assert_bitwise(self, rng, edges, n, cols=7):
        h = rng.normal(size=(n, cols))
        g = Tensor(rng.normal(size=(n, cols)))
        got_h, want_h = (Tensor(h.copy(), requires_grad=True)
                         for _ in range(2))
        got = propagate(got_h, ag.Graph(edges, n))
        want = add_at_propagate(want_h, edges)
        ag.backward(ag.sum_all(mul(got, g)))
        ag.backward(ag.sum_all(mul(want, g)))
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got_h.grad, want_h.grad)

    def test_random_trees_up_to_fanout_fifty(self):
        rng = np.random.default_rng(21)
        fanouts = []
        for _ in range(30):
            edges, n = wide_tree_edges(rng, 50)
            fanouts.append(np.bincount(edges.ravel()).max())
            self._assert_bitwise(rng, edges, n)
        assert max(fanouts) > 40

    def test_distinct_edge_non_trees(self):
        rng = np.random.default_rng(22)
        for edges, n in distinct_edge_graphs():
            self._assert_bitwise(rng, edges, n)

    def test_no_edges_and_a_single_node(self):
        rng = np.random.default_rng(23)
        for n in (1, 4):
            self._assert_bitwise(rng, np.zeros((0, 2), dtype=np.int64), n)

    def test_apply_writes_its_result_over_its_input(self):
        rng = np.random.default_rng(24)
        empty = np.zeros((0, 2), dtype=np.int64)
        graphs = [wide_tree_edges(rng, 50) for _ in range(10)]
        for edges, n in graphs + distinct_edge_graphs() + [(empty, 1),
                                                           (empty, 4)]:
            x = rng.normal(size=(n, 7))
            want = add_at_propagate(Tensor(x.copy()), edges).data
            got = ag.Graph(edges, n).apply(x)
            assert got is x and got.tobytes() == want.tobytes()

    def test_rounds_hold_each_target_once(self):
        edges, n = distinct_edge_graphs()[1]
        graph = ag.Graph(edges, n)
        for to, _, _ in graph.rounds:
            assert np.unique(to).size == to.size
        # one side holds each leaf twice (spoke and ring), the other the
        # hub once per leaf
        assert len(graph.rounds) == 2 + 100


    def test_endpoints_outside_the_nodes_are_refused(self):
        for edges in ([[0, 3]], [[5, 1]], [[-1, 1]], [[0, 1], [1, 2], [2, 9]]):
            with pytest.raises(ShapeMismatch):
                ag.Graph(np.array(edges), 3)

    def test_apply_refuses_a_row_count_other_than_n(self):
        graph = ag.Graph(np.array([[0, 1], [1, 2]]), 3)
        for rows in (1, 2, 4):
            with pytest.raises(ShapeMismatch):
                graph.apply(np.ones((rows, 2)))


# --- the fused GCN layer against its op-composed oracle -----------------------------

class TestGcnLayerOracle:
    """gcn_layer against the matmul -> propagate -> act chain it fused
    (tests/oracle.py), in the first-layer form (no graph, h already Â X)
    and the later-layer form."""

    @pytest.mark.parametrize("first", [True, False])
    def test_bitwise_equal_to_the_composed_chain(self, first):
        rng = np.random.default_rng(31)
        graphs = [wide_tree_edges(rng, 6) for _ in range(4)]
        for edges, n in graphs + distinct_edge_graphs():
            graph = ag.Graph(edges, n)
            h = rng.normal(size=(n, 6))
            if first:
                h = graph.apply(h)
            w, g = rng.normal(size=(6, 4)), Tensor(rng.normal(size=(n, 4)))
            runs = []
            for layer in (ag.gcn_layer, composed_gcn_layer):
                ht = Tensor(h.copy(), requires_grad=True)
                wt = Tensor(w.copy(), requires_grad=True)
                out = layer(ht, wt, None if first else graph)
                ag.backward(ag.sum_all(mul(out, g)))
                runs.append((out.data, ht.grad, wt.grad))
            for got, want in zip(*runs):
                assert got.tobytes() == want.tobytes()

    def test_finite_differences(self):
        rng = np.random.default_rng(32)
        edges, n = distinct_edge_graphs()[0]
        h, w = leaf(rng, n, 3), leaf(rng, 3, 2)
        g = Tensor(rng.uniform(-1, 1, (n, 2)))
        for graph in (ag.Graph(edges, n), None):
            fd_check(lambda: ag.sum_all(mul(
                ag.gcn_layer(h, w, graph), g)), [h, w])

    def test_refuses_bad_shapes(self):
        graph = ag.Graph(np.array([[0, 1]]), 2)
        with pytest.raises(ShapeMismatch):
            ag.gcn_layer(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))),
                         graph)
        with pytest.raises(ShapeMismatch):
            ag.gcn_layer(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2))),
                         graph)


# --- the fused loss against its op-composed oracle ----------------------------------

class TestCrossEntropyOracle:
    """cross_entropy_loss against the clamp_min -> log -> mul -> sum_all ->
    scale chain it fused (tests/oracle.py)."""

    @staticmethod
    def _runs(probs: np.ndarray, labels, prior: np.ndarray | None = None):
        """(loss, probs.grad) from each form, probs a leaf; prior, if
        given, is a gradient probs already holds."""
        runs = []
        for loss_fn in (ag.cross_entropy_loss, composed_cross_entropy_loss):
            p = Tensor(probs.copy(), requires_grad=True)
            if prior is not None:
                p.grad = prior.copy()
            loss = loss_fn(p, labels)
            ag.backward(loss)
            runs.append((loss.data, p.grad))
        return runs

    def test_one_tape_node_with_probs_its_only_parent(self):
        probs = Tensor(np.full((3, 4), 0.25), requires_grad=True)
        loss = ag.cross_entropy_loss(probs, [0, 3, 1])
        assert loss._parents == (probs,)
        assert len(tape_tensors(loss)) == 2
        for name in ("mul", "scale", "log", "clamp_min"):
            assert not hasattr(ag, name)

    def test_bitwise_equal_to_the_composed_chain(self):
        rng = np.random.default_rng(41)
        under = 0  # labels whose probability lies below the 1e-12 clamp
        for trial in range(400):
            batch, k = (1 if trial < 40 else int(rng.integers(2, 70)),
                        int(rng.integers(2, 9)))
            logits = rng.normal(size=(batch, k)) * rng.choice([1.0, 10, 40])
            labels = rng.integers(0, k, batch)
            # the softmax's rows, probabilities that underflow included
            probs = softmax_rows(Tensor(logits)).data
            under += int((probs[np.arange(batch), labels] < 1e-12).sum())
            prior = rng.normal(size=(batch, k)) if trial % 2 else None
            runs = self._runs(probs, labels, prior)
            for got, want in zip(*runs):
                assert got.tobytes() == want.tobytes()
        assert under > 0

    def test_probabilities_at_and_under_the_clamp(self):
        probs = np.array([[0.0, 1.0], [1e-13, 1.0], [1e-12, 1.0],
                          [2e-12, 1.0]])
        runs = self._runs(probs, [0, 0, 0, 0])
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()
        grad = runs[0][1]
        assert grad[:2].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert grad[2, 0] == -0.25 / 1e-12 and grad[3, 0] == -0.25 / 2e-12
        assert not np.signbit(grad[grad == 0]).any()  # no -0.0

    def test_finite_differences(self):
        rng = np.random.default_rng(42)
        for batch in (1, 5):
            probs = leaf(rng, batch, 3, low=0.05, high=1.0)
            labels = rng.integers(0, 3, batch)
            fd_check(lambda: ag.cross_entropy_loss(probs, labels), [probs])


# --- the fused head against its op-composed oracle ----------------------------------

class TestClassifyOracle:
    """classify against the concat -> matmul -> add -> softmax_rows chain it
    fused (tests/oracle.py): the probabilities and every gradient keep
    their bits, -0.0 included."""

    @staticmethod
    def _runs(widths, batch, seed, frozen=(), weight=None):
        """(probs, w.grad, b.grad, each part's grad) from each form, under
        the upstream gradient weight; the parts in frozen need none."""
        rng = np.random.default_rng(seed)
        parts = [rng.normal(size=(batch, n)) for n in widths]
        w, b = rng.normal(size=(sum(widths), 4)), rng.normal(size=(1, 4))
        if weight is None:
            weight = rng.normal(size=(batch, 4))
        runs = []
        for op in (composed_classify, ag.classify):
            leaves = [Tensor(a.copy(), requires_grad=i not in frozen)
                      for i, a in enumerate(parts)]
            wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (w, b))
            out = op(leaves, wt, bt)
            ag.backward(ag.sum_all(mul(out, Tensor(weight))))
            runs.append([out.data, wt.grad, bt.grad]
                        + [t.grad for t in leaves])
        return runs

    @staticmethod
    def _same_bits(runs):
        for want, got in zip(*runs):
            if want is None or got is None:
                assert want is None and got is None
            else:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_one_tape_node_over_the_parts_and_the_weights(self):
        parts = [Tensor(np.ones((2, n)), requires_grad=True) for n in (1, 2)]
        w, b = Tensor(np.ones((3, 4))), Tensor(np.zeros((1, 4)))
        out = ag.classify(parts, w, b)
        assert out._parents == (*parts, w, b)
        assert len(tape_tensors(out)) == 5
        for name in ("concat", "matmul", "softmax_rows", "_unbroadcast",
                     "_broadcastable"):
            assert not hasattr(ag, name)

    @pytest.mark.parametrize("widths", [[5], [3, 4], [2, 3, 4]])
    @pytest.mark.parametrize("batch", [1, 6])
    def test_bitwise_equal_to_the_composed_chain(self, widths, batch):
        for seed in range(5):
            self._same_bits(self._runs(widths, batch, seed))

    @pytest.mark.parametrize("batch", [1, 6])
    def test_upstream_gradient_holding_negative_zero(self, batch):
        # rows of -0.0 only, -0.0 beside 0.0, and -0.0 among values: the
        # logits' gradient then holds -0.0 before its + 0.0
        weight = np.random.default_rng(7).normal(size=(batch, 4))
        weight[0] = [-0.0, 0.0, 0.0, -0.0]
        weight[1:3] = -0.0
        weight[3:, 1] = -0.0
        runs = self._runs([3, 4], batch, 8, weight=weight[:batch])
        self._same_bits(runs)
        for grad in runs[1][1:]:
            assert not np.signbit(grad[grad == 0]).any()

    @pytest.mark.parametrize("frozen", [(0,), (1,), (0, 2)])
    def test_a_part_that_needs_no_gradient(self, frozen):
        runs = self._runs([2, 3, 4], 5, 9, frozen=frozen)
        self._same_bits(runs)
        assert all(runs[1][3 + i] is None for i in frozen)

    def test_finite_differences(self):
        rng = np.random.default_rng(43)
        for batch in (1, 5):
            a, c = leaf(rng, batch, 3), leaf(rng, batch, 2)
            w, b = leaf(rng, 5, 4), leaf(rng, 1, 4)
            weight = Tensor(rng.uniform(-1, 1, (batch, 4)))
            fd_check(lambda: ag.sum_all(mul(ag.classify([a, c], w, b),
                                            weight)), [a, c, w, b])

    def test_shape_guards(self):
        a, c = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2)))
        w, b = Tensor(np.zeros((5, 4))), Tensor(np.zeros((1, 4)))
        for parts, w_, b_ in (([], w, b),
                              ([a, Tensor(np.zeros((3, 2)))], w, b),
                              ([a], w, b),
                              ([a, c], w, Tensor(np.zeros((2, 4)))),
                              ([a, c], w, Tensor(np.zeros((1, 3))))):
            with pytest.raises(ShapeMismatch):
                ag.classify(parts, w_, b_)
        assert ag.classify([a, c], w, b).shape == (2, 4)


# --- accumulation protocol ---------------------------------------------------------

class TestAccumulation:
    def test_two_backwards_double_without_reset(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        ag.backward(ag.sum_all(a))
        assert a.grad.tolist() == [[1.0, 1.0]]
        ag.backward(ag.sum_all(a))
        assert a.grad.tolist() == [[2.0, 2.0]]

    def test_zero_grads(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        ag.backward(ag.sum_all(a))
        ag.zero_grads([a])
        assert a.grad is None or not a.grad.any()

    def test_constant_subgraphs_get_no_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.ones((2, 2)))
        ag.backward(ag.sum_all(mul(a, c)))
        assert c.grad is None
        assert a.grad is not None

    def test_first_gradient_of_negative_zero_is_stored_as_zero(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        ag.backward(ag.sum_all(mul(a, Tensor(np.array([[-0.0, 2.0]])))))
        assert a.grad.tolist() == [[0.0, 2.0]]
        assert not np.signbit(a.grad).any()
        # a gradient handed over without ownership is copied, not adopted
        t = Tensor(np.zeros((1, 2)), requires_grad=True)
        g = np.full((1, 2), -0.0)
        ag._accum(t, g)
        assert not np.signbit(t.grad).any() and np.signbit(g).all()


def test_only_accum_backward_and_zero_grads_mention_grad():
    # every op hands its inputs' gradients to _accum, which stores them;
    # backward passes each node its own and drops it, zero_grads clears
    # them, and Tensor's constructor starts each at None
    mentions = set()
    for top in ast.parse(inspect.getsource(ag)).body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in defs:
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(n, ast.Attribute) and n.attr == "grad"
                    for n in ast.walk(node)):
                name = node.name
                if isinstance(top, ast.ClassDef):
                    name = f"{top.name}.{name}"
                mentions.add(name)
    assert mentions == {"Tensor.__init__", "_accum", "backward", "zero_grads"}


class TestConsumedTape:
    """backward drops each node's backward function and gradient once the
    function has run, which frees the arrays the function saved and the
    gradient it consumed, so a tape runs backward once and .grad stays on
    leaves only."""

    def _loss(self):
        rng = np.random.default_rng(7)
        packing = ag.Packing([3, 1, 2])
        x, w_all, b_all = leaf(rng, 6, 4), leaf(rng, 2 + 4, 8), leaf(rng, 1, 8)
        out = ag.lstm_direction(ag.attention(x, np.arange(6), packing, 2),
                                w_all, b_all, packing)
        return ag.sum_all(mul(out, leaf(rng, 6, 2))), [x, w_all, b_all]

    def test_backward_drops_every_backward_function(self):
        loss, leaves = self._loss()
        interior = [t for t in tape_tensors(loss) if t._parents]
        assert len(interior) == 4
        assert all(t._backward_fn is not None for t in interior)
        ag.backward(loss)
        assert all(t._backward_fn is None for t in interior)
        assert all(t.grad is None for t in interior)
        assert all(t.grad is not None for t in leaves)

    def test_second_backward_raises_and_keeps_the_gradients(self):
        loss, leaves = self._loss()
        ag.backward(loss)
        grads = [t.grad for t in leaves]
        copies = [g.copy() for g in grads]
        with pytest.raises(UastError, match="consumed"):
            ag.backward(loss)
        for t, g, c in zip(leaves, grads, copies):
            assert t.grad is g and np.array_equal(g, c)


class TestGradientOwnership:
    """After backward no two tensors' .grad arrays share memory, also
    where an op passes its output's gradient on to an input twice, and the
    output's own gradient is gone."""

    def _backward_and_check(self, out: Tensor, weights: np.ndarray) -> None:
        ag.backward(ag.sum_all(mul(out, Tensor(weights))))
        grads = [t.grad for t in tape_tensors(out) if t.grad is not None]
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_add_of_a_tensor_to_itself(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ag.add(a, a)
        self._backward_and_check(out, np.ones((2, 3)))
        assert out.grad is None
        assert a.grad.tolist() == [[2.0] * 3] * 2

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concat_of_a_tensor_with_itself(self, axis):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, a], axis=axis)
        self._backward_and_check(out, np.ones(out.shape))
        assert out.grad is None and (a.grad == 2.0).all()

    def test_classify_of_a_tensor_beside_itself(self):
        # a's gradient is the sum of its two column blocks', as the
        # composed chain gives it
        rng = np.random.default_rng(34)
        x, w, weights = (rng.normal(size=shape)
                         for shape in ((3, 2), (4, 5), (3, 5)))
        grads = []
        for op in (ag.classify, composed_classify):
            a = Tensor(x.copy(), requires_grad=True)
            out = op([a, a], Tensor(w), Tensor(np.zeros((1, 5))))
            self._backward_and_check(out, weights)
            assert out.grad is None
            grads.append(a.grad)
        assert grads[0].tobytes() == grads[1].tobytes()

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_with_q_k_v_one_tensor(self, heads):
        # x's one gradient array is the sum of what q, k and v would get as
        # three tensors (the oracle keeps that form)
        rng = np.random.default_rng(33)
        packing = ag.Packing([3, 1, 2])
        x, weights = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        one = Tensor(x.copy(), requires_grad=True)
        self._backward_and_check(ag.attention(one, np.arange(6), packing,
                                              heads), weights)
        q, k, v = (Tensor(x.copy(), requires_grad=True) for _ in range(3))
        ag.backward(ag.sum_all(mul(saved_attention(q, k, v, packing, heads),
                                   Tensor(weights))))
        assert np.array_equal(one.grad, q.grad + k.grad + v.grad)


# --- fused sequence ops -----------------------------------------------------------

class TestFusedSequenceGradients:
    """Both packed sequence ops against central differences and against
    the padded ops they replaced (tests/oracle.py)."""

    # unsorted with a length of 1, and all lengths equal
    LENGTHS = ([3, 1, 4, 2], [3, 3, 3])

    def setup_method(self):
        self.rng = np.random.default_rng(21)

    def _weighted(self, out):
        w = Tensor(np.random.default_rng(22).uniform(-1, 1, out.shape))
        return ag.sum_all(mul(out, w))

    def test_packing_layout(self):
        p = ag.Packing([3, 1, 4])
        assert p.starts.tolist() == [0, 3, 4] and p.total == 8
        assert p.steps == 4
        # longest first, stably: sequence 2, then 0, then 1
        assert p.live.tolist() == [3, 2, 2, 1]
        assert p.spans == [(0, 3), (3, 2), (5, 2), (7, 1)]
        assert p.slots[False].tolist() == [4, 0, 3, 5, 1, 6, 2, 7]
        assert p.slots[True].tolist() == [7, 2, 3, 6, 1, 5, 0, 4]
        assert p.prev.tolist() == [0, 1, 3, 4, 5]

    def test_attention_shared_qkv_masked(self):
        for lengths in self.LENGTHS:
            x = leaf(self.rng, sum(lengths), 4)
            fd_check(lambda: self._weighted(ag.attention(
                x, np.arange(sum(lengths)), ag.Packing(lengths), heads=2)),
                [x])

    def test_attention_under_fixed_dropout(self):
        for lengths in self.LENGTHS:
            x = leaf(self.rng, sum(lengths), 6)
            fd_check(lambda: self._weighted(ag.attention(
                x, np.arange(sum(lengths)), ag.Packing(lengths), heads=3,
                rate=0.4, training=True, rng=np.random.default_rng(5))), [x])

    def test_attention_gathers_from_a_table(self):
        # a 3-row table whose rows each recur within and across sequences,
        # so a row's gradient sums what every position it fills sends back
        for lengths in self.LENGTHS:
            table = leaf(self.rng, 3, 6)
            rows = self.rng.integers(0, 3, sum(lengths))
            fd_check(lambda: self._weighted(ag.attention(
                table, rows, ag.Packing(lengths), heads=2, rate=0.4,
                training=True, rng=np.random.default_rng(5))), [table])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_direction_masked(self, reverse):
        for lengths in self.LENGTHS:
            x = leaf(self.rng, sum(lengths), 3)
            w_all = leaf(self.rng, 2 + 3, 8)
            b_all = leaf(self.rng, 1, 8)
            fd_check(lambda: self._weighted(ag.lstm_direction(
                x, w_all, b_all, ag.Packing(lengths), reverse)),
                [x, w_all, b_all])

    def _live_rows_match(self, lengths, packed, padded, rows, shared=()):
        """A packed op against its padded oracle on the live rows.

        packed(packing, *inputs) and padded(lengths, *inputs) take the row
        inputs, then the shared ones.  rows are [B*T x cols] padded arrays,
        of which the packed op gets the live rows.  The loss weighs only
        live output rows, so every gradient must agree too.
        """
        packing = ag.Packing(lengths)
        # each packed row's padded row, b*T + t
        live = np.concatenate([b * packing.steps + np.arange(n)
                               for b, n in enumerate(lengths)])
        runs = []
        every = slice(None)
        # (op, its layout, the padded rows it reads, its rows to compare)
        for op, layout, take, keep in ((packed, packing, live, every),
                                       (padded, lengths, every, live)):
            leaves = [Tensor(a[take], requires_grad=True) for a in rows]
            params = [Tensor(a, requires_grad=True) for a in shared]
            out = op(layout, *leaves, *params)
            if not runs:
                weight = np.zeros((len(rows[0]), out.shape[1]))
                weight[live] = self.rng.normal(size=out.shape)
            ag.backward(ag.sum_all(mul(out, Tensor(weight[take]))))
            runs.append([out.data[keep]] + [t.grad[keep] for t in leaves]
                        + [t.grad for t in params])
        for got, want in zip(*runs):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_attention_matches_padded_oracle_on_live_rows(self):
        for lengths in self.LENGTHS:
            rows = len(lengths) * max(lengths)
            x = self.rng.normal(size=(rows, 4))
            self._live_rows_match(
                lengths, lambda p, a: ag.attention(a, np.arange(p.total), p, 2),
                lambda n, a: padded_attention(a, a, a, n, 2), [x])
            # the packed op draws per path, the oracle once over [B, heads,
            # T, T]: one stream, so the same masks
            self._live_rows_match(
                lengths,
                lambda p, a: ag.attention(a, np.arange(p.total), p, 3, 0.4,
                                          True, np.random.default_rng(5)),
                lambda n, a: padded_attention(
                    a, a, a, n, 3, 0.4, True, np.random.default_rng(5)),
                [self.rng.normal(size=(rows, 6))])

    def test_dropout_matches_padded_oracle_on_live_rows(self):
        for lengths in self.LENGTHS:
            self._live_rows_match(
                lengths,
                lambda p, x: ag.dropout([x], 0.5, True,
                                        np.random.default_rng(5), p),
                lambda n, x: padded_dropout(x, 0.5, True,
                                            np.random.default_rng(5)),
                [self.rng.normal(size=(len(lengths) * max(lengths), 6))])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_direction_matches_padded_oracle_on_live_rows(self, reverse):
        for lengths in self.LENGTHS:
            self._live_rows_match(
                lengths,
                lambda p, x, w, b: ag.lstm_direction(x, w, b, p, reverse),
                lambda n, x, w, b: padded_lstm_direction(x, w, b, n, reverse),
                [self.rng.normal(size=(len(lengths) * max(lengths), 3))],
                [self.rng.uniform(-1, 1, (5, 8)),
                 self.rng.uniform(-1, 1, (1, 8))])

    def test_sequence_shape_guards(self):
        x = Tensor(np.zeros((8, 4)))
        rows = np.arange(8)
        for lengths in ([3, 1, 4, 2], [3, 1, 3], [3, 0, 5]):
            with pytest.raises(ShapeMismatch):
                ag.attention(x, rows, ag.Packing(lengths), heads=2)
        with pytest.raises(ShapeMismatch):
            ag.Packing([])
        with pytest.raises(ShapeMismatch):
            ag.attention(x, rows, ag.Packing([3, 1, 4]), heads=3)
        with pytest.raises(IndexOutOfVocab):
            ag.attention(x, rows + 1, ag.Packing([3, 1, 4]), heads=2)
        with pytest.raises(ShapeMismatch):
            ag.lstm_direction(x, Tensor(np.zeros((5, 8))),
                              Tensor(np.zeros((1, 8))), ag.Packing([3, 1, 4]))
        with pytest.raises(ShapeMismatch):
            ag.lstm_direction(x, Tensor(np.zeros((6, 8))),
                              Tensor(np.zeros((1, 8))), ag.Packing([3, 1]))

    def test_segment_pool(self):
        a = leaf(self.rng, 6, 3)
        fd_check(lambda: self._weighted(ag.segment_pool(a, [2, 1, 2])), [a])
        pooled = ag.segment_pool(a, [2, 1, 2]).data
        assert np.allclose(pooled[0], a.data[:2].mean(axis=0))
        assert np.array_equal(pooled[1], a.data[2])
        with pytest.raises(ShapeMismatch):
            ag.segment_pool(a, [2, 0])
        with pytest.raises(ShapeMismatch):
            ag.segment_pool(a, [4, 3])


class TestSavedArrayOracle:
    """attention, dropout and lstm_direction keep less than their nodes
    kept before, and recompute the rest (tests/oracle.py): attention
    gathers its rows from the embedding table, dropout joins its inputs
    and masks the join in place, and the LSTM recomputes its cell states.
    The output and every gradient must keep their bits, -0.0 included."""

    # unsorted, with lengths of 1, and a single path of 1
    LENGTHS = ([3, 1, 4, 2], [1, 5, 1, 1, 5], [1])

    def _same_bits(self, op, oracle, shapes, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=shape) for shape in shapes]
        runs = []
        for fn in (oracle, op):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = fn(*leaves)
            weight = np.random.default_rng(seed + 1).normal(size=out.shape)
            ag.backward(ag.sum_all(mul(out, Tensor(weight))))
            runs.append([out.data] + [t.grad for t in leaves])
        for want, got in zip(*runs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def _attention(self, packing, heads, d, rate, vocab, seed):
        # the table's rows recur across the packed rows, as kinds do
        rows = np.random.default_rng(seed).integers(0, vocab, packing.total)
        self._same_bits(
            lambda t: ag.attention(t, rows, packing, heads, rate, True,
                                   np.random.default_rng(5)),
            lambda t: saved_attention(
                *[ag.gather_rows(t, rows)] * 3, packing, heads, rate,
                True, np.random.default_rng(5)),
            [(vocab, d)], seed)

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_attention(self, rate):
        # both draw from one stream seeded alike, so the same masks; the
        # oracle takes x as q, k and v, and x's gradient sums theirs
        for seed, lengths in enumerate(self.LENGTHS):
            packing = ag.Packing(lengths)
            self._same_bits(
                lambda x: ag.attention(x, np.arange(packing.total), packing,
                                       3, rate, True, np.random.default_rng(5)),
                lambda x: saved_attention(x, x, x, packing, 3, rate, True,
                                          np.random.default_rng(5)),
                [(packing.total, 6)], seed)

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_attention_gathers_from_the_table(self, rate):
        # the oracle embeds the path first and attends over the embedding
        for seed, lengths in enumerate(self.LENGTHS):
            self._attention(ag.Packing(lengths), 3, 6, rate, 4, seed)

    @pytest.mark.parametrize("training", [False, True])
    def test_dropout(self, training):
        # the oracle joins the two directions with concat first
        for seed, lengths in enumerate(self.LENGTHS):
            packing = ag.Packing(lengths)
            self._same_bits(
                lambda a, b: ag.dropout([a, b], 0.5, training,
                                        np.random.default_rng(5), packing),
                lambda a, b: packed_dropout(
                    concat([a, b], axis=1), 0.5, training,
                    np.random.default_rng(5), packing),
                [(packing.total, 3), (packing.total, 3)], seed)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_direction(self, reverse):
        for seed, lengths in enumerate(self.LENGTHS):
            packing = ag.Packing(lengths)
            self._same_bits(
                lambda x, w, b: ag.lstm_direction(x, w, b, packing, reverse),
                lambda x, w, b: saved_lstm_direction(x, w, b, packing,
                                                     reverse),
                [(packing.total, 3), (4 + 3, 16), (1, 16)], seed)

    # the leetcode profile's sizes, where BLAS runs the kernels training
    # runs: 20 paths over about 2,000 rows, one of them a single row, of
    # 31 kinds
    BIG = [1] + np.random.default_rng(11).integers(2, 201, 19).tolist()

    def test_attention_at_benchmark_sizes(self):
        self._attention(ag.Packing(self.BIG), 4, 200, 0.2, 31, 3)

    def test_dropout_at_benchmark_sizes(self):
        packing = ag.Packing(self.BIG)
        self._same_bits(
            lambda a, b: ag.dropout([a, b], 0.5, True,
                                    np.random.default_rng(5), packing),
            lambda a, b: packed_dropout(concat([a, b], axis=1), 0.5, True,
                                        np.random.default_rng(5), packing),
            [(packing.total, 64), (packing.total, 64)], 5)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_direction_at_benchmark_sizes(self, reverse):
        packing = ag.Packing(self.BIG)
        self._same_bits(
            lambda x, w, b: ag.lstm_direction(x, w, b, packing, reverse),
            lambda x, w, b: saved_lstm_direction(x, w, b, packing, reverse),
            [(packing.total, 200), (64 + 200, 256), (1, 256)], 4)


# --- dropout ---------------------------------------------------------------------

class TestDropout:
    @staticmethod
    def _drop(x, rate, training, rng=None):
        return ag.dropout([x], rate, training, rng, ag.Packing([x.shape[0]]))

    def test_identity_when_not_training(self):
        x = Tensor(np.random.default_rng(2).normal(size=(4, 4)),
                   requires_grad=True)
        for out in (self._drop(x, 0.5, training=False),
                    self._drop(x, 0.0, training=True)):
            assert out.data.tobytes() == x.data.tobytes()

    def test_joins_its_parts_side_by_side(self):
        a, b = (Tensor(np.full((3, n), float(n)), requires_grad=True)
                for n in (2, 1))
        out = ag.dropout([a, b], 0.0, False, None, ag.Packing([2, 1]))
        assert out.data.tolist() == [[2.0, 2.0, 1.0]] * 3
        ag.backward(ag.sum_all(mul(out, Tensor(np.arange(9.0).reshape(3, 3)))))
        assert a.grad.tolist() == [[0.0, 1.0], [3.0, 4.0], [6.0, 7.0]]
        assert b.grad.tolist() == [[2.0], [5.0], [8.0]]

    def test_training_scales_survivors(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        out = self._drop(x, 0.2, training=True, rng=rng)
        values = np.unique(out.data)
        assert set(values.tolist()) <= {0.0, 1.0 / 0.8}
        drop_rate = (out.data == 0).mean()
        assert 0.1 < drop_rate < 0.3

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(4)
        x = Tensor(np.full((10, 10), 2.0), requires_grad=True)
        out = self._drop(x, 0.5, training=True, rng=rng)
        ag.backward(ag.sum_all(out))
        assert np.array_equal(x.grad, out.data / 2.0)

    def test_same_seed_same_mask(self):
        x = Tensor(np.ones((8, 8)))
        a = self._drop(x, 0.5, True, np.random.default_rng(9)).data
        b = self._drop(x, 0.5, True, np.random.default_rng(9)).data
        assert np.array_equal(a, b)

    def test_training_without_rng_rejected(self):
        with pytest.raises(ValueError):
            self._drop(Tensor(np.ones((2, 2))), 0.5, training=True)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            self._drop(Tensor(np.ones((2, 2))), 1.0, training=True,
                       rng=np.random.default_rng(0))


class TestDropoutMemory:
    """Each path draws its own mask and keeps its own rows as booleans.

    One path of 128 steps and 31 of one: a draw over the padded layout
    would hold 32 * 128^2 attention factors per head, or 32 * 128 rows of
    LSTM factors, as float64.
    """

    LENGTHS = [128] + [1] * 31

    def _peak_bytes(self, cols, op):
        x = Tensor(np.random.default_rng(0).normal(
            size=(sum(self.LENGTHS), cols)), requires_grad=True)
        packing = ag.Packing(self.LENGTHS)
        tracemalloc.start()
        try:
            ag.backward(ag.sum_all(op(x, packing, np.random.default_rng(1))))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_attention_forward_and_backward(self):
        peak = self._peak_bytes(16, lambda x, p, rng: ag.attention(
            x, np.arange(p.total), p, 4, 0.2, True, rng))
        assert peak < 4 * 2**20

    def test_lstm_dropout_forward_and_backward(self):
        peak = self._peak_bytes(256, lambda x, p, rng: ag.dropout(
            [x], 0.5, True, rng, p))
        assert peak < 2 * 2**20


class TestBackwardMemory:
    """What one backward pass allocates above its tape, at leetcode widths
    over 1,024 rows.  lstm_direction takes 1.39 [S x 4h] arrays, 0.25 of
    them the cell states it recomputes, which its node no longer keeps
    (1.14 when it kept them), and 3.05 with its factors and pre-activation
    gradients held for all slots at once.  attention, gathering from a 31-row table, takes 0.54 [S x d]
    arrays, its one sequence's work arrays; it took 1.38 when it wrote a
    gradient for the whole embedded path, and 3.38 with its query, key and
    value gradients in three such arrays.  gcn_layer, over 2,048 nodes
    and 200 columns, takes 0.15 [n x 200] arrays as a first layer and 1.27
    as a later one, where a fresh mask array adds one, and so does a
    propagation into a fresh result while the gradient it read stays
    alive.  Each bound lies between the two."""

    LENGTHS = list(range(1, 64, 2))
    ROWS = sum(LENGTHS)
    NODES = 2048

    def _backward_peak(self, op):
        packing = ag.Packing(self.LENGTHS)
        tracemalloc.start()
        try:
            out = op(packing)
            g = np.ones(out.shape)
            tape = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out._backward_fn(g)
            return tracemalloc.get_traced_memory()[1] - tape
        finally:
            tracemalloc.stop()

    def test_lstm_direction(self):
        rng = np.random.default_rng(0)
        x, w = (Tensor(rng.normal(size=shape), requires_grad=True)
                for shape in ((self.ROWS, 200), (64 + 200, 256)))
        b = Tensor(np.zeros((1, 256)), requires_grad=True)
        peak = self._backward_peak(
            lambda p: ag.lstm_direction(x, w, b, p, reverse=True))
        assert peak < 2 * self.ROWS * 256 * 8

    def test_attention(self):
        rng = np.random.default_rng(0)
        table = Tensor(rng.normal(size=(31, 200)), requires_grad=True)
        rows = rng.integers(0, 31, self.ROWS)
        peak = self._backward_peak(lambda p: ag.attention(
            table, rows, p, 4, 0.2, True, np.random.default_rng(1)))
        assert peak < 1.0 * self.ROWS * 200 * 8

    @pytest.mark.parametrize("first", [True, False])
    def test_gcn_layer(self, first):
        # 32 trees of 64 nodes; a first layer's h is the constant Â X
        rng = np.random.default_rng(0)
        tree = np.stack([rng.integers(0, np.arange(1, 64)),
                         np.arange(1, 64)], axis=1)
        edges = np.concatenate([tree + 64 * i for i in range(32)])
        graph, width = ag.Graph(edges, self.NODES), 140 if first else 200
        h = Tensor(rng.normal(size=(self.NODES, width)),
                   requires_grad=not first)
        w = Tensor(rng.normal(size=(width, 200)), requires_grad=True)
        peak = self._backward_peak(
            lambda p: ag.gcn_layer(h, w, None if first else graph))
        assert peak < (0.5 if first else 1.75) * self.NODES * 200 * 8


# B=64 gast steps at leetcode sizes (4,750 nodes, gcn_hidden 200) on one
# batch; prints the minor page faults of each step after two warm-up steps
STEP_FAULTS_SCRIPT = """
import json, resource
import numpy as np
from uastkit import autograd as ag
from uastkit.featurizer import GraphSample
from uastkit.model import ModelConfig, forward_batch, init_params, prepare_sample
from uastkit.optim import adam_init, adam_step

cfg = ModelConfig(mode="gast", vocab_size=140, k=4).validate()
rng = np.random.default_rng(0)
batch = []
for _ in range(64):
    n = int(rng.integers(40, 101))
    edges = [(int(rng.integers(0, c)), c) for c in range(1, n)]
    batch.append(prepare_sample(None, GraphSample(
        rng.integers(0, 140, n), np.array(edges, dtype=np.int64)), cfg))
y = rng.integers(0, 4, 64)
params = init_params(cfg, 0)
opt = adam_init(params.parameters())


def step():
    # the tape and its arrays are freed when a step returns
    loss = ag.cross_entropy_loss(forward_batch(batch, params, cfg, True), y)
    ag.zero_grads(params.parameters())
    ag.backward(loss)
    adam_step(params.parameters(), opt)


faults = []
for _ in range(7):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults[2:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's mallopt")
def test_training_steps_reuse_freed_memory():
    # a fresh process: heap holes that earlier tests leave behind could
    # serve a step's arrays and hide the faults
    proc = subprocess.run([sys.executable, "-c", STEP_FAULTS_SCRIPT],
                          capture_output=True, text=True, env=src_env(),
                          check=True)
    faults = json.loads(proc.stdout)
    assert statistics.median(faults) < 50, faults


# --- optimizer --------------------------------------------------------------------

class TestAdam:
    def test_zero_gradient_is_a_fixed_point(self):
        p = Tensor(np.array([[3.0, -2.0]]), requires_grad=True)
        p.grad = np.zeros_like(p.data)
        state = adam_init([p], lr=0.1)
        before = p.data.copy()
        for _ in range(5):
            adam_step([p], state)
        assert np.array_equal(p.data, before)
        assert not state.m[0].any()
        assert not state.v[0].any()

    def test_first_step_moves_by_lr_toward_minus_gradient(self):
        p = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        p.grad = np.array([[10.0, -0.001]])
        state = adam_init([p], lr=0.01)
        adam_step([p], state)
        # m_hat / (sqrt(v_hat) + eps) is sign(g) up to eps, whatever |g| is
        step = p.data - np.array([[1.0, 1.0]])
        assert step[0, 0] == pytest.approx(-0.01, rel=1e-4)
        assert step[0, 1] == pytest.approx(+0.01, rel=1e-4)

    def test_descends_a_quadratic(self):
        p = Tensor(np.array([[5.0]]), requires_grad=True)
        state = adam_init([p], lr=0.1)
        for _ in range(300):
            ag.zero_grads([p])
            ag.backward(ag.sum_all(mul(p, p)))
            adam_step([p], state)
        assert abs(p.data[0, 0]) < 0.05

    def test_missing_gradient_rejected(self):
        p = Tensor(np.ones((1, 1)), requires_grad=True)
        state = adam_init([p])
        with pytest.raises(MissingGradient):
            adam_step([p], state)

    def test_parameter_count_mismatch_rejected(self):
        p = Tensor(np.ones((1, 1)), requires_grad=True)
        q = Tensor(np.ones((1, 1)), requires_grad=True)
        p.grad = np.ones((1, 1))
        q.grad = np.ones((1, 1))
        state = adam_init([p])
        with pytest.raises(MissingGradient):
            adam_step([p, q], state)

    def test_state_depends_on_history(self):
        # same current gradient, different history: different update
        def run(grads):
            p = Tensor(np.array([[0.0]]), requires_grad=True)
            state = adam_init([p], lr=0.1)
            for g in grads:
                p.grad = np.array([[g]])
                adam_step([p], state)
            return p.data[0, 0]

        assert run([1.0, 1.0]) != run([-1.0, 1.0])
