"""Tensor core: gradients against finite differences, op semantics, Adam."""

import numpy as np
import pytest

from conftest import random_tree, tape_tensors
from oracle import (
    add_at_propagate,
    composed_gcn_layer,
    padded_attention,
    padded_lstm_direction,
    propagate,
    relu,
    sigmoid,
    slice_cols,
    slice_rows,
    tanh,
    transpose,
)
from uastkit import autograd as ag
from uastkit.ast_frontend import AstNode, vocabulary_from_kinds
from uastkit.autograd import Tensor
from uastkit.errors import (
    IndexOutOfVocab,
    LabelOutOfRange,
    MissingGradient,
    NonScalarLoss,
    ShapeMismatch,
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
    loss.backward()
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
        fd_check(lambda: ag.sum_all(ag.mul(ag.add(a, b), ag.add(a, b))),
                 [a, b])

    def test_add_broadcasts_rows_and_cols(self):
        a = leaf(self.rng, 3, 4)
        row, col = leaf(self.rng, 1, 4), leaf(self.rng, 3, 1)
        fd_check(lambda: ag.sum_all(tanh(ag.add(ag.add(a, row), col))),
                 [a, row, col])

    def test_mul_broadcast(self):
        a, b = leaf(self.rng, 3, 2), leaf(self.rng, 1, 2)
        fd_check(lambda: ag.sum_all(ag.mul(a, b)), [a, b])

    def test_scale(self):
        a = leaf(self.rng, 2, 3)
        fd_check(lambda: ag.sum_all(sigmoid(ag.scale(a, -2.5))), [a])

    def test_matmul(self):
        a, b = leaf(self.rng, 3, 4), leaf(self.rng, 4, 2)
        fd_check(lambda: ag.sum_all(ag.matmul(a, b)), [a, b])

    def test_matmul_chain_with_transpose(self):
        a, b = leaf(self.rng, 2, 3), leaf(self.rng, 2, 3)
        fd_check(lambda: ag.sum_all(ag.matmul(a, transpose(b))), [a, b])

    def test_concat_both_axes(self):
        a, b = leaf(self.rng, 2, 3), leaf(self.rng, 2, 3)
        fd_check(lambda: ag.sum_all(ag.mul(ag.concat([a, b], axis=0),
                                           ag.concat([b, a], axis=0))),
                 [a, b])
        fd_check(lambda: ag.sum_all(ag.concat([a, b, a], axis=1)), [a, b])

    def test_slices(self):
        a = leaf(self.rng, 4, 5)
        fd_check(lambda: ag.sum_all(slice_rows(a, 1, 3)), [a])
        fd_check(lambda: ag.sum_all(ag.mul(slice_cols(a, 0, 2),
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
            fd_check(lambda: ag.sum_all(ag.mul(tanh(propagate(
                h, graph)), w)), [h])

    def test_propagate_without_edges_scales_by_self_loop(self):
        h = leaf(self.rng, 1, 4)
        graph = ag.Graph(np.zeros((0, 2), dtype=np.int64), 1)
        fd_check(lambda: ag.sum_all(tanh(propagate(h, graph))), [h])
        assert np.array_equal(propagate(h, graph).data, h.data)

    def test_embedding_lookup(self):
        table = leaf(self.rng, 5, 3)
        idx = np.array([0, 4, 1, 0])
        fd_check(lambda: ag.sum_all(ag.embedding_lookup(table, idx)),
                 [table])

    def test_sigmoid_tanh_relu(self):
        a = Tensor(self.rng.uniform(0.2, 1.5, (2, 3)) *
                   np.array([[1, -1, 1], [-1, 1, -1]]), requires_grad=True)
        fd_check(lambda: ag.sum_all(sigmoid(a)), [a])
        fd_check(lambda: ag.sum_all(tanh(a)), [a])
        fd_check(lambda: ag.sum_all(relu(a)), [a])

    def test_log(self):
        a = leaf(self.rng, 2, 3, low=0.5, high=2.0)
        fd_check(lambda: ag.sum_all(ag.log(a)), [a])

    def test_clamp_min_away_from_floor(self):
        a = Tensor(np.array([[0.5, 2.0], [-1.0, 1.0]]), requires_grad=True)
        fd_check(lambda: ag.sum_all(ag.mul(ag.clamp_min(a, 0.1),
                                           ag.clamp_min(a, 0.1))), [a])

    def test_clamp_min_blocks_gradient_below_floor(self):
        a = Tensor(np.array([[-1.0, 3.0]]), requires_grad=True)
        ag.sum_all(ag.clamp_min(a, 0.0)).backward()
        assert a.grad.tolist() == [[0.0, 1.0]]

    def test_softmax(self):
        a = leaf(self.rng, 3, 4, low=-2, high=2)
        w = Tensor(self.rng.uniform(-1, 1, (3, 4)))
        fd_check(lambda: ag.sum_all(ag.mul(ag.softmax_rows(a), w)), [a])

    def test_cross_entropy_via_softmax(self):
        logits = leaf(self.rng, 4, 3, low=-2, high=2)
        labels = [0, 2, 1, 2]
        fd_check(lambda: ag.cross_entropy_loss(ag.softmax_rows(logits),
                                               labels), [logits])

    def test_shared_input_used_twice(self):
        a = leaf(self.rng, 2, 2)
        fd_check(lambda: ag.sum_all(ag.matmul(a, a)), [a])


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
        graphs.append(featurize_sample(AstNode("alpha"), vocab, 1, 3)[1])
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
        assert Tensor.scalar(2.5).item() == 2.5
        with pytest.raises(NonScalarLoss):
            Tensor(np.zeros((1, 2))).item()

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-30, 30, (6, 9)))
        out = ag.softmax_rows(x).data
        assert np.all(out > 0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = ag.softmax_rows(Tensor(x)).data
        b = ag.softmax_rows(Tensor(x + 500.0)).data
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
            ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_add_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            ag.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_embedding_lookup_bounds(self):
        table = Tensor(np.zeros((4, 2)))
        with pytest.raises(IndexOutOfVocab):
            ag.embedding_lookup(table, np.array([0, 4]))
        with pytest.raises(IndexOutOfVocab):
            ag.embedding_lookup(table, np.array([-1]))

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
            ag.add(a, a).backward()


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
        ag.sum_all(ag.mul(got, g)).backward()
        ag.sum_all(ag.mul(want, g)).backward()
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

    ACTIVATIONS = ("relu", "sigmoid", "tanh")

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("first", [True, False])
    def test_bitwise_equal_to_the_composed_chain(self, activation, first):
        rng = np.random.default_rng(31)
        graphs = [wide_tree_edges(rng, 6) for _ in range(4)]
        for edges, n in graphs + distinct_edge_graphs():
            graph = ag.Graph(edges, n)
            h = rng.normal(size=(n, 6))
            h[0] *= 100.0  # saturates sigmoid and tanh in some entries
            if first:
                h = graph.apply(h)
            w, g = rng.normal(size=(6, 4)), Tensor(rng.normal(size=(n, 4)))
            runs = []
            for layer in (ag.gcn_layer, composed_gcn_layer):
                ht = Tensor(h.copy(), requires_grad=True)
                wt = Tensor(w.copy(), requires_grad=True)
                out = layer(ht, wt, None if first else graph, activation)
                ag.sum_all(ag.mul(out, g)).backward()
                runs.append((out.data, ht.grad, wt.grad))
            for got, want in zip(*runs):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_finite_differences(self, activation):
        rng = np.random.default_rng(32)
        edges, n = distinct_edge_graphs()[0]
        h, w = leaf(rng, n, 3), leaf(rng, 3, 2)
        g = Tensor(rng.uniform(-1, 1, (n, 2)))
        for graph in (ag.Graph(edges, n), None):
            fd_check(lambda: ag.sum_all(ag.mul(
                ag.gcn_layer(h, w, graph, activation), g)), [h, w])

    def test_refuses_bad_shapes_and_unknown_activations(self):
        graph = ag.Graph(np.array([[0, 1]]), 2)
        with pytest.raises(ShapeMismatch):
            ag.gcn_layer(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))),
                         graph, "relu")
        with pytest.raises(ShapeMismatch):
            ag.gcn_layer(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2))),
                         graph, "relu")
        with pytest.raises(ValueError):
            ag.gcn_layer(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))),
                         graph, "gelu")


# --- accumulation protocol ---------------------------------------------------------

class TestAccumulation:
    def test_two_backwards_double_without_reset(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        ag.sum_all(a).backward()
        assert a.grad.tolist() == [[1.0, 1.0]]
        ag.sum_all(a).backward()
        assert a.grad.tolist() == [[2.0, 2.0]]

    def test_accumulate_false_resets_reachable_grads(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        ag.sum_all(a).backward()
        ag.sum_all(a).backward(accumulate=False)
        assert a.grad.tolist() == [[1.0, 1.0]]

    def test_zero_grads(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        ag.sum_all(a).backward()
        ag.zero_grads([a])
        assert a.grad is None or not a.grad.any()

    def test_constant_subgraphs_get_no_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.ones((2, 2)))
        ag.sum_all(ag.mul(a, c)).backward()
        assert c.grad is None
        assert a.grad is not None

    def test_first_gradient_of_negative_zero_is_stored_as_zero(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        ag.sum_all(ag.mul(a, Tensor(np.array([[-0.0, 2.0]])))).backward()
        assert a.grad.tolist() == [[0.0, 2.0]]
        assert not np.signbit(a.grad).any()
        # a gradient handed over without ownership is copied, not adopted
        t = Tensor(np.zeros((1, 2)), requires_grad=True)
        g = np.full((1, 2), -0.0)
        ag._accum(t, g)
        assert not np.signbit(t.grad).any() and np.signbit(g).all()


class TestGradientOwnership:
    """After backward no two tensors' .grad arrays share memory, also
    where an op passes its output's gradient on to an input twice."""

    def _backward_and_check(self, out: Tensor, weights: np.ndarray) -> None:
        ag.sum_all(ag.mul(out, Tensor(weights))).backward()
        grads = [t.grad for t in tape_tensors(out) if t.grad is not None]
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_add_of_a_tensor_to_itself(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ag.add(a, a)
        self._backward_and_check(out, np.ones((2, 3)))
        assert out.grad.tolist() == [[1.0] * 3] * 2
        assert a.grad.tolist() == [[2.0] * 3] * 2

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concat_of_a_tensor_with_itself(self, axis):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ag.concat([a, a], axis=axis)
        self._backward_and_check(out, np.ones(out.shape))
        assert (out.grad == 1.0).all() and (a.grad == 2.0).all()

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_with_q_k_v_one_tensor(self, heads):
        rng = np.random.default_rng(33)
        packing = ag.Packing([3, 1, 2])
        x, weights = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        one = Tensor(x.copy(), requires_grad=True)
        self._backward_and_check(ag.attention(one, one, one, packing, heads),
                                 weights)
        q, k, v = (Tensor(x.copy(), requires_grad=True) for _ in range(3))
        self._backward_and_check(ag.attention(q, k, v, packing, heads),
                                 weights)
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
        return ag.sum_all(ag.mul(out, w))

    def test_packing_layout(self):
        p = ag.Packing([3, 1, 4])
        assert p.starts.tolist() == [0, 3, 4] and p.total == 8
        assert (p.batch, p.steps) == (3, 4)
        # longest first, stably: sequence 2, then 0, then 1
        assert p.live.tolist() == [3, 2, 2, 1]
        assert p.spans == [(0, 3), (3, 2), (5, 2), (7, 1)]
        assert p.slots[False].tolist() == [4, 0, 3, 5, 1, 6, 2, 7]
        assert p.slots[True].tolist() == [7, 2, 3, 6, 1, 5, 0, 4]
        assert p.prev.tolist() == [0, 1, 3, 4, 5]
        assert p.padded.tolist() == [0, 1, 2, 4, 8, 9, 10, 11]

    def test_attention_shared_qkv_masked(self):
        for lengths in self.LENGTHS:
            x = leaf(self.rng, sum(lengths), 4)
            fd_check(lambda: self._weighted(ag.attention(
                x, x, x, ag.Packing(lengths), heads=2)), [x])

    def test_attention_separate_qkv_under_fixed_dropout(self):
        for lengths in self.LENGTHS:
            q, k, v = (leaf(self.rng, sum(lengths), 6) for _ in range(3))
            fd_check(lambda: self._weighted(ag.attention(
                q, k, v, ag.Packing(lengths), heads=3, rate=0.4,
                training=True, rng=np.random.default_rng(5))), [q, k, v])

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
        live = packing.padded
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
            ag.sum_all(ag.mul(out, Tensor(weight[take]))).backward()
            runs.append([out.data[keep]] + [t.grad[keep] for t in leaves]
                        + [t.grad for t in params])
        for got, want in zip(*runs):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_attention_matches_padded_oracle_on_live_rows(self):
        for lengths in self.LENGTHS:
            rows = len(lengths) * max(lengths)
            x = self.rng.normal(size=(rows, 4))
            self._live_rows_match(
                lengths, lambda p, a, b, c: ag.attention(a, b, c, p, 2),
                lambda n, a, b, c: padded_attention(a, b, c, n, 2), [x] * 3)
            # both draw one dropout mask over [B, heads, T, T]
            self._live_rows_match(
                lengths,
                lambda p, a, b, c: ag.attention(
                    a, b, c, p, 3, 0.4, True, np.random.default_rng(5)),
                lambda n, a, b, c: padded_attention(
                    a, b, c, n, 3, 0.4, True, np.random.default_rng(5)),
                [self.rng.normal(size=(rows, 6)) for _ in range(3)])

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
        for lengths in ([3, 1, 4, 2], [3, 1, 3], [3, 0, 5]):
            with pytest.raises(ShapeMismatch):
                ag.attention(x, x, x, ag.Packing(lengths), heads=2)
        with pytest.raises(ShapeMismatch):
            ag.Packing([])
        with pytest.raises(ShapeMismatch):
            ag.attention(x, x, x, ag.Packing([3, 1, 4]), heads=3)
        with pytest.raises(ShapeMismatch):
            ag.lstm_direction(x, Tensor(np.zeros((5, 8))),
                              Tensor(np.zeros((1, 8))), ag.Packing([3, 1, 4]))
        with pytest.raises(ShapeMismatch):
            ag.lstm_direction(x, Tensor(np.zeros((6, 8))),
                              Tensor(np.zeros((1, 8))), ag.Packing([3, 1]))

    def test_segment_pool(self):
        a = leaf(self.rng, 6, 3)
        for mean in (True, False):
            fd_check(lambda: self._weighted(ag.segment_pool(a, [2, 1, 2],
                                                            mean)), [a])
        pooled = ag.segment_pool(a, [2, 1, 2], mean=True).data
        assert np.allclose(pooled[0], a.data[:2].mean(axis=0))
        assert np.array_equal(pooled[1], a.data[2])
        with pytest.raises(ShapeMismatch):
            ag.segment_pool(a, [2, 0], mean=True)
        with pytest.raises(ShapeMismatch):
            ag.segment_pool(a, [4, 3], mean=False)


# --- dropout ---------------------------------------------------------------------

class TestDropout:
    def test_identity_when_not_training(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        assert ag.dropout(x, 0.5, training=False) is x
        assert ag.dropout(x, 0.0, training=True) is x

    def test_training_scales_survivors(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        out = ag.dropout(x, 0.2, training=True, rng=rng)
        values = np.unique(out.data)
        assert set(values.tolist()) <= {0.0, 1.0 / 0.8}
        drop_rate = (out.data == 0).mean()
        assert 0.1 < drop_rate < 0.3

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(4)
        x = Tensor(np.full((10, 10), 2.0), requires_grad=True)
        out = ag.dropout(x, 0.5, training=True, rng=rng)
        ag.sum_all(out).backward()
        assert np.array_equal(x.grad, out.data / 2.0)

    def test_same_seed_same_mask(self):
        x = Tensor(np.ones((8, 8)))
        a = ag.dropout(x, 0.5, True, np.random.default_rng(9)).data
        b = ag.dropout(x, 0.5, True, np.random.default_rng(9)).data
        assert np.array_equal(a, b)

    def test_training_without_rng_rejected(self):
        with pytest.raises(ValueError):
            ag.dropout(Tensor(np.ones((2, 2))), 0.5, training=True)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            ag.dropout(Tensor(np.ones((2, 2))), 1.0, training=True,
                       rng=np.random.default_rng(0))


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
            ag.sum_all(ag.mul(p, p)).backward()
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
