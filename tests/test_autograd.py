"""Tensor core: gradients against finite differences, op semantics, Adam."""

import numpy as np
import pytest

from conftest import random_tree
from oracle import slice_cols, slice_rows, transpose
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
        fd_check(lambda: ag.sum_all(ag.tanh(ag.add(ag.add(a, row), col))),
                 [a, row, col])

    def test_mul_broadcast(self):
        a, b = leaf(self.rng, 3, 2), leaf(self.rng, 1, 2)
        fd_check(lambda: ag.sum_all(ag.mul(a, b)), [a, b])

    def test_scale(self):
        a = leaf(self.rng, 2, 3)
        fd_check(lambda: ag.sum_all(ag.sigmoid(ag.scale(a, -2.5))), [a])

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
        fd_check(lambda: ag.sum_all(ag.tanh(ag.gather_rows(a, idx))), [a])

    def test_propagate_over_edge_list(self):
        # a star with a tail: node 0 has three children, node 2 one
        edges = np.array([[0, 1], [0, 2], [0, 3], [2, 4]])
        h = leaf(self.rng, 5, 3)
        w = Tensor(self.rng.uniform(-1, 1, (5, 3)))
        fd_check(lambda: ag.sum_all(ag.mul(ag.tanh(ag.propagate(h, edges)),
                                           w)), [h])

    def test_propagate_without_edges_scales_by_self_loop(self):
        h = leaf(self.rng, 1, 4)
        fd_check(lambda: ag.sum_all(ag.tanh(ag.propagate(
            h, np.zeros((0, 2), dtype=np.int64)))), [h])
        assert np.array_equal(
            ag.propagate(h, np.zeros((0, 2), dtype=np.int64)).data, h.data)

    def test_embedding_lookup(self):
        table = leaf(self.rng, 5, 3)
        idx = np.array([0, 4, 1, 0])
        fd_check(lambda: ag.sum_all(ag.embedding_lookup(table, idx)),
                 [table])

    def test_sigmoid_tanh_relu(self):
        a = Tensor(self.rng.uniform(0.2, 1.5, (2, 3)) *
                   np.array([[1, -1, 1], [-1, 1, -1]]), requires_grad=True)
        fd_check(lambda: ag.sum_all(ag.sigmoid(a)), [a])
        fd_check(lambda: ag.sum_all(ag.tanh(a)), [a])
        fd_check(lambda: ag.sum_all(ag.relu(a)), [a])

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
            dense = np.zeros((graph.N, graph.N))
            dense[:n, :n] = ag.propagate(Tensor(np.eye(n)), graph.edges).data
            assert np.array_equal(dense, graph.norm_adj)

    def test_propagate_matches_dense_product(self):
        rng = np.random.default_rng(4)
        vocab = vocabulary_from_kinds(("alpha", "beta"))
        graph = featurize_sample(random_tree(rng, max_nodes=30,
                                             kinds=("alpha", "beta")),
                                 vocab, 1, 30)[1]
        n = graph.node_count
        h = rng.normal(size=(n, 3))
        got = ag.propagate(Tensor(h), np.array(graph.edges).reshape(-1, 2))
        want = graph.norm_adj[:n, :n] @ h
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


# --- fused sequence ops -----------------------------------------------------------

class TestFusedSequenceGradients:
    """Both fused ops against central differences, with padded sequences."""

    def setup_method(self):
        self.rng = np.random.default_rng(21)
        self.lengths = [3, 1, 4]  # B=3 sequences padded to T=4

    def _weighted(self, out):
        w = Tensor(np.random.default_rng(22).uniform(-1, 1, out.shape))
        return ag.sum_all(ag.mul(out, w))

    def test_attention_shared_qkv_masked(self):
        x = leaf(self.rng, 12, 4)
        fd_check(lambda: self._weighted(ag.attention(x, x, x, self.lengths,
                                                     heads=2)), [x])

    def test_attention_separate_qkv_under_fixed_dropout(self):
        q, k, v = (leaf(self.rng, 12, 6) for _ in range(3))
        fd_check(lambda: self._weighted(ag.attention(
            q, k, v, self.lengths, heads=3, rate=0.4, training=True,
            rng=np.random.default_rng(5))), [q, k, v])

    def test_attention_ignores_padded_keys(self):
        x = self.rng.normal(size=(12, 4))
        moved = x.copy()
        moved[[3, 5, 6, 7]] += self.rng.normal(size=(4, 4))  # padded steps
        base = ag.attention(Tensor(x), Tensor(x), Tensor(x), self.lengths, 2)
        other = ag.attention(Tensor(x), Tensor(moved), Tensor(moved),
                             self.lengths, 2)
        assert np.array_equal(base.data, other.data)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_direction_masked(self, reverse):
        x = leaf(self.rng, 12, 3)
        w_all = leaf(self.rng, 2 + 3, 8)
        b_all = leaf(self.rng, 1, 8)
        fd_check(lambda: self._weighted(ag.lstm_direction(
            x, w_all, b_all, self.lengths, reverse)), [x, w_all, b_all])

    def test_lstm_holds_state_past_each_length(self):
        x = Tensor(self.rng.normal(size=(12, 3)))
        w_all = Tensor(self.rng.uniform(-1, 1, (5, 8)))
        b_all = Tensor(self.rng.uniform(-1, 1, (1, 8)))
        fwd = ag.lstm_direction(x, w_all, b_all, self.lengths).data
        bwd = ag.lstm_direction(x, w_all, b_all, self.lengths, True).data
        for b, n in enumerate(self.lengths):
            rows = slice(4 * b + n, 4 * b + 4)
            assert (fwd[rows] == fwd[4 * b + n - 1]).all()
            assert (bwd[rows] == 0.0).all()

    def test_sequence_shape_guards(self):
        x = Tensor(np.zeros((12, 4)))
        with pytest.raises(ShapeMismatch):
            ag.attention(x, x, x, [3, 1, 4, 2], heads=2)  # 12 rows, B=4
        with pytest.raises(ShapeMismatch):
            ag.attention(x, x, x, [3, 0, 4], heads=2)
        with pytest.raises(ShapeMismatch):
            ag.attention(x, x, x, [3, 5, 4], heads=2)
        with pytest.raises(ShapeMismatch):
            ag.attention(x, x, x, [3, 1, 4], heads=3)
        with pytest.raises(ShapeMismatch):
            ag.lstm_direction(x, Tensor(np.zeros((5, 8))),
                              Tensor(np.zeros((1, 8))), [3, 1, 4])

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
