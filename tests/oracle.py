"""Independent compositions of the model, for checking forward_batch.

The model runs each encoder as a few fused ops over a whole batch.  The
oracles here compute the same function the slow way: the graph side as
dense matrix products with GraphSample.norm_adj, the sequence side as one
attention chain per sample and head and one LSTM tape chain per step and
direction.  transpose, slice_rows and slice_cols are autograd ops that only
these compositions use.
"""

import math

import numpy as np

from uastkit import autograd as ag
from uastkit.autograd import Tensor, _accum, _node
from uastkit.errors import ShapeMismatch

# --- ops only the oracles use -------------------------------------------------


def transpose(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accum(a, g.T)

    return _node(np.ascontiguousarray(a.data.T), (a,), bw)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeMismatch(f"slice_rows: [{start}:{stop}] of {a.shape}")

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[start:stop] += g

    return _node(a.data[start:stop].copy(), (a,), bw)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[1]):
        raise ShapeMismatch(f"slice_cols: [{start}:{stop}] of {a.shape}")

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[:, start:stop] += g

    return _node(a.data[:, start:stop].copy(), (a,), bw)


# --- graph side: dense renormalized adjacency -----------------------------------

_ACTIVATIONS = {"relu": ag.relu, "sigmoid": ag.sigmoid, "tanh": ag.tanh}


def dense_gcn_nodes(graph, params, cfg) -> Tensor:
    """[N x d_out] node features through the dense renormalized Â.

    Every row is padded to N: padding rows gather W0's row 0 and stay out
    of the pooled result only because Â's zero rows and columns erase them.
    """
    act = _ACTIVATIONS[cfg.gcn_activation]
    adj = Tensor(graph.norm_adj)
    h = act(ag.matmul(adj, ag.gather_rows(params.gcn[0], graph.node_kinds)))
    for w in params.gcn[1:]:
        h = act(ag.matmul(adj, ag.matmul(h, w)))
    return h


def dense_graph_oracle(graph, params, cfg) -> Tensor:
    """Pooled [1 x d_out] graph features over the first node_count rows."""
    return ag.segment_pool(dense_gcn_nodes(graph, params, cfg),
                           [graph.node_count], cfg.pooling == "mean")


# --- sequence side: one tape chain per head and per step ------------------------


def attention_mask(L: int, true_length: int) -> Tensor | None:
    if true_length >= L:
        return None
    row = np.zeros((1, L))
    row[0, true_length:] = -np.inf
    return Tensor(row)


def attend_one(x: Tensor, mask: Tensor | None, cfg, params) -> Tensor:
    """Multi-head attention over one sample's [L x d] rows, eval mode."""
    if cfg.learned_projections:
        q_all = ag.matmul(x, params.proj_q)
        k_all = ag.matmul(x, params.proj_k)
        v_all = ag.matmul(x, params.proj_v)
    else:
        q_all = k_all = v_all = x
    hd = cfg.head_dim
    heads_out = []
    for head in range(cfg.heads):
        lo, hi = head * hd, (head + 1) * hd
        q = slice_cols(q_all, lo, hi)
        k = q if k_all is q_all else slice_cols(k_all, lo, hi)
        v = q if v_all is q_all else slice_cols(v_all, lo, hi)
        scores = ag.scale(ag.matmul(q, transpose(k)), 1.0 / math.sqrt(hd))
        if mask is not None:
            scores = ag.add(scores, mask)
        heads_out.append(ag.matmul(ag.softmax_rows(scores), v))
    return ag.concat(heads_out, axis=1) if len(heads_out) > 1 else heads_out[0]


def _masks_for_batch(true_lengths, T: int) -> list[tuple]:
    """Per-step (mask, inv_mask) tensor pairs; None when every row is live."""
    arr = np.asarray(true_lengths)
    out = []
    for t in range(T):
        live = (arr > t).astype(np.float64).reshape(-1, 1)
        if live.all():
            out.append((None, None))
        else:
            out.append((Tensor(live), Tensor(1.0 - live)))
    return out


def _lstm_direction(xs, masks, w_all, b_all, h_dim: int, reverse: bool):
    """One direction over the step list; returns per-step h and final h."""
    batch = xs[0].shape[0]
    h = Tensor(np.zeros((batch, h_dim)))
    c = Tensor(np.zeros((batch, h_dim)))
    steps = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    outs = [None] * len(xs)
    for t in steps:
        pre = ag.add(ag.matmul(ag.concat([h, xs[t]], axis=1), w_all), b_all)
        i_g = ag.sigmoid(slice_cols(pre, 0, h_dim))
        f_g = ag.sigmoid(slice_cols(pre, h_dim, 2 * h_dim))
        o_g = ag.sigmoid(slice_cols(pre, 2 * h_dim, 3 * h_dim))
        c_hat = ag.tanh(slice_cols(pre, 3 * h_dim, 4 * h_dim))
        c_new = ag.add(ag.mul(f_g, c), ag.mul(i_g, c_hat))
        live, dead = masks[t]
        c = c_new if live is None else ag.add(ag.mul(c_new, live),
                                              ag.mul(c, dead))
        h_new = ag.mul(o_g, ag.tanh(c))
        h = h_new if live is None else ag.add(ag.mul(h_new, live),
                                              ag.mul(h, dead))
        outs[t] = h
    return outs, h


def _bilstm_over_steps(xs, true_lengths, params, cfg) -> Tensor:
    masks = _masks_for_batch(true_lengths, len(xs))
    inputs = xs
    for fwd, bwd in params.lstm:
        outs_f, final_fwd = _lstm_direction(inputs, masks, *fwd, cfg.h,
                                            reverse=False)
        outs_b, final_bwd = _lstm_direction(inputs, masks, *bwd, cfg.h,
                                            reverse=True)
        inputs = [ag.concat([f, b], axis=1) for f, b in zip(outs_f, outs_b)]
    return ag.concat([final_fwd, final_bwd], axis=1)


def composed_sequence(paths, params, cfg) -> Tensor:
    """[B x 2h] sequence features of a batch, eval mode, op by op."""
    L = cfg.L
    lengths = [p.true_length for p in paths]
    x_all = ag.embedding_lookup(params.embedding,
                                np.concatenate([p.indices for p in paths]))
    atts = [attend_one(slice_rows(x_all, b * L, (b + 1) * L),
                       attention_mask(L, n), cfg, params)
            for b, n in enumerate(lengths)]
    att_all = ag.concat(atts, axis=0) if len(atts) > 1 else atts[0]
    base = np.arange(len(paths)) * L
    steps = [ag.gather_rows(att_all, base + t) for t in range(max(lengths))]
    return _bilstm_over_steps(steps, lengths, params, cfg)


# --- the whole model ---------------------------------------------------------------


def oracle_probs(pairs, params, cfg) -> Tensor:
    """[B x k] eval-mode probabilities of (path, graph) pairs.

    The sequence side is composed_sequence, the graph side one dense
    oracle per sample; their rows are concatenated, sequence side first,
    into the softmax head.
    """
    features = []
    if cfg.uses_path:
        features.append(composed_sequence([p for p, _ in pairs], params, cfg))
    if cfg.uses_graph:
        features.append(ag.concat([dense_graph_oracle(g, params, cfg)
                                   for _, g in pairs], axis=0))
    h = ag.concat(features, axis=1) if len(features) == 2 else features[0]
    return ag.softmax_rows(ag.add(ag.matmul(h, params.clf_w), params.clf_b))
