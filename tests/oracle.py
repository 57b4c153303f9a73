"""Independent compositions of the model, for checking forward_batch.

The model runs each encoder as a few fused ops over a whole batch.  The
oracles here compute the same function other ways: the graph side as dense
matrix products with GraphSample.norm_adj; the sequence side op by op, with
one attention chain per sample and head and one LSTM tape chain per step
and direction; and the sequence side as it ran before packing, with the
padded attention and LSTM ops over [B*T x cols] rows, which draws the same
dropout masks.  transpose, slice_rows and slice_cols are autograd ops that
only these compositions use; add_at_propagate is the model's propagation as
it ran before autograd.Graph, with np.add.at.  propagate, sigmoid, tanh and
relu are the ops a GCN layer was composed of before autograd.gcn_layer
fused them into one tape node; composed_gcn_layer composes them.  tokenize
is the C-like tokenizer as it ran before it matched every offset with one
finditer pass.
"""

import math
import re

import numpy as np

from uastkit import autograd as ag
from uastkit.autograd import (
    Tensor,
    _accum,
    _dropout_mask,
    _node,
    _sigmoid,
)
from uastkit.ast_frontend.clike_backend import _KEYWORDS
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


def propagate(h: Tensor, graph: ag.Graph) -> Tensor:
    """Â h in O(E * cols), the sums np.add.at gives; its backward is Â g."""

    def bw(g):
        if h.requires_grad:
            _accum(h, graph.apply(g))

    return _node(graph.apply(h.data), (h,), bw)


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        s = _sigmoid(a.data, np.empty(a.data.shape))

    def bw(g):
        if a.requires_grad:
            _accum(a, g * s * (1.0 - s))

    return _node(s, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * (1.0 - t * t))

    return _node(t, (a,), bw)


def relu(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accum(a, g * (a.data > 0))

    return _node(np.maximum(a.data, 0.0), (a,), bw)


ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid, "tanh": tanh}


def composed_gcn_layer(h: Tensor, w: Tensor, graph: ag.Graph | None,
                       activation: str) -> Tensor:
    """autograd.gcn_layer as three tape nodes: matmul, propagate (skipped
    when graph is None), then the activation."""
    z = ag.matmul(h, w)
    return ACTIVATIONS[activation](z if graph is None else propagate(z, graph))


def add_at_propagate(h: Tensor, edges: np.ndarray) -> Tensor:
    """Â h for the renormalized adjacency Â = D^-1/2 (A + I) D^-1/2.

    A is given as an [E x 2] list of distinct undirected edges.  Â h is a
    self term plus a scatter-add over both edge directions, O(E * cols).
    Â is symmetric, so the backward pass applies the same map.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    deg = 1.0 + np.bincount(edges.ravel(), minlength=h.shape[0])
    # entries are 1 / sqrt(d_i * d_j), bit for bit as the dense form has them
    self_w = (1.0 / np.sqrt(deg * deg))[:, None]
    edge_w = (1.0 / np.sqrt(deg[src] * deg[dst]))[:, None]

    def apply(x: np.ndarray) -> np.ndarray:
        out = self_w * x
        np.add.at(out, src, edge_w * x[dst])
        np.add.at(out, dst, edge_w * x[src])
        return out

    def bw(g):
        if h.requires_grad:
            _accum(h, apply(g))

    return _node(apply(h.data), (h,), bw)


# --- the padded sequence ops ---------------------------------------------------
#
# The model's attention and LSTM ops before they ran on packed rows.  Both
# take a batch of B sequences padded to T steps as [B*T x cols], row
# b*T + t holding step t of sequence b, with each sequence's true length.


def _sequence_batch(x: Tensor, lengths) -> tuple[np.ndarray, int]:
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    if lengths.size == 0 or x.shape[0] % lengths.size:
        raise ShapeMismatch(
            f"{x.shape[0]} rows do not split into {lengths.size} sequences")
    steps = x.shape[0] // lengths.size
    if lengths.min() < 1 or lengths.max() > steps:
        raise ShapeMismatch(f"lengths {lengths.tolist()} outside [1, {steps}]")
    return lengths, steps


def padded_attention(q: Tensor, k: Tensor, v: Tensor, lengths, heads: int,
                     rate: float = 0.0, training: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head attention with keys masked past each sequence's length.

    q, k and v are [B*T x d] and may be one tensor.  Head j uses columns
    j*d/heads to (j+1)*d/heads: softmax(q k^T / sqrt(d/heads)) over the keys
    before lengths[b], under inverted dropout drawn once over
    [B, heads, T, T], times v.  Every query row attends, padded ones too.
    """
    lengths, steps = _sequence_batch(q, lengths)
    rows, d = q.shape
    if k.shape != q.shape or v.shape != q.shape or d % heads:
        raise ShapeMismatch(f"attention: q {q.shape}, k {k.shape}, "
                            f"v {v.shape}, {heads} heads")
    batch, hd = lengths.size, d // heads
    inv_sqrt = 1.0 / np.sqrt(hd)

    def split(a: np.ndarray) -> np.ndarray:  # -> [B, heads, T, hd]
        return a.reshape(batch, steps, heads, hd).transpose(0, 2, 1, 3)

    def merge(a: np.ndarray) -> np.ndarray:  # -> [B*T x d]
        return a.transpose(0, 2, 1, 3).reshape(rows, d)

    qs, ks, vs = split(q.data), split(k.data), split(v.data)
    # [B, heads, T, T] arrays are large: scores turn into probs in place
    probs = qs @ ks.transpose(0, 1, 3, 2)
    probs *= inv_sqrt
    probs += np.where(np.arange(steps) >= lengths[:, None], -np.inf,
                      0.0)[:, None, None, :]
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    mask = _dropout_mask(probs.shape, rate, training, rng)
    weights = probs if mask is None else probs * mask

    def bw(g):
        gs = split(g)
        d_scores = gs @ vs.transpose(0, 1, 3, 2)  # d weights, at first
        if mask is not None:
            d_scores *= mask
        d_scores *= probs
        d_scores -= probs * d_scores.sum(axis=-1, keepdims=True)
        d_scores *= inv_sqrt
        for t, grad in ((q, d_scores @ ks),
                        (k, d_scores.transpose(0, 1, 3, 2) @ qs),
                        (v, weights.transpose(0, 1, 3, 2) @ gs)):
            if t.requires_grad:
                _accum(t, merge(grad))

    return _node(merge(weights @ vs), (q, k, v), bw)


def padded_lstm_direction(x: Tensor, w_all: Tensor, b_all: Tensor, lengths,
                          reverse: bool = False) -> Tensor:
    """One direction of an LSTM layer over a batch, as [B*T x h] states.

    x is [B*T x in]; w_all is [(h + in) x 4h], recurrent rows first, and
    b_all is [1 x 4h], gate columns in the order i, f, o, c.  From step
    lengths[b] on, sequence b holds its state, which stays zero when
    reverse runs the steps from T-1 down to 0.  Every step's input
    projection is one GEMM before the recurrence.
    """
    lengths, steps = _sequence_batch(x, lengths)
    rows, in_dim = x.shape
    batch, h = lengths.size, b_all.shape[1] // 4
    if b_all.shape != (1, 4 * h) or w_all.shape != (h + in_dim, 4 * h):
        raise ShapeMismatch(f"lstm_direction: x {x.shape}, w_all "
                            f"{w_all.shape}, b_all {b_all.shape}")
    w_h, w_x = w_all.data[:h], w_all.data[h:]
    dead = (np.arange(steps)[:, None] >= lengths)[:, :, None]  # [T, B, 1]
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    # slot of the state entering each step; slot T (also reached as -1)
    # holds the zero start state
    enter = np.arange(steps) + (1 if reverse else -1)

    # per-step buffers are time-major, so each step's slice is contiguous;
    # gates holds every step's input projection, from one GEMM, and turns
    # into that step's gate activations in place
    gates = np.ascontiguousarray(
        (x.data @ w_x + b_all.data).reshape(batch, steps, 4 * h)
        .transpose(1, 0, 2))
    hs = np.zeros((steps + 1, batch, h))
    cs = np.zeros((steps + 1, batch, h))
    c_tanh = np.empty((steps, batch, h))
    for t in order:
        act = gates[t]
        act += hs[enter[t]] @ w_h
        with np.errstate(over="ignore"):  # e^-x = inf below -709 gives 0
            act[:, :3 * h] = 1.0 / (1.0 + np.exp(-act[:, :3 * h]))
        np.tanh(act[:, 3 * h:], out=act[:, 3 * h:])
        i_g, f_g, o_g, c_hat = (act[:, j * h:(j + 1) * h] for j in range(4))
        np.multiply(f_g, cs[enter[t]], out=cs[t])
        cs[t] += i_g * c_hat
        np.copyto(cs[t], cs[enter[t]], where=dead[t])
        np.tanh(cs[t], out=c_tanh[t])
        np.multiply(o_g, c_tanh[t], out=hs[t])
        np.copyto(hs[t], hs[enter[t]], where=dead[t])

    def bw(g):
        d_hs = g.reshape(batch, steps, h).transpose(1, 0, 2)
        d_pre = np.empty((steps, batch, 4 * h))
        held = dead.astype(np.float64)
        live = 1.0 - held
        dh = np.zeros((batch, h))
        dc = np.zeros((batch, h))
        for t in reversed(order):
            ifo, c_hat = gates[t, :, :3 * h], gates[t, :, 3 * h:]
            i_g, f_g, o_g = ifo[:, :h], ifo[:, h:2 * h], ifo[:, 2 * h:]
            dh += d_hs[t]
            dh_new = dh * live[t]
            dc += dh_new * o_g * (1.0 - c_tanh[t] * c_tanh[t])
            dc_new = dc * live[t]
            d_sig = ifo * (1.0 - ifo)
            dp = d_pre[t]
            np.multiply(dc_new * c_hat, d_sig[:, :h], out=dp[:, :h])
            np.multiply(dc_new * cs[enter[t]], d_sig[:, h:2 * h],
                        out=dp[:, h:2 * h])
            np.multiply(dh_new * c_tanh[t], d_sig[:, 2 * h:],
                        out=dp[:, 2 * h:3 * h])
            np.multiply(dc_new * i_g, 1.0 - c_hat * c_hat, out=dp[:, 3 * h:])
            dh = dh * held[t] + dp @ w_h.T
            dc = dc_new * f_g + dc * held[t]
        d_pre_rows = d_pre.transpose(1, 0, 2).reshape(rows, 4 * h)
        if x.requires_grad:
            _accum(x, d_pre_rows @ w_x.T)
        if w_all.requires_grad:
            _accum(w_all, np.vstack([
                hs[enter].reshape(-1, h).T @ d_pre.reshape(-1, 4 * h),
                x.data.T @ d_pre_rows]))
        if b_all.requires_grad:
            _accum(b_all, d_pre.reshape(-1, 4 * h).sum(axis=0, keepdims=True))

    return _node(hs[:steps].transpose(1, 0, 2).reshape(rows, h),
                 (x, w_all, b_all), bw)


def padded_indices(paths, T: int) -> np.ndarray:
    """The paths' kind indices, each zero-padded to T, one after another."""
    out = np.zeros((len(paths), T), dtype=np.int64)
    for row, p in zip(out, paths):
        row[:p.true_length] = p.indices
    return out.ravel()


def padded_sequence(paths, params, cfg, training=False, rng=None) -> Tensor:
    """[B x 2h] sequence features over [B*T x cols] padded rows.

    The sequence side of forward_batch as it ran before packing: the same
    ops in the same order, so in training mode it draws the same dropout
    masks from rng.
    """
    lengths = np.array([p.true_length for p in paths])
    T = int(lengths.max())
    x = ag.embedding_lookup(params.embedding, padded_indices(paths, T))
    if cfg.learned_projections:
        q, k, v = (ag.matmul(x, w)
                   for w in (params.proj_q, params.proj_k, params.proj_v))
    else:
        q = k = v = x
    inputs = padded_attention(q, k, v, lengths, cfg.heads, cfg.attn_dropout,
                              training, rng)
    for layer, (fwd, bwd) in enumerate(params.lstm):
        if layer:
            inputs = ag.dropout(ag.concat([out_f, out_b], axis=1),
                                cfg.lstm_dropout, training, rng)
        out_f = padded_lstm_direction(inputs, *fwd, lengths)
        out_b = padded_lstm_direction(inputs, *bwd, lengths, reverse=True)
    firsts = np.arange(len(lengths)) * T
    return ag.concat([ag.gather_rows(out_f, firsts + T - 1),
                      ag.gather_rows(out_b, firsts)], axis=1)


# --- graph side: dense renormalized adjacency -----------------------------------

def dense_gcn_nodes(graph, params, cfg) -> Tensor:
    """[node_count x d_out] node features through the dense renormalized Â."""
    act = ACTIVATIONS[cfg.gcn_activation]
    adj = Tensor(graph.norm_adj)
    h = act(ag.matmul(adj, ag.gather_rows(params.gcn[0], graph.node_kinds)))
    for w in params.gcn[1:]:
        h = act(ag.matmul(adj, ag.matmul(h, w)))
    return h


def dense_graph_oracle(graph, params, cfg) -> Tensor:
    """Pooled [1 x d_out] graph features over the nodes."""
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
        i_g = sigmoid(slice_cols(pre, 0, h_dim))
        f_g = sigmoid(slice_cols(pre, h_dim, 2 * h_dim))
        o_g = sigmoid(slice_cols(pre, 2 * h_dim, 3 * h_dim))
        c_hat = tanh(slice_cols(pre, 3 * h_dim, 4 * h_dim))
        c_new = ag.add(ag.mul(f_g, c), ag.mul(i_g, c_hat))
        live, dead = masks[t]
        c = c_new if live is None else ag.add(ag.mul(c_new, live),
                                              ag.mul(c, dead))
        h_new = ag.mul(o_g, tanh(c))
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
    x_all = ag.embedding_lookup(params.embedding, padded_indices(paths, L))
    atts = [attend_one(slice_rows(x_all, b * L, (b + 1) * L),
                       attention_mask(L, n), cfg, params)
            for b, n in enumerate(lengths)]
    att_all = ag.concat(atts, axis=0) if len(atts) > 1 else atts[0]
    base = np.arange(len(paths)) * L
    steps = [ag.gather_rows(att_all, base + t) for t in range(max(lengths))]
    return _bilstm_over_steps(steps, lengths, params, cfg)


# --- the whole model ---------------------------------------------------------------


def _classify(sequence, pairs, params, cfg) -> Tensor:
    """The softmax head over the sequence features (or None) and one
    dense graph oracle per sample, sequence side first."""
    features = [] if sequence is None else [sequence]
    if cfg.uses_graph:
        features.append(ag.concat([dense_graph_oracle(g, params, cfg)
                                   for _, g in pairs], axis=0))
    h = ag.concat(features, axis=1) if len(features) == 2 else features[0]
    return ag.softmax_rows(ag.add(ag.matmul(h, params.clf_w), params.clf_b))


def oracle_probs(pairs, params, cfg) -> Tensor:
    """[B x k] eval-mode probabilities of (path, graph) pairs.

    The sequence side is composed_sequence, the graph side one dense
    oracle per sample.
    """
    paths = [p for p, _ in pairs]
    return _classify(composed_sequence(paths, params, cfg)
                     if cfg.uses_path else None, pairs, params, cfg)


def padded_probs(pairs, params, cfg, training=False, rng=None) -> Tensor:
    """[B x k] probabilities with the sequence side of padded_sequence.

    In training mode it draws the dropout masks forward_batch draws from
    the same rng.
    """
    paths = [p for p, _ in pairs]
    return _classify(padded_sequence(paths, params, cfg, training, rng)
                     if cfg.uses_path else None, pairs, params, cfg)


# --- the C-like tokenizer -----------------------------------------------------

TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<preproc>\#[^\n]*)
    | (?P<num>(?:0[xX][0-9a-fA-F]+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)[fFlLuUdD]*)
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<chr>'(?:\\.|[^'\\\n])*')
    | (?P<template>`(?:\\.|[^`\\])*`)
    | (?P<id>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<punct>>>>=|<<=|>>=|===|!==|>>>|\.\.\.|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
                |\+=|-=|\*=|/=|%=|&=|\|=|\^=|=>|->|::|[-+*/%<>=!&|^~?:;,.(){}\[\]@])
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str, language: str) -> list[tuple[str, str]]:
    """(type, value) of each token, one regex match at a time."""
    keywords = _KEYWORDS[language]
    tokens: list[tuple[str, str]] = []
    pos = 0
    n = len(text)
    while pos < n:
        m = TOKEN_RE.match(text, pos)
        if m is None:
            ch = text[pos]
            if ch in "\"'`":
                nl = text.find("\n", pos)  # unterminated literal: recover at EOL
                tokens.append(("str", text[pos: n if nl < 0 else nl]))
                pos = n if nl < 0 else nl
                continue
            tokens.append(("punct", ch))
            pos += 1
            continue
        kind = m.lastgroup
        value = m.group()
        if kind in ("ws", "line_comment", "block_comment"):
            pass
        elif kind == "id" and value in keywords:
            tokens.append(("kw", value))
        else:
            tokens.append((kind, value))
        pos = m.end()
    return tokens
