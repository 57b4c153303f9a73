"""Independent compositions of the model, for checking forward_batch.

The model runs each encoder as a few fused ops over a whole batch.  The
oracles here compute the same function other ways: the graph side as dense
matrix products with GraphSample.norm_adj; the sequence side op by op, with
one attention chain per sample and head and one LSTM tape chain per step
and direction; and the sequence side as it ran before packing, with the
padded attention, dropout and LSTM ops over [B*T x cols] rows.  Those draw
each dropout mask as one draw over the padded layout (_dropout_mask), as
the model did before it drew per path, so the same rng must give the same
masks.  saved_attention and saved_lstm_direction are the packed sequence
ops as they ran when their nodes kept probs, h, c and tanh(c) for the
backward pass, which now recomputes them; saved_attention also takes q, k
and v apart, as attention did before it took one tensor, and the embedded
path itself, as attention did before it gathered its rows from the
embedding table: gather_rows followed by saved_attention is the
attention op's oracle.  packed_dropout is the dropout op as it ran on
one tensor, before it joined its inputs: concat followed by
packed_dropout is its oracle.  add (which broadcasts), matmul, concat
and softmax_rows are the ops the softmax head was composed of before
autograd.classify fused them into one tape node, and with them left
autograd; composed_classify composes them, and the other compositions
build on them.  transpose, slice_rows, slice_cols, mul and scale are
autograd ops that only these compositions use.  log and clamp_min, with mul, sum_all and scale, are the ops
cross-entropy was composed of before autograd.cross_entropy_loss fused it
into one tape node; composed_cross_entropy_loss composes them.
add_at_propagate is the model's propagation as it ran before
autograd.Graph, with np.add.at.  propagate and relu are the ops a GCN
layer was composed of before autograd.gcn_layer fused them into one tape
node; composed_gcn_layer composes them.  sigmoid and tanh are the LSTM
gates' ops.  tokenize is the C-like tokenizer as it ran before it matched
every offset with one finditer pass; its pattern has the same tokens, an
unterminated block comment running to the end of the text included.
unify_ast, build_vocabulary, featurize_sample, node_count and
render_sexpr are the walks over a graph of AstNode objects that ran before
every tree became one flat pre-order form; unflatten rebuilds that graph
from the flat form.  load_ast_sexpr is the S-expression reader as it ran
when it built that graph, before it built the flat form in its one pass.
"""

import math
import re
import sys

import numpy as np

from uastkit import autograd as ag
from uastkit.autograd import Tensor, _accum, _node, _sigmoid
from uastkit.ast_frontend import AstNode, FlatTree, Vocabulary
from uastkit.ast_frontend.clike_backend import _KEYWORDS
from uastkit.ast_frontend.unify import _canon_language
from uastkit.errors import (
    EmptyCorpus,
    LabelOutOfRange,
    MalformedSExpr,
    ShapeMismatch,
)
from uastkit.featurizer import GraphSample, PathSequence

# --- ops only the oracles use -------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _broadcastable(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, a [1 x cols] or [rows x 1] side broadcasting."""
    if not _broadcastable(a.shape, b.shape):
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _node(a.data + b.data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T, owned=True)
        if b.requires_grad:
            _accum(b, a.data.T @ g, owned=True)

    return _node(a.data @ b.data, (a, b), bw)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    if axis not in (0, 1):
        raise ShapeMismatch(f"concat: axis must be 0 or 1, got {axis}")
    if not tensors:
        raise ShapeMismatch("concat: empty input list")
    other = 1 - axis
    for t in tensors[1:]:
        if t.shape[other] != tensors[0].shape[other]:
            raise ShapeMismatch(
                f"concat axis {axis}: {tensors[0].shape} vs {t.shape}")
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bw(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accum(t, g[start:stop] if axis == 0 else g[:, start:stop])

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), bw)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        if a.requires_grad:
            tmp = g * s
            _accum(a, tmp - s * tmp.sum(axis=1, keepdims=True), owned=True)

    return _node(s, (a,), bw)


def composed_classify(parts: list[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """autograd.classify as the four tape nodes it was composed of: concat,
    matmul, the broadcasting add of b, then softmax_rows."""
    return softmax_rows(add(matmul(concat(parts, axis=1), w), b))


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a.shape, b.shape):
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape), owned=True)

    return _node(a.data * b.data, (a, b), bw)


def scale(a: Tensor, alpha: float) -> Tensor:
    """alpha * a, with a python-float coefficient."""

    def bw(g):
        if a.requires_grad:
            _accum(a, g * alpha, owned=True)

    return _node(alpha * a.data, (a,), bw)


def log(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accum(a, g / a.data, owned=True)

    return _node(np.log(a.data), (a,), bw)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accum(a, g * (a.data >= floor), owned=True)

    return _node(np.maximum(a.data, floor), (a,), bw)

def composed_cross_entropy_loss(probs: Tensor, labels) -> Tensor:
    """autograd.cross_entropy_loss as the five tape nodes it was composed
    of: clamp_min, log, mul by a one-hot constant, sum_all and scale."""
    lab = np.asarray(labels, dtype=np.int64).ravel()
    batch, k = probs.shape
    if lab.shape[0] != batch:
        raise ShapeMismatch(
            f"cross_entropy_loss: {batch} prob rows vs {lab.shape[0]} labels")
    if lab.size and (lab.min() < 0 or lab.max() >= k):
        bad = lab[(lab < 0) | (lab >= k)][0]
        raise LabelOutOfRange(f"label {bad} outside [0, {k})")
    onehot = np.zeros((batch, k))
    onehot[np.arange(batch), lab] = 1.0
    picked = mul(log(clamp_min(probs, 1e-12)), Tensor(onehot))
    return scale(ag.sum_all(picked), -1.0 / batch)


def propagate(h: Tensor, graph: ag.Graph) -> Tensor:
    """Â h in O(E * cols), the sums np.add.at gives; its backward is Â g."""

    def bw(g):
        if h.requires_grad:
            _accum(h, graph.apply(g))

    return _node(graph.apply(h.data.copy()), (h,), bw)


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


def composed_gcn_layer(h: Tensor, w: Tensor, graph: ag.Graph | None) -> Tensor:
    """autograd.gcn_layer as three tape nodes: matmul, propagate (skipped
    when graph is None), then relu."""
    z = matmul(h, w)
    return relu(z if graph is None else propagate(z, graph))


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


# --- the packed sequence ops as their nodes kept their arrays -----------------
#
# The backward passes of these read what the forward pass kept: attention
# its q, k and v and each sequence's probs, the LSTM every slot's h, c and
# tanh(c).  The autograd ops keep less and recompute the rest, by the same
# operations.


def saved_attention(q: Tensor, k: Tensor, v: Tensor, packing: ag.Packing,
                    heads: int, rate: float = 0.0, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
    """autograd.attention as it was when its node kept each sequence's
    probs: the same operations in the same order, so the same bits."""
    rows, d = q.shape
    if (rows != packing.total or k.shape != q.shape or v.shape != q.shape
            or d % heads):
        raise ShapeMismatch(f"attention: q {q.shape}, k {k.shape}, v "
                            f"{v.shape}, {heads} heads, {packing.total} rows")
    hd, steps = d // heads, packing.steps
    inv_sqrt = 1.0 / np.sqrt(hd)
    test = ag._dropout_mask(rate, training, rng)
    scale = 1.0 / (1.0 - rate)
    spans = [slice(s, s + n) for s, n in
             zip(packing.starts.tolist(), packing.lengths.tolist())]

    def by_head(a: np.ndarray) -> np.ndarray:  # [S x d] -> [heads, S, hd]
        return a.reshape(rows, heads, hd).transpose(1, 0, 2)

    qs, ks, vs = by_head(q.data), by_head(k.data), by_head(v.data)
    out = np.empty((heads, rows, hd))
    saved = []  # per sequence: probs and the keep mask
    for span in spans:
        n = span.stop - span.start
        probs = qs[:, span] @ ks[:, span].transpose(0, 2, 1)
        probs *= inv_sqrt
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        keep = None if test is None else test((heads, steps, steps))[
            :, :n, :n].copy()
        weights = probs if keep is None else probs * keep * scale
        out[:, span] = weights @ vs[:, span]
        saved.append((probs, keep))

    def bw(g):
        gs, grads = by_head(g), np.empty((3, heads, rows, hd))
        for span, (probs, keep) in zip(spans, saved):
            d_scores = gs[:, span] @ vs[:, span].transpose(0, 2, 1)
            if keep is not None:
                d_scores *= keep * scale
            d_scores *= probs
            d_scores -= probs * d_scores.sum(axis=-1, keepdims=True)
            d_scores *= inv_sqrt
            grads[0][:, span] = d_scores @ ks[:, span]
            grads[1][:, span] = d_scores.transpose(0, 2, 1) @ qs[:, span]
            weights = probs if keep is None else probs * keep * scale
            grads[2][:, span] = weights.transpose(0, 2, 1) @ gs[:, span]
        for t, grad in zip((q, k, v), grads):
            if t.requires_grad:
                _accum(t, grad.transpose(1, 0, 2).reshape(rows, d), owned=True)

    return _node(out.transpose(1, 0, 2).reshape(rows, d), (q, k, v), bw)


def saved_lstm_direction(x: Tensor, w_all: Tensor, b_all: Tensor,
                         packing: ag.Packing, reverse: bool = False) -> Tensor:
    """autograd.lstm_direction as it was when its node kept every slot's
    h, c and tanh(c): the same operations in the same order, so the same
    bits."""
    rows, in_dim = x.shape
    h = b_all.shape[1] // 4
    if (rows != packing.total or b_all.shape != (1, 4 * h)
            or w_all.shape != (h + in_dim, 4 * h)):
        raise ShapeMismatch(f"lstm_direction: x {x.shape}, w_all {w_all.shape}"
                            f", b_all {b_all.shape}, {packing.total} rows")
    w_h, w_x = w_all.data[:h], w_all.data[h:]
    slots, first = packing.slots[reverse], packing.live[0]
    # every buffer is indexed by slot, so each step's rows are contiguous;
    # gates holds the input projections and turns into the gate
    # activations in place
    gates = (x.data @ w_x + b_all.data)[slots]
    hs, cs, c_tanh = (np.empty((rows, h)) for _ in range(3))
    back = 0  # the step before's first slot
    with np.errstate(over="ignore"):  # for the gates' sigmoid
        for lo, n in packing.spans:
            act, hi = gates[lo:lo + n], lo + n
            if lo:
                act += hs[back:back + n] @ w_h
            _sigmoid(act[:, :3 * h], act[:, :3 * h])
            np.tanh(act[:, 3 * h:], out=act[:, 3 * h:])
            np.multiply(act[:, :h], act[:, 3 * h:], out=cs[lo:hi])
            if lo:
                cs[lo:hi] += act[:, h:2 * h] * cs[back:back + n]
            np.tanh(cs[lo:hi], out=c_tanh[lo:hi])
            np.multiply(act[:, 2 * h:3 * h], c_tanh[lo:hi], out=hs[lo:hi])
            back = lo
    out = np.empty((rows, h))
    out[slots] = hs

    def bw(g):
        i_g, f_g, o_g, c_hat = (gates[:, j * h:(j + 1) * h] for j in range(4))
        # every factor that does not depend on the carried dh and dc, over
        # all slots at once, and the cell state entering each slot
        dc_dh = o_g * (1.0 - c_tanh * c_tanh)
        d_sig = gates[:, :3 * h] * (1.0 - gates[:, :3 * h])
        d_tanh = 1.0 - c_hat * c_hat
        c_prev = np.zeros((rows, h))
        c_prev[first:] = cs[packing.prev]
        d_h, d_pre = g[slots], np.empty((rows, 4 * h))
        # carried into the step before, whose first slots they update
        dh_carry = dc_carry = np.zeros((0, h))
        for lo, n in reversed(packing.spans):
            hi = lo + n
            dh = d_h[lo:hi]
            dh[:len(dh_carry)] += dh_carry
            dc = dh * dc_dh[lo:hi]
            dc[:len(dc_carry)] += dc_carry
            dp, sig = d_pre[lo:hi], d_sig[lo:hi]
            np.multiply(dc * c_hat[lo:hi], sig[:, :h], out=dp[:, :h])
            np.multiply(dc * c_prev[lo:hi], sig[:, h:2 * h],
                        out=dp[:, h:2 * h])
            np.multiply(dh * c_tanh[lo:hi], sig[:, 2 * h:],
                        out=dp[:, 2 * h:3 * h])
            np.multiply(dc * i_g[lo:hi], d_tanh[lo:hi], out=dp[:, 3 * h:])
            dh_carry, dc_carry = dp @ w_h.T, dc * f_g[lo:hi]
        d_rows = np.empty_like(d_pre)
        d_rows[slots] = d_pre
        if x.requires_grad:
            _accum(x, d_rows @ w_x.T, owned=True)
        if w_all.requires_grad:
            _accum(w_all, np.vstack([hs[packing.prev].T @ d_pre[first:],
                                     x.data.T @ d_rows]), owned=True)
        if b_all.requires_grad:
            _accum(b_all, d_pre.sum(axis=0, keepdims=True), owned=True)

    return _node(out, (x, w_all, b_all), bw)


def packed_dropout(a: Tensor, rate: float, training: bool,
                   rng: np.random.Generator | None,
                   packing: ag.Packing) -> Tensor:
    """autograd.dropout as it was when it masked one tensor, into a fresh
    array, and was the identity map when not training or rate is 0."""
    test = ag._dropout_mask(rate, training, rng)
    if test is None:
        return a
    scale = 1.0 / (1.0 - rate)
    keep = np.concatenate([test((packing.steps, a.shape[1]))[:n]
                           for n in packing.lengths.tolist()])

    def bw(g):
        if a.requires_grad:
            _accum(a, g * keep * scale, owned=True)

    return _node(a.data * keep * scale, (a,), bw)


# --- the padded sequence ops ---------------------------------------------------
#
# The model's attention and LSTM ops before they ran on packed rows.  Both
# take a batch of B sequences padded to T steps as [B*T x cols], row
# b*T + t holding step t of sequence b, with each sequence's true length.


def _dropout_mask(shape, rate: float, training: bool,
                  rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout factors of one draw, or None for the identity map."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def padded_dropout(a: Tensor, rate: float, training: bool,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout of [B*T x cols] rows, the mask drawn over all rows;
    the identity map when not training or rate is 0."""
    mask = _dropout_mask(a.shape, rate, training, rng)
    if mask is None:
        return a

    def bw(g):
        if a.requires_grad:
            _accum(a, g * mask)

    return _node(a.data * mask, (a,), bw)


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
    x = ag.gather_rows(params.embedding, padded_indices(paths, T))
    inputs = padded_attention(x, x, x, lengths, cfg.heads, cfg.attn_dropout,
                              training, rng)
    for layer, (fwd, bwd) in enumerate(params.lstm):
        if layer:
            inputs = padded_dropout(concat([out_f, out_b], axis=1),
                                    cfg.lstm_dropout, training, rng)
        out_f = padded_lstm_direction(inputs, *fwd, lengths)
        out_b = padded_lstm_direction(inputs, *bwd, lengths, reverse=True)
    firsts = np.arange(len(lengths)) * T
    return concat([ag.gather_rows(out_f, firsts + T - 1),
                   ag.gather_rows(out_b, firsts)], axis=1)


# --- graph side: dense renormalized adjacency -----------------------------------

def dense_gcn_nodes(graph, params, cfg) -> Tensor:
    """[node_count x d_out] node features through the dense renormalized Â."""
    adj = Tensor(graph.norm_adj)
    h = relu(matmul(adj, ag.gather_rows(params.gcn[0], graph.node_kinds)))
    for w in params.gcn[1:]:
        h = relu(matmul(adj, matmul(h, w)))
    return h


def dense_graph_oracle(graph, params, cfg) -> Tensor:
    """Mean-pooled [1 x d_out] graph features over the nodes."""
    return ag.segment_pool(dense_gcn_nodes(graph, params, cfg),
                           [graph.node_count])


# --- sequence side: one tape chain per head and per step ------------------------


def attention_mask(L: int, true_length: int) -> Tensor | None:
    if true_length >= L:
        return None
    row = np.zeros((1, L))
    row[0, true_length:] = -np.inf
    return Tensor(row)


def attend_one(x: Tensor, mask: Tensor | None, cfg) -> Tensor:
    """Multi-head attention over one sample's [L x d] rows, eval mode, with
    Q = K = V = x."""
    hd = cfg.d // cfg.heads
    heads_out = []
    for head in range(cfg.heads):
        q = slice_cols(x, head * hd, (head + 1) * hd)
        scores = scale(matmul(q, transpose(q)), 1.0 / math.sqrt(hd))
        if mask is not None:
            scores = add(scores, mask)
        heads_out.append(matmul(softmax_rows(scores), q))
    return concat(heads_out, axis=1) if len(heads_out) > 1 else heads_out[0]


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
        pre = add(matmul(concat([h, xs[t]], axis=1), w_all), b_all)
        i_g = sigmoid(slice_cols(pre, 0, h_dim))
        f_g = sigmoid(slice_cols(pre, h_dim, 2 * h_dim))
        o_g = sigmoid(slice_cols(pre, 2 * h_dim, 3 * h_dim))
        c_hat = tanh(slice_cols(pre, 3 * h_dim, 4 * h_dim))
        c_new = add(mul(f_g, c), mul(i_g, c_hat))
        live, dead = masks[t]
        c = c_new if live is None else add(mul(c_new, live), mul(c, dead))
        h_new = mul(o_g, tanh(c))
        h = h_new if live is None else add(mul(h_new, live), mul(h, dead))
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
        inputs = [concat([f, b], axis=1) for f, b in zip(outs_f, outs_b)]
    return concat([final_fwd, final_bwd], axis=1)


def composed_sequence(paths, params, cfg) -> Tensor:
    """[B x 2h] sequence features of a batch, eval mode, op by op."""
    L = cfg.L
    lengths = [p.true_length for p in paths]
    x_all = ag.gather_rows(params.embedding, padded_indices(paths, L))
    atts = [attend_one(slice_rows(x_all, b * L, (b + 1) * L),
                       attention_mask(L, n), cfg)
            for b, n in enumerate(lengths)]
    att_all = concat(atts, axis=0) if len(atts) > 1 else atts[0]
    base = np.arange(len(paths)) * L
    steps = [ag.gather_rows(att_all, base + t) for t in range(max(lengths))]
    return _bilstm_over_steps(steps, lengths, params, cfg)


# --- the whole model ---------------------------------------------------------------


def _classify(sequence, pairs, params, cfg) -> Tensor:
    """The softmax head over the sequence features (or None) and one
    dense graph oracle per sample, sequence side first."""
    features = [] if sequence is None else [sequence]
    if cfg.uses_graph:
        features.append(concat([dense_graph_oracle(g, params, cfg)
                                for _, g in pairs], axis=0))
    return composed_classify(features, params.clf_w, params.clf_b)


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
    | (?P<block_comment>/\*.*?(?:\*/|\Z))  # an unterminated one runs to the end of the text
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


# --- the walks over a graph of AstNode objects ---------------------------------

def unflatten(tree: FlatTree) -> AstNode:
    """The node graph of a flat tree; children keep their pre-order order."""
    nodes = [AstNode(kind) for kind in tree.kinds]
    for child, parent in enumerate(tree.parents):
        if parent >= 0:
            nodes[parent].children.append(nodes[child])
    return nodes[0]


def load_ast_sexpr(text: str) -> AstNode:
    i, n = 0, len(text)
    root: AstNode | None = None
    stack: list[AstNode] = []
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            start = i
            i += 1
            while i < n and text[i].isspace():
                i += 1
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            if j == i:
                raise MalformedSExpr("empty kind", start)
            node = AstNode(sys.intern(text[i:j]))
            if stack:
                stack[-1].children.append(node)
            elif root is not None:
                raise MalformedSExpr("multiple root trees", start)
            else:
                root = node
            stack.append(node)
            i = j
        elif c == ")":
            if not stack:
                raise MalformedSExpr("unbalanced ')'", i)
            stack.pop()
            i += 1
        else:
            raise MalformedSExpr(f"unexpected character {c!r}", i)
    if stack:
        raise MalformedSExpr("unbalanced '(': tree left open", n)
    if root is None:
        raise MalformedSExpr("no tree found", 0)
    return root


def preorder(root: AstNode):
    """Yield nodes in pre-order: node first, then subtrees left to right."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def node_count(root: AstNode) -> int:
    return sum(1 for _ in preorder(root))


_KIND_FORBIDDEN = set("() \t\r\n")


def render_sexpr(root: AstNode, pretty: bool = False) -> str:
    out: list[str] = []
    # stack entries: (node, depth) or the literal ")" sentinel
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if item == ")":
            out.append(")")
            continue
        node, depth = item
        if any(ch in _KIND_FORBIDDEN for ch in node.kind):
            raise ValueError(f"kind {node.kind!r} cannot be rendered")
        if out:
            out.append("\n" + "  " * depth if pretty else " ")
        out.append(f"({node.kind}")
        stack.append(")")
        for child in reversed(node.children):
            stack.append((child, depth + 1))
    return "".join(out)


def unify_ast(root: AstNode, language: str, table) -> AstNode:
    section = table.sections.get(_canon_language(language))
    if section:
        stack = [root]
        while stack:
            node = stack.pop()
            node.kind = section.get(node.kind, node.kind)
            stack.extend(node.children)
    return root


def build_vocabulary(corpus) -> Vocabulary:
    stack = list(corpus)
    if not stack:
        raise EmptyCorpus("cannot build a vocabulary from zero trees")
    seen: set[str] = set()
    while stack:
        node = stack.pop()
        seen.add(node.kind)
        stack.extend(node.children)
    return Vocabulary(tuple(sorted(seen)))


def featurize_sample(ast: AstNode, vocab: Vocabulary, L: int,
                     N: int) -> tuple[PathSequence, GraphSample]:
    if L < 1 or N < 1:
        raise ValueError(f"L and N must be >= 1, got L={L} N={N}")
    limit = max(L, N)
    index, unk = vocab.index, vocab.unk_index
    kinds, parents = [], []  # kind indices and parents' indices, in pre-order
    nodes, stacked = [ast], [-1]  # a stack of nodes, with their parents' indices
    while nodes and len(kinds) < limit:
        node, parent, count = nodes.pop(), stacked.pop(), len(kinds)
        kinds.append(index.get(node.kind, unk))
        parents.append(parent)
        if node.children:
            nodes.extend(reversed(node.children))
            stacked.extend([count] * len(node.children))
    prefix = np.array(kinds, dtype=np.int64)
    # a parent precedes its children, so node i's edge is row i - 1
    n = min(len(kinds), N)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    edges[:, 0] = parents[1:n]
    edges[:, 1] = np.arange(1, n)
    return PathSequence(prefix[:L]), GraphSample(prefix[:N], edges)
