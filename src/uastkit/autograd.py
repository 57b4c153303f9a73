"""Dense 2D tensor core with reverse-mode differentiation.

Everything is a [rows x cols] float64 matrix; scalars live as [1,1].  Ops
record a backward closure on the output when any input participates in
gradient computation, so constant subgraphs (masks, one-hot labels) cost
nothing on the tape.  Graph structure enters as a Graph: Â's weights and
scatter rounds, built once per batch from an integer edge list; gcn_layer
records a whole GCN layer, act(Â H W), as one tape node.

backward() accumulates into .grad: calling it twice without zero_grads in
between doubles the gradients.  Pass accumulate=False to reset the grads of
every tensor reachable from the loss first.  A first gradient is stored as
g + 0.0 (-0.0 becomes 0.0): in place, adopting g, when a backward pass made
g for that input alone (owned); in a copy when g is the output's gradient
or a view of it, as add and concat pass on.  No two .grad share memory.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    IndexOutOfVocab,
    LabelOutOfRange,
    MissingGradient,
    NonScalarLoss,
    ShapeMismatch,
)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"tensors are strictly 2D, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @classmethod
    def scalar(cls, value: float, requires_grad: bool = False) -> "Tensor":
        return cls(np.array([[float(value)]]), requires_grad)

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise NonScalarLoss(f"item() needs shape (1,1), got {self.data.shape}")
        return float(self.data[0, 0])

    def backward(self, accumulate: bool = True) -> None:
        backward(self, accumulate=accumulate)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=g if owned else np.empty_like(t.data))
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _broadcastable(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


# --- arithmetic -------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a.shape, b.shape):
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _node(a.data + b.data, (a, b), bw)


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T, owned=True)
        if b.requires_grad:
            _accum(b, a.data.T @ g, owned=True)

    return _node(a.data @ b.data, (a, b), bw)


# --- structure --------------------------------------------------------------

def concat(tensors: list[Tensor], axis: int) -> Tensor:
    if axis not in (0, 1):
        raise ShapeMismatch(f"concat: axis must be 0 or 1, got {axis}")
    if not tensors:
        raise ShapeMismatch("concat: empty input list")
    other = 1 - axis
    base = tensors[0].shape[other]
    for t in tensors[1:]:
        if t.shape[other] != base:
            raise ShapeMismatch(
                f"concat axis {axis}: {tensors[0].shape} vs {t.shape}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            piece = g[start:stop] if axis == 0 else g[:, start:stop]
            _accum(t, piece)

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), bw)


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64).ravel()

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

    return _node(a.data[idx], (a,), bw)


class Graph:
    """Â = D^-1/2 (A + I) D^-1/2 for an [E x 2] edge list over n nodes.

    Each scatter direction splits into rounds, round r holding every
    target's r-th occurrence in edge order: no round repeats a target, and
    the rounds in turn do np.add.at's additions in its order.
    """

    def __init__(self, edges, n: int):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ShapeMismatch(f"Graph: an edge endpoint is outside [0, {n})")
        src, dst = edges[:, 0], edges[:, 1]
        deg = 1.0 + np.bincount(edges.ravel(), minlength=n)
        # 1 / sqrt(d_i * d_j), bit for bit as the dense form has them
        self.self_w = (1.0 / np.sqrt(deg * deg))[:, None]
        edge_w = (1.0 / np.sqrt(deg[src] * deg[dst]))[:, None]
        self.rounds = []  # (to, frm, weights) per round
        for to, frm in ((src, dst), (dst, src)):
            # each edge's rank: how many edges before it share its target
            order = np.argsort(to, kind="stable")
            rank, ranked = np.empty_like(to), to[order]
            rank[order] = np.arange(to.size) - np.searchsorted(ranked, ranked)
            for pos in np.split(np.argsort(rank, kind="stable"),
                                np.cumsum(np.bincount(rank))[:-1]):
                self.rounds.append((to[pos], frm[pos], edge_w[pos]))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Â x: the self term, then each round's out[to] += w * x[frm]."""
        if len(x) != len(self.self_w):
            raise ShapeMismatch(f"{len(x)} rows for {len(self.self_w)} nodes")
        out = self.self_w * x
        work = np.empty((2,) + x.shape)
        for to, frm, w in self.rounds:
            term, acc = work[0, :to.size], work[1, :to.size]
            np.take(x, frm, axis=0, out=term, mode="clip")
            term *= w
            np.take(out, to, axis=0, out=acc, mode="clip")
            out[to] = np.add(acc, term, out=acc)
        return out


def gcn_layer(h: Tensor, w: Tensor, graph: Graph | None,
              activation: str) -> Tensor:
    """act(Â h w) as one tape node, or act(h w) when graph is None: a first
    layer whose h is the constant Â X.  act (relu, sigmoid or tanh) runs in
    place, and the node keeps only its output y, from which the backward
    pass takes act'; Â is symmetric, so that pass multiplies by Â too."""
    if h.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"gcn_layer: {h.shape} @ {w.shape}")
    y = h.data @ w.data if graph is None else graph.apply(h.data @ w.data)
    if activation == "relu":
        np.maximum(y, 0.0, out=y)
    elif activation == "sigmoid":
        with np.errstate(over="ignore"):
            _sigmoid(y, y)
    elif activation == "tanh":
        np.tanh(y, out=y)
    else:
        raise ValueError(f"gcn_layer: unknown activation {activation!r}")

    def bw(g):
        d = (g * (y > 0) if activation == "relu" else
             g * y * (1.0 - y) if activation == "sigmoid" else
             g * (1.0 - y * y))
        if graph is not None:
            d = graph.apply(d)
        if h.requires_grad:
            _accum(h, d @ w.data.T, owned=True)
        if w.requires_grad:
            _accum(w, h.data.T @ d, owned=True)

    return _node(y, (h, w), bw)


def segment_pool(a: Tensor, counts, mean: bool) -> Tensor:
    """[len(counts) x cols]: sum or mean of consecutive row segments of a.

    Segment i covers the counts[i] rows after the previous segments; rows
    past sum(counts) take no part.
    """
    counts = np.asarray(counts, dtype=np.int64).ravel()
    if counts.size == 0 or counts.min() < 1 or counts.sum() > a.shape[0]:
        raise ShapeMismatch(f"segment_pool: counts {counts.tolist()} "
                            f"over {a.shape[0]} rows")
    total = int(counts.sum())
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out = np.add.reduceat(a.data[:total], starts, axis=0)
    if mean:
        out = out / counts[:, None]

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            per_row = g / counts[:, None] if mean else g
            a.grad[:total] += np.repeat(per_row, counts, axis=0)

    return _node(out, (a,), bw)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        bad = idx[(idx < 0) | (idx >= table.shape[0])][0]
        raise IndexOutOfVocab(
            f"index {bad} outside embedding table of {table.shape[0]} rows")
    return gather_rows(table, idx)


# --- nonlinearities ---------------------------------------------------------

def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = 1 / (1 + e^-x), where out may be x.  e^-x = inf below -709
    gives 0; the caller enters np.errstate(over="ignore") for that."""
    np.exp(np.negative(x, out=out), out=out)
    return np.divide(1.0, np.add(out, 1.0, out=out), out=out)


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


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        if a.requires_grad:
            tmp = g * s
            _accum(a, tmp - s * tmp.sum(axis=1, keepdims=True), owned=True)

    return _node(s, (a,), bw)


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


def dropout(a: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None,
            packing: "Packing | None" = None) -> Tensor:
    """Inverted dropout; the identity map when not training or rate is 0.

    With a packing, a holds a packed batch's rows: the mask is drawn over
    the padded [B*T x cols] layout, and each row takes its padded row's.
    """
    rows = a.shape[0] if packing is None else packing.batch * packing.steps
    mask = _dropout_mask((rows, a.shape[1]), rate, training, rng)
    if mask is None:
        return a
    mask = mask if packing is None else mask[packing.padded]

    def bw(g):
        if a.requires_grad:
            _accum(a, g * mask, owned=True)

    return _node(a.data * mask, (a,), bw)


# --- packed sequence ops -----------------------------------------------------
#
# A batch of B sequences lies in [S x cols] rows, sequence b at rows
# starts[b] : starts[b] + lengths[b], like the graph side's disjoint union.
# Each op records one tape node with a hand-written backward.

class Packing:
    """The row bookkeeping of one packed batch, computed once per batch.

    A recurrence visits rows in time-major slots, longest sequence first
    (stable), so step t's live[t] sequences are a prefix of step t-1's.
    spans holds each step's (first slot, count); prev, each later slot's
    slot one step earlier; slots[reverse], each slot's row, stepping back
    from each end when reverse; padded, each row's b*T + t, T = max length.
    """

    def __init__(self, lengths):
        n = np.asarray(lengths, dtype=np.int64).ravel()
        if n.size == 0 or n.min() < 1:
            raise ShapeMismatch(f"lengths {n.tolist()} must all be >= 1")
        self.lengths, self.batch, self.steps = n, n.size, int(n.max())
        self.total = int(n.sum())
        self.starts = np.cumsum(n) - n
        order = np.argsort(-n, kind="stable")
        step, seq = np.nonzero(np.arange(self.steps)[:, None] < n[order])
        seq = order[seq]
        self.live = np.bincount(step)
        self.spans = list(zip((np.cumsum(self.live) - self.live).tolist(),
                              self.live.tolist()))
        self.prev = (np.arange(self.live[0], self.total)
                     - np.repeat(self.live[:-1], self.live[1:]))
        self.slots = (self.starts[seq] + step,
                      self.starts[seq] + n[seq] - 1 - step)
        self.padded = np.arange(self.total) + np.repeat(
            np.arange(self.batch) * self.steps - self.starts, n)


def attention(q: Tensor, k: Tensor, v: Tensor, packing: Packing, heads: int,
              rate: float = 0.0, training: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head self-attention within each sequence of a packed batch.

    q, k and v are [S x d] and may be one tensor.  Head j uses columns
    j*d/heads to (j+1)*d/heads: per sequence, softmax(q k^T / sqrt(d/heads))
    over its own keys, under inverted dropout, times v.  The dropout mask
    is drawn once over [B, heads, T, T]; sequence b uses [b, :, :n_b, :n_b].
    """
    rows, d = q.shape
    if (rows != packing.total or k.shape != q.shape or v.shape != q.shape
            or d % heads):
        raise ShapeMismatch(f"attention: q {q.shape}, k {k.shape}, v "
                            f"{v.shape}, {heads} heads, {packing.total} rows")
    hd = d // heads
    inv_sqrt = 1.0 / np.sqrt(hd)
    mask = _dropout_mask((packing.batch, heads, packing.steps, packing.steps),
                         rate, training, rng)
    spans = [slice(s, s + n) for s, n in
             zip(packing.starts.tolist(), packing.lengths.tolist())]

    def by_head(a: np.ndarray) -> np.ndarray:  # [S x d] -> [heads, S, hd]
        return a.reshape(rows, heads, hd).transpose(1, 0, 2)

    qs, ks, vs = by_head(q.data), by_head(k.data), by_head(v.data)
    out = np.empty((heads, rows, hd))
    saved = []  # per sequence: probs, dropout factors, weights
    for b, span in enumerate(spans):
        n = span.stop - span.start
        probs = qs[:, span] @ ks[:, span].transpose(0, 2, 1)
        probs *= inv_sqrt
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        drop = None if mask is None else mask[b, :, :n, :n]
        weights = probs if drop is None else probs * drop
        out[:, span] = weights @ vs[:, span]
        saved.append((probs, drop, weights))

    def bw(g):
        gs, grads = by_head(g), np.empty((3, heads, rows, hd))
        for span, (probs, drop, weights) in zip(spans, saved):
            d_scores = gs[:, span] @ vs[:, span].transpose(0, 2, 1)
            if drop is not None:
                d_scores *= drop
            d_scores *= probs
            d_scores -= probs * d_scores.sum(axis=-1, keepdims=True)
            d_scores *= inv_sqrt
            grads[0][:, span] = d_scores @ ks[:, span]
            grads[1][:, span] = d_scores.transpose(0, 2, 1) @ qs[:, span]
            grads[2][:, span] = weights.transpose(0, 2, 1) @ gs[:, span]
        for t, grad in zip((q, k, v), grads):
            if t.requires_grad:
                _accum(t, grad.transpose(1, 0, 2).reshape(rows, d), owned=True)

    return _node(out.transpose(1, 0, 2).reshape(rows, d), (q, k, v), bw)


def lstm_direction(x: Tensor, w_all: Tensor, b_all: Tensor, packing: Packing,
                   reverse: bool = False) -> Tensor:
    """One direction of an LSTM layer over a packed batch, as [S x h] states.

    x is [S x in]; w_all is [(h + in) x 4h], recurrent rows first, and
    b_all is [1 x 4h], gate columns in the order i, f, o, c.  Each sequence
    starts from a zero state at its first row, or at its last when reverse.
    Every row's input projection is one GEMM before the recurrence, whose
    step t updates only the packing's live[t] sequences.
    """
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


# --- reductions --------------------------------------------------------------

def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accum(a, np.full(a.shape, g[0, 0]), owned=True)

    return _node(np.array([[a.data.sum()]]), (a,), bw)


# --- loss --------------------------------------------------------------------

def cross_entropy_loss(probs: Tensor, labels) -> Tensor:
    """Mean over the batch of -log(p_label), probabilities clamped at 1e-12.

    probs is [B x k]; labels is an int sequence of length B.  With B = 1
    this is exactly -log(p_label).  Composed from primitive ops so the
    gradient flows through the same machinery as everything else.
    """
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
    return scale(sum_all(picked), -1.0 / batch)


# --- reverse pass -------------------------------------------------------------

def backward(loss: Tensor, accumulate: bool = True) -> None:
    """Populate .grad on every requires_grad ancestor of a scalar loss.

    Gradients add into any existing .grad arrays; with accumulate=False the
    grads of the reachable subgraph are cleared first.
    """
    if loss.data.shape != (1, 1):
        raise NonScalarLoss(f"backward needs a (1,1) loss, got {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    # each pass runs on fresh buffers; prior grads are added back at the end
    # so one call contributes exactly one unit of loss gradient
    stash: list[tuple[Tensor, np.ndarray]] = []
    for node in topo:
        if node.grad is not None:
            if accumulate:
                stash.append((node, node.grad))
            node.grad = None

    _accum(loss, np.ones((1, 1)), owned=True)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)

    for node, old in stash:
        _accum(node, old)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
