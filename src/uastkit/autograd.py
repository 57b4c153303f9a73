"""Dense 2D tensor core with reverse-mode differentiation.

Everything is a [rows x cols] float64 matrix; scalars live as [1,1].  Ops
record a backward closure on the output when any input participates in
gradient computation, so constant subgraphs (masks, one-hot labels) cost
nothing on the tape; graph structure enters as integer edge lists.

backward() accumulates into .grad: calling it twice without zero_grads in
between doubles the gradients.  Pass accumulate=False to reset the grads of
every tensor reachable from the loss first.
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


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
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
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), bw)


def scale(a: Tensor, alpha: float) -> Tensor:
    """alpha * a, with a python-float coefficient."""

    def bw(g):
        if a.requires_grad:
            _accum(a, g * alpha)

    return _node(alpha * a.data, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

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


def propagate(h: Tensor, edges: np.ndarray) -> Tensor:
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

def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # e^-x = inf below -709 gives 0
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_values(a.data)

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


def log(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accum(a, g / a.data)

    return _node(np.log(a.data), (a,), bw)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accum(a, g * (a.data >= floor))

    return _node(np.maximum(a.data, floor), (a,), bw)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        if a.requires_grad:
            tmp = g * s
            _accum(a, tmp - s * tmp.sum(axis=1, keepdims=True))

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
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; the identity map when not training or rate is 0."""
    mask = _dropout_mask(a.data.shape, rate, training, rng)
    if mask is None:
        return a

    def bw(g):
        if a.requires_grad:
            _accum(a, g * mask)

    return _node(a.data * mask, (a,), bw)


# --- fused sequence ops ------------------------------------------------------
#
# Both take a batch of B sequences padded to T steps as [B*T x cols], row
# b*T + t holding step t of sequence b, with each sequence's true length.
# Each records one tape node with a hand-written backward.

def _sequence_batch(x: Tensor, lengths) -> tuple[np.ndarray, int]:
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    if lengths.size == 0 or x.shape[0] % lengths.size:
        raise ShapeMismatch(
            f"{x.shape[0]} rows do not split into {lengths.size} sequences")
    steps = x.shape[0] // lengths.size
    if lengths.min() < 1 or lengths.max() > steps:
        raise ShapeMismatch(f"lengths {lengths.tolist()} outside [1, {steps}]")
    return lengths, steps


def attention(q: Tensor, k: Tensor, v: Tensor, lengths, heads: int,
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


def lstm_direction(x: Tensor, w_all: Tensor, b_all: Tensor, lengths,
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
        act[:, :3 * h] = _sigmoid_values(act[:, :3 * h])
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


# --- reductions --------------------------------------------------------------

def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad += g[0, 0]

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

    _accum(loss, np.ones((1, 1)))
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)

    for node, old in stash:
        if node.grad is None:
            node.grad = old
        else:
            node.grad += old


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
