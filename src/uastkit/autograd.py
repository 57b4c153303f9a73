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

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return neg(self)


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a.shape, b.shape):
        raise ShapeMismatch(f"sub: {a.shape} vs {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape))

    return _node(a.data - b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accum(a, -g)

    return _node(-a.data, (a,), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a.shape, b.shape):
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), bw)


def scale(a: Tensor, alpha: float, shift: float = 0.0) -> Tensor:
    """alpha * a + shift, with python-float coefficients."""

    def bw(g):
        if a.requires_grad:
            _accum(a, g * alpha)

    return _node(alpha * a.data + shift, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            _accum(a, g.T)

    return _node(np.ascontiguousarray(a.data.T), (a,), bw)


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


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        bad = idx[(idx < 0) | (idx >= table.shape[0])][0]
        raise IndexOutOfVocab(
            f"index {bad} outside embedding table of {table.shape[0]} rows")
    return gather_rows(table, idx)


# --- nonlinearities ---------------------------------------------------------

def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def dropout(a: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; the identity map when not training or rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * mask)

    return _node(a.data * mask, (a,), bw)


# --- reductions --------------------------------------------------------------

def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad += g[0, 0]

    return _node(np.array([[a.data.sum()]]), (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    size = a.data.size

    def bw(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad += g[0, 0] / size

    return _node(np.array([[a.data.mean()]]), (a,), bw)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    if axis not in (0, 1):
        raise ShapeMismatch(f"sum_axis: axis must be 0 or 1, got {axis}")

    def bw(g):
        if a.requires_grad:
            _accum(a, np.broadcast_to(g, a.data.shape))

    return _node(a.data.sum(axis=axis, keepdims=True), (a,), bw)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    if axis not in (0, 1):
        raise ShapeMismatch(f"mean_axis: axis must be 0 or 1, got {axis}")
    n = a.data.shape[axis]

    def bw(g):
        if a.requires_grad:
            _accum(a, np.broadcast_to(g / n, a.data.shape))

    return _node(a.data.mean(axis=axis, keepdims=True), (a,), bw)


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
