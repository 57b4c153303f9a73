"""Dense 2D tensor core with reverse-mode differentiation.

Everything is a [rows x cols] float64 matrix; scalars live as [1,1].  Ops
record a backward closure on the output when any input participates in
gradient computation, so constant subgraphs (masks, Â X) cost nothing on
the tape.  Graph structure enters as a Graph: Â's weights and scatter
rounds, built once per batch from an integer edge list; gcn_layer records
a whole GCN layer, relu(Â H W), as one tape node, classify the whole
softmax head over the joined features, and cross_entropy_loss the whole
loss.

backward() consumes the tape: it drops each closure and each interior
.grad once the closure has run, so a node saves only what its backward
pass cannot recompute bit for bit, and that pass may write over what its
node saved, and over the gradient g it is handed, and drop them early.
So no node of the sequence ops keeps what a backward pass never reads:
attention gathers its rows from the embedding table itself, dropout joins
its inputs into the array it masks, and lstm_direction keeps its gates,
from which its backward pass recomputes the cell states.
.grad stays on leaves only, the tensors with no backward function, and
accumulates over tapes until zero_grads.  _accum is the only op code that
writes .grad: each backward pass hands it an input's gradient g.  A first
gradient is stored as g + 0.0 (-0.0 becomes 0.0): in place, adopting g,
when a backward pass made g for that input alone (owned), as the row
scatters of gather_rows, segment_pool and attention do into a fresh zero
array; in a copy when g is the output's gradient or a view of it, as add
and a join (dropout's, classify's) pass on.  A later gradient is added.
No two .grad share memory.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import (
    IndexOutOfVocab,
    LabelOutOfRange,
    NonScalarLoss,
    ShapeMismatch,
    UastError,
)


def _keep_freed_memory() -> None:
    """Keep freed memory in glibc's heap, so each step reuses pages already
    mapped (see the README).  A no-op without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD: no mappings under 1 GiB
    mallopt(-1, -1)  # M_TRIM_THRESHOLD: never trim the heap


_keep_freed_memory()


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

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise NonScalarLoss(f"item() needs shape (1,1), got {self.data.shape}")
        return float(self.data[0, 0])

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


# --- arithmetic -------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, of one shape.  Nothing in the package calls it; it stays
    because the benchmark's per-layer probe (perfbench/layers.py) sums
    with it."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return _node(a.data + b.data, (a, b), bw)


# --- structure --------------------------------------------------------------

def _join(tensors: list[Tensor]):
    """The tensors' arrays side by side in one fresh array, and the
    backward function that hands each tensor its columns of a gradient."""
    if not tensors:
        raise ShapeMismatch("join: empty input list")
    for t in tensors[1:]:
        if t.shape[0] != tensors[0].shape[0]:
            raise ShapeMismatch(f"join: {tensors[0].shape} vs {t.shape}")
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors])

    def bw(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accum(t, g[:, start:stop])

    return np.concatenate([t.data for t in tensors], axis=1), bw


def _rows(table: Tensor, indices) -> np.ndarray:
    """indices as int64 rows of table, refusing one outside it."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        bad = idx[(idx < 0) | (idx >= table.shape[0])][0]
        raise IndexOutOfVocab(
            f"index {bad} outside a table of {table.shape[0]} rows")
    return idx


def gather_rows(a: Tensor, indices) -> Tensor:
    """a's rows at indices, refusing one outside a; the backward pass adds
    them into a fresh zero array with np.add.at, in row order."""
    idx = _rows(a, indices)

    def bw(g):
        d = np.zeros_like(a.data)
        np.add.at(d, idx, g)
        _accum(a, d, owned=True)

    return _node(a.data[idx], (a,), bw)


class Graph:
    """Â = D^-1/2 (A + I) D^-1/2 for an [E x 2] edge list over n nodes.

    Each scatter direction splits into rounds, round r holding every
    target's r-th occurrence in edge order: no round repeats a target, and
    the rounds in turn do np.add.at's additions in its order.  A round
    longer than CHUNK rows runs as consecutive parts of at most CHUNK, so
    apply's work buffers stay small and in cache.
    """

    CHUNK = 256

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
                for part in np.split(pos, range(self.CHUNK, pos.size,
                                                self.CHUNK)):
                    self.rounds.append((to[part], frm[part], edge_w[part]))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Â x written over x, which it returns: the self term, then each
        round's x[to] += w * x0[frm], x0 a copy of x taken first."""
        if len(x) != len(self.self_w):
            raise ShapeMismatch(f"{len(x)} rows for {len(self.self_w)} nodes")
        x0 = x.copy()
        np.multiply(x, self.self_w, out=x)
        work = np.empty((2, min(len(x), self.CHUNK), x.shape[1]))
        for to, frm, w in self.rounds:
            term, acc = work[0, :to.size], work[1, :to.size]
            np.take(x0, frm, axis=0, out=term, mode="clip")
            term *= w
            np.take(x, to, axis=0, out=acc, mode="clip")
            x[to] = np.add(acc, term, out=acc)
        return x


def gcn_layer(h: Tensor, w: Tensor, graph: Graph | None) -> Tensor:
    """relu(Â h w) as one tape node, or relu(h w) when graph is None: a
    first layer whose h is the constant Â X.  The ReLU runs in place, and
    the node keeps only its output y, whose positive entries pass the
    gradient; Â is symmetric, so the backward pass multiplies by Â too.
    Both passes propagate in place: the forward pass over the fresh h w,
    the backward pass over the consumed g, which it masks in place."""
    if h.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"gcn_layer: {h.shape} @ {w.shape}")
    y = h.data @ w.data if graph is None else graph.apply(h.data @ w.data)
    np.maximum(y, 0.0, out=y)

    def bw(g):
        np.multiply(g, y > 0, out=g)
        if graph is not None:
            graph.apply(g)
        if h.requires_grad:
            _accum(h, g @ w.data.T, owned=True)
        if w.requires_grad:
            _accum(w, h.data.T @ g, owned=True)

    return _node(y, (h, w), bw)


def segment_pool(a: Tensor, counts) -> Tensor:
    """[len(counts) x cols]: the mean of consecutive row segments of a.

    Segment i covers the counts[i] rows after the previous segments; rows
    past sum(counts) take no part.
    """
    counts = np.asarray(counts, dtype=np.int64).ravel()
    if counts.size == 0 or counts.min() < 1 or counts.sum() > a.shape[0]:
        raise ShapeMismatch(f"segment_pool: counts {counts.tolist()} "
                            f"over {a.shape[0]} rows")
    total = int(counts.sum())
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out = np.add.reduceat(a.data[:total], starts, axis=0) / counts[:, None]

    def bw(g):
        d = np.zeros_like(a.data)
        d[:total] = np.repeat(g / counts[:, None], counts, axis=0)
        _accum(a, d, owned=True)

    return _node(out, (a,), bw)


# --- nonlinearities ---------------------------------------------------------

def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = 1 / (1 + e^-x), where out may be x.  e^-x = inf below -709
    gives 0; the caller enters np.errstate(over="ignore") for that."""
    np.exp(np.negative(x, out=out), out=out)
    return np.divide(1.0, np.add(out, 1.0, out=out), out=out)


def _dropout_mask(rate: float, training: bool,
                  rng: np.random.Generator | None):
    """None for the identity map, else the keep test: a shape's boolean
    draw.  x * keep * (1 / (1 - rate)) is bit for bit x times the float
    factors of that draw, -0.0 included."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    return lambda shape: rng.random(shape) >= rate


def dropout(parts: list[Tensor], rate: float, training: bool,
            rng: np.random.Generator | None, packing: "Packing") -> Tensor:
    """Inverted dropout over the parts joined side by side, a packed
    batch's rows, as one tape node; only the join when not training or
    rate is 0.  Each path in turn draws a [T x cols] mask, T the longest
    length, and keeps its first n_b rows as booleans: the stream of one
    padded [B*T x cols] draw.  The forward pass masks its fresh join in
    place, the backward pass the consumed g, with the bits of the concat
    and dropout it was once composed of (tests/oracle.py)."""
    test = _dropout_mask(rate, training, rng)
    out, join_bw = _join(parts)
    if test is None:
        return _node(out, tuple(parts), join_bw)
    scale = 1.0 / (1.0 - rate)
    keep = np.concatenate([test((packing.steps, out.shape[1]))[:n]
                           for n in packing.lengths.tolist()])
    np.multiply(out, keep, out=out)
    out *= scale

    def bw(g):
        np.multiply(g, keep, out=g)
        g *= scale
        join_bw(g)

    return _node(out, tuple(parts), bw)


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
    from each end when reverse.  steps is T, the longest length.
    """

    def __init__(self, lengths):
        n = np.asarray(lengths, dtype=np.int64).ravel()
        if n.size == 0 or n.min() < 1:
            raise ShapeMismatch(f"lengths {n.tolist()} must all be >= 1")
        self.lengths, self.steps, self.total = n, int(n.max()), int(n.sum())
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


def attention(table: Tensor, indices, packing: Packing, heads: int,
              rate: float = 0.0, training: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head self-attention within each sequence of a packed batch.

    The packed [S x d] input x is gather_rows(table, indices), and
    serves as the queries, keys and values.  Head j uses columns
    j*d/heads to (j+1)*d/heads: per sequence, softmax(x x^T /
    sqrt(d/heads)) over its own keys, under inverted dropout, times x.
    Sequence b in turn draws a [heads, T, T] mask, T the longest length,
    and keeps its [:, :n_b, :n_b] corner as booleans: the stream of one
    padded [B, heads, T, T] draw.  The node keeps the table, not x, and
    each row's largest score and sum and the masks.  Both passes gather
    one sequence's rows of x at a time and write each head through a
    view, with no transposing copy.  The backward pass recomputes the
    weights, writes the rows' gradient as queries, adds it as keys and as
    values, in the order an op taking q, k and v apart would, then adds
    it into the table's gradient with np.add.at in row order, as
    gather_rows does: the bits of those ops composed.  For x of its
    own, pass x as the table and np.arange(len(x)) as the indices.
    """
    idx = _rows(table, indices)
    d = table.shape[1]
    if idx.size != packing.total or d % heads:
        raise ShapeMismatch(f"attention: {idx.size} rows of {d} columns, "
                            f"{heads} heads, {packing.total} rows")
    hd, steps = d // heads, packing.steps
    inv_sqrt = 1.0 / np.sqrt(hd)
    test = _dropout_mask(rate, training, rng)
    scale = 1.0 / (1.0 - rate)
    spans = [slice(s, s + n) for s, n in
             zip(packing.starts.tolist(), packing.lengths.tolist())]

    def by_head(a: np.ndarray) -> np.ndarray:  # [n x d] -> [heads, n, hd]
        return a.reshape(len(a), heads, hd).transpose(1, 0, 2)

    def softmax(xs: np.ndarray, top=None, total=None):
        # per head over one sequence; bw passes in the forward's max and sum
        probs = xs @ xs.transpose(0, 2, 1)
        probs *= inv_sqrt
        top = probs.max(axis=-1, keepdims=True) if top is None else top
        probs -= top
        np.exp(probs, out=probs)
        total = probs.sum(axis=-1, keepdims=True) if total is None else total
        probs /= total
        return probs, top, total

    out = np.empty((packing.total, d))
    saved = []  # per sequence: each row's largest score and sum, and keep
    for span in spans:
        n = span.stop - span.start
        xs = by_head(table.data[idx[span]])
        probs, top, total = softmax(xs)
        keep = None if test is None else test((heads, steps, steps))[
            :, :n, :n].copy()
        weights = probs if keep is None else probs * keep * scale
        by_head(out[span])[:] = weights @ xs
        saved.append((top, total, keep))

    def bw(g):
        d_table = np.zeros_like(table.data)
        for span, (top, total, keep) in zip(spans, saved):
            xs, gs = by_head(table.data[idx[span]]), by_head(g[span])
            grad = np.empty((span.stop - span.start, d))
            dx = by_head(grad)
            probs = softmax(xs, top, total)[0]
            d_scores = gs @ xs.transpose(0, 2, 1)
            if keep is not None:
                d_scores *= keep * scale
            d_scores *= probs
            d_scores -= probs * d_scores.sum(axis=-1, keepdims=True)
            d_scores *= inv_sqrt
            dx[:] = d_scores @ xs
            dx += d_scores.transpose(0, 2, 1) @ xs
            weights = probs if keep is None else probs * keep * scale
            dx += weights.transpose(0, 2, 1) @ gs
            np.add.at(d_table, idx[span], grad)
        _accum(table, d_table, owned=True)

    return _node(out, (table,), bw)


def _cell_state(act: np.ndarray, cs: np.ndarray, lo: int, back: int,
                h: int) -> np.ndarray:
    """A step's c = i * c~ + f * c_prev, from its gate activations act, into
    cs at its slots from lo on; back is the step before's first slot, and
    a sequence's first step has no c_prev."""
    c = np.multiply(act[:, :h], act[:, 3 * h:], out=cs[lo:lo + len(act)])
    if lo:
        c += act[:, h:2 * h] * cs[back:back + len(act)]
    return c


def lstm_direction(x: Tensor, w_all: Tensor, b_all: Tensor, packing: Packing,
                   reverse: bool = False) -> Tensor:
    """One direction of an LSTM layer over a packed batch, as [S x h] states.

    x is [S x in]; w_all is [(h + in) x 4h], recurrent rows first, and
    b_all is [1 x 4h], gate columns in the order i, f, o, c.  Each sequence
    starts from a zero state at its first row, or at its last when reverse.
    Every row's input projection is one GEMM before the recurrence, whose
    step t updates only the packing's live[t] sequences.  The node keeps
    the gate activations and the output, not the cell states, which the
    backward pass first recomputes from the gates (_cell_state, with the
    forward's bits).  It then computes each step's factors from that
    step's slots and writes its pre-activation gradients over its gate
    rows; it drops the cell states before it allocates the row-ordered
    [S x 4h] gradient and x's.
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
    gates = x.data @ w_x
    gates = np.add(gates, b_all.data, out=gates)[slots]
    hs, cs = np.empty((rows, h)), np.empty((rows, h))
    back = 0  # the step before's first slot
    with np.errstate(over="ignore"):  # for the gates' sigmoid
        for lo, n in packing.spans:
            act = gates[lo:lo + n]
            if lo:
                act += hs[back:back + n] @ w_h
            _sigmoid(act[:, :3 * h], act[:, :3 * h])
            np.tanh(act[:, 3 * h:], out=act[:, 3 * h:])
            c = _cell_state(act, cs, lo, back, h)
            np.multiply(act[:, 2 * h:3 * h], np.tanh(c), out=hs[lo:lo + n])
            back = lo
    out = np.empty((rows, h))
    out[slots] = hs

    def bw(g):
        nonlocal gates
        i_, f_, o_, c_ = (slice(j * h, (j + 1) * h) for j in range(4))
        cs, back = np.empty((rows, h)), 0
        for lo, n in packing.spans:
            _cell_state(gates[lo:lo + n], cs, lo, back, h)
            back = lo
        # carried into the step before, whose first slots they update
        dh_carry = dc_carry = np.zeros((0, h))
        for t, (lo, n) in reversed(list(enumerate(packing.spans))):
            # the step's factors from its own slots; its d_pre then goes
            # over its gate rows, which no step before it reads
            dp, hi = gates[lo:lo + n], lo + n
            c_tanh = np.tanh(cs[lo:hi])
            sig = dp[:, :3 * h] * (1.0 - dp[:, :3 * h])
            d_tanh = 1.0 - dp[:, c_] * dp[:, c_]
            back = packing.spans[t - 1][0]  # the step before's first slot
            c_prev = cs[back:back + n] if t else np.zeros((n, h))
            dh = g[slots[lo:hi]]
            dh[:len(dh_carry)] += dh_carry
            dc = dh * (dp[:, o_] * (1.0 - c_tanh * c_tanh))
            dc[:len(dc_carry)] += dc_carry
            # the gates' own values are read before their rows are written
            d_i, d_c, dc_carry = dc * dp[:, c_], dc * dp[:, i_], dc * dp[:, f_]
            np.multiply(d_i, sig[:, i_], out=dp[:, i_])
            np.multiply(dc * c_prev, sig[:, f_], out=dp[:, f_])
            np.multiply(dh * c_tanh, sig[:, o_], out=dp[:, o_])
            np.multiply(d_c, d_tanh, out=dp[:, c_])
            dh_carry = dp @ w_h.T
        d_pre, gates, cs = gates, None, None  # d_pre freed after d_rows
        d_wh = out[slots[packing.prev]].T @ d_pre[first:]
        d_b = d_pre.sum(axis=0, keepdims=True)
        d_rows = np.empty_like(d_pre)
        d_rows[slots] = d_pre
        del d_pre, dp
        if x.requires_grad:
            _accum(x, d_rows @ w_x.T, owned=True)
        if w_all.requires_grad:
            _accum(w_all, np.vstack([d_wh, x.data.T @ d_rows]), owned=True)
        if b_all.requires_grad:
            _accum(b_all, d_b, owned=True)

    return _node(out, (x, w_all, b_all), bw)


# --- reductions --------------------------------------------------------------

def sum_all(a: Tensor) -> Tensor:
    """[1 x 1]: the sum of a's entries.  Nothing in the package calls it;
    it stays because the benchmark's per-layer probe (perfbench/layers.py)
    sums with it."""

    def bw(g):
        if a.requires_grad:
            _accum(a, np.full(a.shape, g[0, 0]), owned=True)

    return _node(np.array([[a.data.sum()]]), (a,), bw)


# --- head and loss -------------------------------------------------------------

def classify(parts: list[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """[B x k] probabilities: softmax(join(parts) w + b) by rows, one node.

    The [B x cols] parts are joined side by side, the first leftmost; w is
    [cols x k] and b [1 x k].  The node keeps the joined input and the
    probabilities.  Both passes run, in order, the operations of the
    concat, matmul, broadcasting add and row softmax the head was once
    composed of (tests/oracle.py): the backward pass sums the logits'
    gradient's rows into b's gradient and hands each part its columns of
    the joined input's gradient, so every bit is theirs once _accum has
    stored it, -0.0 included.
    """
    x, join_bw = _join(parts)
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch(f"classify: {x.shape} @ {w.shape} + {b.shape}")
    s = x @ w.data
    s += b.data
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)

    def bw(g):
        g *= s
        d = g - s * g.sum(axis=1, keepdims=True)
        if b.requires_grad:
            _accum(b, d.sum(axis=0, keepdims=True), owned=True)
        if any(t.requires_grad for t in parts):
            join_bw(d @ w.data.T)
        if w.requires_grad:
            _accum(w, x.T @ d, owned=True)

    return _node(s, (*parts, w, b), bw)


def cross_entropy_loss(probs: Tensor, labels) -> Tensor:
    """Mean over the batch of -log(p_label), probabilities clamped at 1e-12.

    probs is [B x k]; labels is an int sequence of length B.  With B = 1
    this is exactly -log(p_label).  One tape node, whose loss and gradient
    are bit for bit those of the clamp, log, one-hot product, sum and scale
    it was once composed of: the sum runs over the whole [B x k] product,
    and a label's gradient is 0 where its probability is under the clamp.
    """
    lab = np.asarray(labels, dtype=np.int64).ravel()
    batch, k = probs.shape
    if lab.shape[0] != batch:
        raise ShapeMismatch(
            f"cross_entropy_loss: {batch} prob rows vs {lab.shape[0]} labels")
    if lab.size and (lab.min() < 0 or lab.max() >= k):
        bad = lab[(lab < 0) | (lab >= k)][0]
        raise LabelOutOfRange(f"label {bad} outside [0, {k})")
    rows, alpha = np.arange(batch), -1.0 / batch
    clamped = np.maximum(probs.data, 1e-12)
    onehot = np.zeros((batch, k))
    onehot[rows, lab] = 1.0
    loss = alpha * np.array([[(np.log(clamped) * onehot).sum()]])
    picked, live = clamped[rows, lab], probs.data[rows, lab] >= 1e-12

    def bw(g):
        if probs.requires_grad:
            d = np.zeros((batch, k))
            d[rows, lab] = np.where(live, (g[0, 0] * alpha) / picked, 0.0)
            _accum(probs, d, owned=True)

    return _node(loss, (probs,), bw)


# --- reverse pass -------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf ancestor of a scalar loss.

    Every gradient is stored by _accum, so it adds into an existing .grad:
    a second tape's backward without zero_grads sums the two.  Consumes
    the tape: each interior node's backward function and .grad go once the
    function has run, so .grad stays on leaves only, and a second call
    through the same tape raises.
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
        elif id(node) not in visited:
            if node._parents and node._backward_fn is None:
                raise UastError("backward: this tape was already consumed")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

    _accum(loss, np.ones((1, 1)), owned=True)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
            # frees what its closure saved and the gradient it consumed
            node._backward_fn = node.grad = None


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
