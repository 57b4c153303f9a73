"""The classifier network over both AST views.

The sequence side embeds the pre-order path, runs multi-head self-attention
with Q = K = V, the embedded path itself (no input projections), and feeds
a stacked bidirectional LSTM.  A batch's paths, which hold their true steps
only, are packed one after another as [S x cols] rows (autograd.Packing),
with attention within each path and a recurrence that steps only the paths
still running (autograd.attention, lstm_direction).  Attention looks the
path up in the embedding table itself, one path at a time, so no tape node
holds the embedded path; between LSTM layers, one dropout node joins the
two directions' outputs and masks the join.  Each LSTM direction
keeps its parameters as that op reads them: one weight [(h + in) x 4h] and
one bias [1 x 4h], gate columns i, f, o, c.  The graph side builds Â
(autograd.Graph) once per batch, one disjoint union of the trees' edge
lists; each GCN layer is one tape node (autograd.gcn_layer), relu(Â H W),
the first the constant Â X (X the one-hot kinds) times W0, and each tree's
nodes are mean-pooled.  The features, the top LSTM layer's two finals
then the pooled graph rows, are joined side by side and classified by one
softmax layer, one tape node (autograd.classify).

One function composes the two encoders: forward_batch, which training,
evaluation and prediction all run.  Its tape holds the same number of nodes
whatever the batch size and path lengths.  It reads only each
PreparedSample's views, and its caller holds the config and labels.
forward is forward_batch at B=1;
embed and self_attention run the embedding and the attention op on one
sample.  Nothing in the package calls those three; they stay because the
benchmark's per-layer probe times them, as it does GraphSample.norm_adj.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError, ShapeMismatch
from .featurizer import GraphSample, PathSequence
from .typecheck import check_types

MODES = ("uast", "sast", "gast")

INIT_STREAM = 1  # rng stream id for parameter initialization


@dataclass(frozen=True)
class ModelSettings:
    """The hyperparameters a run chooses; train_eval.RunConfig extends it
    with the rest of a run's settings."""
    mode: str = "uast"
    L: int = 200
    d: int = 200
    heads: int = 4
    attn_dropout: float = 0.2
    h: int = 64
    lstm_layers: int = 2
    lstm_dropout: float = 0.5
    N: int = 400
    gcn_layers: int = 2
    gcn_hidden: int = 200
    d_out: int = 64

    def check(self, *sizes: str) -> None:
        """Refuse a setting not of its declared type (typecheck.has_type) or
        one no model can be built with; sizes: more fields, each >= 1."""
        check_types(vars(self), get_type_hints(type(self)), ConfigError)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in (*sizes, "L", "d", "heads", "h", "lstm_layers", "N",
                     "gcn_layers", "gcn_hidden", "d_out"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.heads != 0:
            raise ConfigError(
                f"d ({self.d}) must be divisible by heads ({self.heads})")
        for name in ("attn_dropout", "lstm_dropout"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")


@dataclass(frozen=True)
class ModelConfig(ModelSettings):
    """The settings plus the sizes the corpus fixes."""
    vocab_size: int = field(kw_only=True)
    k: int = field(kw_only=True)

    def validate(self) -> "ModelConfig":
        self.check("vocab_size", "k")
        return self

    @property
    def fusion_dim(self) -> int:
        if self.mode == "sast":
            return 2 * self.h
        if self.mode == "gast":
            return self.d_out
        return 2 * self.h + self.d_out

    @property
    def uses_path(self) -> bool:
        return self.mode in ("uast", "sast")

    @property
    def uses_graph(self) -> bool:
        return self.mode in ("uast", "gast")


@dataclass
class ModelParams:
    embedding: Tensor | None = None
    # per layer, (fwd, bwd); each direction is (w, b) as lstm_direction
    # reads them: w [(h + in) x 4h], recurrent rows first, b [1 x 4h],
    # gate columns in the order i, f, o, c
    lstm: list[tuple[tuple[Tensor, Tensor], tuple[Tensor, Tensor]]] = \
        field(default_factory=list)
    gcn: list[Tensor] = field(default_factory=list)
    clf_w: Tensor | None = None
    clf_b: Tensor | None = None

    def manifest(self) -> list[tuple[str, Tensor]]:
        """Stable (name, tensor) ordering; drives optimizer and checkpoints."""
        out: list[tuple[str, Tensor]] = []
        if self.embedding is not None:
            out.append(("embedding", self.embedding))
        for layer, (fwd, bwd) in enumerate(self.lstm):
            for direction, (w, b) in (("fwd", fwd), ("bwd", bwd)):
                out.append((f"lstm.{layer}.{direction}.w", w))
                out.append((f"lstm.{layer}.{direction}.b", b))
        for i, w in enumerate(self.gcn):
            out.append((f"gcn.{i}", w))
        out.append(("classifier.w", self.clf_w))
        out.append(("classifier.b", self.clf_b))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.manifest()]


def freeze_pad_gradient(params: ModelParams) -> None:
    """Zero the PAD embedding row's gradient, which no step writes: train()
    skips this; the benchmark's train_step (perfbench/layers.py) calls it."""
    e = params.embedding
    if e is not None and e.grad is not None:
        e.grad[0, :] = 0.0


def _gcn_dims(cfg: ModelConfig) -> list[tuple[int, int]]:
    dims = [cfg.vocab_size] + [cfg.gcn_hidden] * (cfg.gcn_layers - 1) + [cfg.d_out]
    return list(zip(dims[:-1], dims[1:]))


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Uniform(-sqrt(1/fan_in), sqrt(1/fan_in)) per matrix; forget bias 1."""
    cfg.validate()
    rng = np.random.default_rng([seed, INIT_STREAM])

    def uniform(rows: int, cols: int, fan_in: int) -> Tensor:
        bound = math.sqrt(1.0 / fan_in)
        return Tensor(rng.uniform(-bound, bound, size=(rows, cols)),
                      requires_grad=True)

    def bias(cols: int, value: float | np.ndarray = 0.0) -> Tensor:
        return Tensor(np.full((1, cols), value), requires_grad=True)

    params = ModelParams()
    if cfg.uses_path:
        params.embedding = uniform(cfg.vocab_size, cfg.d, cfg.d)
        params.embedding.data[0, :] = 0.0  # PAD row starts zero, stays zero
        forget_one = np.repeat([0.0, 1.0, 0.0, 0.0], cfg.h)
        in_dim = cfg.d
        for _ in range(cfg.lstm_layers):
            directions = []
            for _ in range(2):
                # the gates' [h x fan] blocks as one [4h x fan] draw, stored
                # transposed
                fan = cfg.h + in_dim
                w = uniform(4 * cfg.h, fan, fan)
                w.data = np.ascontiguousarray(w.data.T)
                directions.append((w, bias(4 * cfg.h, forget_one)))
            params.lstm.append((directions[0], directions[1]))
            in_dim = 2 * cfg.h
    if cfg.uses_graph:
        params.gcn = [uniform(fan_in, fan_out, fan_in)
                      for fan_in, fan_out in _gcn_dims(cfg)]
    params.clf_w = uniform(cfg.fusion_dim, cfg.k, cfg.fusion_dim)
    params.clf_b = bias(cfg.k)
    return params


# --- sequence side -----------------------------------------------------------

def embed(path: PathSequence, params: ModelParams) -> Tensor:
    """[true_length x d] with row t = E[indices[t]].

    One sample's embedding, as forward_batch looks it up; the benchmark's
    per-layer probe (perfbench/layers.py) times it.
    """
    return ag.gather_rows(params.embedding, path.indices)


def self_attention(x: Tensor, true_length: int, cfg: ModelConfig,
                   params: ModelParams | None = None, training: bool = False,
                   rng: np.random.Generator | None = None) -> Tensor:
    """[true_length x d] -> [true_length x d]: one path's attention.

    The attention op of forward_batch at B=1, with x as its table and
    its rows in order; the benchmark's per-layer probe
    (perfbench/layers.py) times it.  Attention has no parameters, so
    params goes unread: it stays because that probe passes it by
    position.
    """
    if x.shape != (true_length, cfg.d):
        raise ShapeMismatch(
            f"self_attention: {x.shape} vs ({true_length}, {cfg.d})")
    return ag.attention(x, np.arange(true_length), ag.Packing([true_length]),
                        cfg.heads, cfg.attn_dropout, training, rng)


def _bilstm(x: Tensor, packing: ag.Packing, params: ModelParams,
            cfg: ModelConfig, training: bool,
            rng: np.random.Generator | None) -> list[Tensor]:
    """[S x d] -> the top layer's forward and backward finals, [B x h] each.

    A later layer reads the layer below's two directions joined side by
    side under dropout, one tape node.  The forward final is each
    sequence's state at its last row, the backward final at its first.
    """
    inputs = x
    for layer, (fwd, bwd) in enumerate(params.lstm):
        if layer:
            inputs = ag.dropout([out_f, out_b], cfg.lstm_dropout, training,
                                rng, packing)
        out_f = ag.lstm_direction(inputs, *fwd, packing)
        out_b = ag.lstm_direction(inputs, *bwd, packing, reverse=True)
    return [ag.gather_rows(out_f, packing.starts + packing.lengths - 1),
            ag.gather_rows(out_b, packing.starts)]


# --- graph side --------------------------------------------------------------

def _gcn_layers(node_kinds: np.ndarray, graph: ag.Graph,
                params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Stacked relu(Â H W), one gcn_layer node each, the first
    relu((Â X) W0): X's one-hot rows are the identity's, looked up by kind
    as embeddings are."""
    x = ag.gather_rows(Tensor(np.eye(cfg.vocab_size)), node_kinds)
    h = Tensor(graph.apply(x.data))
    for i, w in enumerate(params.gcn):
        h = ag.gcn_layer(h, w, graph if i else None)
    return h


# --- full passes ---------------------------------------------------------------

@dataclass
class PreparedSample:
    """A featurized record's views, as the model reads them: each is None
    where the mode does not read it.

    path is the path view; adj is the graph view's int64 [E x 2] edge list
    and node_kinds its kinds, one a node, not copies.  The benchmark's
    probe reads these fields by name.
    """
    path: PathSequence | None
    adj: np.ndarray | None
    node_kinds: np.ndarray | None


def prepare_sample(path: PathSequence | None, graph: GraphSample | None,
                   cfg: ModelConfig) -> PreparedSample:
    if cfg.uses_graph and graph is None:
        raise ShapeMismatch("this mode needs the graph view")
    if cfg.uses_path and path is None:
        raise ShapeMismatch("this mode needs the path view")
    return PreparedSample(
        path=path if cfg.uses_path else None,
        adj=graph.edges if cfg.uses_graph else None,
        node_kinds=graph.node_kinds if cfg.uses_graph else None)


def forward_batch(batch: list[PreparedSample], params: ModelParams,
                  cfg: ModelConfig, training: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Probabilities [B x k] for a whole batch on one shared tape."""
    if not batch:
        raise ShapeMismatch("forward_batch: empty batch")
    features: list[Tensor] = []

    if cfg.uses_path:
        # the paths' true steps only, one after another
        packing = ag.Packing([s.path.true_length for s in batch])
        x = ag.attention(params.embedding, np.concatenate(
            [s.path.indices for s in batch]), packing, cfg.heads,
            cfg.attn_dropout, training, rng)
        features += _bilstm(x, packing, params, cfg, training, rng)

    if cfg.uses_graph:
        # one disjoint union: each sample's edges shift by its first node
        counts = [len(s.node_kinds) for s in batch]
        starts = np.cumsum([0] + counts)
        graph = ag.Graph(np.concatenate([s.adj + start for s, start
                                         in zip(batch, starts)]), starts[-1])
        h = _gcn_layers(np.concatenate([s.node_kinds for s in batch]), graph,
                        params, cfg)
        features.append(ag.segment_pool(h, counts))

    # the sequence features come first in the fused row
    return ag.classify(features, params.clf_w, params.clf_b)


def forward(path: PathSequence | None, graph: GraphSample | None,
            params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Single-sample probabilities [1 x k]: forward_batch at B=1, eval mode.

    Nothing in the package calls it; it stays because the benchmark's
    per-layer probe (perfbench/layers.py) does.
    """
    return forward_batch([prepare_sample(path, graph, cfg)], params, cfg)
