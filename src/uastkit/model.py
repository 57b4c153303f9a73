"""The classifier network over both AST views.

The sequence side embeds the pre-order path, runs multi-head self-attention
with Q = K = V (no input projections unless the learned_projections variant
is switched on), and feeds a stacked bidirectional LSTM whose recurrence is
masked to the true sequence length.  A batch embeds only its first
T = max(true_length) steps, laid out as [B*T x d]; attention is one fused
op over every sample and head, and each LSTM direction is one fused op
(autograd.attention, autograd.lstm_direction).  Each direction keeps its
parameters as that op reads them: one weight [(h + in) x 4h] and one bias
[1 x 4h], gate columns in the order i, f, o, c.  The graph side runs GCN
layers that propagate over the tree's parent-child edge list (no dense
N x N adjacency) and pools its real nodes; a batch runs as one disjoint
union of its graphs.  Features fuse by concatenation, sequence side first,
into a softmax classifier.

One function composes the two encoders: forward_batch, which training,
evaluation and prediction all run.  Its tape holds the same number of nodes
whatever the batch size and path lengths.  forward is forward_batch at B=1;
embed and self_attention run the embedding and the attention op on one
sample.  Nothing in the package calls those two; they stay because the
benchmark's per-layer probe times them, as it does GraphSample.norm_adj.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError, ShapeMismatch
from .featurizer import GraphSample, PathSequence

MODES = ("uast", "sast", "gast")
GCN_ACTIVATIONS = ("relu", "sigmoid", "tanh")
POOLINGS = ("mean", "sum")

_ACT = {"relu": ag.relu, "sigmoid": ag.sigmoid, "tanh": ag.tanh}

INIT_STREAM = 1  # rng stream id for parameter initialization


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    k: int
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
    gcn_activation: str = "relu"
    pooling: str = "mean"
    learned_projections: bool = False

    def validate(self) -> "ModelConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.gcn_activation not in GCN_ACTIVATIONS:
            raise ConfigError(f"gcn_activation must be one of {GCN_ACTIVATIONS}")
        if self.pooling not in POOLINGS:
            raise ConfigError(f"pooling must be one of {POOLINGS}")
        positive = ("vocab_size", "k", "L", "d", "heads", "h", "lstm_layers",
                    "N", "gcn_layers", "gcn_hidden", "d_out")
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.heads != 0:
            raise ConfigError(
                f"d ({self.d}) must be divisible by heads ({self.heads})")
        for name in ("attn_dropout", "lstm_dropout"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")
        return self

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

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
    config: ModelConfig
    embedding: Tensor | None = None
    proj_q: Tensor | None = None
    proj_k: Tensor | None = None
    proj_v: Tensor | None = None
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
        for name, t in (("proj_q", self.proj_q), ("proj_k", self.proj_k),
                        ("proj_v", self.proj_v)):
            if t is not None:
                out.append((name, t))
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

    def all_finite(self) -> bool:
        return all(np.isfinite(t.data).all() for t in self.parameters())


def freeze_pad_gradient(params: ModelParams) -> None:
    """Zero the PAD embedding row's gradient so that row never moves."""
    e = params.embedding
    if e is not None and e.grad is not None:
        e.grad[0, :] = 0.0


def _gcn_dims(cfg: ModelConfig) -> list[tuple[int, int]]:
    dims = [cfg.vocab_size] + [cfg.gcn_hidden] * (cfg.gcn_layers - 1) + [cfg.d_out]
    return list(zip(dims[:-1], dims[1:]))


def _build_params(cfg: ModelConfig, uniform, bias) -> ModelParams:
    """Assemble the mode-dependent parameter structure from filler callables."""
    params = ModelParams(config=cfg)
    if cfg.uses_path:
        params.embedding = uniform(cfg.vocab_size, cfg.d, cfg.d)
        if cfg.learned_projections:
            params.proj_q = uniform(cfg.d, cfg.d, cfg.d)
            params.proj_k = uniform(cfg.d, cfg.d, cfg.d)
            params.proj_v = uniform(cfg.d, cfg.d, cfg.d)
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

    params = _build_params(cfg, uniform, bias)
    if params.embedding is not None:
        params.embedding.data[0, :] = 0.0  # PAD row starts zero, stays zero
    return params


def empty_params(cfg: ModelConfig) -> ModelParams:
    """Zero-filled parameters with the canonical shapes, for deserialization."""
    cfg.validate()

    def uniform(rows: int, cols: int, fan_in: int) -> Tensor:
        return Tensor(np.zeros((rows, cols)), requires_grad=True)

    def bias(cols: int, value: float | np.ndarray = 0.0) -> Tensor:
        return Tensor(np.zeros((1, cols)), requires_grad=True)

    return _build_params(cfg, uniform, bias)


# --- sequence side -----------------------------------------------------------

def embed(path: PathSequence, params: ModelParams) -> Tensor:
    """[L x d] with row t = E[indices[t]]; PAD positions hit the zero row.

    One sample's embedding, as forward_batch looks it up; the benchmark's
    per-layer probe (perfbench/layers.py) times it.
    """
    return ag.embedding_lookup(params.embedding, path.indices)


def _attend(x: Tensor, lengths: np.ndarray, cfg: ModelConfig,
            params: ModelParams | None, training: bool,
            rng: np.random.Generator | None) -> Tensor:
    """Multi-head attention over a batch's [B*T x d] rows."""
    if cfg.learned_projections:
        if params is None or params.proj_q is None:
            raise ConfigError("learned_projections on but no projection weights")
        q, k, v = (ag.matmul(x, w)
                   for w in (params.proj_q, params.proj_k, params.proj_v))
    else:
        q = k = v = x
    return ag.attention(q, k, v, lengths, cfg.heads, cfg.attn_dropout,
                        training, rng)


def self_attention(x: Tensor, true_length: int, cfg: ModelConfig,
                   params: ModelParams | None = None, training: bool = False,
                   rng: np.random.Generator | None = None) -> Tensor:
    """[L x d] -> [L x d]; keys at padded positions masked to -inf.

    The attention op of forward_batch at B=1 over all L rows; the
    benchmark's per-layer probe (perfbench/layers.py) times it.
    """
    if x.shape != (cfg.L, cfg.d):
        raise ShapeMismatch(f"self_attention: {x.shape} vs ({cfg.L}, {cfg.d})")
    if true_length < 1:
        raise ShapeMismatch("self_attention: true_length must be >= 1")
    return _attend(x, np.array([min(true_length, cfg.L)]), cfg, params,
                   training, rng)


def _bilstm(x: Tensor, lengths: np.ndarray, params: ModelParams,
            cfg: ModelConfig, training: bool,
            rng: np.random.Generator | None) -> Tensor:
    """[B*T x d] -> [B x 2h]: top layer's forward and backward finals.

    States are held past each true length, so the forward final is the
    row at step T-1 and the backward final the row at step 0.
    """
    inputs = x
    for layer, (fwd, bwd) in enumerate(params.lstm):
        if layer:
            inputs = ag.dropout(ag.concat([out_f, out_b], axis=1),
                                cfg.lstm_dropout, training, rng)
        out_f = ag.lstm_direction(inputs, *fwd, lengths)
        out_b = ag.lstm_direction(inputs, *bwd, lengths, reverse=True)
    steps = x.shape[0] // len(lengths)
    firsts = np.arange(len(lengths)) * steps
    return ag.concat([ag.gather_rows(out_f, firsts + steps - 1),
                      ag.gather_rows(out_b, firsts)], axis=1)


# --- graph side --------------------------------------------------------------

def _gcn_layers(node_kinds: np.ndarray, edges: np.ndarray,
                params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Stacked act(Â H W); one-hot rows times W0 is the row gather W0[kinds]."""
    act = _ACT[cfg.gcn_activation]
    h = act(ag.propagate(ag.gather_rows(params.gcn[0], node_kinds), edges))
    for w in params.gcn[1:]:
        h = act(ag.propagate(ag.matmul(h, w), edges))
    return h


# --- full passes ---------------------------------------------------------------

@dataclass
class PreparedSample:
    """A featurized record with its graph constants materialized once.

    adj is the int64 [E x 2] edge list; node_kinds holds the real nodes.
    The benchmark's probe reads these fields by name.
    """
    path: PathSequence | None
    true_length: int
    adj: np.ndarray | None
    node_kinds: np.ndarray | None
    node_count: int
    label: int


def prepare_sample(path: PathSequence | None, graph: GraphSample | None,
                   cfg: ModelConfig, label: int = -1) -> PreparedSample:
    adj = None
    kinds = None
    count = 0
    if cfg.uses_graph:
        if graph is None:
            raise ShapeMismatch("this mode needs the graph view")
        adj = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
        count = graph.node_count
        kinds = graph.node_kinds[:count]
    true_length = 0
    if cfg.uses_path:
        if path is None:
            raise ShapeMismatch("this mode needs the path view")
        true_length = path.true_length
    return PreparedSample(path=path if cfg.uses_path else None,
                          true_length=true_length, adj=adj, node_kinds=kinds,
                          node_count=count, label=label)


def forward_batch(batch: list[PreparedSample], params: ModelParams,
                  cfg: ModelConfig, training: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Probabilities [B x k] for a whole batch on one shared tape."""
    if not batch:
        raise ShapeMismatch("forward_batch: empty batch")
    features: list[Tensor] = []

    if cfg.uses_path:
        # only the first T = max(true_length) steps of each path enter
        lengths = np.array([s.true_length for s in batch])
        T = int(lengths.max())
        x = ag.embedding_lookup(
            params.embedding, np.concatenate([s.path.indices[:T] for s in batch]))
        features.append(_bilstm(_attend(x, lengths, cfg, params, training, rng),
                                lengths, params, cfg, training, rng))

    if cfg.uses_graph:
        # one disjoint union: each sample's edges shift by its first node
        counts = [s.node_count for s in batch]
        starts = np.cumsum([0] + counts)
        edges = np.concatenate([s.adj + start
                                for s, start in zip(batch, starts)])
        h = _gcn_layers(np.concatenate([s.node_kinds for s in batch]), edges,
                        params, cfg)
        features.append(ag.segment_pool(h, counts, cfg.pooling == "mean"))

    # the sequence features come first in the fused row
    h_code = ag.concat(features, axis=1) if len(features) == 2 else features[0]
    return ag.softmax_rows(ag.add(ag.matmul(h_code, params.clf_w), params.clf_b))


def forward(path: PathSequence | None, graph: GraphSample | None,
            params: ModelParams, cfg: ModelConfig, training: bool = False,
            rng: np.random.Generator | None = None) -> Tensor:
    """Single-sample probabilities [1 x k]: forward_batch at B=1.

    predict_one and the benchmark's probe call it.
    """
    sample = prepare_sample(path, graph, cfg)
    return forward_batch([sample], params, cfg, training, rng)
