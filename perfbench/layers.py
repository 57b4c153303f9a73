"""Per-layer measurements for traced runs.

Every traced run, whatever its workload, ends with the same probe over that
workload's own data: its files, its train split and its batch.  The probe
times the benchmark's calls into each layer's public functions and records
them as spans, so each traced run reports every per-layer metric.  Layers
the workload's timed loop does not run are measured on its data all the
same; they are the controls a change to another layer should not move.

The sequence/graph split comes from running forward_batch and backward on
the same batch under the sast and gast configurations.  Attention comes
from the per-sample self_attention on a detached copy of the embedded path,
so its backward stops at its input.  The BiLSTM is not timed by itself: it
is the sast pass minus attention minus embedding (plus the softmax head,
which is small), forward and backward alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

import uastkit
from tracer import NULL
from uastkit import autograd as ag
from uastkit import model as M
from uastkit.ast_frontend import (
    UnificationTable,
    Vocabulary,
    build_vocabulary,
    node_count,
    parse_source,
    unify_ast,
)
from uastkit.featurizer import featurize_sample
from uastkit.model import ModelConfig, ModelParams
from uastkit.optim import AdamState, adam_init, adam_step
from uastkit.train_eval import (
    Checkpoint,
    LabeledSample,
    build_features,
    ingest_corpus,
    load_checkpoint,
    prepare,
    save_checkpoint,
    split_dataset,
)

MIB = 2 ** 20
TOY_ROOT = Path(uastkit.__file__).parent / "data" / "toy_corpus"
PREPARE_SAMPLES = 216     # the train split of a 360-file corpus
NORM_ADJ_SAMPLES = 64
PREDICT_SPLIT_FILES = 24
CHECKPOINT_LOADS = 3
TOY_BATCH = 8
TOY_REPEATS = 3
PROBE_STREAM = 104
_MODEL_FIELDS = {f.name for f in fields(ModelConfig)}


def model_config(profile: dict, vocab_size: int, k: int,
                 mode: str) -> ModelConfig:
    """The model part of a CLI profile, as `uast train --profile` builds it."""
    return ModelConfig(vocab_size=vocab_size, k=k, mode=mode,
                       **{name: value for name, value in profile.items()
                          if name in _MODEL_FIELDS}).validate()


def tape_size(loss: ag.Tensor) -> tuple[int, int]:
    """Tensors reachable from the loss through the tape, and their bytes."""
    seen: set[int] = set()
    stack = [loss]
    nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nbytes += t.data.nbytes
        stack.extend(t._parents)
    return len(seen), nbytes


def train_step(tr, batch: list[M.PreparedSample], y: np.ndarray,
               params: ModelParams, opt: AdamState, cfg: ModelConfig,
               rng: np.random.Generator, training: bool = True) -> float:
    """One optimizer step, as uastkit's train() takes it; returns the loss."""
    with tr.span("model.forward"):
        probs = M.forward_batch(batch, params, cfg, training=training, rng=rng)
    with tr.span("autograd.loss"):
        loss = ag.cross_entropy_loss(probs, y)
    if tr.enabled:
        nodes, nbytes = tape_size(loss)
        tr.count("autograd.tape_nodes", nodes)
        tr.count("autograd.tape_mb", nbytes / MIB)
    ag.zero_grads(params.parameters())
    with tr.span("autograd.backward"):
        ag.backward(loss)
    M.freeze_pad_gradient(params)
    with tr.span("optim.adam"):
        adam_step(params.parameters(), opt)
    return loss.item()


@dataclass
class LayerInputs:
    """One workload's own data, handed to the probe."""
    cfg: ModelConfig                    # the workload's model, mode included
    table: UnificationTable
    vocab: Vocabulary
    labels: list[str]
    languages: list[str]
    train: list[LabeledSample]          # featurized train split
    batches: list[list[LabeledSample]]  # one B=64 batch, or several B=1
    training: bool                      # dropout on, or eval mode
    files: list[tuple[str, str]]        # (text, language) the workload reads


def probe(tr, inp: LayerInputs, seed: int, work: Path) -> None:
    """Record every per-layer span and count on the workload's data."""
    _frontend(tr, inp)
    _prepare(tr, inp)
    # an untraced pass first: a layer the workload's loop never ran would
    # otherwise pay for first-touch page faults in its timed pass
    _model(NULL, inp, inp.batches[0], seed)
    for samples in inp.batches:
        _model(tr, inp, samples, seed)
    ckpt = _checkpoint(tr, inp, seed, work)
    _predict_split(tr, inp, ckpt)
    _toy(tr, inp.table, seed)


def _frontend(tr, inp: LayerInputs) -> None:
    trees, graphs = [], []
    for text, language in inp.files:
        tr.begin_op()
        with tr.span("frontend.parse"):
            tree = parse_source(text, language)
        with tr.span("frontend.unify"):
            unified = unify_ast(tree, language, inp.table)
        with tr.span("featurizer.featurize"):
            _, graph = featurize_sample(unified, inp.vocab, inp.cfg.L,
                                        inp.cfg.N)
        tr.count("frontend.nodes", node_count(tree))
        trees.append(unified)
        graphs.append(graph)
    tr.begin_op()
    with tr.span("frontend.vocab"):
        build_vocabulary(trees)
    for graph in graphs[:NORM_ADJ_SAMPLES]:
        tr.begin_op()
        with tr.span("featurizer.norm_adj"):
            graph.norm_adj  # noqa: B018 -- the property builds the matrix


def _prepared_bytes(p: M.PreparedSample) -> int:
    return sum(a.nbytes for a in (
        p.path.indices if p.path is not None else None,
        p.adj.data if p.adj is not None else None,
        p.node_kinds) if a is not None)


def _prepare(tr, inp: LayerInputs) -> None:
    tr.begin_op()
    with tr.span("model.prepare"):
        prepped, _ = prepare(inp.train[:PREPARE_SAMPLES], inp.cfg)
    tr.count("model.prepared_mb",
             sum(_prepared_bytes(p) for p in prepped) / MIB)


def _model(tr, inp: LayerInputs, samples: list[LabeledSample],
           seed: int) -> None:
    rng = np.random.default_rng([seed, PROBE_STREAM])
    tr.begin_op()
    prepped, y = prepare(samples, inp.cfg)
    params = M.init_params(inp.cfg, seed)
    train_step(tr, prepped, y, params, adam_init(params.parameters()),
               inp.cfg, rng, inp.training)
    del prepped, params

    for mode, side in (("sast", "seq"), ("gast", "graph")):
        tr.begin_op()
        cfg = replace(inp.cfg, mode=mode)
        params = M.init_params(cfg, seed)
        prepped, y = prepare(samples, cfg)
        with tr.span(f"model.{side}.fwd"):
            probs = M.forward_batch(prepped, params, cfg,
                                    training=inp.training, rng=rng)
        loss = ag.cross_entropy_loss(probs, y)
        with tr.span(f"model.{side}.bwd"):
            ag.backward(loss)
        del prepped, probs, loss
        if mode == "sast":
            _attention(tr, samples, cfg, params, inp.training, rng)


def _attention(tr, samples: list[LabeledSample], cfg: ModelConfig,
               params: ModelParams, training: bool,
               rng: np.random.Generator) -> None:
    tr.begin_op()
    total = None
    for s in samples:
        with tr.span("model.seq.embed"):
            x = M.embed(s.path_seq, params)
        leaf = ag.Tensor(x.data, requires_grad=True)
        with tr.span("model.seq.attention_fwd"):
            out = M.self_attention(leaf, max(1, s.path_seq.true_length), cfg,
                                   params, training, rng)
        part = ag.sum_all(out)
        total = part if total is None else ag.add(total, part)
    with tr.span("model.seq.attention_bwd"):
        ag.backward(total)


def _checkpoint(tr, inp: LayerInputs, seed: int, work: Path) -> Checkpoint:
    path = work / "probe.ckpt"
    save_checkpoint(Checkpoint(
        config=inp.cfg, params=M.init_params(inp.cfg, seed), vocab=inp.vocab,
        labels=inp.labels, languages=inp.languages,
        table_hash=inp.table.table_hash, unified=True, seed=seed), path)
    tr.count("checkpoint.bytes", path.stat().st_size)
    for _ in range(CHECKPOINT_LOADS):
        tr.begin_op()
        with tr.span("checkpoint.load"):
            ckpt = load_checkpoint(path)
    return ckpt


def _predict_split(tr, inp: LayerInputs, ckpt: Checkpoint) -> None:
    """predict_one's body, timed in two halves."""
    cfg = ckpt.config
    for text, language in inp.files[:PREDICT_SPLIT_FILES]:
        tr.begin_op()
        with tr.span("predict.frontend"):
            tree = unify_ast(parse_source(text, language), language,
                             inp.table)
        with tr.span("predict.model"):
            path, graph = featurize_sample(tree, ckpt.vocab, cfg.L, cfg.N)
            M.forward(path if cfg.uses_path else None,
                      graph if cfg.uses_graph else None, ckpt.params, cfg)


def _toy(tr, table: UnificationTable, seed: int) -> None:
    """The bundled toy corpus at the toy profile, B=8, in every mode."""
    from uastkit.cli import PROFILES

    toy = PROFILES["toy"]
    splits = split_dataset(ingest_corpus(TOY_ROOT), seed)
    vocab = build_features(splits, table, True, toy["L"], toy["N"])
    k = len({s.label for s in splits["train"]})
    rng = np.random.default_rng([seed, PROBE_STREAM])
    for mode in M.MODES:
        cfg = model_config(toy, vocab.size, k, mode)
        params = M.init_params(cfg, seed)
        prepped, y = prepare(splits["train"][:TOY_BATCH], cfg)
        for _ in range(TOY_REPEATS):
            tr.begin_op()
            with tr.span(f"toy.{mode}.fwd_bwd"):
                loss = ag.cross_entropy_loss(
                    M.forward_batch(prepped, params, cfg, training=True,
                                    rng=rng), y)
                ag.zero_grads(params.parameters())
                ag.backward(loss)


def per_layer_metrics(tr) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the spans and counts of a traced run."""
    def ms(name: str) -> float:
        return 1000.0 * tr.median_s(name)

    def mean_ms(name: str) -> float:
        values = tr.op_seconds(name)
        return 1000.0 * sum(values) / len(values)

    seq_fwd, seq_bwd = ms("model.seq.fwd"), ms("model.seq.bwd")
    embed = ms("model.seq.embed")
    att_fwd, att_bwd = ms("model.seq.attention_fwd"), \
        ms("model.seq.attention_bwd")
    frontend_s = sum(tr.op_seconds("frontend.parse")) \
        + sum(tr.op_seconds("frontend.unify"))
    nodes = sum(v for _, n, v in tr.counts if n == "frontend.nodes")
    return {
        "model.fwd_ms": (ms("model.forward"), "ms"),
        "model.seq.fwd_ms": (seq_fwd, "ms"),
        "model.seq.bwd_ms": (seq_bwd, "ms"),
        "model.seq.embed_fwd_ms": (embed, "ms"),
        "model.seq.attention_fwd_ms": (att_fwd, "ms"),
        "model.seq.attention_bwd_ms": (att_bwd, "ms"),
        "model.seq.bilstm_fwd_ms": (seq_fwd - att_fwd - embed, "ms"),
        "model.seq.bilstm_bwd_ms": (seq_bwd - att_bwd, "ms"),
        "model.graph.fwd_ms": (ms("model.graph.fwd"), "ms"),
        "model.graph.bwd_ms": (ms("model.graph.bwd"), "ms"),
        "model.prepare_s": (tr.median_s("model.prepare"), "s"),
        "model.prepared_mb": (tr.last_count("model.prepared_mb"), "MiB"),
        "autograd.tape_nodes": (tr.median_count("autograd.tape_nodes"),
                                "count"),
        "autograd.tape_mb": (tr.median_count("autograd.tape_mb"), "MiB"),
        "autograd.loss_ms": (ms("autograd.loss"), "ms"),
        "autograd.backward_ms": (ms("autograd.backward"), "ms"),
        "optim.adam_ms": (ms("optim.adam"), "ms"),
        "featurizer.norm_adj_ms_per_sample": (mean_ms("featurizer.norm_adj"),
                                              "ms"),
        "featurizer.featurize_ms_per_file": (mean_ms("featurizer.featurize"),
                                             "ms"),
        "frontend.parse_ms_per_file": (mean_ms("frontend.parse"), "ms"),
        "frontend.unify_ms_per_file": (mean_ms("frontend.unify"), "ms"),
        "frontend.nodes_per_s": (nodes / frontend_s, "1/s"),
        "frontend.vocab_s": (tr.median_s("frontend.vocab"), "s"),
        "corpus.ingest_s": (tr.median_s("corpus.ingest"), "s"),
        "corpus.split_s": (tr.median_s("corpus.split"), "s"),
        "corpus.files_attempted": (tr.last_count("corpus.files_attempted"),
                                   "count"),
        "corpus.files_parsed": (tr.last_count("corpus.files_parsed"),
                                "count"),
        "corpus.files_skipped": (tr.last_count("corpus.files_skipped"),
                                 "count"),
        "checkpoint.load_ms": (ms("checkpoint.load"), "ms"),
        "checkpoint.bytes": (tr.last_count("checkpoint.bytes"), "bytes"),
        "predict.frontend_ms_p50": (ms("predict.frontend"), "ms"),
        "predict.model_ms_p50": (ms("predict.model"), "ms"),
        "toy.uast_fwd_bwd_ms": (ms("toy.uast.fwd_bwd"), "ms"),
        "toy.sast_fwd_bwd_ms": (ms("toy.sast.fwd_bwd"), "ms"),
        "toy.gast_fwd_bwd_ms": (ms("toy.gast.fwd_bwd"), "ms"),
    }
