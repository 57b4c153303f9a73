"""The training loop, evaluation, and single-file prediction.

Training minimizes cross-entropy with Adam over seeded shuffled batches.
Randomness is split into named streams derived from the run seed: split
shuffling, parameter init, dropout, and batch order each get their own
generator, so every byte of a run is reproducible from (config, seed).
History is a JSONL file: one run header line, then one record per epoch
carrying the mean train loss, every batch loss, and validation metrics.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .. import model as M
from ..ast_frontend import (
    AstNode,
    UnificationTable,
    Vocabulary,
    build_vocabulary,
    load_ast_sexpr,
    parse_source,
    unify_ast,
)
from ..autograd import backward, cross_entropy_loss, zero_grads
from ..errors import (
    ConfigError,
    DivergenceDetected,
    EmptyCorpus,
    EmptySplit,
)
from ..featurizer import featurize_sample
from ..model import ModelConfig, ModelParams, PreparedSample
from ..optim import adam_init, adam_step
from .checkpoint import Checkpoint, save_checkpoint
from .corpus import LabeledSample, collector_paused
from .metrics import MetricsReport, compute_metrics

log = logging.getLogger("uastkit.train")

DROPOUT_STREAM = 2
BATCH_ORDER_STREAM = 3


def unified_view(sample: LabeledSample, table: UnificationTable,
                 unified: bool) -> AstNode:
    """The sample's tree with unified kinds; unify_ast relabels it in place."""
    if sample.tree is None:
        raise EmptyCorpus(f"{sample.source_path}: tree already released")
    if not unified:
        return sample.tree
    return unify_ast(sample.tree, sample.language, table)


def featurize_with_vocab(samples: list[LabeledSample],
                         table: UnificationTable, unified: bool,
                         vocab: Vocabulary, L: int, N: int,
                         keep_trees: bool = False) -> None:
    """Write feature views onto samples in place under a fixed vocabulary.

    Kinds outside the vocabulary land on its unknown index.  Trees are
    released afterwards to bound memory unless keep_trees is set (a sweep
    refeaturizes the same parse at several lengths).
    """
    with collector_paused():
        for s in samples:
            tree = unified_view(s, table, unified)
            s.path_seq, s.graph = featurize_sample(tree, vocab, L, N)
            if not keep_trees:
                s.tree = None


def build_features(splits: dict[str, list[LabeledSample]],
                   table: UnificationTable, unified: bool, L: int, N: int,
                   keep_trees: bool = False) -> Vocabulary:
    """Fit the vocabulary on the train split, then featurize every split.

    Each tree is unified once: its unified view replaces the parse on the
    sample, so trees kept with keep_trees are unified ones.
    """
    if not splits.get("train"):
        raise EmptySplit("cannot fit a vocabulary: train split is empty")
    parts = [splits.get(name, []) for name in ("train", "validation", "test")]
    with collector_paused():
        for samples in parts:
            for s in samples:
                s.tree = unified_view(s, table, unified)
        vocab = build_vocabulary(s.tree for s in splits["train"])
        for samples in parts:
            featurize_with_vocab(samples, table, False, vocab, L, N,
                                 keep_trees)
    return vocab


def prepare(samples: list[LabeledSample],
            cfg: ModelConfig) -> tuple[list[PreparedSample], np.ndarray]:
    """Materialize per-sample model constants and the label vector."""
    prepped = [M.prepare_sample(s.path_seq, s.graph, cfg, s.label_index)
               for s in samples]
    return prepped, np.array([s.label_index for s in samples], dtype=np.int64)


def _batches(n: int, batch_size: int, order=None):
    idx = np.arange(n) if order is None else order
    for at in range(0, n, batch_size):
        yield idx[at:at + batch_size]


def evaluate_prepared(prepped: list[PreparedSample], y_true: np.ndarray,
                      params: ModelParams, cfg: ModelConfig,
                      batch_size: int = 64) -> MetricsReport:
    if not prepped:
        raise EmptySplit("evaluation split is empty")
    preds = np.empty(len(prepped), dtype=np.int64)
    for sel in _batches(len(prepped), batch_size):
        probs = M.forward_batch([prepped[i] for i in sel], params, cfg)
        preds[sel] = probs.data.argmax(axis=1)
    return compute_metrics(y_true, preds, cfg.k)


def evaluate_samples(samples: list[LabeledSample], params: ModelParams,
                     cfg: ModelConfig, batch_size: int = 64) -> MetricsReport:
    prepped, y_true = prepare(samples, cfg)
    return evaluate_prepared(prepped, y_true, params, cfg, batch_size)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[dict]
    best_epoch: int
    best_val_accuracy: float | None
    final_path: Path | None = None
    best_path: Path | None = None
    history_path: Path | None = None


def _history_header(ckpt: Checkpoint) -> dict:
    return {
        "record": "run",
        "config": asdict(ckpt.config),
        "labels": ckpt.labels,
        "languages": ckpt.languages,
        "run_config": ckpt.run_config,
        "seed": ckpt.seed,
        "table_hash": ckpt.table_hash,
        "unified": ckpt.unified,
        "vocab_hash": ckpt.vocab.vocab_hash,
    }


def train(splits: dict[str, list[LabeledSample]], cfg: ModelConfig,
          vocab: Vocabulary, labels: list[str], languages: list[str],
          table_hash: str, unified: bool, seed: int, *,
          epochs: int = 5, batch_size: int = 64, lr: float = 0.001,
          max_steps: int | None = None, out_dir: str | Path | None = None,
          run_config: dict | None = None, log_fn=None) -> TrainResult:
    """Fit the model; returns the final state plus per-epoch history.

    Saves ``final.ckpt``, ``best.ckpt`` (highest validation accuracy, or
    the final state when there is no validation split), and
    ``history.jsonl`` under out_dir when one is given.
    """
    cfg.validate()
    if cfg.vocab_size != vocab.size:
        raise ConfigError(
            f"config vocab_size {cfg.vocab_size} != vocabulary size {vocab.size}")
    if cfg.k != len(labels):
        raise ConfigError(f"config k {cfg.k} != label count {len(labels)}")
    if epochs < 1 or batch_size < 1:
        raise ConfigError("epochs and batch size must be >= 1")

    train_prep, train_y = prepare(splits["train"], cfg)
    has_val = bool(splits.get("validation"))
    if has_val:
        val_prep, val_y = prepare(splits["validation"], cfg)
    if not train_prep:
        raise EmptySplit("train split is empty")

    params = M.init_params(cfg, seed)
    opt = adam_init(params.parameters(), lr=lr)
    order_rng = np.random.default_rng([seed, BATCH_ORDER_STREAM])
    dropout_rng = np.random.default_rng([seed, DROPOUT_STREAM])
    emit = log_fn if log_fn is not None else \
        (lambda msg: log.debug("%s", msg))

    def snapshot(epoch: int, step: int, metrics: dict | None) -> Checkpoint:
        return Checkpoint(config=cfg, params=params, vocab=vocab,
                          labels=labels, languages=languages,
                          table_hash=table_hash, unified=unified, seed=seed,
                          epoch=epoch, step=step, run_config=run_config,
                          val_metrics=metrics)

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    history: list[dict] = []
    best_acc: float | None = None
    best_epoch = 0
    best_path = out / "best.ckpt" if out is not None else None
    step = 0
    stop = False
    epoch = 0
    while epoch < epochs and not stop:
        epoch += 1
        batch_losses: list[float] = []
        order = order_rng.permutation(len(train_prep))
        for sel in _batches(len(train_prep), batch_size, order):
            batch = [train_prep[i] for i in sel]
            probs = M.forward_batch(batch, params, cfg, training=True,
                                    rng=dropout_rng)
            loss = cross_entropy_loss(probs, train_y[sel])
            value = float(loss.data[0, 0])
            if not np.isfinite(value):
                raise DivergenceDetected(
                    f"loss {value} at epoch {epoch} step {step + 1}; "
                    "reduce the learning rate or check the input features")
            zero_grads(params.parameters())
            backward(loss)
            adam_step(params.parameters(), opt)
            step += 1
            batch_losses.append(value)
            emit(f"epoch {epoch} step {step} loss {value:.6f}")
            if max_steps is not None and step >= max_steps:
                stop = True
                break

        record: dict = {
            "record": "epoch", "epoch": epoch, "step": step,
            "train_loss": sum(batch_losses) / max(1, len(batch_losses)),
            "batch_losses": batch_losses,
            "val_precision": None, "val_recall": None,
            "val_f1": None, "val_accuracy": None,
        }
        if has_val:
            report = evaluate_prepared(val_prep, val_y, params, cfg,
                                       batch_size)
            record.update(val_precision=report.precision,
                          val_recall=report.recall, val_f1=report.f1,
                          val_accuracy=report.accuracy)
            if best_acc is None or report.accuracy > best_acc:
                best_acc = report.accuracy
                best_epoch = epoch
                if best_path is not None:
                    save_checkpoint(
                        snapshot(epoch, step, report.summary()), best_path)
        history.append(record)

    last_val = None
    if history and history[-1]["val_accuracy"] is not None:
        last_val = {name: history[-1]["val_" + name]
                    for name in ("precision", "recall", "f1", "accuracy")}
    final = snapshot(epoch, step, last_val)
    result = TrainResult(checkpoint=final, history=history,
                         best_epoch=best_epoch if has_val else epoch,
                         best_val_accuracy=best_acc)
    if out is not None:
        result.final_path = out / "final.ckpt"
        save_checkpoint(final, result.final_path)
        if not has_val:
            save_checkpoint(final, best_path)
        result.best_path = best_path
        result.history_path = out / "history.jsonl"
        with open(result.history_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_history_header(final), sort_keys=True) + "\n")
            for record in history:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return result


def predict_one(ckpt: Checkpoint, text: str, language: str,
                table: UnificationTable, is_sexpr: bool = False,
                path: str | None = None) -> tuple[str, np.ndarray]:
    """Classify one source text with a trained checkpoint (eval mode).

    path, the text's file, names it in the parser's warnings.
    """
    tree = load_ast_sexpr(text) if is_sexpr else \
        parse_source(text, language, path)
    if ckpt.unified:
        tree = unify_ast(tree, language, table)
    path_seq, graph = featurize_sample(tree, ckpt.vocab, ckpt.config.L,
                                       ckpt.config.N)
    probs = M.forward(path_seq if ckpt.config.uses_path else None,
                      graph if ckpt.config.uses_graph else None,
                      ckpt.params, ckpt.config)
    row = probs.data[0]
    return ckpt.labels[int(row.argmax())], row.copy()
