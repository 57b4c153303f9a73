"""The training loop, evaluation, and single-file prediction.

Every file takes one path to a score, each stage written once: load_tree
reads it, featurize unifies and featurizes it, prepare and score_prepared
give its class probabilities, and MetricsReport.summary names the
metrics kept of a scored split.  Evaluation and training's validation
pass run it over a split; predict_one runs it for one file at B=1.

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
    UnificationTable,
    Vocabulary,
    build_vocabulary,
    load_tree,
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
from .corpus import LabeledSample
from .metrics import SUMMARY_NAMES, MetricsReport, compute_metrics

log = logging.getLogger("uastkit.train")

DROPOUT_STREAM = 2
BATCH_ORDER_STREAM = 3


def featurize(samples: list[LabeledSample], table: UnificationTable,
              unified: bool, vocab: Vocabulary | None, L: int,
              N: int) -> Vocabulary:
    """Unify each sample's tree and write its feature views in place.

    Raw runs (unified False) and trees of no declared language keep their
    kinds.  Kinds outside vocab land on its unknown index; with no vocab,
    one is fitted on these samples' trees.  Each tree is unified once and
    released afterwards to bound memory.  Returns the vocabulary.
    """
    for s in samples:
        if s.tree is None:
            raise EmptyCorpus(f"{s.source_path}: tree already released")
        if unified and s.language is not None:
            s.tree = unify_ast(s.tree, s.language, table)
    if vocab is None:
        vocab = build_vocabulary(s.tree for s in samples)
    for s in samples:
        s.path_seq, s.graph = featurize_sample(s.tree, vocab, L, N)
        s.tree = None
    return vocab


def build_features(splits: dict[str, list[LabeledSample]],
                   table: UnificationTable, unified: bool, L: int,
                   N: int) -> Vocabulary:
    """Fit the vocabulary on the train split, then featurize every split."""
    if not splits.get("train"):
        raise EmptySplit("cannot fit a vocabulary: train split is empty")
    vocab = featurize(splits["train"], table, unified, None, L, N)
    featurize(splits.get("validation", []) + splits.get("test", []),
              table, unified, vocab, L, N)
    return vocab


def prepare(samples: list[LabeledSample],
            cfg: ModelConfig) -> tuple[list[PreparedSample], np.ndarray]:
    """Materialize per-sample model constants and the label vector."""
    prepped = [M.prepare_sample(s.path_seq, s.graph, cfg) for s in samples]
    return prepped, np.array([s.label_index for s in samples], dtype=np.int64)


def check_schedule(epochs: int, batch_size: int,
                   max_steps: int | None) -> None:
    """Refuse a schedule with a count below 1; max_steps None means no cap."""
    for name, value in (("epochs", epochs), ("batch_size", batch_size),
                        ("max_steps", max_steps)):
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")


def _batches(n: int, batch_size: int, order=None):
    idx = np.arange(n) if order is None else order
    for at in range(0, n, batch_size):
        yield idx[at:at + batch_size]


def score_prepared(prepped: list[PreparedSample], params: ModelParams,
                   cfg: ModelConfig, batch_size: int = 64) -> np.ndarray:
    """Eval-mode class probabilities [n x k], batch_size samples a pass."""
    probs = np.empty((len(prepped), cfg.k))
    for sel in _batches(len(prepped), batch_size):
        probs[sel] = M.forward_batch([prepped[i] for i in sel], params,
                                     cfg).data
    return probs


def evaluate_samples(samples: list[LabeledSample], params: ModelParams,
                     cfg: ModelConfig, batch_size: int = 64) -> MetricsReport:
    """Metrics of the scores' argmax against the samples' labels."""
    if not samples:
        raise EmptySplit("evaluation split is empty")
    prepped, y_true = prepare(samples, cfg)
    preds = score_prepared(prepped, params, cfg, batch_size).argmax(axis=1)
    return compute_metrics(y_true, preds, cfg.k)


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
    check_schedule(epochs, batch_size, max_steps)

    train_prep, train_y = prepare(splits["train"], cfg)
    has_val = bool(splits.get("validation"))
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
            del probs, loss  # backward freed the closures; this frees the tape
            step += 1
            batch_losses.append(value)
            emit(f"epoch {epoch} step {step} loss {value:.6f}")
            if max_steps is not None and step >= max_steps:
                stop = True
                break

        val = dict.fromkeys(SUMMARY_NAMES)
        if has_val:
            val = evaluate_samples(splits["validation"], params, cfg,
                                   batch_size).summary()
            if best_acc is None or val["accuracy"] > best_acc:
                best_acc = val["accuracy"]
                best_epoch = epoch
                if best_path is not None:
                    save_checkpoint(snapshot(epoch, step, val), best_path)
        history.append({
            "record": "epoch", "epoch": epoch, "step": step,
            "train_loss": sum(batch_losses) / max(1, len(batch_losses)),
            "batch_losses": batch_losses,
            **{f"val_{name}": value for name, value in val.items()},
        })

    final = snapshot(epoch, step, val if has_val else None)
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


def predict_one(ckpt: Checkpoint, text: str, language: str | None,
                table: UnificationTable, is_sexpr: bool = False,
                path: str | None = None) -> tuple[str, np.ndarray]:
    """Classify one source text with a trained checkpoint (eval mode).

    Evaluation's path for one unlabeled file: load_tree, featurize,
    prepare and score_prepared at B=1.  path, the text's file, names it in
    the parser's warnings.  An S-expression tree of no declared language
    (None) is not unified.
    """
    sample = LabeledSample(source_path=path or "", language=language,
                           label="", label_index=-1,
                           tree=load_tree(text, language, is_sexpr, path))
    featurize([sample], table, ckpt.unified, ckpt.vocab, ckpt.config.L,
              ckpt.config.N)
    prepped, _ = prepare([sample], ckpt.config)
    row = score_prepared(prepped, ckpt.params, ckpt.config)[0]
    return ckpt.labels[int(row.argmax())], row
