"""The training loop, evaluation, and single-file prediction.

Every file takes one path to a score, each stage written once: load_tree
reads it, featurize unifies and featurizes it, prepare and score_prepared
give its class probabilities, and MetricsReport.summary names the
metrics kept of a scored split.  Evaluation and training's validation
pass run it over a split; predict_one runs it for one file at B=1.

A RunConfig holds every setting of a run, and train takes nothing else:
it builds the model config from it and records it, whole, in every
checkpoint and in the history header, so what a run records is what it
ran.  The labels and languages train records are its splits' own.
Training minimizes cross-entropy with Adam over seeded shuffled batches,
and logs each step's loss as one INFO record on the uastkit.train
logger.  Randomness is split into named streams derived from the run
seed: split shuffling, parameter init, dropout, and batch order each get
their own generator, so every byte of a run is reproducible from its
RunConfig and corpus.  History is a JSONL file: one run header line, then
one record per epoch carrying the mean train loss, every batch loss, and
validation metrics.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, fields
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
from ..model import ModelConfig, ModelParams, ModelSettings, PreparedSample
from ..optim import adam_init, adam_step
from .checkpoint import Checkpoint, save_checkpoint
from .corpus import (
    DEFAULT_RATIOS,
    LabeledSample,
    corpus_labels,
    corpus_languages,
)
from .metrics import SUMMARY_NAMES, MetricsReport, compute_metrics

log = logging.getLogger("uastkit.train")

DROPOUT_STREAM = 2
BATCH_ORDER_STREAM = 3


@dataclass(frozen=True)
class RunConfig(ModelSettings):
    """Everything that determines a run, minus the corpus contents."""
    profile: str = "leetcode"
    corpus: str | None = None
    manifest: str | None = None
    table: str | None = None
    out_dir: str | None = None
    unified: bool = True
    seed: int = 0
    ratios: tuple[int, int, int] = DEFAULT_RATIOS
    epochs: int = 5
    batch_size: int = 64
    lr: float = 0.001
    max_steps: int | None = None  # None: no cap

    def __post_init__(self):
        # checked before ingest; ModelConfig.validate adds the corpus's sizes
        self.check("epochs", "batch_size")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite number > 0, got {self.lr}")
        if any(r < 0 for r in self.ratios) or sum(self.ratios) <= 0:
            raise ConfigError("ratios must be counts >= 0 with a positive "
                              f"sum, got {list(self.ratios)}")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["ratios"] = list(self.ratios)
        return out

    def model_config(self, vocab_size: int, k: int) -> ModelConfig:
        settings = {f.name: getattr(self, f.name)
                    for f in fields(ModelSettings)}
        return ModelConfig(vocab_size=vocab_size, k=k, **settings).validate()


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


def train(splits: dict[str, list[LabeledSample]], run: RunConfig,
          vocab: Vocabulary, table_hash: str) -> TrainResult:
    """Fit the model run describes; returns the final state plus history.

    The model config is run's settings at the vocabulary's size and the
    count of labels over every split, and every checkpoint and the
    history header record run.to_dict() and the splits' labels and
    languages.  Saves ``final.ckpt``, ``best.ckpt`` (the first epoch of
    highest validation accuracy, or the final state when there is no
    validation split), and ``history.jsonl`` under run.out_dir when it is
    set.
    """
    if not splits.get("train"):
        raise EmptySplit("train split is empty")
    samples = [s for part in splits.values() for s in part]
    labels, languages = corpus_labels(samples), corpus_languages(samples)
    cfg = run.model_config(vocab.size, len(labels))
    train_prep, train_y = prepare(splits["train"], cfg)
    has_val = bool(splits.get("validation"))

    params = M.init_params(cfg, run.seed)
    opt = adam_init(params.parameters(), lr=run.lr)
    order_rng = np.random.default_rng([run.seed, BATCH_ORDER_STREAM])
    dropout_rng = np.random.default_rng([run.seed, DROPOUT_STREAM])

    def snapshot(epoch: int, step: int, metrics: dict | None) -> Checkpoint:
        return Checkpoint(config=cfg, params=params, vocab=vocab,
                          labels=labels, languages=languages,
                          table_hash=table_hash, unified=run.unified,
                          seed=run.seed, epoch=epoch, step=step,
                          run_config=run.to_dict(), val_metrics=metrics)

    out = Path(run.out_dir) if run.out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    history: list[dict] = []
    best_acc: float | None = None
    best_path = out / "best.ckpt" if out is not None else None
    step = 0
    stop = False
    epoch = 0
    while epoch < run.epochs and not stop:
        epoch += 1
        batch_losses: list[float] = []
        order = order_rng.permutation(len(train_prep))
        for sel in _batches(len(train_prep), run.batch_size, order):
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
            log.info("epoch %d step %d loss %.6f", epoch, step, value)
            if run.max_steps is not None and step >= run.max_steps:
                stop = True
                break

        val = dict.fromkeys(SUMMARY_NAMES)
        if has_val:
            val = evaluate_samples(splits["validation"], params, cfg,
                                   run.batch_size).summary()
            if best_acc is None or val["accuracy"] > best_acc:
                best_acc = val["accuracy"]
                if best_path is not None:
                    save_checkpoint(snapshot(epoch, step, val), best_path)
        history.append({
            "record": "epoch", "epoch": epoch, "step": step,
            "train_loss": sum(batch_losses) / max(1, len(batch_losses)),
            "batch_losses": batch_losses,
            **{f"val_{name}": value for name, value in val.items()},
        })

    final = snapshot(epoch, step, val if has_val else None)
    result = TrainResult(checkpoint=final, history=history)
    if out is not None:
        save_checkpoint(final, out / "final.ckpt")
        if not has_val:
            save_checkpoint(final, best_path)
        with open(out / "history.jsonl", "w", encoding="utf-8") as fh:
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
