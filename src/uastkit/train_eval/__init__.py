"""Corpus handling, deterministic splits, training, and evaluation."""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .corpus import (
    DEFAULT_RATIOS,
    SPLIT_NAMES,
    LabeledSample,
    corpus_labels,
    corpus_languages,
    ingest_corpus,
    split_dataset,
)
from .metrics import SUMMARY_NAMES, MetricsReport, compute_metrics
from .training import (
    RunConfig,
    TrainResult,
    build_features,
    evaluate_samples,
    featurize,
    predict_one,
    prepare,
    score_prepared,
    train,
)

__all__ = [
    "Checkpoint",
    "DEFAULT_RATIOS",
    "LabeledSample",
    "MetricsReport",
    "RunConfig",
    "SPLIT_NAMES",
    "SUMMARY_NAMES",
    "TrainResult",
    "build_features",
    "compute_metrics",
    "corpus_labels",
    "corpus_languages",
    "evaluate_samples",
    "featurize",
    "ingest_corpus",
    "load_checkpoint",
    "predict_one",
    "prepare",
    "save_checkpoint",
    "score_prepared",
    "split_dataset",
    "train",
]
