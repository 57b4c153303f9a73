"""Corpus handling, deterministic splits, training, and evaluation."""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .corpus import (
    DEFAULT_RATIOS,
    MASK_TOKEN,
    SPLIT_NAMES,
    LabeledSample,
    corpus_labels,
    corpus_languages,
    ingest_corpus,
    mask_function_names,
    split_dataset,
)
from .metrics import MetricsReport, compute_metrics
from .training import (
    TrainResult,
    build_features,
    evaluate_prepared,
    evaluate_samples,
    featurize_with_vocab,
    predict_one,
    prepare,
    train,
    unified_view,
)

__all__ = [
    "Checkpoint",
    "DEFAULT_RATIOS",
    "LabeledSample",
    "MASK_TOKEN",
    "MetricsReport",
    "SPLIT_NAMES",
    "TrainResult",
    "build_features",
    "compute_metrics",
    "corpus_labels",
    "corpus_languages",
    "evaluate_prepared",
    "evaluate_samples",
    "featurize_with_vocab",
    "ingest_corpus",
    "load_checkpoint",
    "mask_function_names",
    "predict_one",
    "prepare",
    "save_checkpoint",
    "split_dataset",
    "train",
    "unified_view",
]
