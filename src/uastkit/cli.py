"""The ``uast`` command line.

Subcommands cover the whole pipeline: parse (S-expression ASTs), stats
(path-length distribution), train, eval, predict, sweep (hyperparameter
series), and datagen (the bundled benchmark generator).  A command that
needs features computes them in memory; none is written to disk.  Exit
codes: 0 success, 1 usage, 2 data problem, 3 runtime problem.

Settings resolve in three layers: a named profile supplies defaults, a JSON
config file overrides the profile, and explicit flags override both.  The
profile is --profile, else the config file's "profile", else leetcode, and
every value must have its setting's type.  The result is one RunConfig
(train_eval.training), which train and each sweep run take whole; train
records it in every checkpoint and history file, and eval's report repeats
the checkpoint's copy.
The UASTKIT_TABLE environment variable points at an alternative
unification table; --table wins over it.  Log records, such as the warning
for each skipped corpus file and the loss of each training step, go to
stderr from --log-level up (warning by default; -v means info).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import get_type_hints

from .ast_frontend import (
    UnificationTable,
    load_default_table,
    load_tree,
    load_unification_table,
    registered_languages,
    render_sexpr,
    source_language,
    unify_ast,
)
from .datagen import generate_corpus
from .errors import (
    DataError,
    EmptySplit,
    UastError,
    UsageError,
    VocabularyMismatch,
)
from .featurizer import path_length_stats
from .model import MODES, ModelSettings
from .train_eval import (
    DEFAULT_RATIOS,
    SPLIT_NAMES,
    SUMMARY_NAMES,
    RunConfig,
    build_features,
    corpus_labels,
    evaluate_samples,
    featurize,
    ingest_corpus,
    load_checkpoint,
    predict_one,
    split_dataset,
    train,
)

TABLE_ENV = "UASTKIT_TABLE"

# RunConfig's defaults for the model and its batch-64 Adam schedule,
# mirroring the published setup; leetcode is exactly this base
_BASE_PROFILE: dict = {
    name: getattr(RunConfig, name)
    for name in (*(f.name for f in fields(ModelSettings) if f.name != "mode"),
                 "epochs", "batch_size", "lr")
}
PROFILES: dict[str, dict] = {
    "leetcode": dict(_BASE_PROFILE),
    # longer sequences, tracking that dataset's path-length distribution
    "jc": {**_BASE_PROFILE, "L": 700},
    # small and regularization-free: sized to memorize the bundled corpora
    # quickly on one core
    "toy": {**_BASE_PROFILE, "L": 96, "N": 96, "d": 32, "attn_dropout": 0.0,
            "h": 16, "lstm_dropout": 0.0, "gcn_hidden": 32, "d_out": 16,
            "epochs": 50, "batch_size": 8, "lr": 0.01},
}
DEFAULT_PROFILE = RunConfig.profile
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")

_RUN_TYPES = get_type_hints(RunConfig)


def _as_ratios(value):
    """Text like "3,1,1" or a JSON list as a tuple; RunConfig checks it."""
    if isinstance(value, str):
        try:
            return tuple(int(p) for p in value.split(","))
        except ValueError:
            raise UsageError(
                f"bad ratios {value!r}; expected like 3,1,1") from None
    return tuple(value) if isinstance(value, list) else value


def _read_config(path: str) -> dict:
    try:
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise DataError(f"{path}: config must be a JSON object")
    unknown = set(loaded) - set(_RUN_TYPES)
    if unknown:
        raise UsageError(f"{path}: unknown keys {sorted(unknown)}")
    return loaded


def resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """Layer a profile's values, then the config file's, then the flags.

    The profile is --profile, else the config file's "profile", else the
    default; the run records the profile whose values it used.
    """
    loaded = _read_config(args.config) if args.config else {}
    flags = {name: value for name in _RUN_TYPES
             if (value := getattr(args, name, None)) is not None}
    profile = flags.get("profile", loaded.get("profile", DEFAULT_PROFILE))
    if profile not in (names := sorted(PROFILES)):
        raise UsageError(f"unknown profile {profile!r}; choose from {names}")
    merged = {**PROFILES[profile], **loaded, **flags}
    if "ratios" in merged:
        merged["ratios"] = _as_ratios(merged["ratios"])
    return RunConfig(**merged)


def _load_table(path: str | None) -> UnificationTable:
    if path:
        return load_unification_table(path)
    env = os.environ.get(TABLE_ENV)
    if env:
        return load_unification_table(env)
    return load_default_table()


def _ingest(corpus: str | None, manifest: str | None):
    if bool(corpus) == bool(manifest):
        raise UsageError("pass exactly one of --corpus and --manifest")
    return ingest_corpus(corpus or ".", manifest)


def _features(rc: RunConfig, table: UnificationTable, L: int):
    """Ingest, split and featurize the corpus at path length L.

    Returns the splits and the train split's vocabulary.
    """
    samples = _ingest(rc.corpus, rc.manifest)
    splits = split_dataset(samples, rc.seed, rc.ratios)
    return splits, build_features(splits, table, rc.unified, L, rc.N)


def _checkpoint_and_table(args: argparse.Namespace):
    """The checkpoint named by --checkpoint and the active table, which
    must be the table the checkpoint was trained with."""
    ckpt = load_checkpoint(args.checkpoint)
    table = _load_table(args.table)
    if table.table_hash != ckpt.table_hash:
        raise VocabularyMismatch(
            "the active unification table does not match the checkpoint "
            f"(table {table.table_hash[:12]}… vs checkpoint "
            f"{ckpt.table_hash[:12]}…)")
    return ckpt, table


def _read_source(name: str, lang: str | None):
    """A file's text, its language (--lang wins) and whether it holds an
    S-expression (see source_language)."""
    text = Path(name).read_text(encoding="utf-8", errors="replace")
    return (text, *source_language(name, lang))


# --- subcommand bodies --------------------------------------------------------

def cmd_parse(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    for name in args.files:
        text, language, is_sexpr = _read_source(name, args.lang)
        tree = load_tree(text, language, is_sexpr, name)
        if not args.raw and language:
            tree = unify_ast(tree, language, table)
        print(render_sexpr(tree, pretty=args.pretty))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    samples = _ingest(args.corpus, args.manifest)
    report = path_length_stats(s.tree for s in samples)
    if args.json:
        print(json.dumps(asdict(report), sort_keys=True))
    else:
        print(f"files   {report.count}")
        print(f"mean    {report.mean:.1f}")
        for name in ("median", "p70", "p80", "p90", "min", "max"):
            print(f"{name:<8}{getattr(report, name)}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    rc = resolve_run_config(args)
    table = _load_table(rc.table)
    splits, vocab = _features(rc, table, rc.L)
    result = train(splits, rc, vocab, table.table_hash)
    cfg = result.checkpoint.config
    last = result.history[-1]
    print(f"trained mode={cfg.mode} unified={rc.unified} "
          f"epochs={last['epoch']} steps={last['step']} "
          f"train_loss={last['train_loss']:.4f}")
    if last["val_accuracy"] is not None:
        # the first epoch of the highest accuracy, the one best.ckpt holds
        best = max(result.history, key=lambda r: r["val_accuracy"])
        print(f"validation accuracy {last['val_accuracy']:.4f} "
              f"(best {best['val_accuracy']:.4f} at epoch {best['epoch']})")
    if splits["test"]:
        report = evaluate_samples(splits["test"], result.checkpoint.params,
                                  cfg, rc.batch_size)
        print("test: " + " ".join(f"{name} {value:.4f}" for name, value
                                  in report.summary().items()))
    if rc.out_dir is not None:
        out = Path(rc.out_dir)
        print(f"checkpoints: {out / 'final.ckpt'} (final), "
              f"{out / 'best.ckpt'} (best); history: {out / 'history.jsonl'}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ckpt, table = _checkpoint_and_table(args)
    samples = _ingest(args.corpus, args.manifest)
    labels = corpus_labels(samples)
    if labels != list(ckpt.labels):
        raise DataError(
            f"corpus labels {labels} do not match checkpoint labels "
            f"{list(ckpt.labels)}")
    # the checkpoint's seed and ratios rebuild the split it was trained on
    ratios = (ckpt.run_config or {}).get("ratios", DEFAULT_RATIOS)
    splits = split_dataset(samples, ckpt.seed, ratios)
    if args.split == "all":
        chosen = [s for name in SPLIT_NAMES for s in splits[name]]
    else:
        chosen = splits[args.split]
    if not chosen:
        raise EmptySplit(f"split {args.split!r} is empty")
    featurize(chosen, table, ckpt.unified, ckpt.vocab, ckpt.config.L,
              ckpt.config.N)
    report = evaluate_samples(chosen, ckpt.params, ckpt.config)
    header = {"mode": ckpt.config.mode, "unified": ckpt.unified,
              "seed": ckpt.seed, "split": args.split,
              "checkpoint_epoch": ckpt.epoch, "run_config": ckpt.run_config}
    if args.json:
        print(json.dumps({"header": header, "metrics": report.to_dict()},
                         sort_keys=True))
    else:
        print(f"mode {ckpt.config.mode}  unified {ckpt.unified}  "
              f"split {args.split}  seed {ckpt.seed}")
        print(report.format_table(list(ckpt.labels)))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    ckpt, table = _checkpoint_and_table(args)
    text, language, is_sexpr = _read_source(args.file, args.lang)
    label, probs = predict_one(ckpt, text, language, table, is_sexpr,
                               path=args.file)
    if args.json:
        print(json.dumps({"label": label,
                          "probabilities": dict(zip(ckpt.labels,
                                                    probs.tolist()))},
                         sort_keys=True))
    else:
        print(label)
        for name, p in zip(ckpt.labels, probs):
            print(f"  {name}  {p:.4f}")
    return 0


SWEEP_PARAMS = ("path-length", "gcn-layers")


def cmd_sweep(args: argparse.Namespace) -> int:
    rc = resolve_run_config(args)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --values {args.values!r}; expected integers")
    if not values:
        raise UsageError("--values must name at least one setting")
    if len(set(values)) < len(values):
        raise UsageError(f"--values repeats a setting: {args.values!r}")
    by_length = args.param == "path-length"
    # each run checks its settings now and records the directory it writes
    runs = [replace(rc, **{"L" if by_length else "gcn_layers": value},
                    out_dir=str(Path(rc.out_dir) / f"{args.param}-{value}")
                    if rc.out_dir else None)
            for value in values]
    table = _load_table(rc.table)
    # one parse, one unification and one featurization serve every
    # setting; a path length L is the first L steps of the longest paths
    splits, vocab = _features(rc, table,
                              max(values) if by_length else rc.L)
    longest = [(s, s.path_seq) for name in SPLIT_NAMES for s in splits[name]]
    rows = []
    for value, run in zip(values, runs):
        if by_length:
            for s, path in longest:
                s.path_seq = replace(path, indices=path.indices[:value])
        ckpt = train(splits, run, vocab, table.table_hash).checkpoint
        source = splits["test"] or splits["validation"] or splits["train"]
        report = evaluate_samples(source, ckpt.params, ckpt.config,
                                  run.batch_size)
        rows.append({"value": value, **report.summary()})
    if args.json:
        print(json.dumps({"param": args.param, "rows": rows},
                         sort_keys=True))
    else:
        print(f"{args.param:>12}" + "".join(f" {name:>10}"
                                            for name in SUMMARY_NAMES))
        for row in rows:
            print(f"{row['value']:>12}" + "".join(f" {row[name]:>10.4f}"
                                                  for name in SUMMARY_NAMES))
    return 0


def cmd_datagen(args: argparse.Namespace) -> int:
    count = generate_corpus(args.out, seed=args.seed, per_pair=args.count)
    print(f"wrote {count} files under {args.out}")
    return 0


# --- parser -------------------------------------------------------------------

def _add_corpus_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--corpus", help="corpus root: <label>/<language>/<file>")
    sub.add_argument("--manifest",
                     help="CSV manifest of path,label[,language] rows")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--profile", choices=sorted(PROFILES),
                     help=f"preset defaults (default {DEFAULT_PROFILE})")
    sub.add_argument("--config", help="JSON file of run settings")
    sub.add_argument("--table", help="unification table file "
                                     f"(or ${TABLE_ENV})")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--ratios", help="split ratios, e.g. 3,1,1")
    sub.add_argument("--mode", choices=MODES)
    sub.add_argument("--no-unified-vocab", dest="unified",
                     action="store_const", const=False,
                     help="skip kind unification; use raw per-language kinds")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--max-steps", dest="max_steps", type=int)
    for name in ("L", "N", "d", "heads", "h", "lstm-layers", "gcn-layers",
                 "gcn-hidden", "d-out"):
        sub.add_argument(f"--{name}", dest=name.replace("-", "_"), type=int)
    sub.add_argument("--attn-dropout", dest="attn_dropout", type=float)
    sub.add_argument("--lstm-dropout", dest="lstm_dropout", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uast",
        description="Cross-language program classification over unified "
                    "syntax trees")
    parser.add_argument("--log-level", dest="log_level", default="warning",
                        choices=LOG_LEVELS,
                        help="least severe log records written to stderr "
                             "(default warning)")
    parser.add_argument("-v", dest="log_level", action="store_const",
                        const="info", help="same as --log-level info")
    commands = parser.add_subparsers(dest="command", metavar="command")

    p = commands.add_parser("parse", help="print S-expression ASTs")
    p.add_argument("files", nargs="+")
    p.add_argument("--lang", help=f"language ({', '.join(registered_languages())})")
    p.add_argument("--raw", action="store_true",
                   help="skip kind unification")
    p.add_argument("--pretty", action="store_true", help="indent output")
    p.add_argument("--table")
    p.set_defaults(func=cmd_parse)

    p = commands.add_parser("stats", help="path-length distribution")
    _add_corpus_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = commands.add_parser("train", help="fit a model")
    _add_corpus_flags(p)
    _add_run_flags(p)
    p.add_argument("--out-dir", dest="out_dir",
                   help="directory for checkpoints and history")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("eval", help="score a split with a checkpoint")
    _add_corpus_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test",
                   choices=(*SPLIT_NAMES, "all"))
    p.add_argument("--table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("predict", help="classify one file")
    p.add_argument("file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--lang")
    p.add_argument("--table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("sweep",
                            help="train a series over one hyperparameter")
    _add_corpus_flags(p)
    _add_run_flags(p)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True,
                   help="comma-separated integer settings")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = commands.add_parser("datagen",
                            help="generate the bundled benchmark corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=60,
                   help="files per class and language")
    p.set_defaults(func=cmd_datagen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    logger = logging.getLogger("uastkit")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    kept_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(args.log_level.upper())
    try:
        return args.func(args) or 0
    except UastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)
        logger.setLevel(kept_level)


def entry() -> None:
    raise SystemExit(main())
