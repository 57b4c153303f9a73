"""Corpus ingestion and deterministic splitting.

A corpus is either a directory tree `root/<label>/<language>/<file>` or an
explicit manifest of `path,label,language` rows.  Ingestion reads sources,
drops byte-identical duplicates, parses each file, and assigns stable
lexicographic label indices.  Splitting shuffles each language stratum
with a seeded generator and apportions by largest remainder, so the same
seed always yields the same disjoint, covering split.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..ast_frontend import (
    SEXPR_EXTENSION,
    FlatTree,
    load_tree,
    normalize_language,
    source_language,
)
from ..errors import (
    DataError,
    EmptyClass,
    EmptyCorpus,
    MalformedSExpr,
    ParseFailure,
    UnknownExtension,
)
from ..featurizer import GraphSample, PathSequence
from ..typecheck import has_type

log = logging.getLogger("uastkit.corpus")

SPLIT_NAMES = ("train", "validation", "test")
DEFAULT_RATIOS = (3, 1, 1)
# three numbers, as a run config holds them or as a checkpoint records them
_RATIOS = tuple[float, ...] | list[float]


@dataclass
class LabeledSample:
    """One source file with its label, parse, and (later) feature views."""
    source_path: str
    language: str | None  # None only for a tree file to predict
    label: str
    label_index: int
    tree: FlatTree | None
    path_seq: PathSequence | None = None
    graph: GraphSample | None = None


def _enumerate_directory(root: Path) -> list[tuple[Path, str, str | None]]:
    """Yield (file, label, declared_language) from the directory layout."""
    rows: list[tuple[Path, str, str | None]] = []
    labels = sorted(p for p in root.iterdir() if p.is_dir())
    if not labels:
        raise EmptyCorpus(f"{root}: no label directories")
    for label_dir in labels:
        before = len(rows)
        for entry in sorted(label_dir.iterdir()):
            if entry.is_dir():
                language = normalize_language(entry.name)
                rows.extend((f, label_dir.name, language)
                            for f in sorted(entry.rglob("*")) if f.is_file())
            elif entry.is_file():
                rows.append((entry, label_dir.name, None))
        if len(rows) == before:
            raise EmptyClass(f"label {label_dir.name!r} has no files")
    return rows


def _enumerate_manifest(manifest: Path) -> list[tuple[Path, str, str | None]]:
    rows: list[tuple[Path, str, str | None]] = []
    base = manifest.parent
    try:
        with open(manifest, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 2 or not (row[0].strip() and row[1].strip()):
                    raise DataError(
                        f"{manifest}:{lineno}: need path,label[,language]")
                path = Path(row[0].strip())
                if not path.is_absolute():
                    path = base / path
                language = row[2].strip() if len(row) > 2 and row[2].strip() \
                    else None
                rows.append((path, row[1].strip(), language))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read manifest {manifest}: {exc}") from exc
    if not rows:
        raise EmptyCorpus(f"{manifest}: no rows")
    return rows


def ingest_corpus(root: str | Path,
                  manifest: str | Path | None = None) -> list[LabeledSample]:
    """Read, dedup, and parse a corpus into labeled samples.

    Byte-identical files after the first (in sorted path order) are dropped,
    as are files the parser rejects; both log warnings, and one INFO line
    counts the files attempted, parsed and skipped.  Label indices are
    assigned lexicographically over the labels that survive.
    """
    root = Path(root)
    if manifest is not None:
        rows = _enumerate_manifest(Path(manifest))
    else:
        if not root.is_dir():
            raise DataError(f"corpus root {root} is not a directory")
        rows = _enumerate_directory(root)
    rows.sort(key=lambda r: (r[1], str(r[0])))

    seen: dict[str, Path] = {}
    parsed: list[tuple[str, str, Path, FlatTree]] = []
    label_seen: dict[str, int] = {}
    for path, label, declared in rows:
        label_seen.setdefault(label, 0)
        language, is_sexpr = source_language(path, declared)
        if language is None:
            raise UnknownExtension(
                f"{path}: cannot infer a language for {SEXPR_EXTENSION} "
                "files; declare one in a manifest or a language directory")
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        digest = hashlib.sha256(blob).hexdigest()
        if digest in seen:
            log.warning("duplicate file skipped: %s (same bytes as %s)",
                        path, seen[digest])
            continue
        seen[digest] = path
        text = blob.decode("utf-8", errors="replace")
        try:
            tree = load_tree(text, language, is_sexpr, str(path))
        except (ParseFailure, MalformedSExpr) as exc:
            log.warning("unparseable file skipped: %s (%s)", path, exc)
            continue
        parsed.append((label, language, path, tree))
        label_seen[label] += 1
    log.info("ingested %s: %d files attempted, %d parsed, %d duplicates "
             "skipped, %d unparseable skipped", manifest or root, len(rows),
             len(parsed), len(rows) - len(seen), len(seen) - len(parsed))

    for label, count in sorted(label_seen.items()):
        if count == 0:
            raise EmptyClass(f"label {label!r} has no usable files")

    labels = sorted(label_seen)
    index = {name: i for i, name in enumerate(labels)}
    return [LabeledSample(source_path=str(path), language=language,
                          label=label, label_index=index[label], tree=tree)
            for label, language, path, tree in parsed]


def corpus_labels(samples: list[LabeledSample]) -> list[str]:
    return sorted({s.label for s in samples})


def corpus_languages(samples: list[LabeledSample]) -> list[str]:
    return sorted({s.language for s in samples})


def _largest_remainder(n: int, ratios: tuple[int, ...]) -> list[int]:
    total = sum(ratios)
    quotas = [n * r / total for r in ratios]
    base = [math.floor(q) for q in quotas]
    order = sorted(range(len(ratios)),
                   key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:n - sum(base)]:
        base[i] += 1
    return base


def split_dataset(samples: list[LabeledSample], seed: int,
                  ratios: tuple[int, int, int] = DEFAULT_RATIOS,
                  ) -> dict[str, list[LabeledSample]]:
    """Seeded per-language stratified split by largest remainder.

    Equal fractional remainders favor the earlier part, so a 5-sample
    stratum under 3:1:1 lands exactly 3/1/1.
    """
    if not (has_type(ratios, _RATIOS) and len(ratios) == 3) \
            or any(r < 0 for r in ratios) or not 0 < sum(ratios) < math.inf:
        raise DataError(f"bad split ratios {ratios!r}")
    if not (has_type(seed, int) and seed >= 0):
        raise DataError(f"bad split seed {seed!r}; expected an integer >= 0")
    rng = np.random.default_rng([seed, 0])
    out: dict[str, list[LabeledSample]] = {name: [] for name in SPLIT_NAMES}
    by_language: dict[str, list[LabeledSample]] = {}
    for s in samples:
        by_language.setdefault(s.language, []).append(s)
    for language in sorted(by_language):
        group = sorted(by_language[language],
                       key=lambda s: (s.label, s.source_path))
        perm = rng.permutation(len(group))
        shuffled = [group[i] for i in perm]
        counts = _largest_remainder(len(group), tuple(ratios))
        at = 0
        for name, take in zip(SPLIT_NAMES, counts):
            out[name].extend(shuffled[at:at + take])
            at += take
    return out
