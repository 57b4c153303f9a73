"""Seeded workload inputs beyond the datagen corpus.

Every file the program reads comes from uastkit.datagen.generate_corpus
with the run's seed, plus the additions made here from the same seed.  The
same seed gives the same bytes.  The benchmark keeps its own account of
what it planted, so it can check the program's output without trusting
the program.
"""

from __future__ import annotations

import ast
import hashlib
import shutil
from pathlib import Path

import numpy as np

from uastkit.ast_frontend import normalize_language

INGEST_PER_PAIR = 600       # 3 classes x 2 languages x 600 = 3,600 files
PLANTED_COPY_SHARE = 0.05   # byte-identical copies, to run the dedup path
BROKEN_FILES = 12           # Python files that cannot parse: the skip path
LONG_FILES = 16             # predict files past L=200 and N=400
FUNCTIONS_PER_LONG_FILE = 12
# Both of these crash the recursive-descent Java parser today.  They are
# probed apart from the timed predict stream: one crash would otherwise be
# a failed operation in every run.
HOSTILE_JAVA = {
    "nested_parens.java":
        "class H { int f() { return " + "(" * 3000 + "1" + ")" * 3000
        + "; } }\n",
    "else_if_chain.java":
        "class H { int f(int x) { if (x == 0) { return 0; }"
        + "".join(f" else if (x == {i}) {{ return {i}; }}"
                  for i in range(1, 1001))
        + " return -1; } }\n",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def corpus_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def language_of(path: Path) -> str:
    """Corpus layout is root/<label>/<language>/<file>."""
    return normalize_language(path.parent.name)


def plant_ingest_extras(root: Path, seed: int) -> tuple[int, int]:
    """Add byte-identical copies and unparseable Python files in place.

    Returns (copies, broken).  Copies sit beside their originals, so they
    share a label; each broken file ends in an unclosed parenthesis.
    """
    files = corpus_files(root)
    rng = np.random.default_rng([seed, 101])
    picks = sorted(rng.choice(len(files), size=round(PLANTED_COPY_SHARE
                                                     * len(files)),
                              replace=False))
    for n, i in enumerate(picks):
        src = files[i]
        shutil.copyfile(src, src.with_name(f"copy_{n:04d}{src.suffix}"))
    python = [f for f in files if f.suffix == ".py"]
    for n in range(BROKEN_FILES):
        src = python[int(rng.integers(len(python)))]
        text = src.read_text(encoding="utf-8") + f"broken_{n} = (\n"
        (src.parent / f"broken_{n:02d}.py").write_text(text, encoding="utf-8")
    return len(picks), BROKEN_FILES


def expected_ingest(root: Path) -> tuple[set[str], int]:
    """(content hashes ingest must return, files it must skip).

    A file is expected once per distinct content, unless it is one of the
    planted broken files.  Those are checked here with the stdlib parser,
    independently of uastkit.
    """
    files = corpus_files(root)
    keep: set[str] = set()
    for f in files:
        if f.name.startswith("broken_"):
            try:
                ast.parse(f.read_text(encoding="utf-8"))
            except SyntaxError:
                continue
            raise RuntimeError(f"planted file {f} parses; the input is wrong")
        keep.add(sha256(f))
    return keep, len(files) - len(keep)


def predict_stream(corpus_root: Path, heldout: list[tuple[str, str]],
                   toy_root: Path, seed: int) -> list[tuple[str, str, str]]:
    """(name, text, language) in a seeded order.

    Held-out datagen files, the bundled toy corpus, and long Python files
    joined from several generated functions.
    """
    items = [(p, Path(p).read_text(encoding="utf-8"), lang)
             for p, lang in heldout]
    items += [(str(f), f.read_text(encoding="utf-8"), language_of(f))
              for f in corpus_files(toy_root)]
    rng = np.random.default_rng([seed, 102])
    python = [f for f in corpus_files(corpus_root) if f.suffix == ".py"]
    for n in range(LONG_FILES):
        parts = rng.choice(len(python), size=FUNCTIONS_PER_LONG_FILE,
                           replace=False)
        text = "\n\n".join(python[i].read_text(encoding="utf-8")
                           for i in parts)
        items.append((f"long_{n:02d}.py", text, "python"))
    return [items[i] for i in rng.permutation(len(items))]
