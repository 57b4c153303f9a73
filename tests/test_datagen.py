"""The bytes the benchmark generator writes, and that each file parses.

The digests pin the text of four corpora: a change to a template, a name
pool, a draw or its order, or to whitespace, changes a digest.  Every
trained model, acceptance check and perfbench workload reads these corpora.
"""

import hashlib
from pathlib import Path

import pytest

from uastkit.ast_frontend import ERROR_KIND, parse_source, source_language
from uastkit.datagen import generate_corpus

# sha256 of corpus_digest over generate_corpus(seed=, per_pair=): seed 1 is
# perfbench's train and predict corpus and, at 600, its ingest corpus; seed
# 42 is the acceptance test's
GOLDEN_CORPORA = {
    (1, 60): "b3ddd5aa13afaa386aa26f7912b0188ba781bbcfc4daffffe4e6b421235582a5",
    (42, 60):
        "49f2e2a253cd90cc489ebe0351dc9c40dfabcc95a1cc33b3de681106a10b32b5",
    (3, 60): "2a0dee8db2bb4050d761e21a783336cda66415848cdb8b34f736fd74e3d1db01",
    (1, 600):
        "0c65decf47a0610e4c415aea31dad87982c18b0111e81580d9bc99e0d4e51f12",
}


def corpus_files(root):
    return sorted(p for p in Path(root).rglob("*") if p.is_file())


def corpus_digest(root) -> str:
    """sha256 over each file's path relative to root, its length and its
    bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in corpus_files(root):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0"
                      .encode())
        digest.update(data)
    return digest.hexdigest()


@pytest.mark.parametrize("seed, per_pair", sorted(GOLDEN_CORPORA))
def test_corpus_bytes_are_pinned(tmp_path, seed, per_pair):
    assert generate_corpus(tmp_path, seed=seed, per_pair=per_pair) == \
        6 * per_pair
    assert corpus_digest(tmp_path) == GOLDEN_CORPORA[seed, per_pair]


def test_every_file_parses_without_error(tmp_path):
    generate_corpus(tmp_path, seed=1)
    files = corpus_files(tmp_path)
    assert len(files) == 360
    for path in files:
        language = source_language(path)[0]
        tree = parse_source(path.read_text(encoding="utf-8"), language)
        assert ERROR_KIND not in tree.kinds, path.relative_to(tmp_path)
