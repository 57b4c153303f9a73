"""Frozen kind vocabulary shared by both model inputs.

Index 0 (PAD) is reserved and never assigned to a real kind; no feature
view holds it, since the views are unpadded.  The unknown-kind index sits
one past the last real kind.  Construction happens once, over the training
split only, and the result never changes afterwards: kinds first seen at
inference map to the unknown index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import EmptyCorpus
from .tree import FlatTree

PAD_INDEX = 0


@dataclass(frozen=True)
class Vocabulary:
    kinds: tuple[str, ...]  # real kinds in index order, index = position + 1
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index",
                           {kind: i + 1 for i, kind in enumerate(self.kinds)})

    @property
    def unk_index(self) -> int:
        return len(self.kinds) + 1

    @property
    def size(self) -> int:
        """Total index count including PAD and UNK."""
        return len(self.kinds) + 2

    @property
    def vocab_hash(self) -> str:
        payload = "\n".join(self.kinds).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_vocabulary(corpus: Iterable[FlatTree]) -> Vocabulary:
    """Collect unified kinds from training trees into a frozen vocabulary.

    Kinds are sorted lexicographically and indexed from 1; raises
    EmptyCorpus when the iterator yields nothing.
    """
    trees = list(corpus)
    if not trees:
        raise EmptyCorpus("cannot build a vocabulary from zero trees")
    return Vocabulary(tuple(sorted(set().union(*(t.kinds for t in trees)))))


def vocabulary_from_kinds(kinds: Iterable[str]) -> Vocabulary:
    """Rebuild a vocabulary from a stored kind list, preserving order."""
    return Vocabulary(tuple(kinds))
