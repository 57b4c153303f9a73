"""Node-kind unification across language grammars.

A unification table holds one section per language mapping grammar kind
labels to shared labels; kinds absent from the section pass through
unchanged.  Tables are plain text so new languages can be covered without
touching code:

    # comment
    [java]
    program = unit
    method_declaration = function_definition

Within a section, every mapping target must itself be a fixed point (either
absent from the keys or mapped to itself); this keeps unification idempotent.
``unify_ast`` relabels a parsed tree's kind list in place, one pass over
the pre-order kinds: each caller replaces its tree with the unified one and
has no further use for the raw kinds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..errors import DuplicateMapping, TableFormatError, UnsupportedLanguage
from .backends import normalize_language
from .tree import FlatTree

DEFAULT_TABLE_RESOURCE = "default_unification.tbl"


def _canon_language(name: str) -> str:
    try:
        return normalize_language(name)
    except UnsupportedLanguage:
        return name.strip().casefold()


@dataclass(frozen=True)
class UnificationTable:
    sections: dict[str, dict[str, str]]

    def canonical(self) -> str:
        """Comment-free serialization; basis for the table hash."""
        lines: list[str] = []
        for lang in sorted(self.sections):
            lines.append(f"[{lang}]")
            for key in sorted(self.sections[lang]):
                lines.append(f"{key} = {self.sections[lang][key]}")
        return "\n".join(lines) + ("\n" if lines else "")

    @property
    def table_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def parse_unification_table(text: str, source: str = "<string>") -> UnificationTable:
    sections: dict[str, dict[str, str]] = {}
    entry_lines: dict[str, dict[str, int]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise TableFormatError(f"{source}: malformed section header", lineno)
            name = line[1:-1].strip()
            if not name:
                raise TableFormatError(f"{source}: empty section name", lineno)
            current = _canon_language(name)
            sections.setdefault(current, {})
            entry_lines.setdefault(current, {})
            continue
        if "=" not in line:
            raise TableFormatError(f"{source}: expected 'source = unified'", lineno)
        if current is None:
            raise TableFormatError(f"{source}: entry before any [language] section",
                                   lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise TableFormatError(f"{source}: empty kind label", lineno)
        if any(ch.isspace() for ch in key) or any(ch.isspace() for ch in value):
            raise TableFormatError(f"{source}: kind labels contain no whitespace",
                                   lineno)
        section = sections[current]
        if key in section and section[key] != value:
            raise DuplicateMapping(
                f"{source}:{lineno}: [{current}] maps {key!r} to both "
                f"{section[key]!r} and {value!r}")
        section[key] = value
        entry_lines[current][key] = lineno

    for lang, section in sections.items():
        for key, value in section.items():
            if value in section and section[value] != value:
                raise TableFormatError(
                    f"{source}: [{lang}] {key!r} -> {value!r} chains into "
                    f"{value!r} -> {section[value]!r}; targets must be fixed points",
                    entry_lines[lang][key])
    return UnificationTable(sections)


def load_unification_table(path: str | Path) -> UnificationTable:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise TableFormatError(f"{p}: {exc}", 0) from exc
    return parse_unification_table(text, source=str(p))


def load_default_table() -> UnificationTable:
    ref = resources.files("uastkit.data").joinpath(DEFAULT_TABLE_RESOURCE)
    return parse_unification_table(ref.read_text(encoding="utf-8"),
                                   source=DEFAULT_TABLE_RESOURCE)


def unify_ast(root: FlatTree, language: str,
              table: UnificationTable) -> FlatTree:
    """Replace each kind in the tree with its unified label, in place.

    Returns root, so a caller writes ``tree = unify_ast(tree, ...)``.  The
    parents are untouched.  Unifying a tree twice changes nothing more,
    since every mapping target is a fixed point.
    """
    section = table.sections.get(_canon_language(language))
    if section:
        root.kinds[:] = map(section.get, root.kinds, root.kinds)
    return root
