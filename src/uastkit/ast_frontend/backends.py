"""One table mapping each language id to its parser.

The parsers cover c, cpp, java, javascript (subset recursive descent) and
python (stdlib parser); every id normalize_language returns has one.
"""

from __future__ import annotations

import logging
import warnings
from functools import partial
from pathlib import Path
from typing import Callable

from ..errors import ParseFailure, UnknownExtension, UnsupportedLanguage
from . import clike_backend, python_backend
from .tree import AstNode, FlatTree, flatten, load_ast_sexpr

Backend = Callable[[str], AstNode]

log = logging.getLogger("uastkit.frontend")

# alias -> canonical id; keys are casefolded before lookup
_ALIASES = {
    "c": "c",
    "c++": "cpp", "cpp": "cpp", "cxx": "cpp", "cc": "cpp",
    "java": "java",
    "python": "python", "py": "python", "python3": "python",
    "javascript": "javascript", "js": "javascript", "node": "javascript",
}

EXTENSION_LANGUAGES = {
    ".c": "c",
    ".cpp": "cpp", ".cc": "cpp", ".cxx": "cpp",
    ".java": "java",
    ".py": "python",
    ".js": "javascript",
}

SEXPR_EXTENSION = ".sexpr"

_BACKENDS: dict[str, Backend] = {
    "c": partial(clike_backend.parse, language="c"),
    "cpp": partial(clike_backend.parse, language="cpp"),
    "java": partial(clike_backend.parse, language="java"),
    "javascript": partial(clike_backend.parse, language="javascript"),
    "python": python_backend.parse_python,
}


def normalize_language(language: str) -> str:
    canonical = _ALIASES.get(language.strip().casefold())
    if canonical is None:
        raise UnsupportedLanguage(f"unknown language id {language!r}")
    return canonical


def source_language(path: str | Path,
                    declared: str | None = None) -> tuple[str | None, bool]:
    """The language a file is read in, and whether it holds an S-expression.

    A declared language wins over the extension.  An S-expression file
    declares no language of its own, so without one its language is None.
    """
    ext = Path(path).suffix.lower()
    is_sexpr = ext == SEXPR_EXTENSION
    if declared:
        return normalize_language(declared), is_sexpr
    if is_sexpr:
        return None, True
    if ext not in EXTENSION_LANGUAGES:
        raise UnknownExtension(f"{path}: unknown extension {ext!r}")
    return EXTENSION_LANGUAGES[ext], False


def load_tree(text: str, language: str | None, is_sexpr: bool,
              path: str | None = None) -> FlatTree:
    """An S-expression read as written, or source parsed (parse_source)."""
    return load_ast_sexpr(text) if is_sexpr else \
        parse_source(text, language, path)


def registered_languages() -> list[str]:
    return sorted(_BACKENDS)


def parse_source(text: str, language: str, path: str | None = None
                 ) -> FlatTree:
    """Parse source text in the given language into a flat pre-order tree.

    Raises UnsupportedLanguage for an unknown language id, ParseFailure
    when the backend cannot produce a tree at all, including input nested
    deeper than the interpreter's recursion limit.
    Trees containing ERROR nodes are returned, not rejected.  Warnings a
    successful parse raises (the stdlib parser's SyntaxWarnings) go to the
    `uastkit.frontend` logger, each naming `path` when one is given.
    """
    lang = normalize_language(language)
    backend = _BACKENDS[lang]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SyntaxWarning)
        try:
            tree = backend(text)
        except RecursionError as exc:
            raise ParseFailure(
                f"{lang} source nests too deeply to parse") from exc
    for w in caught:
        log.warning("%s:%s: %s: %s", path or w.filename, w.lineno,
                    w.category.__name__, w.message)
    return flatten(tree)
