"""Parsing, node-kind unification, and the frozen kind vocabulary."""

from .backends import (
    EXTENSION_LANGUAGES,
    SEXPR_EXTENSION,
    load_tree,
    normalize_language,
    parse_source,
    registered_languages,
    source_language,
)
from .tree import (
    ERROR_KIND,
    AstNode,
    FlatTree,
    flatten,
    load_ast_sexpr,
    node_count,
    render_sexpr,
)
from .unify import (
    UnificationTable,
    load_default_table,
    load_unification_table,
    parse_unification_table,
    unify_ast,
)
from .vocab import (
    PAD_INDEX,
    Vocabulary,
    build_vocabulary,
    vocabulary_from_kinds,
)

__all__ = [
    "AstNode", "FlatTree", "ERROR_KIND", "flatten", "node_count",
    "load_ast_sexpr", "render_sexpr",
    "parse_source", "registered_languages",
    "normalize_language", "source_language", "load_tree",
    "EXTENSION_LANGUAGES", "SEXPR_EXTENSION",
    "UnificationTable", "unify_ast", "load_unification_table",
    "parse_unification_table", "load_default_table",
    "Vocabulary", "build_vocabulary", "vocabulary_from_kinds",
    "PAD_INDEX",
]
