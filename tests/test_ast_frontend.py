"""Trees, the S-expression interchange, tables, vocabulary, and unification."""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_tree, random_tree, sexpr_tree
from uastkit.ast_frontend import (
    PAD_INDEX,
    UnificationTable,
    Vocabulary,
    build_vocabulary,
    load_ast_sexpr,
    load_default_table,
    node_count,
    parse_source,
    parse_unification_table,
    render_sexpr,
    unify_ast,
    vocabulary_from_kinds,
)
from uastkit.errors import (
    DuplicateMapping,
    EmptyCorpus,
    MalformedSExpr,
    TableFormatError,
)


# --- trees and interchange ---------------------------------------------------

class TestSExpr:
    def test_roundtrip_simple(self):
        tree = sexpr_tree("(unit (function_definition (block)))")
        assert tree.kinds[0] == "unit"
        assert render_sexpr(tree) == "(unit (function_definition (block)))"

    def test_leaf_renders_bare(self):
        assert render_sexpr(sexpr_tree("(identifier)")) == "(identifier)"

    def test_whitespace_is_insignificant(self):
        a = sexpr_tree("(a(b)(c))")
        b = sexpr_tree("  ( a \n ( b )\t( c ) ) ")
        assert a == b

    @pytest.mark.parametrize("text", ["", "(", ")", "(a", "(a))", "(a) (b)",
                                      "()", "a"])
    def test_malformed_raises_with_offset(self, text):
        with pytest.raises(MalformedSExpr) as err:
            load_ast_sexpr(text)
        assert err.value.offset >= 0

    def test_any_whitespace_ends_a_kind(self):
        # a form feed separates tokens, so it cannot end up inside a kind
        assert sexpr_tree("(a\x0c(b))") == sexpr_tree("(a (b))")

    def test_whitespace_inside_a_kind_is_malformed(self):
        with pytest.raises(MalformedSExpr) as err:
            load_ast_sexpr("(a\xa0b)")
        assert err.value.offset == 3

    @pytest.mark.parametrize("kind", ["a\x0c", "a\xa0b", "a b", "a(", "a)"])
    def test_unreadable_kind_is_not_rendered(self, kind):
        with pytest.raises(ValueError, match="cannot be rendered"):
            render_sexpr(chain_tree(["root", kind]))

    def test_preorder_order(self):
        tree = sexpr_tree("(a (b (c) (d)) (e))")
        assert tree.kinds == ["a", "b", "c", "d", "e"]
        assert list(tree.parents) == [-1, 0, 1, 1, 0]

    def test_random_trees_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            tree = random_tree(rng, max_nodes=40)
            again = sexpr_tree(render_sexpr(tree))
            assert again == tree
            assert node_count(again) == node_count(tree)

    def test_deep_tree_no_recursion_limit(self):
        deep = chain_tree(["k"] * 5000)
        text = render_sexpr(deep)
        assert node_count(sexpr_tree(text)) == 5000


# --- unification tables --------------------------------------------------------

TABLE_TEXT = """\
# shared kinds
[java]
program = unit
method_declaration = function_definition

[python]
module = unit
"""


def unified(table: UnificationTable, language: str, kind: str) -> str:
    """The kind a one-node tree of kind has after unification."""
    return unify_ast(sexpr_tree(f"({kind})"), language, table).kinds[0]


class TestTableParsing:
    def test_sections_and_lookup(self):
        table = parse_unification_table(TABLE_TEXT)
        assert unified(table, "java", "program") == "unit"
        assert unified(table, "python", "module") == "unit"
        # unmapped kinds pass through
        assert unified(table, "java", "identifier") == "identifier"
        assert unified(table, "ruby", "anything") == "anything"

    def test_comments_and_blank_lines_ignored(self):
        table = parse_unification_table(
            "# top\n\n[java]\n  # indented comment\nprogram = unit  # tail\n")
        assert unified(table, "java", "program") == "unit"

    def test_empty_text_is_passthrough(self):
        table = parse_unification_table("")
        assert unified(table, "java", "program") == "program"

    def test_targets_must_be_fixed_points(self):
        # a target that is itself remapped would make lookup order-dependent
        bad = "[java]\nprogram = unit\nunit = other\n"
        with pytest.raises(TableFormatError) as err:
            parse_unification_table(bad)
        # the error points at the entry whose target is no longer a fixed point
        assert err.value.line == 2
        assert "fixed point" in str(err.value)

    def test_contradicting_duplicate_raises(self):
        with pytest.raises(DuplicateMapping):
            parse_unification_table("[java]\nx = a\nx = b\n")

    def test_repeated_identical_entry_allowed(self):
        table = parse_unification_table("[java]\nx = a\nx = a\n")
        assert unified(table, "java", "x") == "a"

    @pytest.mark.parametrize("text,line", [
        ("x = y\n", 1),              # entry before any section
        ("[java\nx = y\n", 1),       # unterminated header
        ("[]\n", 1),                 # empty section name
        ("[java]\nnovalue\n", 2),    # missing separator
        ("[java]\nx = \n", 2),       # empty target
        ("[java]\nx = a b\n", 2),    # whitespace inside a label
    ])
    def test_format_errors_carry_line_numbers(self, text, line):
        with pytest.raises(TableFormatError) as err:
            parse_unification_table(text)
        assert err.value.line == line

    def test_hash_ignores_entry_order(self):
        a = parse_unification_table("[java]\na = x\nb = y\n")
        b = parse_unification_table("[java]\nb = y\na = x\n")
        assert a.table_hash == b.table_hash

    def test_hash_differs_on_content(self):
        a = parse_unification_table("[java]\na = x\n")
        b = parse_unification_table("[java]\na = y\n")
        assert a.table_hash != b.table_hash


class TestDefaultTable:
    def test_root_kinds_unify(self, default_table):
        for language, kind in (("java", "program"),
                               ("cpp", "translation_unit"),
                               ("python", "module")):
            assert unified(default_table, language, kind) == "unit"

    def test_block_kinds_unify(self, default_table):
        assert unified(default_table, "cpp", "compound_statement") == "block"
        assert unified(default_table, "javascript",
                       "statement_block") == "block"

    def test_all_targets_are_fixed_points(self, default_table):
        for language, section in default_table.sections.items():
            for target in section.values():
                assert section.get(target, target) == target


class TestUnifyAst:
    def test_renames_and_preserves_shape(self):
        table = parse_unification_table("[java]\nprogram = unit\n")
        tree = sexpr_tree("(program (method (program)))")
        before = render_sexpr(tree)
        kinds, parents = tree
        out = unify_ast(tree, "java", table)
        assert before == "(program (method (program)))"
        assert render_sexpr(out) == "(unit (method (unit)))"
        # the tree is relabeled in place: the same kind list and parents
        assert out is tree
        assert out.kinds is kinds and out.parents is parents
        # and a second pass changes nothing more
        assert render_sexpr(unify_ast(out, "java", table)) == "(unit (method (unit)))"

    def test_identity_table_is_noop(self):
        tree = sexpr_tree("(a (b) (c (d)))")
        assert unify_ast(tree, "java", UnificationTable({})) == \
            sexpr_tree("(a (b) (c (d)))")

    def test_shape_preserved_on_random_trees(self, default_table):
        rng = np.random.default_rng(3)
        for _ in range(25):
            tree = random_tree(rng, max_nodes=60,
                               kinds=("program", "block", "identifier",
                                      "binary_operator"))
            before = sexpr_tree(render_sexpr(tree))  # taken before the call
            out = unify_ast(tree, "python", default_table)
            assert out is tree
            assert node_count(before) == node_count(out)
            assert before.parents == out.parents
            assert out.kinds == [unified(default_table, "python", kind)
                                 for kind in before.kinds]


# --- vocabulary -----------------------------------------------------------------

class TestVocabulary:
    def test_layout(self):
        vocab = build_vocabulary([sexpr_tree("(b (a) (c))")])
        assert vocab.kinds == ("a", "b", "c")
        assert PAD_INDEX == 0
        assert vocab.index["a"] == 1
        assert vocab.index["c"] == 3
        assert vocab.unk_index == 4
        assert vocab.size == 5

    def test_unknown_kind_maps_to_unk(self):
        vocab = vocabulary_from_kinds(["x"])
        # featurize_sample reads an absent kind as unk_index, no real kind's
        assert "never_seen" not in vocab.index
        assert vocab.unk_index == 2 and 2 not in vocab.index.values()

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([])

    def test_hash_depends_only_on_kinds(self):
        a = build_vocabulary([sexpr_tree("(a (b))")])
        b = build_vocabulary([sexpr_tree("(b (a) (a))")])
        assert a.vocab_hash == b.vocab_hash

    @given(st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6),
                    min_size=1, max_size=20, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_indices_are_a_bijection(self, kinds):
        vocab = vocabulary_from_kinds(sorted(kinds))
        seen = {vocab.index[k] for k in kinds}
        assert len(seen) == len(kinds)
        assert all(0 < i < vocab.unk_index for i in seen)


# --- python backend smoke (cross-language details live in test_backends) -------

class TestPythonBackend:
    def test_module_and_function(self):
        tree = parse_source("def f(a, b):\n    return a + b\n", "python")
        kinds = tree.kinds
        assert kinds[0] == "module"
        assert "function_definition" in kinds
        assert "binary_operator" in kinds

    def test_unifies_to_shared_kinds(self, default_table):
        tree = parse_source("def f(a):\n    return a\n", "python")
        out = unify_ast(tree, "python", default_table)
        kinds = set(out.kinds)
        assert out.kinds[0] == "unit"
        assert "block" in kinds

    def test_empty_source_gives_bare_root(self):
        assert node_count(parse_source("", "python")) == 1

    @pytest.mark.parametrize("path, where", [("w.py", "w.py"),
                                             (None, "<unknown>")])
    def test_syntax_warnings_go_to_the_logger(self, capfd, caplog, path,
                                              where):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning that escapes fails
            with caplog.at_level(logging.WARNING, logger="uastkit"):
                tree = parse_source("x = 1if y else 2\n", "python", path=path)
        assert tree.kinds[0] == "module"
        assert "SyntaxWarning" not in capfd.readouterr().err
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("uastkit.frontend",
             f"{where}:1: SyntaxWarning: invalid decimal literal")]
