"""Per-language parsers: structure, recovery, and the language registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEEP_SOURCES, else_if_chain
from uastkit.ast_frontend import (
    AstNode,
    node_count,
    parse_source,
    preorder,
    unify_ast,
)
from uastkit.ast_frontend.backends import (
    EXTENSION_LANGUAGES,
    SEXPR_EXTENSION,
    language_for_extension,
    normalize_language,
    registered_languages,
)
from uastkit.errors import (
    ParseFailure,
    UastError,
    UnknownExtension,
    UnsupportedLanguage,
)

ADD_SNIPPETS = {
    "java": "public class A { static int add(int a, int b) { return a + b; } }",
    "cpp": "int add(int a, int b) { return a + b; }",
    "c": "int add(int a, int b) { return a + b; }",
    "javascript": "function add(a, b) { return a + b; }",
    "python": "def add(a, b):\n    return a + b\n",
}


def kinds_of(tree):
    return [n.kind for n in preorder(tree)]


# --- per-language structure -----------------------------------------------------

class TestParsing:
    @pytest.mark.parametrize("language", sorted(ADD_SNIPPETS))
    def test_add_function_parses(self, language):
        tree = parse_source(ADD_SNIPPETS[language], language)
        kinds = kinds_of(tree)
        assert node_count(tree) >= 5
        assert "identifier" in kinds
        assert "ERROR" not in kinds

    def test_java_structure(self):
        kinds = kinds_of(parse_source(ADD_SNIPPETS["java"], "java"))
        for kind in ("program", "class_declaration", "method_declaration",
                     "formal_parameters", "block", "return_statement",
                     "binary_expression"):
            assert kind in kinds

    def test_cpp_structure(self):
        kinds = kinds_of(parse_source(ADD_SNIPPETS["cpp"], "cpp"))
        for kind in ("translation_unit", "function_definition",
                     "parameter_list", "compound_statement",
                     "return_statement"):
            assert kind in kinds

    def test_python_structure(self):
        kinds = kinds_of(parse_source(ADD_SNIPPETS["python"], "python"))
        for kind in ("module", "function_definition", "parameters", "block",
                     "return_statement", "binary_operator"):
            assert kind in kinds

    def test_javascript_structure(self):
        kinds = kinds_of(parse_source(ADD_SNIPPETS["javascript"],
                                      "javascript"))
        for kind in ("program", "function_declaration", "statement_block",
                     "return_statement"):
            assert kind in kinds

    def test_c_control_flow(self):
        src = ("int main() {\n"
               "  int s = 0;\n"
               "  for (int i = 0; i < 10; i++) { s += i; }\n"
               "  while (s > 5) { s--; }\n"
               "  if (s == 5) { return s; } else { return 0; }\n"
               "}\n")
        kinds = kinds_of(parse_source(src, "c"))
        for kind in ("for_statement", "while_statement", "if_statement",
                     "call_expression" if "call_expression" in kinds
                     else "update_expression"):
            assert kind in kinds

    def test_python_control_flow(self):
        src = ("def f(xs):\n"
               "    total = 0\n"
               "    for x in xs:\n"
               "        if x > 0:\n"
               "            total += x\n"
               "    while total > 100:\n"
               "        total //= 2\n"
               "    return total\n")
        kinds = kinds_of(parse_source(src, "python"))
        for kind in ("for_statement", "if_statement", "while_statement",
                     "augmented_assignment"):
            assert kind in kinds

    def test_nested_calls_nest_in_tree(self):
        tree = parse_source("def f(a):\n    return g(h(a))\n", "python")
        calls = [n for n in preorder(tree) if n.kind == "call"]
        assert len(calls) == 2
        assert any(c.kind == "call" for outer in calls
                   for c in preorder(outer) if c is not outer)

    def test_same_function_different_languages_share_unified_kinds(
            self, default_table):
        shared = None
        for language, src in ADD_SNIPPETS.items():
            tree = unify_ast(parse_source(src, language), language,
                             default_table)
            kinds = set(kinds_of(tree))
            assert tree.kind == "unit"
            shared = kinds if shared is None else shared & kinds
        assert "block" in shared
        assert "identifier" in shared


# --- error handling --------------------------------------------------------------

class TestRecovery:
    @pytest.mark.parametrize("language,src", [
        ("c", "int f() { int x = 1; @@@ ; return x; }"),
        ("cpp", "int f() { return 1 + ; }"),
        ("java", "public class A { void f() { int x = 1; ]]] ; } }"),
        ("javascript", "function f() { let x = 1; @@@ ; return x; }"),
    ])
    def test_bad_statement_becomes_one_error_node(self, language, src):
        kinds = kinds_of(parse_source(src, language))
        assert kinds.count("ERROR") == 1

    def test_recovery_keeps_surrounding_statements(self):
        tree = parse_source("int f() { int x = 1; @@@ ; return x; }", "c")
        kinds = kinds_of(tree)
        assert "declaration" in kinds
        assert "return_statement" in kinds

    @pytest.mark.parametrize("language", sorted(ADD_SNIPPETS))
    def test_pure_garbage_raises(self, language):
        with pytest.raises(ParseFailure):
            parse_source("@@@@ ]]]] ~~~~", language)

    @pytest.mark.parametrize("name", sorted(DEEP_SOURCES))
    def test_too_deep_nesting_raises_parse_failure(self, name):
        language, src = DEEP_SOURCES[name]
        with pytest.raises(ParseFailure, match="nests too deeply"):
            parse_source(src, language)

    def test_python_syntax_error_raises(self):
        # the python backend has no recovery; any syntax error fails the file
        with pytest.raises(ParseFailure):
            parse_source("def g(:\n    pass\n", "python")


class TestLongElseIfChains:
    """An else-if or elif chain parses however long it is."""

    @staticmethod
    def _extended(short: AstNode, branches: int) -> AstNode:
        # short is a two-branch chain; the tree of a longer one nests the
        # outer link's pattern around the inner if_statement again and again
        outer, inner = [n for n in preorder(short)
                        if n.kind == "if_statement"][:2]

        def swap(node: AstNode, old: AstNode, new: AstNode) -> AstNode:
            if node is old:
                return new
            return AstNode(node.kind, [swap(c, old, new)
                                       for c in node.children])

        chain = inner
        for _ in range(branches - 2):
            chain = swap(outer, inner, chain)
        return swap(short, outer, swap(outer, inner, chain))

    @pytest.mark.parametrize("final_else", [False, True],
                             ids=["plain", "else"])
    @pytest.mark.parametrize("language", sorted(ADD_SNIPPETS))
    def test_thousand_branches_parse_as_a_short_chain_extended(
            self, language, final_else):
        short = parse_source(else_if_chain(language, 2, final_else), language)
        assert "ERROR" not in kinds_of(short)
        for branches in (3, 1000):
            tree = parse_source(else_if_chain(language, branches, final_else),
                                language)
            assert tree == self._extended(short, branches)
            assert kinds_of(tree).count("if_statement") == branches


# tokens of all five languages, so generated files reach deep into the parsers
SOURCE_TOKENS = (
    "{", "}", "(", ")", "[", "]", ";", ",", ".", ":", "?", "=", "==", "+",
    "-", "*", "/", "%", "<", ">", "<<", "&&", "||", "!", "&", "|", "^", "~",
    "++", "--", "->", "::", "=>", "@", "#", "\\", "\"", "'", "`", "\n",
    "    ", "\t", "0", "1.5e3", "0x1F", "'c'", '"s"', "x", "foo", "int",
    "void", "class", "public", "static", "return", "if", "else", "for",
    "while", "do", "switch", "case", "default", "break", "continue", "new",
    "function", "let", "var", "const", "def", "lambda", "import", "from",
    "try", "except", "catch", "finally", "struct", "template", "typename",
    "namespace", "using", "#include", "/*", "*/", "//", "async", "await",
    "yield", "with", "pass", "None", "null", "this", "self", "throw",
)


class TestNoEscapingErrors:
    """No input string makes parse_source raise outside UastError."""

    @given(text=st.text(max_size=300),
           language=st.sampled_from(sorted(ADD_SNIPPETS)))
    @settings(max_examples=150, deadline=2000)
    def test_arbitrary_text(self, text, language):
        try:
            parse_source(text, language)
        except UastError:
            pass

    @given(tokens=st.lists(st.sampled_from(SOURCE_TOKENS), max_size=120),
           language=st.sampled_from(sorted(ADD_SNIPPETS)))
    @settings(max_examples=250, deadline=2000)
    def test_token_soup(self, tokens, language):
        try:
            parse_source(" ".join(tokens), language)
        except UastError:
            pass


# --- registry -----------------------------------------------------------------

class TestRegistry:
    def test_registered_languages(self):
        assert registered_languages() == ["c", "cpp", "java", "javascript",
                                          "python"]

    @pytest.mark.parametrize("alias,canonical", [
        ("c++", "cpp"), ("C++", "cpp"), ("cxx", "cpp"),
        ("js", "javascript"), ("JS", "javascript"),
        ("Python", "python"), ("py", "python"),
        ("Java", "java"), ("C", "c"),
    ])
    def test_aliases_normalize(self, alias, canonical):
        assert normalize_language(alias) == canonical

    def test_unknown_language_raises(self):
        with pytest.raises(UnsupportedLanguage):
            normalize_language("cobol")
        with pytest.raises(UnsupportedLanguage):
            parse_source("x", "cobol")

    @pytest.mark.parametrize("ext,language", sorted(
        EXTENSION_LANGUAGES.items()))
    def test_extension_map(self, ext, language):
        assert language_for_extension(ext) == language

    def test_unknown_extension_raises(self):
        with pytest.raises(UnknownExtension):
            language_for_extension(".rb")

    def test_sexpr_extension_is_reserved(self):
        assert SEXPR_EXTENSION == ".sexpr"
        assert SEXPR_EXTENSION not in EXTENSION_LANGUAGES
