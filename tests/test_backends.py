"""Per-language parsers: structure, recovery, and the language registry."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import DEEP_SOURCES, else_if_chain
from uastkit.ast_frontend import (
    AstNode,
    flatten,
    node_count,
    parse_source,
    render_sexpr,
    unify_ast,
)
from uastkit.ast_frontend.clike_backend import _KEYWORDS, _Parser, tokenize
from uastkit.ast_frontend.backends import (
    _ALIASES,
    EXTENSION_LANGUAGES,
    SEXPR_EXTENSION,
    normalize_language,
    registered_languages,
    source_language,
)
from uastkit.cli import main
from uastkit.datagen import generate_corpus
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


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
GOLDEN_SOURCES = sorted(p.name for p in GOLDEN.iterdir()
                        if p.suffix != ".sexpr"
                        and p.stem.lower() != "nothing")
NOTHING_SOURCES = sorted(p.name for p in GOLDEN.glob("[Nn]othing.*"))


def kinds_of(tree):
    return tree.kinds


# --- per-language structure -----------------------------------------------------

class TestParsing:
    @pytest.mark.parametrize("language", sorted(ADD_SNIPPETS))
    def test_add_function_parses(self, language):
        tree = parse_source(ADD_SNIPPETS[language], language)
        kinds = kinds_of(tree)
        assert node_count(tree) >= 5
        assert "identifier" in kinds
        assert "ERROR" not in kinds

    @pytest.mark.parametrize("param", ["final int[] xs", "@Deprecated int n"])
    def test_java_parameter_modifiers_keep_the_class_body(self, param):
        src = (f"class A {{ static long f({param}, int m) {{ return m; }} "
               "int g() { return 1; } }")
        tree = parse_source(src, "java")
        assert "ERROR" not in tree.kinds
        assert tree.kinds.count("method_declaration") == 2
        # the parameter's modifiers come before its type, as a method's do
        assert render_sexpr(tree).count("(formal_parameter (modifiers) (") == 1

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
        calls = [i for i, kind in enumerate(tree.kinds) if kind == "call"]
        assert len(calls) == 2
        outer, inner = calls
        while inner > outer:  # walk up from the inner call to the outer
            inner = tree.parents[inner]
        assert inner == outer

    def test_same_function_different_languages_share_unified_kinds(
            self, default_table):
        shared = None
        for language, src in ADD_SNIPPETS.items():
            tree = unify_ast(parse_source(src, language), language,
                             default_table)
            kinds = set(kinds_of(tree))
            assert tree.kinds[0] == "unit"
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

    def test_recovery_stops_after_the_skipped_brace_group(self):
        # the members after a bad one keep their trees
        tree = parse_source("class { } class B { int f() { return 1; } }",
                            "java")
        kinds = kinds_of(tree)
        top = [k for k, p in zip(kinds, tree.parents) if p == 0]
        assert top == ["ERROR", "class_declaration"]
        assert kinds.count("ERROR") == 1
        assert "method_declaration" in kinds and "return_statement" in kinds

    def test_java_lone_semicolon_at_top_level_is_empty(self):
        # javac takes a lone `;` between type declarations as an empty
        # declaration, as a class body takes one as an empty member
        tree = parse_source("; class A { ; } ;", "java")
        kinds = kinds_of(tree)
        top = [k for k, p in zip(kinds, tree.parents) if p == 0]
        assert top == ["empty_statement", "class_declaration",
                       "empty_statement"]
        assert kinds.count("empty_statement") == 3 and "ERROR" not in kinds

    def test_unterminated_block_comment_runs_to_the_end(self):
        # as a compiler reads it: what follows the open comment is comment
        src = "int f() { return 1; } /* note int g() { return 2; }"
        assert tokenize(src, "c")[-1] == ("punct", "}")
        kinds = kinds_of(parse_source(src, "c"))
        assert kinds.count("function_definition") == 1
        assert "ERROR" not in kinds

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


class TestGoldenTrees:
    """`uast parse` prints the stored trees for every golden source.

    The sources in tests/data/golden were written to execute every
    reachable statement of both backends, ERROR recovery included; the
    trees beside them are the reference rendering of each.
    """

    @pytest.mark.parametrize("view", ["raw", "unified"])
    @pytest.mark.parametrize("name", GOLDEN_SOURCES)
    def test_source_gives_its_golden_tree(self, capsys, name, view):
        argv = ["parse", "--pretty", str(GOLDEN / name)]
        if view == "raw":
            argv.insert(1, "--raw")
        assert main(argv) == 0
        expected = (GOLDEN / f"{name}.{view}.sexpr").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("name", NOTHING_SOURCES)
    def test_source_with_nothing_parseable_fails(self, capsys, name):
        assert main(["parse", str(GOLDEN / name)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        path = GOLDEN / name
        with pytest.raises(ParseFailure):
            parse_source(path.read_text(encoding="utf-8"),
                         source_language(path)[0])


class TestLongElseIfChains:
    """An else-if or elif chain parses however long it is."""

    @staticmethod
    def _extended(short: AstNode, branches: int) -> AstNode:
        # short is a two-branch chain; the tree of a longer one nests the
        # outer link's pattern around the inner if_statement again and again
        outer, inner = [n for n in oracle.preorder(short)
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
            assert tree == flatten(self._extended(oracle.unflatten(short),
                                                  branches))
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


# text that runs every branch of the C-like tokenizer: stray characters,
# literals left open at a newline or at the end, comments and keywords
TOKENIZER_FRAGMENTS = (
    *SOURCE_TOKENS, *sorted(set().union(*_KEYWORDS.values())), "$x", "_9", "\x00", "\r\n", "\u00e9", "\u2028", "\u0663", "\\\"", "'\\'", '"a\\\nb"',
    "`a\nb`", '"open', "'o", "`t", "/*open", "/**/", "// c\n", "#define X 1\n",
    "1.", ".5", "1e+", "2E-3f", "0xZ", "07L", "...", ">>>=", "!==", "<<=",
)


class TestTokenizer:
    """tokenize gives the tokens of the match-at-a-time loop in oracle.py."""

    @given(parts=st.lists(st.sampled_from(TOKENIZER_FRAGMENTS)
                          | st.sampled_from(("", " ", "\n"))
                          | st.text(max_size=3), max_size=80),
           language=st.sampled_from(sorted(_KEYWORDS)))
    @settings(max_examples=300, deadline=2000)
    def test_matches_the_oracle(self, parts, language):
        text = "".join(parts)
        tokens = tokenize(text, language)
        assert [(t.type, t.value) for t in tokens] \
            == oracle.tokenize(text, language)
        # the parser's cursor reads the same tokens at every position
        parser = _Parser(tokens, language)
        for pos in range(len(tokens) + 2):
            parser.pos = pos
            tok = tokens[pos] if pos < len(tokens) else None
            word = tok.value if tok and tok.type in ("punct", "kw") else None
            for ahead in range(3):
                at = pos + ahead
                assert parser.peek(ahead) == (tokens[at] if at < len(tokens)
                                              else ("eof", ""))
            assert parser.word() == word
            for value in {";", "(", "if", tok.value if tok else ""}:
                assert parser.at(value) == (value == word)
                assert parser.accept(value) == (value == word)
                assert parser.pos == pos + (value == word)
                parser.pos = pos

    @pytest.mark.parametrize("name", [n for n in GOLDEN_SOURCES
                                      if not n.endswith(".py")])
    def test_golden_sources_match_the_oracle(self, name):
        text = (GOLDEN / name).read_text(encoding="utf-8")
        for language in sorted(_KEYWORDS):
            assert [tuple(t) for t in tokenize(text, language)] \
                == oracle.tokenize(text, language)


def _c_like_sources(root: Path) -> list[tuple[str, str]]:
    """(text, language) of every file under root that is not Python."""
    return [(p.read_text(encoding="utf-8"), p.parent.name)
            for p in sorted(root.rglob("*")) if p.is_file()
            and p.suffix in (".c", ".cpp", ".java", ".js")]


class TestOneMatchPerToken:
    """tokenize, one match a token with the whitespace before it folded
    in, gives the tokens of oracle.finditer_tokenize, whose pattern also
    matched each run of whitespace on its own."""

    @staticmethod
    def _same_tokens(text, languages=tuple(sorted(_KEYWORDS))):
        for language in languages:
            assert [tuple(t) for t in tokenize(text, language)] \
                == oracle.finditer_tokenize(text, language)

    @pytest.mark.parametrize("text", [
        "", " ", " \t\r\n ", "/* an unterminated comment", "x /* open\n",
        '"an unterminated string', "s = 'open\n;", "`open", "@", "\x00",
        "a \u00e9 \\ ` #x\n \u0663", "\u2028x\u2028", "int x = 1;  \n"])
    def test_edge_strings(self, text):
        self._same_tokens(text)

    @pytest.mark.parametrize("name", [n for n in GOLDEN_SOURCES
                                      if not n.endswith(".py")])
    def test_golden_sources(self, name):
        self._same_tokens((GOLDEN / name).read_text(encoding="utf-8"))

    def test_toy_corpus(self, toy_corpus_dir):
        sources = _c_like_sources(toy_corpus_dir)
        assert sources
        for text, language in sources:
            self._same_tokens(text, [language])

    def test_generated_corpus(self, tmp_path):
        generate_corpus(tmp_path, seed=1)
        sources = _c_like_sources(tmp_path)
        assert len(sources) == 180
        for text, language in sources:
            self._same_tokens(text, [language])


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

    def test_every_language_id_has_a_parser(self):
        # so parse_source needs no branch for a language without one
        ids = {normalize_language(alias) for alias in _ALIASES}
        assert ids | set(EXTENSION_LANGUAGES.values()) \
            == set(registered_languages())
        for language in sorted(ids):
            assert parse_source(ADD_SNIPPETS[language], language).kinds

    def test_unknown_language_raises(self):
        with pytest.raises(UnsupportedLanguage):
            normalize_language("cobol")
        with pytest.raises(UnsupportedLanguage):
            parse_source("x", "cobol")

    @pytest.mark.parametrize("ext,language", sorted(
        EXTENSION_LANGUAGES.items()))
    def test_extension_map(self, ext, language):
        assert source_language(f"f{ext}") == (language, False)
        assert source_language(f"f{ext.upper()}") == (language, False)

    def test_unknown_extension_raises(self):
        with pytest.raises(UnknownExtension):
            source_language("f.rb")

    def test_sexpr_extension_is_reserved(self):
        assert SEXPR_EXTENSION == ".sexpr"
        assert SEXPR_EXTENSION not in EXTENSION_LANGUAGES
        # a tree file has a language only when one is declared
        assert source_language("t.sexpr") == (None, True)
        assert source_language("t.SEXPR", "py") == ("python", True)
        assert source_language("t.rb", "java") == ("java", False)
