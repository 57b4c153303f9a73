"""Recursive-descent parsing for the curly-brace languages.

One tokenizer and one parser, ``parse(text, language)``, cover c, cpp, java
and javascript.  The tokenizer is one ``finditer`` pass of a pattern that
matches at every offset, and it drops whitespace and comments before building
a ``(type, value)`` token.  The parser also keeps each token's text where it
is punctuation or a keyword, so testing for a word is one index and one
compare.  Each production is written once.  A difference between the
languages that is only a kind name lives in ``_KINDS``; one that a language's
keyword set already decides needs no language test at all.  Kind labels
follow the tree-sitter grammars so one unification table serves every backend.

This is deliberately a subset grammar: enough for the function-level programs
the classifier consumes.  Anything outside the subset becomes an ERROR node
(resynchronized at the next ';' or '}') rather than a hard failure; a file
with no parseable content at all raises ParseFailure.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from ..errors import ParseFailure
from .tree import ERROR_KIND, AstNode

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?(?:\*/|\Z))  # an unterminated one runs to the end of the text
    | (?P<preproc>\#[^\n]*)
    | (?P<num>(?:0[xX][0-9a-fA-F]+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)[fFlLuUdD]*)
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<chr>'(?:\\.|[^'\\\n])*')
    | (?P<template>`(?:\\.|[^`\\])*`)
    | (?P<id>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<punct>>>>=|<<=|>>=|===|!==|>>>|\.\.\.|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
                |\+=|-=|\*=|/=|%=|&=|\|=|\^=|=>|->|::|[-+*/%<>=!&|^~?:;,.(){}\[\]@])
    | (?P<open_str>["'`][^\n]*)  # an unterminated literal runs to the end of its line
    | (?P<stray>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_C_KEYWORDS = frozenset(
    "auto break case char const continue default do double else enum extern float for "
    "goto if inline int long register return short signed sizeof static struct switch "
    "typedef union unsigned void volatile while".split()
)
_CPP_KEYWORDS = _C_KEYWORDS | frozenset(
    "bool true false class namespace new delete private public protected template "
    "typename using virtual this nullptr catch try throw operator friend explicit "
    "mutable constexpr wchar_t".split()
)
_JAVA_KEYWORDS = frozenset(
    "abstract assert boolean break byte case catch char class const continue default do "
    "double else enum extends final finally float for goto if implements import "
    "instanceof int interface long native new package private protected public return "
    "short static strictfp super switch synchronized this throw throws transient try "
    "void volatile while true false null var".split()
)
_JS_KEYWORDS = frozenset(
    "break case catch class const continue debugger default delete do else export "
    "extends finally for function if import in instanceof new of return super switch "
    "this throw try typeof var void while with yield let static async await true false "
    "null undefined get set".split()
)

_KEYWORDS = {"c": _C_KEYWORDS, "cpp": _CPP_KEYWORDS, "java": _JAVA_KEYWORDS,
             "javascript": _JS_KEYWORDS}

_C_PRIMITIVES = frozenset("void char short int long float double signed unsigned bool wchar_t auto".split())
_JAVA_PRIMITIVES = frozenset("byte short int long float double boolean char void".split())

_JAVA_MODIFIERS = frozenset(
    "public private protected static final abstract synchronized native transient "
    "volatile strictfp default".split()
)
_C_QUALIFIERS = frozenset(
    "const static extern inline register volatile constexpr virtual explicit mutable "
    "typedef friend".split()
)

# precedence table for binary operators, higher binds tighter
_BINOP_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "instanceof": 7, "in": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="]
)

# per-language kind labels where only the name differs
_KINDS = {
    "c": {
        "root": "translation_unit", "block": "compound_statement",
        "call": "call_expression", "args": "argument_list",
        "params": "parameter_list", "param": "parameter_declaration",
        "int": "number_literal", "float": "number_literal", "hex": "number_literal",
        "string": "string_literal", "char": "char_literal", "null": "null",
        "ternary": "conditional_expression", "subscript": "subscript_expression",
        "member": "field_expression", "property": "identifier",
        "empty": "expression_statement", "switch_body": "compound_statement",
        "catch_param": "identifier", "brace_init": "initializer_list",
        "compound_assign": "assignment_expression",
    },
    "java": {
        "root": "program", "block": "block",
        "call": "method_invocation", "args": "argument_list",
        "params": "formal_parameters", "param": "formal_parameter",
        "int": "decimal_integer_literal", "float": "decimal_floating_point_literal",
        "hex": "hex_integer_literal",
        "string": "string_literal", "char": "character_literal", "null": "null_literal",
        "ternary": "ternary_expression", "subscript": "array_access",
        "member": "field_access", "property": "identifier",
        "empty": "empty_statement", "switch_body": "switch_block",
        "catch_param": "catch_formal_parameter", "brace_init": "array_initializer",
        "compound_assign": "assignment_expression",
        "instanceof": "instanceof_expression",
    },
    "javascript": {
        "root": "program", "block": "statement_block",
        "call": "call_expression", "args": "arguments",
        "params": "formal_parameters", "param": "identifier",
        "int": "number", "float": "number", "hex": "number",
        "string": "string", "char": "string", "null": "null",
        "ternary": "ternary_expression", "subscript": "subscript_expression",
        "member": "member_expression", "property": "property_identifier",
        "empty": "empty_statement", "switch_body": "switch_body",
        "catch_param": "identifier",
        "compound_assign": "augmented_assignment_expression",
        "instanceof": "binary_expression",
    },
}
_KINDS["cpp"] = _KINDS["c"]

_RECORD_KINDS = {"struct": "struct_specifier", "class": "class_specifier",
                 "union": "union_specifier", "enum": "enum_specifier"}

# keywords that stand alone as a literal; "null" names a _KINDS entry
_KEYWORD_LITERALS = {"true": "true", "false": "false", "null": "null",
                     "nullptr": "null", "undefined": "undefined",
                     "this": "this", "super": "super"}


class _Token(NamedTuple):
    type: str   # id | kw | num | str | chr | template | punct | preproc
    value: str


_EOF = _Token("eof", "")
_SKIPPED = frozenset(("ws", "line_comment", "block_comment"))
_RETYPED = {"open_str": "str", "stray": "punct"}


def tokenize(text: str, language: str) -> list[_Token]:
    keywords = _KEYWORDS[language]
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):  # some group matches at every offset
        kind = m.lastgroup
        if kind in _SKIPPED:
            continue
        value = m.group()
        if kind == "id":
            if value in keywords:
                kind = "kw"
        elif kind in _RETYPED:
            kind = _RETYPED[kind]
        tokens.append(_Token(kind, value))
    return tokens


class _Unexpected(Exception):
    """Internal parse fault; converted into an ERROR node at a sync point."""


class _Parser:
    def __init__(self, tokens: list[_Token], language: str):
        self.toks = tokens
        # each token's text where it is punctuation or a keyword, else None
        self.syntax = [value if type in ("punct", "kw") else None
                       for type, value in tokens]
        self.pos = 0
        self.lang = language
        self.k = _KINDS[language]
        self.primitives = _JAVA_PRIMITIVES if language == "java" else _C_PRIMITIVES
        self.class_name: str | None = None

    # --- token cursor -------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        try:
            return self.toks[self.pos + ahead]
        except IndexError:
            return _EOF

    def next(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        try:
            return self.syntax[self.pos] == value
        except IndexError:
            return False

    def word(self) -> str | None:
        """The punctuation or keyword at the cursor, else None."""
        try:
            return self.syntax[self.pos]
        except IndexError:
            return None

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> None:
        if not self.accept(value):
            tok = self.peek()
            raise _Unexpected(f"expected {value!r}, found {tok.value!r}")

    def done(self) -> bool:
        return self.pos >= len(self.toks)

    def _match_bracket(self, start: int) -> int:
        """Index just past the bracket matching toks[start], or len(toks)."""
        opened = self.syntax[start]
        close = {"(": ")", "[": "]", "{": "}"}[opened]
        depth = 0
        for i in range(start, len(self.syntax)):
            if self.syntax[i] == opened:
                depth += 1
            elif self.syntax[i] == close:
                depth -= 1
                if depth == 0:
                    return i + 1
        return len(self.syntax)

    # --- error recovery -----------------------------------------------

    def _resync(self) -> AstNode:
        start = self.pos
        depth = 0
        while not self.done():
            word = self.word()
            if word == "}" and depth == 0:
                break  # leave the brace for the enclosing block
            self.pos += 1
            if word == "{":
                depth += 1
            elif word == "}":
                depth -= 1
                if depth == 0:
                    break  # the skipped { ... } group is closed
            elif word == ";" and depth == 0:
                break
        if self.pos == start:  # stray '}' or EOF: still must make progress
            self.pos += 1
        return AstNode(ERROR_KIND)

    def _guarded(self, production) -> AstNode:
        try:
            return production()
        except _Unexpected:
            return self._resync()

    def _guarded_until_brace(self, production) -> list[AstNode]:
        """Guarded productions up to the closing '}', which is consumed."""
        items: list[AstNode] = []
        while not self.at("}") and not self.done():
            items.append(self._guarded(production))
        self.expect("}")
        return items

    def _comma_list(self, close: str, item) -> list[AstNode]:
        """`item, item, ...` up to close, which is consumed."""
        items: list[AstNode] = []
        while not self.at(close) and not self.done():
            items.append(item())
            if not self.accept(","):
                break
        self.expect(close)
        return items

    # --- entry points ---------------------------------------------------

    def parse(self) -> AstNode:
        top_level = {"java": self.java_top_level,
                     "javascript": self.statement}.get(self.lang, self.c_top_level)
        items: list[AstNode] = []
        while not self.done():
            items.append(self._guarded(top_level))
        root = AstNode(self.k["root"], items)
        real = [c for c in items if c.kind != ERROR_KIND]
        if items and not real:
            raise ParseFailure(f"{self.lang}: no parseable content")
        return root

    # --- java ----------------------------------------------------------

    def java_top_level(self) -> AstNode:
        word = self.word()
        if word in ("package", "import"):
            self._skip_to(";")
            return AstNode(sys.intern(f"{word}_declaration"))
        mods = self.java_modifiers()
        if self.at("class") or self.at("interface") or self.at("enum"):
            return self.java_class(mods)
        raise _Unexpected(f"unexpected top-level token {self.peek().value!r}")

    def java_modifiers(self) -> list[AstNode]:
        seen = False
        while True:
            tok = self.peek()
            if tok.type == "kw" and tok.value in _JAVA_MODIFIERS:
                self.next()
                seen = True
            elif tok.value == "@" and self.peek(1).type == "id":
                self.pos += 2
                if self.at("("):
                    self.pos = self._match_bracket(self.pos)
                seen = True
            else:
                break
        return [AstNode("modifiers")] if seen else []

    def java_class(self, mods: list[AstNode]) -> AstNode:
        kw = self.next().value  # class | interface | enum
        kind = {"class": "class_declaration", "interface": "interface_declaration",
                "enum": "enum_declaration"}[kw]
        if self.peek().type != "id":
            raise _Unexpected("expected class name")
        self.class_name = self.peek().value
        self.next()
        name = AstNode("identifier")
        if self.at("<"):
            self.pos = self._angle_end(self.pos)
        while self.accept("extends") or self.accept("implements"):
            self.java_type_list()
        self.expect("{")
        members = self._guarded_until_brace(self.java_member)
        body_kind = "class_body" if kw != "interface" else "interface_body"
        return AstNode(kind, mods + [name, AstNode(body_kind, members)])

    def java_member(self) -> AstNode:
        if self.accept(";"):
            return AstNode("empty_statement")
        mods = self.java_modifiers()
        if self.at("class") or self.at("interface") or self.at("enum"):
            return self.java_class(mods)
        tok = self.peek()
        if tok.type == "id" and tok.value == self.class_name \
                and self.peek(1).value == "(":
            self.next()
            params = self.java_params()
            body = self.block("constructor_body")
            return AstNode("constructor_declaration",
                           mods + [AstNode("identifier"), params, body])
        type_node = self.java_type()
        if self.peek().type != "id":
            raise _Unexpected("expected member name")
        if self.peek(1).value != "(":
            return AstNode("field_declaration",
                           mods + [type_node] + self.java_declarators())
        self.next()
        children = mods + [type_node, AstNode("identifier"), self.java_params()]
        while self.accept("throws"):
            self.java_type_list()
        if not self.accept(";"):
            children.append(self.block(self.k["block"]))
        return AstNode("method_declaration", children)

    def java_declarators(self) -> list[AstNode]:
        """`name[] = init, ...;` after the type of a field or a local."""
        decls: list[AstNode] = []
        while True:
            if self.peek().type != "id":
                raise _Unexpected("expected variable name")
            self.next()
            children = [AstNode("identifier")]
            while self.accept("["):
                self.expect("]")
            if self.accept("="):
                children.append(self.initializer())
            decls.append(AstNode("variable_declarator", children))
            if not self.accept(","):
                break
        self.expect(";")
        return decls

    def java_local_declaration(self) -> AstNode:
        self.accept("final")
        type_node = self.java_type()
        return AstNode("local_variable_declaration",
                       [type_node] + self.java_declarators())

    def initializer(self) -> AstNode:
        """An expression, or a brace list of initializers (c, cpp, java)."""
        if not self.accept("{"):
            return self.expression()
        return AstNode(self.k["brace_init"], self._comma_list("}", self.initializer))

    def java_params(self) -> AstNode:
        self.expect("(")
        return AstNode(self.k["params"], self._comma_list(")", self.java_param))

    def java_param(self) -> AstNode:
        mods = self.java_modifiers()
        t = self.java_type()
        self.accept("...")
        if self.peek().type != "id":
            raise _Unexpected("expected parameter name")
        self.next()
        while self.accept("["):
            self.expect("]")
        return AstNode(self.k["param"], mods + [t, AstNode("identifier")])

    def java_type_list(self) -> None:
        """`Type, Type, ...` after extends, implements or throws."""
        self.java_type()
        while self.accept(","):
            self.java_type()

    def java_type(self) -> AstNode:
        tok = self.peek()
        if tok.type == "kw" and tok.value in _JAVA_PRIMITIVES:
            self.next()
            base = {"float": "floating_point_type", "double": "floating_point_type",
                    "boolean": "boolean_type", "void": "void_type"}.get(tok.value,
                                                                        "integral_type")
            node = AstNode(base)
        elif tok.type == "kw" and tok.value == "var":
            self.next()
            node = AstNode("type_identifier")
        elif tok.type == "id":
            self.next()
            while self.at(".") and self.peek(1).type == "id":
                self.pos += 2
            node = AstNode("type_identifier")
            if self.at("<"):
                end = self._angle_end(self.pos)
                self.pos = end
                node = AstNode("generic_type", [node, AstNode("type_arguments")])
        else:
            raise _Unexpected(f"expected type, found {tok.value!r}")
        while self.at("[") and self.peek(1).value == "]":
            self.pos += 2
            node = AstNode("array_type", [node])
        return node

    def _angle_end(self, start: int) -> int:
        depth = 0
        for i in range(start, len(self.syntax)):
            v = self.syntax[i]
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif v == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif v in (";", "{"):
                break
        raise _Unexpected("unclosed type arguments")

    # --- c / cpp ---------------------------------------------------------

    def c_top_level(self) -> AstNode:
        tok = self.peek()
        if tok.type == "preproc":
            self.next()
            kind = "preproc_include" if tok.value.lstrip("# \t").startswith("include") \
                else "preproc_call"
            return AstNode(kind)
        if self.at("using"):
            self._skip_to(";")
            return AstNode("using_declaration")
        if self.at("namespace"):
            self.next()
            if self.peek().type == "id":
                self.next()
            self.expect("{")
            items = self._guarded_until_brace(self.c_top_level)
            return AstNode("namespace_definition",
                           [AstNode("identifier"), AstNode("declaration_list", items)])
        if self.at("template"):
            self.next()
            if self.at("<"):
                self.pos = self._angle_end(self.pos)
            inner = self.c_top_level()
            return AstNode("template_declaration", [inner])
        if tok.type == "kw" and tok.value in _RECORD_KINDS and self.peek(2).value == "{":
            return self.c_record()
        if self.at("typedef"):
            self._skip_to(";")
            return AstNode("type_definition")
        return self.c_declaration()

    def c_record(self) -> AstNode:
        kw = self.next().value
        if self.peek().type == "id":
            self.next()
        name = AstNode("type_identifier")
        self.expect("{")
        if kw == "enum":
            members: list[AstNode] = []
            while not self.at("}") and not self.done():
                if self.peek().type == "id":
                    self.next()
                    members.append(AstNode("enumerator", [AstNode("identifier")]))
                    if self.accept("="):
                        self.expression()
                if not self.accept(","):
                    break
            self.expect("}")
            body = AstNode("enumerator_list", members)
        else:
            body = AstNode("field_declaration_list",
                           self._guarded_until_brace(self.c_member))
        self.accept(";")
        return AstNode(_RECORD_KINDS[kw], [name, body])

    def c_member(self) -> AstNode:
        tok = self.peek()
        if tok.type == "kw" and tok.value in ("public", "private", "protected") \
                and self.peek(1).value == ":":
            self.pos += 2
            return AstNode("access_specifier")
        node = self.c_declaration()
        if node.kind == "declaration":
            return AstNode("field_declaration", node.children)
        return node

    def c_declaration(self) -> AstNode:
        type_node = self.c_type()
        if self.accept(";"):  # bare `struct S;` style
            return AstNode("declaration", [type_node])
        declarator = self.c_declarator()
        if self._innermost_is_function(declarator):
            if self.at("{"):
                body = self.block(self.k["block"])
                return AstNode("function_definition", [type_node, declarator, body])
            self.expect(";")
            return AstNode("declaration", [type_node, declarator])
        decls = [self.c_init_tail(declarator)]
        while self.accept(","):
            decls.append(self.c_init_tail(self.c_declarator()))
        self.expect(";")
        return AstNode("declaration", [type_node] + decls)

    def _innermost_is_function(self, node: AstNode) -> bool:
        while node.kind in ("pointer_declarator", "reference_declarator"):
            node = node.children[-1]
        return node.kind == "function_declarator"

    def c_init_tail(self, declarator: AstNode) -> AstNode:
        if self.accept("="):
            return AstNode("init_declarator", [declarator, self.initializer()])
        return declarator

    def c_type(self) -> AstNode:
        saw_primitive = False
        saw_name = False
        while True:
            tok = self.peek()
            if tok.type == "kw" and tok.value in _C_QUALIFIERS:
                self.next()
            elif tok.type == "kw" and tok.value in _C_PRIMITIVES:
                self.next()
                saw_primitive = True
            elif tok.type == "kw" and tok.value in _RECORD_KINDS:
                self.next()
                if self.peek().type == "id":
                    self.next()
                return AstNode(_RECORD_KINDS[tok.value], [AstNode("type_identifier")])
            elif tok.type == "id" and not saw_primitive and not saw_name:
                self.next()
                while self.at("::") and self.peek(1).type == "id":
                    self.pos += 2
                saw_name = True
                if self.at("<"):
                    end = self._angle_end(self.pos)
                    self.pos = end
                    return AstNode("template_type",
                                   [AstNode("type_identifier"),
                                    AstNode("template_argument_list")])
            else:
                break
        if saw_primitive:
            return AstNode("primitive_type")
        if saw_name:
            return AstNode("type_identifier")
        raise _Unexpected(f"expected type, found {self.peek().value!r}")

    def c_declarator(self) -> AstNode:
        if self.accept("*"):
            return AstNode("pointer_declarator", [self.c_declarator()])
        if self.lang == "cpp" and self.accept("&"):
            return AstNode("reference_declarator", [self.c_declarator()])
        tok = self.peek()
        if tok.type != "id":
            raise _Unexpected(f"expected declarator, found {tok.value!r}")
        self.next()
        if self.lang == "cpp":
            while self.at("::") and self.peek(1).type == "id":
                self.pos += 2
        node = AstNode("identifier")
        while True:
            if self.at("("):
                mark = self.pos
                try:
                    params = self.c_params()
                    node = AstNode("function_declarator", [node, params])
                except _Unexpected:
                    # constructor-style initializer: vector<int> v(n, 0)
                    self.pos = mark
                    node = AstNode("init_declarator", [node, self.call_args()])
            elif self.at("["):
                self.next()
                size: list[AstNode] = []
                if not self.at("]"):
                    size.append(self.expression())
                self.expect("]")
                node = AstNode("array_declarator", [node] + size)
            else:
                break
        return node

    def c_params(self) -> AstNode:
        self.expect("(")
        params: list[AstNode] = []
        while not self.at(")") and not self.done():
            if self.at("void") and self.peek(1).value == ")":
                self.next()
                params.append(AstNode(self.k["param"], [AstNode("primitive_type")]))
                break
            if self.accept("..."):
                params.append(AstNode("variadic_parameter"))
                break
            t = self.c_type()
            while self.at("*") or (self.lang == "cpp" and self.at("&")):
                if self.peek(1).type == "id":
                    break  # pointer belongs to a named declarator
                self.next()
            children = [t]
            if not self.at(",") and not self.at(")"):
                children.append(self.c_declarator())
            params.append(AstNode(self.k["param"], children))
            if not self.accept(","):
                break
        self.expect(")")
        return AstNode(self.k["params"], params)

    # --- statements -------------------------------------------------------

    def block(self, kind: str) -> AstNode:
        self.expect("{")
        return AstNode(kind, self._guarded_until_brace(self.statement))

    def statement(self) -> AstNode:
        word = self.word()
        if word == "{":
            return self.block(self.k["block"])
        if self.accept(";"):
            return AstNode(self.k["empty"])
        if word == "if":
            return self.if_statement()
        if word == "while":
            self.next()
            cond = self.paren_expression()
            return AstNode("while_statement", [cond, self.statement()])
        if word == "do":
            self.next()
            body = self.statement()
            self.expect("while")
            cond = self.paren_expression()
            self._end_statement()
            return AstNode("do_statement", [body, cond])
        if word == "for":
            return self.for_statement()
        if word == "return":
            self.next()
            children = []
            if not self.at(";") and not self.at("}") and not self.done():
                children.append(self.expression())
            self._end_statement()
            return AstNode("return_statement", children)
        if word in ("break", "continue"):
            kind = sys.intern(f"{self.next().value}_statement")
            if self.peek().type == "id":
                self.next()  # a label
            self._end_statement()
            return AstNode(kind)
        if word == "switch":
            return self.switch_statement()
        if word == "throw":
            self.next()
            value = self.expression()
            self._end_statement()
            return AstNode("throw_statement", [value])
        if word == "try":
            return self.try_statement()
        if word == "function":
            return self.js_function("function_declaration")
        if self.lang == "javascript" and word == "class":
            return self.js_class()
        decl = self.local_declaration()
        if decl is not None:
            return decl
        if self.peek().type == "preproc":
            self.next()
            return AstNode("preproc_call")
        expr = self.expression()
        self._end_statement()
        return AstNode("expression_statement", [expr])

    def _end_statement(self) -> None:
        if self.lang == "javascript":
            self.accept(";")
        else:
            self.expect(";")

    def _skip_to(self, value: str) -> None:
        while not self.done() and not self.at(value):
            self.next()
        self.accept(value)

    def local_declaration(self) -> AstNode | None:
        """The declaration that starts here in a block or a for header, or None."""
        if self.lang == "javascript":
            if self.at("var") or self.at("let") or self.at("const"):
                return self.js_declaration()
            return None
        if not self._looks_like_declaration():
            return None
        if self.lang == "java":
            return self.java_local_declaration()
        return self.c_declaration()

    def _looks_like_declaration(self) -> bool:
        tok = self.peek()
        if tok.type == "kw":
            if tok.value in self.primitives or tok.value in ("struct", "union", "enum"):
                return True
            if tok.value in ("var", "final"):  # java
                return True
            if self.lang == "cpp" and tok.value in ("const", "static", "class"):
                return True
            return False
        if tok.type != "id":
            return False
        nxt = self.peek(1)
        if nxt.type == "id":
            return True
        if nxt.value == "[" and self.peek(2).value == "]":
            return True
        if nxt.value in ("*", "&") and self.peek(2).type == "id" \
                and self.peek(3).value in ("=", ";", ",", "[", ")", "("):
            return True
        if nxt.value == "<":
            return self._decl_after_angles(self.pos + 1)
        if nxt.value == "::" and self.lang == "cpp":
            j = 0
            while self.peek(j).type == "id" and self.peek(j + 1).value == "::":
                j += 2
            if self.peek(j).type != "id":
                return False
            after = self.peek(j + 1)
            if after.type == "id":
                return True
            if after.value == "<":
                return self._decl_after_angles(self.pos + j + 1)
            return after.value in ("*", "&") and self.peek(j + 2).type == "id"
        return False

    def _decl_after_angles(self, start: int) -> bool:
        try:
            end = self._angle_end(start)
        except _Unexpected:
            return False
        if end >= len(self.toks):
            return False
        tok = self.toks[end]
        if tok.type == "id":
            return True
        return tok.value in ("*", "&") and end + 1 < len(self.toks) \
            and self.toks[end + 1].type == "id"

    def if_statement(self) -> AstNode:
        # an else-if chain is read in this loop and nested bottom-up, so its
        # length costs no stack; each else holds the next if_statement
        branches = []
        tail = None
        while True:
            self.expect("if")
            branches.append([self.paren_expression(), self.statement()])
            if not self.accept("else"):
                break
            if not self.at("if"):
                tail = self.statement()
                break
        for children in reversed(branches):
            if tail is not None:
                children.append(AstNode("else_clause", [tail]))
            tail = AstNode("if_statement", children)
        return tail

    def paren_expression(self) -> AstNode:
        self.expect("(")
        expr = self.expression()
        self.expect(")")
        return AstNode("parenthesized_expression", [expr])

    def for_statement(self) -> AstNode:
        self.expect("for")
        self.expect("(")
        if self.lang == "java":
            mark = self.pos
            try:
                self.accept("final")
                t = self.java_type()
                if self.peek().type == "id" and self.peek(1).value == ":":
                    self.pos += 2
                    seq = self.expression()
                    self.expect(")")
                    return AstNode("enhanced_for_statement",
                                   [t, AstNode("identifier"), seq, self.statement()])
            except _Unexpected:
                pass
            self.pos = mark
        if self.lang == "javascript":
            mark = self.pos
            if self.at("var") or self.at("let") or self.at("const"):
                self.next()
            if self.peek().type == "id" and self.peek(1).value in ("in", "of"):
                self.pos += 2
                seq = self.expression()
                self.expect(")")
                return AstNode("for_in_statement",
                               [AstNode("identifier"), seq, self.statement()])
            self.pos = mark
        init: list[AstNode] = []
        if not self.accept(";"):
            decl = self.local_declaration()
            if decl is None:
                decl = self.expression()
                self.expect(";")
            init.append(decl)
        cond: list[AstNode] = []
        if not self.at(";"):
            cond.append(self.expression())
        self.expect(";")
        update: list[AstNode] = []
        if not self.at(")"):
            update.append(self.expression())
            while self.accept(","):
                update.append(self.expression())
        self.expect(")")
        return AstNode("for_statement", init + cond + update + [self.statement()])

    def switch_statement(self) -> AstNode:
        self.expect("switch")
        cond = self.paren_expression()
        self.expect("{")
        cases: list[AstNode] = []
        while not self.at("}") and not self.done():
            if self.accept("case"):
                value = self.expression()
                self.expect(":")
                stmts = self.case_body()
                cases.append(AstNode("case_statement", [value] + stmts))
            elif self.accept("default"):
                self.expect(":")
                cases.append(AstNode("case_statement", self.case_body()))
            else:
                cases.append(self._guarded(self.statement))
        self.expect("}")
        return AstNode("switch_statement", [cond, AstNode(self.k["switch_body"], cases)])

    def case_body(self) -> list[AstNode]:
        stmts: list[AstNode] = []
        while not self.at("case") and not self.at("default") and not self.at("}") \
                and not self.done():
            stmts.append(self._guarded(self.statement))
        return stmts

    def try_statement(self) -> AstNode:
        self.expect("try")
        children = [self.block(self.k["block"])]
        while self.at("catch"):
            self.next()
            param: list[AstNode] = []
            if self.at("("):
                self.next()
                while not self.at(")") and not self.done():
                    self.next()
                self.expect(")")
                param.append(AstNode(self.k["catch_param"]))
            children.append(AstNode("catch_clause", param + [self.block(self.k["block"])]))
        if self.accept("finally"):
            children.append(AstNode("finally_clause", [self.block(self.k["block"])]))
        return AstNode("try_statement", children)

    # --- javascript-only forms ---------------------------------------------

    def js_function(self, kind: str) -> AstNode:
        """`function [name](params) {body}`, as a declaration or an expression."""
        self.expect("function")
        if self.peek().type == "id":
            self.next()
        params = self.js_params()
        body = self.block(self.k["block"])
        return AstNode(kind, [AstNode("identifier"), params, body])

    def js_params(self) -> AstNode:
        self.expect("(")
        return AstNode(self.k["params"], self._comma_list(")", self.js_param))

    def js_param(self) -> AstNode:
        if self.accept("..."):
            if self.peek().type == "id":
                self.next()
            return AstNode("rest_pattern", [AstNode("identifier")])
        if self.peek().type != "id":
            raise _Unexpected(f"expected parameter, found {self.peek().value!r}")
        self.next()
        if self.accept("="):
            return AstNode("assignment_pattern", [AstNode("identifier"), self.expression()])
        return AstNode("identifier")

    def js_class(self) -> AstNode:
        self.expect("class")
        if self.peek().type == "id":
            self.next()
        name = AstNode("identifier")
        if self.accept("extends"):
            self.ternary()
        self.expect("{")
        members: list[AstNode] = []
        while not self.at("}") and not self.done():
            if self.accept(";"):
                continue
            members.append(self._guarded(self.js_method))
        self.expect("}")
        return AstNode("class_declaration", [name, AstNode("class_body", members)])

    def js_method(self) -> AstNode:
        self.accept("static")
        self.accept("async")
        if self.peek().type not in ("id", "kw"):
            raise _Unexpected("expected method name")
        self.next()
        params = self.js_params()
        body = self.block(self.k["block"])
        return AstNode("method_definition",
                       [AstNode("property_identifier"), params, body])

    def js_declaration(self) -> AstNode:
        kw = self.next().value
        kind = "variable_declaration" if kw == "var" else "lexical_declaration"
        decls: list[AstNode] = []
        while True:
            if self.peek().type != "id":
                raise _Unexpected("expected variable name")
            self.next()
            children = [AstNode("identifier")]
            if self.accept("="):
                children.append(self.ternary())
            decls.append(AstNode("variable_declarator", children))
            if not self.accept(","):
                break
        self._end_statement()
        return AstNode(kind, decls)

    # --- expressions -------------------------------------------------------

    def expression(self) -> AstNode:
        left = self.ternary()
        if self.word() in _ASSIGN_OPS:
            op = self.next().value
            right = self.expression()
            kind = "assignment_expression" if op == "=" else self.k["compound_assign"]
            return AstNode(kind, [left, right])
        return left

    def ternary(self) -> AstNode:
        cond = self.binary(1)
        if self.accept("?"):
            then = self.expression()
            self.expect(":")
            alt = self.ternary()
            return AstNode(self.k["ternary"], [cond, then, alt])
        return cond

    def binary(self, min_prec: int) -> AstNode:
        left = self.unary()
        while True:
            value = self.word()
            prec = _BINOP_PREC.get(value)
            if prec is None or prec < min_prec:
                break
            if value in ("===", "!==") and self.lang != "javascript":
                break
            self.pos += 1
            right = self.binary(prec + 1)
            kind = self.k["instanceof"] if value == "instanceof" else "binary_expression"
            left = AstNode(kind, [left, right])
        return left

    def unary(self) -> AstNode:
        tok = self.peek()
        if tok.type == "punct" and tok.value in ("!", "~", "+", "-"):
            self.next()
            return AstNode("unary_expression", [self.unary()])
        if tok.type == "punct" and tok.value in ("++", "--"):
            self.next()
            return AstNode("update_expression", [self.unary()])
        if tok.type == "punct" and tok.value in ("*", "&") and self.lang in ("c", "cpp"):
            self.next()
            return AstNode("pointer_expression", [self.unary()])
        if tok.type == "kw":
            if tok.value in ("typeof", "delete", "void") and self.lang == "javascript":
                self.next()
                return AstNode("unary_expression", [self.unary()])
            if tok.value == "await":
                self.next()
                return AstNode("await_expression", [self.unary()])
            if tok.value == "new":
                return self.new_expression()
            if tok.value == "sizeof":
                self.next()
                if self.at("("):
                    self.next()
                    mark = self.pos
                    try:
                        inner: AstNode = self.c_type()
                        if not self.at(")"):
                            raise _Unexpected("not a type")
                    except _Unexpected:
                        self.pos = mark
                        inner = self.expression()
                    self.expect(")")
                    return AstNode("sizeof_expression", [inner])
                return AstNode("sizeof_expression", [self.unary()])
        if tok.value == "(" and self.lang in ("c", "cpp", "java"):
            cast = self._try_cast()
            if cast is not None:
                return cast
        return self.postfix()

    def _try_cast(self) -> AstNode | None:
        nxt = self.peek(1)
        if nxt.type != "kw" or nxt.value not in self.primitives:
            return None
        after = self.peek(self._match_bracket(self.pos) - self.pos)
        if after.type not in ("id", "num", "str", "chr") and after.value != "(":
            return None
        self.next()
        type_node = self.java_type() if self.lang == "java" else self.c_type()
        while self.accept("*"):
            type_node = AstNode("abstract_pointer_declarator", [type_node])
        self.expect(")")
        return AstNode("cast_expression", [type_node, self.unary()])

    def new_expression(self) -> AstNode:
        self.expect("new")
        if self.lang == "java":
            t = self.java_type()
            # java_type already folds `int[]` into array_type, so array
            # creation shows up either as remaining sized dims or as an
            # array-typed result with a brace initializer
            if self.at("[") or t.kind == "array_type":
                dims: list[AstNode] = []
                while self.accept("["):
                    if not self.at("]"):
                        dims.append(self.expression())
                    self.expect("]")
                init: list[AstNode] = []
                if self.at("{"):
                    init.append(self.initializer())
                return AstNode("array_creation_expression", [t] + dims + init)
            args = self.call_args()
            node = AstNode("object_creation_expression", [t, args])
            return self.postfix_tail(node)
        if self.lang == "cpp":
            t = self.c_type()
            children: list[AstNode] = [t]
            if self.at("["):
                self.next()
                children.append(self.expression())
                self.expect("]")
            elif self.at("("):
                children.append(self.call_args())
            return AstNode("new_expression", children)
        callee = self.postfix(no_call=True)
        children = [callee]
        if self.at("("):
            children.append(self.call_args())
        return self.postfix_tail(AstNode("new_expression", children))

    def call_args(self) -> AstNode:
        self.expect("(")
        return AstNode(self.k["args"], self._comma_list(")", self.argument))

    def argument(self) -> AstNode:
        if self.lang == "javascript" and self.accept("..."):
            return AstNode("spread_element", [self.ternary()])
        return self.ternary()

    def postfix(self, no_call: bool = False) -> AstNode:
        node = self.primary()
        return self.postfix_tail(node, no_call)

    def postfix_tail(self, node: AstNode, no_call: bool = False) -> AstNode:
        while True:
            word = self.word()
            if word == "(" and not no_call:
                args = self.call_args()
                node = self._make_call(node, args)
            elif word == "." and self.peek(1).type in ("id", "kw"):
                self.pos += 2
                node = AstNode(self.k["member"], [node, AstNode(self.k["property"])])
            elif word == "->" and self.lang in ("c", "cpp") \
                    and self.peek(1).type == "id":
                self.pos += 2
                node = AstNode("field_expression", [node, AstNode("identifier")])
            elif word == "::" and self.lang == "cpp" and self.peek(1).type == "id":
                self.pos += 2
                node = AstNode("qualified_identifier", [node, AstNode("identifier")])
            elif word == "[":
                self.next()
                index = self.expression()
                self.expect("]")
                node = AstNode(self.k["subscript"], [node, index])
            elif word in ("++", "--"):
                self.next()
                node = AstNode("update_expression", [node])
            else:
                return node

    def _make_call(self, callee: AstNode, args: AstNode) -> AstNode:
        if self.lang == "java":
            if callee.kind == self.k["member"]:
                return AstNode("method_invocation", list(callee.children) + [args])
            return AstNode("method_invocation", [callee, args])
        return AstNode(self.k["call"], [callee, args])

    def primary(self) -> AstNode:
        tok = self.peek()
        if tok.type == "num":
            self.next()
            low = tok.value.lower()
            if low.startswith("0x"):
                return AstNode(self.k["hex"])
            if "." in low or "e" in low or low.endswith(("f", "d")):
                return AstNode(self.k["float"])
            return AstNode(self.k["int"])
        if tok.type == "str":
            self.next()
            return AstNode(self.k["string"])
        if tok.type == "template":
            self.next()
            return AstNode("template_string")
        if tok.type == "chr":
            self.next()
            return AstNode(self.k["char"])
        if tok.type == "kw":
            kind = _KEYWORD_LITERALS.get(tok.value)
            if kind is not None:
                self.next()
                return AstNode(self.k.get(kind, kind))
            if tok.value == "function":
                return self.js_function("function_expression")
        if tok.type == "id":
            if self.lang == "javascript" and self.peek(1).value == "=>":
                self.pos += 2
                return self._arrow_body(AstNode("formal_parameters",
                                                [AstNode("identifier")]))
            self.next()
            return AstNode("identifier")
        if tok.value == "(":
            if self.lang == "javascript" and self._arrow_ahead():
                params = self.js_params()
                self.expect("=>")
                return self._arrow_body(params)
            self.next()
            inner = self.expression()
            self.expect(")")
            return AstNode("parenthesized_expression", [inner])
        if tok.value == "[" and self.lang == "javascript":
            self.next()
            return AstNode("array", self._comma_list("]", self.ternary))
        if tok.value == "{" and self.lang == "javascript":
            return self.js_object()
        raise _Unexpected(f"unexpected token {tok.value!r}")

    def _arrow_ahead(self) -> bool:
        end = self._match_bracket(self.pos)
        return end < len(self.toks) and self.toks[end].value == "=>"

    def _arrow_body(self, params: AstNode) -> AstNode:
        if self.at("{"):
            body = self.block(self.k["block"])
        else:
            body = self.ternary()
        return AstNode("arrow_function", [params, body])

    def js_object(self) -> AstNode:
        self.expect("{")
        return AstNode("object", self._comma_list("}", self.js_property))

    def js_property(self) -> AstNode:
        key_tok = self.peek()
        if key_tok.type not in ("id", "kw", "str", "num"):
            raise _Unexpected(f"bad object key {key_tok.value!r}")
        self.next()
        if self.accept(":"):
            return AstNode("pair", [AstNode("property_identifier"), self.ternary()])
        return AstNode("shorthand_property_identifier")


def parse(text: str, language: str) -> AstNode:
    """Parse c, cpp, java or javascript source into its tree of kinds."""
    return _Parser(tokenize(text, language), language).parse()
