"""Recursive-descent parsing for the curly-brace languages.

One tokenizer and one parser cover c, cpp, java, and javascript; a small
per-language kind table plus a handful of structural branches account for the
differences that matter here (root kind, block kind, declaration shapes,
method-call shapes).  Kind labels follow the tree-sitter grammars for each
language so one unification table serves every backend.

This is deliberately a subset grammar: enough for the function-level programs
the classifier consumes.  Anything outside the subset becomes an ERROR node
(resynchronized at the next ';' or '}') rather than a hard failure; a file
with no parseable content at all raises ParseFailure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ParseFailure
from .tree import ERROR_KIND, AstNode

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<preproc>\#[^\n]*)
    | (?P<num>(?:0[xX][0-9a-fA-F]+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)[fFlLuUdD]*)
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<chr>'(?:\\.|[^'\\\n])*')
    | (?P<template>`(?:\\.|[^`\\])*`)
    | (?P<id>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<punct>>>>=|<<=|>>=|===|!==|>>>|\.\.\.|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
                |\+=|-=|\*=|/=|%=|&=|\|=|\^=|=>|->|::|[-+*/%<>=!&|^~?:;,.(){}\[\]@])
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
        "string": "string_literal", "char": "char_literal",
        "ternary": "conditional_expression", "subscript": "subscript_expression",
        "member": "field_expression", "decl": "declaration",
    },
    "java": {
        "root": "program", "block": "block",
        "call": "method_invocation", "args": "argument_list",
        "params": "formal_parameters", "param": "formal_parameter",
        "int": "decimal_integer_literal", "float": "decimal_floating_point_literal",
        "hex": "hex_integer_literal",
        "string": "string_literal", "char": "character_literal",
        "ternary": "ternary_expression", "subscript": "array_access",
        "member": "field_access", "decl": "local_variable_declaration",
    },
    "javascript": {
        "root": "program", "block": "statement_block",
        "call": "call_expression", "args": "arguments",
        "params": "formal_parameters", "param": "identifier",
        "int": "number", "float": "number", "hex": "number",
        "string": "string", "char": "string",
        "ternary": "ternary_expression", "subscript": "subscript_expression",
        "member": "member_expression", "decl": "variable_declaration",
    },
}
_KINDS["cpp"] = _KINDS["c"]


@dataclass(frozen=True)
class _Token:
    type: str   # id | kw | num | str | chr | template | punct | preproc
    value: str
    offset: int


_EOF = _Token("eof", "", -1)


def tokenize(text: str, language: str) -> list[_Token]:
    keywords = _KEYWORDS[language]
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            ch = text[pos]
            if ch == "/" and text.startswith("/*", pos):
                break  # unterminated block comment swallows the tail
            if ch in "\"'`":
                nl = text.find("\n", pos)  # unterminated literal: recover at EOL
                tokens.append(_Token("str", text[pos: n if nl < 0 else nl], pos))
                pos = n if nl < 0 else nl
                continue
            tokens.append(_Token("punct", ch, pos))
            pos += 1
            continue
        kind = m.lastgroup
        value = m.group()
        if kind in ("ws", "line_comment", "block_comment"):
            pass
        elif kind == "id" and value in keywords:
            tokens.append(_Token("kw", value, pos))
        else:
            tokens.append(_Token(kind, value, pos))
        pos = m.end()
    return tokens


class _Unexpected(Exception):
    """Internal parse fault; converted into an ERROR node at a sync point."""


class _Parser:
    def __init__(self, tokens: list[_Token], language: str):
        self.toks = tokens
        self.pos = 0
        self.lang = language
        self.k = _KINDS[language]

    # --- token cursor -------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else _EOF

    def next(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok.value == value and tok.type in ("punct", "kw")

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
        pairs = {"(": ")", "[": "]", "{": "}"}
        close = pairs[self.toks[start].value]
        opened = self.toks[start].value
        depth = 0
        i = start
        while i < len(self.toks):
            v = self.toks[i].value
            if self.toks[i].type == "punct":
                if v == opened:
                    depth += 1
                elif v == close:
                    depth -= 1
                    if depth == 0:
                        return i + 1
            i += 1
        return len(self.toks)

    # --- error recovery -----------------------------------------------

    def _resync(self) -> AstNode:
        start = self.pos
        depth = 0
        while not self.done():
            tok = self.peek()
            if tok.type == "punct" and tok.value == "}" and depth == 0:
                break  # leave the brace for the enclosing block
            self.next()
            if tok.type != "punct":
                continue
            if tok.value == "{":
                depth += 1
            elif tok.value == "}":
                depth -= 1
            elif tok.value == ";" and depth == 0:
                break
        if self.pos == start:  # stray '}' or EOF: still must make progress
            self.pos += 1
        return AstNode(ERROR_KIND)

    def _guarded(self, production) -> AstNode:
        try:
            return production()
        except _Unexpected:
            return self._resync()

    # --- entry points ---------------------------------------------------

    def parse(self) -> AstNode:
        items: list[AstNode] = []
        while not self.done():
            items.append(self._guarded(self.top_level))
        root = AstNode(self.k["root"], items)
        real = [c for c in items if c.kind != ERROR_KIND]
        if items and not real:
            raise ParseFailure(f"{self.lang}: no parseable content")
        return root

    def top_level(self) -> AstNode:
        if self.lang == "java":
            return self.java_top_level()
        if self.lang == "javascript":
            return self.statement()
        return self.c_top_level()

    # --- java ----------------------------------------------------------

    def java_top_level(self) -> AstNode:
        if self.at("package"):
            self.next()
            self._skip_to(";")
            return AstNode("package_declaration")
        if self.at("import"):
            self.next()
            self._skip_to(";")
            return AstNode("import_declaration")
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
                self.next()
                self.next()
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
        while self.at("extends") or self.at("implements"):
            self.next()
            self.java_type()
            while self.accept(","):
                self.java_type()
        self.expect("{")
        members: list[AstNode] = []
        while not self.at("}") and not self.done():
            members.append(self._guarded(self.java_member))
        self.expect("}")
        body_kind = "class_body" if kw != "interface" else "interface_body"
        return AstNode(kind, mods + [name, AstNode(body_kind, members)])

    def java_member(self) -> AstNode:
        if self.accept(";"):
            return AstNode("empty_statement")
        mods = self.java_modifiers()
        if self.at("class") or self.at("interface") or self.at("enum"):
            return self.java_class(mods)
        tok = self.peek()
        if tok.type == "id" and tok.value == getattr(self, "class_name", None) \
                and self.peek(1).value == "(":
            self.next()
            params = self.java_params()
            body = self.block("constructor_body")
            return AstNode("constructor_declaration",
                           mods + [AstNode("identifier"), params, body])
        type_node = self.java_type()
        if self.peek().type != "id":
            raise _Unexpected("expected member name")
        self.next()
        name = AstNode("identifier")
        if self.at("("):
            params = self.java_params()
            while self.at("throws"):
                self.next()
                self.java_type()
                while self.accept(","):
                    self.java_type()
            if self.accept(";"):
                body_children = mods + [type_node, name, params]
                return AstNode("method_declaration", body_children)
            body = self.block(self.k["block"])
            return AstNode("method_declaration", mods + [type_node, name, params, body])
        decls = [self.java_declarator_tail(name)]
        while self.accept(","):
            if self.peek().type != "id":
                raise _Unexpected("expected field name")
            self.next()
            decls.append(self.java_declarator_tail(AstNode("identifier")))
        self.expect(";")
        return AstNode("field_declaration", mods + [type_node] + decls)

    def java_declarator_tail(self, name: AstNode) -> AstNode:
        children = [name]
        while self.accept("["):
            self.expect("]")
        if self.accept("="):
            children.append(self.java_initializer())
        return AstNode("variable_declarator", children)

    def java_initializer(self) -> AstNode:
        if self.at("{"):
            self.next()
            elems: list[AstNode] = []
            while not self.at("}") and not self.done():
                elems.append(self.java_initializer())
                if not self.accept(","):
                    break
            self.expect("}")
            return AstNode("array_initializer", elems)
        return self.expression()

    def java_params(self) -> AstNode:
        self.expect("(")
        params: list[AstNode] = []
        while not self.at(")") and not self.done():
            t = self.java_type()
            self.accept("...")
            if self.peek().type != "id":
                raise _Unexpected("expected parameter name")
            self.next()
            while self.accept("["):
                self.expect("]")
            params.append(AstNode(self.k["param"], [t, AstNode("identifier")]))
            if not self.accept(","):
                break
        self.expect(")")
        return AstNode(self.k["params"], params)

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
                self.next()
                self.next()
            node = AstNode("type_identifier")
            if self.at("<"):
                end = self._angle_end(self.pos)
                self.pos = end
                node = AstNode("generic_type", [node, AstNode("type_arguments")])
        else:
            raise _Unexpected(f"expected type, found {tok.value!r}")
        while self.at("[") and self.peek(1).value == "]":
            self.next()
            self.next()
            node = AstNode("array_type", [node])
        return node

    def _angle_end(self, start: int) -> int:
        depth = 0
        i = start
        while i < len(self.toks):
            v = self.toks[i].value
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
            i += 1
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
            self.next()
            self._skip_to(";")
            return AstNode("using_declaration")
        if self.at("namespace"):
            self.next()
            if self.peek().type == "id":
                self.next()
            self.expect("{")
            items: list[AstNode] = []
            while not self.at("}") and not self.done():
                items.append(self._guarded(self.c_top_level))
            self.expect("}")
            return AstNode("namespace_definition",
                           [AstNode("identifier"), AstNode("declaration_list", items)])
        if self.at("template"):
            self.next()
            if self.at("<"):
                self.pos = self._angle_end(self.pos)
            inner = self.c_top_level()
            return AstNode("template_declaration", [inner])
        if (self.at("struct") or self.at("class") or self.at("union") or self.at("enum")) \
                and self.peek(2).value == "{":
            return self.c_record()
        if self.at("typedef"):
            self.next()
            self._skip_to(";")
            return AstNode("type_definition")
        return self.c_declaration(top_level=True)

    def c_record(self) -> AstNode:
        kw = self.next().value
        kind = {"struct": "struct_specifier", "class": "class_specifier",
                "union": "union_specifier", "enum": "enum_specifier"}[kw]
        if self.peek().type == "id":
            self.next()
        name = AstNode("type_identifier")
        self.expect("{")
        members: list[AstNode] = []
        if kw == "enum":
            while not self.at("}") and not self.done():
                if self.peek().type == "id":
                    self.next()
                    members.append(AstNode("enumerator", [AstNode("identifier")]))
                    if self.accept("="):
                        self.expression()
                if not self.accept(","):
                    break
            body = AstNode("enumerator_list", members)
        else:
            while not self.at("}") and not self.done():
                if self.lang == "cpp" and self.peek().type == "kw" \
                        and self.peek().value in ("public", "private", "protected") \
                        and self.peek(1).value == ":":
                    self.next()
                    self.next()
                    members.append(AstNode("access_specifier"))
                    continue
                members.append(self._guarded(self.c_member))
            body = AstNode("field_declaration_list", members)
        self.expect("}")
        self.accept(";")
        return AstNode(kind, [name, body])

    def c_member(self) -> AstNode:
        node = self.c_declaration(top_level=True)
        if node.kind == "declaration":
            return AstNode("field_declaration", node.children)
        return node

    def c_declaration(self, top_level: bool) -> AstNode:
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
            return AstNode("init_declarator", [declarator, self.c_initializer()])
        return declarator

    def c_initializer(self) -> AstNode:
        if self.at("{"):
            self.next()
            elems: list[AstNode] = []
            while not self.at("}") and not self.done():
                elems.append(self.c_initializer())
                if not self.accept(","):
                    break
            self.expect("}")
            return AstNode("initializer_list", elems)
        return self.expression()

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
            elif tok.type == "kw" and tok.value in ("struct", "class", "union", "enum"):
                self.next()
                if self.peek().type == "id":
                    self.next()
                return AstNode({"struct": "struct_specifier", "class": "class_specifier",
                                "union": "union_specifier",
                                "enum": "enum_specifier"}[tok.value],
                               [AstNode("type_identifier")])
            elif tok.type == "id" and not saw_primitive and not saw_name:
                self.next()
                while self.at("::") and self.peek(1).type == "id":
                    self.next()
                    self.next()
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
                self.next()
                self.next()
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
        stmts: list[AstNode] = []
        while not self.at("}") and not self.done():
            stmts.append(self._guarded(self.statement))
        self.expect("}")
        return AstNode(kind, stmts)

    def statement(self) -> AstNode:
        tok = self.peek()
        if self.at("{"):
            return self.block(self.k["block"])
        if self.accept(";"):
            return AstNode("empty_statement" if self.lang in ("java", "javascript")
                           else "expression_statement")
        if self.at("if"):
            return self.if_statement()
        if self.at("while"):
            self.next()
            cond = self.paren_expression()
            return AstNode("while_statement", [cond, self.statement()])
        if self.at("do"):
            self.next()
            body = self.statement()
            self.expect("while")
            cond = self.paren_expression()
            self._end_statement()
            return AstNode("do_statement", [body, cond])
        if self.at("for"):
            return self.for_statement()
        if self.at("return"):
            self.next()
            children = []
            if not self.at(";") and not self.at("}") and not self.done():
                children.append(self.expression())
            self._end_statement()
            return AstNode("return_statement", children)
        if self.at("break"):
            self.next()
            if self.peek().type == "id":
                self.next()
            self._end_statement()
            return AstNode("break_statement")
        if self.at("continue"):
            self.next()
            if self.peek().type == "id":
                self.next()
            self._end_statement()
            return AstNode("continue_statement")
        if self.at("switch"):
            return self.switch_statement()
        if self.at("throw"):
            self.next()
            value = self.expression()
            self._end_statement()
            return AstNode("throw_statement", [value])
        if self.at("try"):
            return self.try_statement()
        if self.lang == "javascript":
            if self.at("function"):
                return self.js_function()
            if self.at("class"):
                return self.js_class()
            if self.at("var") or self.at("let") or self.at("const"):
                return self.js_declaration()
        else:
            if self._looks_like_declaration():
                node = self.c_declaration(top_level=False) if self.lang != "java" \
                    else self.java_local_declaration()
                return node
        if tok.type == "preproc":
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

    def _looks_like_declaration(self) -> bool:
        tok = self.peek()
        primitives = _JAVA_PRIMITIVES if self.lang == "java" else _C_PRIMITIVES
        if tok.type == "kw":
            if tok.value in primitives or tok.value in ("struct", "union", "enum"):
                return True
            if self.lang == "java" and tok.value in ("var", "final"):
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

    def java_local_declaration(self) -> AstNode:
        self.accept("final")
        type_node = self.java_type()
        if self.peek().type != "id":
            raise _Unexpected("expected variable name")
        self.next()
        decls = [self.java_declarator_tail(AstNode("identifier"))]
        while self.accept(","):
            if self.peek().type != "id":
                raise _Unexpected("expected variable name")
            self.next()
            decls.append(self.java_declarator_tail(AstNode("identifier")))
        self.expect(";")
        return AstNode(self.k["decl"], [type_node] + decls)

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
                    self.next()
                    self.next()
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
                self.next()
                self.next()
                seq = self.expression()
                self.expect(")")
                return AstNode("for_in_statement",
                               [AstNode("identifier"), seq, self.statement()])
            self.pos = mark
        init: list[AstNode] = []
        if not self.accept(";"):
            if self.lang == "javascript" and (self.at("var") or self.at("let")
                                              or self.at("const")):
                init.append(self.js_declaration())
            elif self.lang != "javascript" and self._looks_like_declaration():
                init.append(self.c_declaration(top_level=False) if self.lang != "java"
                            else self.java_local_declaration())
            else:
                init.append(self.expression())
                self.expect(";")
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
        body_kind = {"java": "switch_block", "javascript": "switch_body"}.get(
            self.lang, self.k["block"])
        return AstNode("switch_statement", [cond, AstNode(body_kind, cases)])

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
                param.append(AstNode("catch_formal_parameter" if self.lang == "java"
                                     else "identifier"))
            children.append(AstNode("catch_clause", param + [self.block(self.k["block"])]))
        if self.accept("finally"):
            children.append(AstNode("finally_clause", [self.block(self.k["block"])]))
        return AstNode("try_statement", children)

    # --- javascript-only forms ---------------------------------------------

    def js_function(self) -> AstNode:
        self.expect("function")
        if self.peek().type == "id":
            self.next()
        params = self.js_params()
        body = self.block(self.k["block"])
        return AstNode("function_declaration", [AstNode("identifier"), params, body])

    def js_params(self) -> AstNode:
        self.expect("(")
        params: list[AstNode] = []
        while not self.at(")") and not self.done():
            if self.accept("..."):
                if self.peek().type == "id":
                    self.next()
                params.append(AstNode("rest_pattern", [AstNode("identifier")]))
            elif self.peek().type == "id":
                self.next()
                if self.accept("="):
                    default = self.expression()
                    params.append(AstNode("assignment_pattern",
                                          [AstNode("identifier"), default]))
                else:
                    params.append(AstNode("identifier"))
            else:
                raise _Unexpected(f"expected parameter, found {self.peek().value!r}")
            if not self.accept(","):
                break
        self.expect(")")
        return AstNode(self.k["params"], params)

    def js_class(self) -> AstNode:
        self.expect("class")
        if self.peek().type == "id":
            self.next()
        name = AstNode("identifier")
        if self.accept("extends"):
            self.expression_no_assign()
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
                children.append(self.expression_no_assign())
            decls.append(AstNode("variable_declarator", children))
            if not self.accept(","):
                break
        self._end_statement()
        return AstNode(kind, decls)

    # --- expressions -------------------------------------------------------

    def expression(self) -> AstNode:
        left = self.expression_no_assign()
        tok = self.peek()
        if tok.type == "punct" and tok.value in _ASSIGN_OPS:
            op = self.next().value
            right = self.expression()
            if self.lang == "javascript" and op != "=":
                kind = "augmented_assignment_expression"
            else:
                kind = "assignment_expression"
            return AstNode(kind, [left, right])
        return left

    def expression_no_assign(self) -> AstNode:
        return self.ternary()

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
            tok = self.peek()
            value = tok.value
            if tok.type == "kw":
                if value == "instanceof" and self.lang in ("java", "javascript"):
                    pass
                elif value == "in" and self.lang == "javascript":
                    pass
                else:
                    break
            elif tok.type != "punct":
                break
            prec = _BINOP_PREC.get(value)
            if prec is None or prec < min_prec:
                break
            if value in ("===", "!==") and self.lang != "javascript":
                break
            self.next()
            right = self.binary(prec + 1)
            kind = "instanceof_expression" if value == "instanceof" and self.lang == "java" \
                else "binary_expression"
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
            if tok.value == "await" and self.lang == "javascript":
                self.next()
                return AstNode("await_expression", [self.unary()])
            if tok.value == "new":
                return self.new_expression()
            if tok.value == "sizeof" and self.lang in ("c", "cpp"):
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
        primitives = _JAVA_PRIMITIVES if self.lang == "java" else _C_PRIMITIVES
        if nxt.type != "kw" or nxt.value not in primitives:
            return None
        end = self._match_bracket(self.pos)
        if end >= len(self.toks):
            return None
        after = self.toks[end]
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
                    init.append(self.java_initializer())
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
        args: list[AstNode] = []
        while not self.at(")") and not self.done():
            if self.lang == "javascript" and self.accept("..."):
                args.append(AstNode("spread_element", [self.expression_no_assign()]))
            else:
                args.append(self.expression_no_assign())
            if not self.accept(","):
                break
        self.expect(")")
        return AstNode(self.k["args"], args)

    def postfix(self, no_call: bool = False) -> AstNode:
        node = self.primary()
        return self.postfix_tail(node, no_call)

    def postfix_tail(self, node: AstNode, no_call: bool = False) -> AstNode:
        while True:
            if self.at("(") and not no_call:
                args = self.call_args()
                node = self._make_call(node, args)
            elif self.at(".") and self.peek(1).type in ("id", "kw"):
                self.next()
                self.next()
                if self.lang == "javascript":
                    node = AstNode(self.k["member"],
                                   [node, AstNode("property_identifier")])
                else:
                    node = AstNode(self.k["member"], [node, AstNode("identifier")])
            elif self.at("->") and self.lang in ("c", "cpp") \
                    and self.peek(1).type == "id":
                self.next()
                self.next()
                node = AstNode("field_expression", [node, AstNode("identifier")])
            elif self.at("::") and self.lang == "cpp" and self.peek(1).type == "id":
                self.next()
                self.next()
                node = AstNode("qualified_identifier", [node, AstNode("identifier")])
            elif self.at("["):
                self.next()
                index = self.expression()
                self.expect("]")
                node = AstNode(self.k["subscript"], [node, index])
            elif self.at("++") or self.at("--"):
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
            kw = tok.value
            if kw in ("true", "false"):
                self.next()
                return AstNode(kw)
            if kw == "null":
                self.next()
                return AstNode("null_literal" if self.lang == "java" else "null")
            if kw == "nullptr":
                self.next()
                return AstNode("null")
            if kw == "undefined":
                self.next()
                return AstNode("undefined")
            if kw == "this":
                self.next()
                return AstNode("this")
            if kw == "super":
                self.next()
                return AstNode("super")
            if kw == "function" and self.lang == "javascript":
                self.next()
                if self.peek().type == "id":
                    self.next()
                params = self.js_params()
                body = self.block(self.k["block"])
                return AstNode("function_expression",
                               [AstNode("identifier"), params, body])
        if tok.type == "id":
            if self.lang == "javascript" and self.peek(1).value == "=>":
                self.next()
                self.next()
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
            elems: list[AstNode] = []
            while not self.at("]") and not self.done():
                elems.append(self.expression_no_assign())
                if not self.accept(","):
                    break
            self.expect("]")
            return AstNode("array", elems)
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
            body = self.expression_no_assign()
        return AstNode("arrow_function", [params, body])

    def js_object(self) -> AstNode:
        self.expect("{")
        pairs: list[AstNode] = []
        while not self.at("}") and not self.done():
            key_tok = self.peek()
            if key_tok.type in ("id", "kw", "str", "num"):
                self.next()
            else:
                raise _Unexpected(f"bad object key {key_tok.value!r}")
            if self.accept(":"):
                value = self.expression_no_assign()
                pairs.append(AstNode("pair", [AstNode("property_identifier"), value]))
            else:
                pairs.append(AstNode("shorthand_property_identifier"))
            if not self.accept(","):
                break
        self.expect("}")
        return AstNode("object", pairs)


def _parse(text: str, language: str) -> AstNode:
    return _Parser(tokenize(text, language), language).parse()


def parse_c(text: str) -> AstNode:
    return _parse(text, "c")


def parse_cpp(text: str) -> AstNode:
    return _parse(text, "cpp")


def parse_java(text: str) -> AstNode:
    return _parse(text, "java")


def parse_javascript(text: str) -> AstNode:
    return _parse(text, "javascript")
