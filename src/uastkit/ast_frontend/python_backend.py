"""Python grammar backend built on the standard library parser.

Emits kind labels aligned with the tree-sitter-python grammar so the default
unification table applies to all built-in backends uniformly.  Token text is
dropped; only kind labels survive.  The classes whose tree-sitter shape
differs have a converter of their own in ``_CONVERTERS``, found by the node's
exact class in one lookup.  Every other class, whose children are the
stdlib's own (operators aside), takes the generic path: its kind from
``_KIND_MAP`` (or its snake_case class name) over its converted children.
Syntax errors are unrecoverable here (the stdlib parser has no error
recovery), so they surface as ParseFailure.
"""

from __future__ import annotations

import ast
import re
import sys
from functools import cache

from ..errors import ParseFailure
from .tree import AstNode

# stdlib node class -> emitted kind, where the kind is not the class name in
# snake_case
_KIND_MAP = {
    "Return": "return_statement",
    "Break": "break_statement",
    "Continue": "continue_statement",
    "Pass": "pass_statement",
    "Delete": "delete_statement",
    "Raise": "raise_statement",
    "Assert": "assert_statement",
    "Global": "global_statement",
    "Nonlocal": "nonlocal_statement",
    "Import": "import_statement",
    "ImportFrom": "import_from_statement",
    "BinOp": "binary_operator",
    "BoolOp": "boolean_operator",
    "Compare": "comparison_operator",
    "Starred": "list_splat",
    "ListComp": "list_comprehension",
    "SetComp": "set_comprehension",
    "DictComp": "dictionary_comprehension",
    "GeneratorExp": "generator_expression",
    "IfExp": "conditional_expression",
    "NamedExpr": "named_expression",
    "YieldFrom": "yield",
    "FormattedValue": "interpolation",
}

# node classes that are no tree node of their own: operators and contexts
_NO_KIND = (ast.expr_context, ast.operator, ast.boolop, ast.unaryop, ast.cmpop)
_CAMEL = re.compile(r"(?<!^)(?=[A-Z])")


@cache
def _snake(name: str) -> str:
    return sys.intern(_CAMEL.sub("_", name).lower())


def parse_python(text: str) -> AstNode:
    try:
        module = ast.parse(text)
    except (SyntaxError, ValueError) as exc:
        raise ParseFailure(f"python: {exc}") from exc
    return _convert(module)


def _block(stmts) -> AstNode:
    return AstNode("block", [_convert(s) for s in stmts])


def _parameters(args: ast.arguments) -> AstNode:
    params: list[AstNode] = []
    plain = list(args.posonlyargs) + list(args.args)
    first_default = len(plain) - len(args.defaults)
    for i, a in enumerate(plain):
        node = AstNode("identifier")
        if a.annotation is not None:
            node = AstNode("typed_parameter", [node, _convert(a.annotation)])
        if i >= first_default:
            node = AstNode("default_parameter", [node, _convert(args.defaults[i - first_default])])
        params.append(node)
    if args.vararg is not None:
        params.append(AstNode("list_splat_pattern", [AstNode("identifier")]))
    for kw, default in zip(args.kwonlyargs, args.kw_defaults):
        node = AstNode("identifier")
        if default is not None:
            node = AstNode("default_parameter", [node, _convert(default)])
        params.append(node)
    if args.kwarg is not None:
        params.append(AstNode("dictionary_splat_pattern", [AstNode("identifier")]))
    return AstNode("parameters", params)


def _arguments(node: ast.Call) -> AstNode:
    children = [_convert(a) for a in node.args]
    for kw in node.keywords:
        if kw.arg is None:
            children.append(AstNode("dictionary_splat", [_convert(kw.value)]))
        else:
            children.append(AstNode("keyword_argument", [AstNode("identifier"), _convert(kw.value)]))
    return AstNode("argument_list", children)


def _constant_kind(value) -> str:
    if value is True or value is False:
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, (float, complex)):
        return "float"
    if isinstance(value, (str, bytes)):
        return "string"
    return "ellipsis"


def _convert(node: ast.AST) -> AstNode:
    converter = _CONVERTERS.get(type(node))
    if converter is not None:
        return converter(node)
    # the generic path: the mapped kind, else the class name in snake_case,
    # over the children less operators and expression contexts
    name = type(node).__name__
    generic = [_convert(c) for c in ast.iter_child_nodes(node)
               if not isinstance(c, _NO_KIND)]
    return AstNode(_KIND_MAP.get(name) or _snake(name), generic)


def _definition(node) -> AstNode:
    """A function or class definition, under its decorators if it has any."""
    if isinstance(node, ast.ClassDef):
        children = [AstNode("identifier")]
        if node.bases or node.keywords:
            children.append(AstNode("argument_list", [_convert(b) for b in node.bases]))
        defn = AstNode("class_definition", children + [_block(node.body)])
    else:
        defn = AstNode("function_definition", [
            AstNode("identifier"), _parameters(node.args), _block(node.body)])
    if not node.decorator_list:
        return defn
    decorators = [AstNode("decorator", [_convert(d)]) for d in node.decorator_list]
    return AstNode("decorated_definition", decorators + [defn])


def _statement(kind: str, children: list[AstNode]) -> AstNode:
    return AstNode("expression_statement", [AstNode(kind, children)])


def _if(node: ast.If) -> AstNode:
    # an elif chain is walked in this loop and nested bottom-up, so its
    # length costs no stack; each else block holds the next if_statement
    chain = [node]
    while len(chain[-1].orelse) == 1 and isinstance(chain[-1].orelse[0], ast.If):
        chain.append(chain[-1].orelse[0])
    out = None
    for link in reversed(chain):
        children = [_convert(link.test), _block(link.body)]
        if out is not None:
            children.append(AstNode("else_clause", [AstNode("block", [out])]))
        elif link.orelse:
            children.append(AstNode("else_clause", [_block(link.orelse)]))
        out = AstNode("if_statement", children)
    return out


def _loop(node) -> AstNode:
    if isinstance(node, ast.While):
        kind, heads = "while_statement", [node.test]
    else:
        kind, heads = "for_statement", [node.target, node.iter]
    children = [_convert(h) for h in heads] + [_block(node.body)]
    if node.orelse:
        children.append(AstNode("else_clause", [_block(node.orelse)]))
    return AstNode(kind, children)


def _try(node: ast.Try) -> AstNode:
    children = [_block(node.body)]
    for handler in node.handlers:
        hc = []
        if handler.type is not None:
            hc.append(_convert(handler.type))
        hc.append(_block(handler.body))
        children.append(AstNode("except_clause", hc))
    if node.orelse:
        children.append(AstNode("else_clause", [_block(node.orelse)]))
    if node.finalbody:
        children.append(AstNode("finally_clause", [_block(node.finalbody)]))
    return AstNode("try_statement", children)


def _comprehension(node) -> AstNode:
    children: list[AstNode] = []
    if isinstance(node, ast.DictComp):
        children.append(AstNode("pair", [_convert(node.key), _convert(node.value)]))
    else:
        children.append(_convert(node.elt))
    for gen in node.generators:
        clause = [_convert(gen.target), _convert(gen.iter)]
        children.append(AstNode("for_in_clause", clause))
        for cond in gen.ifs:
            children.append(AstNode("if_clause", [_convert(cond)]))
    return AstNode(_KIND_MAP[type(node).__name__], children)


def _with(node) -> AstNode:
    return AstNode("with_statement", [AstNode("with_item", [_convert(i.context_expr)])
                                      for i in node.items] + [_block(node.body)])


# the classes whose tree-sitter shape differs, each with its converter
_CONVERTERS = {
    ast.FunctionDef: _definition, ast.AsyncFunctionDef: _definition,
    ast.ClassDef: _definition,
    ast.Assign: lambda node: _statement(
        "assignment", [_convert(t) for t in node.targets] + [_convert(node.value)]),
    ast.AugAssign: lambda node: _statement(
        "augmented_assignment", [_convert(node.target), _convert(node.value)]),
    ast.AnnAssign: lambda node: _statement("assignment", [
        _convert(c) for c in (node.target, node.annotation, node.value)
        if c is not None]),
    ast.Expr: lambda node: AstNode("expression_statement", [_convert(node.value)]),
    ast.If: _if,
    ast.While: _loop, ast.For: _loop, ast.AsyncFor: _loop,
    ast.Try: _try,
    ast.With: _with, ast.AsyncWith: _with,
    ast.Name: lambda node: AstNode("identifier"),
    ast.Constant: lambda node: AstNode(_constant_kind(node.value)),
    ast.Call: lambda node: AstNode("call", [_convert(node.func), _arguments(node)]),
    ast.Attribute: lambda node: AstNode(
        "attribute", [_convert(node.value), AstNode("identifier")]),
    ast.UnaryOp: lambda node: AstNode(
        "not_operator" if isinstance(node.op, ast.Not) else "unary_operator",
        [_convert(node.operand)]),
    ast.Lambda: lambda node: AstNode(
        "lambda", [_parameters(node.args), _convert(node.body)]),
    ast.ListComp: _comprehension, ast.SetComp: _comprehension,
    ast.GeneratorExp: _comprehension, ast.DictComp: _comprehension,
    # CPython 3.12.1 appends an empty constant to a nested format spec
    # (f"{n:>{width}}"), where 3.10, 3.11 and 3.13 do not; skipping empty
    # constants gives every interpreter one tree
    ast.JoinedStr: lambda node: AstNode("string", [
        _convert(v) for v in node.values
        if not (isinstance(v, ast.Constant) and v.value == "")]),
    ast.Dict: lambda node: AstNode("dictionary", [
        AstNode("pair", [_convert(k), _convert(v)])
        for k, v in zip(node.keys, node.values) if k is not None]),
}
