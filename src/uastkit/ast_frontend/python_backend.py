"""Python grammar backend built on the standard library parser.

Emits kind labels aligned with the tree-sitter-python grammar so the default
unification table applies to all built-in backends uniformly.  Token text is
dropped; only kind labels survive.  Syntax errors are unrecoverable here (the
stdlib parser has no error recovery), so they surface as ParseFailure.
"""

from __future__ import annotations

import ast
import re

from ..errors import ParseFailure
from .tree import AstNode

# stdlib node class -> emitted kind, for nodes that map one-to-one
_KIND_MAP = {
    "Module": "module",
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
    "Call": "call",
    "Attribute": "attribute",
    "Subscript": "subscript",
    "Starred": "list_splat",
    "List": "list",
    "Tuple": "tuple",
    "Dict": "dictionary",
    "Set": "set",
    "ListComp": "list_comprehension",
    "SetComp": "set_comprehension",
    "DictComp": "dictionary_comprehension",
    "GeneratorExp": "generator_expression",
    "IfExp": "conditional_expression",
    "NamedExpr": "named_expression",
    "Lambda": "lambda",
    "Await": "await",
    "Yield": "yield",
    "YieldFrom": "yield",
    "Slice": "slice",
    "JoinedStr": "string",
    "FormattedValue": "interpolation",
}

_CAMEL = re.compile(r"(?<!^)(?=[A-Z])")


def _snake(name: str) -> str:
    return _CAMEL.sub("_", name).lower()


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
    n_defaults = len(args.defaults)
    first_default = len(plain) - n_defaults
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
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "string"
    if isinstance(value, bytes):
        return "string"
    if isinstance(value, complex):
        return "float"
    return "ellipsis"


def _convert(node: ast.AST) -> AstNode:
    name = type(node).__name__

    if isinstance(node, ast.Module):
        return AstNode("module", [_convert(s) for s in node.body])
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        defn = AstNode("function_definition",
                       [AstNode("identifier"), _parameters(node.args), _block(node.body)])
        return _decorated(defn, node)
    if isinstance(node, ast.ClassDef):
        children = [AstNode("identifier")]
        if node.bases or node.keywords:
            children.append(AstNode("argument_list", [_convert(b) for b in node.bases]))
        children.append(_block(node.body))
        return _decorated(AstNode("class_definition", children), node)
    if isinstance(node, ast.Return):
        children = [] if node.value is None else [_convert(node.value)]
        return AstNode("return_statement", children)
    if isinstance(node, ast.Assign):
        inner = AstNode("assignment", [_convert(t) for t in node.targets] + [_convert(node.value)])
        return AstNode("expression_statement", [inner])
    if isinstance(node, ast.AugAssign):
        inner = AstNode("augmented_assignment", [_convert(node.target), _convert(node.value)])
        return AstNode("expression_statement", [inner])
    if isinstance(node, ast.AnnAssign):
        children = [_convert(node.target), _convert(node.annotation)]
        if node.value is not None:
            children.append(_convert(node.value))
        return AstNode("expression_statement", [AstNode("assignment", children)])
    if isinstance(node, ast.Expr):
        return AstNode("expression_statement", [_convert(node.value)])
    if isinstance(node, ast.If):
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
    if isinstance(node, ast.While):
        children = [_convert(node.test), _block(node.body)]
        if node.orelse:
            children.append(AstNode("else_clause", [_block(node.orelse)]))
        return AstNode("while_statement", children)
    if isinstance(node, (ast.For, ast.AsyncFor)):
        children = [_convert(node.target), _convert(node.iter), _block(node.body)]
        if node.orelse:
            children.append(AstNode("else_clause", [_block(node.orelse)]))
        return AstNode("for_statement", children)
    if isinstance(node, ast.Try):
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
    if isinstance(node, (ast.With, ast.AsyncWith)):
        items = [AstNode("with_item", [_convert(i.context_expr)]) for i in node.items]
        return AstNode("with_statement", items + [_block(node.body)])
    if isinstance(node, ast.Name):
        return AstNode("identifier")
    if isinstance(node, ast.Constant):
        return AstNode(_constant_kind(node.value))
    if isinstance(node, ast.Call):
        return AstNode("call", [_convert(node.func), _arguments(node)])
    if isinstance(node, ast.Attribute):
        return AstNode("attribute", [_convert(node.value), AstNode("identifier")])
    if isinstance(node, ast.Subscript):
        return AstNode("subscript", [_convert(node.value), _convert(node.slice)])
    if isinstance(node, ast.UnaryOp):
        kind = "not_operator" if isinstance(node.op, ast.Not) else "unary_operator"
        return AstNode(kind, [_convert(node.operand)])
    if isinstance(node, ast.BinOp):
        return AstNode("binary_operator", [_convert(node.left), _convert(node.right)])
    if isinstance(node, ast.BoolOp):
        return AstNode("boolean_operator", [_convert(v) for v in node.values])
    if isinstance(node, ast.Compare):
        children = [_convert(node.left)] + [_convert(c) for c in node.comparators]
        return AstNode("comparison_operator", children)
    if isinstance(node, ast.Lambda):
        return AstNode("lambda", [_parameters(node.args), _convert(node.body)])
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
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
    if isinstance(node, ast.Dict):
        pairs = [AstNode("pair", [_convert(k), _convert(v)])
                 for k, v in zip(node.keys, node.values) if k is not None]
        return AstNode("dictionary", pairs)
    if isinstance(node, ast.Slice):
        parts = [_convert(p) for p in (node.lower, node.upper, node.step) if p is not None]
        return AstNode("slice", parts)

    kind = _KIND_MAP.get(name)
    if kind is not None:
        generic = [_convert(c) for c in ast.iter_child_nodes(node)
                   if not isinstance(c, (ast.expr_context, ast.operator,
                                         ast.boolop, ast.unaryop, ast.cmpop))]
        return AstNode(kind, generic)

    # anything unanticipated keeps a snake_case kind and generic children
    generic = [_convert(c) for c in ast.iter_child_nodes(node)
               if not isinstance(c, (ast.expr_context, ast.operator,
                                     ast.boolop, ast.unaryop, ast.cmpop))]
    return AstNode(_snake(name), generic)


def _decorated(defn: AstNode, node) -> AstNode:
    if getattr(node, "decorator_list", None):
        decorators = [AstNode("decorator", [_convert(d)]) for d in node.decorator_list]
        return AstNode("decorated_definition", decorators + [defn])
    return defn
