"""Rooted ordered trees of node-kind labels, plus the S-expression interchange.

Node identity is the grammar kind label only; token text is never stored.
All traversals are iterative so deep trees cannot hit the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import MalformedSExpr

ERROR_KIND = "ERROR"


@dataclass(slots=True)
class AstNode:
    """One node of a parse tree: a kind label and an ordered child list."""

    kind: str
    children: list["AstNode"] = field(default_factory=list)

    def __post_init__(self):
        if not self.kind:
            raise ValueError("AstNode kind must be non-empty")

    def __eq__(self, other):
        if not isinstance(other, AstNode):
            return NotImplemented
        # iterative comparison; trees can be deep
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.kind != b.kind or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __repr__(self):
        return f"AstNode({self.kind!r}, {len(self.children)} children)"


def preorder(root: AstNode) -> Iterator[AstNode]:
    """Yield nodes in pre-order: node first, then subtrees left to right."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def node_count(root: AstNode) -> int:
    return sum(1 for _ in preorder(root))


# --- S-expression interchange -------------------------------------------------
#
# Grammar (one tree per document):
#   tree  := '(' kind tree* ')'
#   kind  := one or more characters excluding whitespace and parentheses
#
# Whitespace separates tokens and is otherwise ignored.

_KIND_FORBIDDEN = set("() \t\r\n")


def load_ast_sexpr(text: str) -> AstNode:
    """Parse a parenthesized tree string into an AstNode.

    Raises MalformedSExpr with the byte offset of the first problem.
    """
    i, n = 0, len(text)
    root: AstNode | None = None
    stack: list[AstNode] = []
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            start = i
            i += 1
            while i < n and text[i].isspace():
                i += 1
            j = i
            while j < n and text[j] not in _KIND_FORBIDDEN:
                j += 1
            if j == i:
                raise MalformedSExpr("empty kind", start)
            node = AstNode(text[i:j])
            if stack:
                stack[-1].children.append(node)
            elif root is not None:
                raise MalformedSExpr("multiple root trees", start)
            else:
                root = node
            stack.append(node)
            i = j
        elif c == ")":
            if not stack:
                raise MalformedSExpr("unbalanced ')'", i)
            stack.pop()
            i += 1
        else:
            raise MalformedSExpr(f"unexpected character {c!r}", i)
    if stack:
        raise MalformedSExpr("unbalanced '(': tree left open", n)
    if root is None:
        raise MalformedSExpr("no tree found", 0)
    return root


def render_sexpr(root: AstNode, pretty: bool = False) -> str:
    """Render a tree back to S-expression text (inverse of load_ast_sexpr)."""
    out: list[str] = []
    # stack entries: (node, depth) or the literal ")" sentinel
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if item == ")":
            out.append(")")
            continue
        node, depth = item
        if any(ch in _KIND_FORBIDDEN for ch in node.kind):
            raise ValueError(f"kind {node.kind!r} cannot be rendered")
        if out:
            out.append("\n" + "  " * depth if pretty else " ")
        out.append(f"({node.kind}")
        stack.append(")")
        for child in reversed(node.children):
            stack.append((child, depth + 1))
    return "".join(out)
