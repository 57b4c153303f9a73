"""Rooted ordered trees of node-kind labels, plus the S-expression interchange.

Node identity is the grammar kind label only; token text is never stored.
The parsers build a graph of AstNode objects, and flatten turns it into the
one form every other caller gets: a FlatTree holds each node's kind in
pre-order (node first, then its subtrees left to right) and each node's
parent index in a 4-byte integer array, -1 at the root.  S-expression text
is already in pre-order, so its reader builds the flat form directly.  A
parent precedes its children, so any prefix of the pre-order is a tree.
All walks are iterative so deep trees cannot hit the recursion limit.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import MalformedSExpr

ERROR_KIND = "ERROR"


@dataclass(slots=True, eq=False, repr=False)
class AstNode:
    """One node of a parse tree: a kind label and an ordered child list."""

    kind: str
    children: list["AstNode"] = field(default_factory=list)


class FlatTree(NamedTuple):
    """A tree in pre-order: node i has kind kinds[i] and parent parents[i]."""

    kinds: list[str]
    parents: array  # array('i'); parents[0] == -1


def flatten(root: AstNode) -> FlatTree:
    """The tree under root in pre-order, in one walk."""
    kinds: list[str] = []
    parents = array("i")
    nodes, stacked = [root], [-1]  # a stack of nodes, with their parents
    while nodes:
        node, at = nodes.pop(), len(kinds)
        kinds.append(node.kind)
        parents.append(stacked.pop())
        if node.children:
            nodes.extend(reversed(node.children))
            stacked.extend([at] * len(node.children))
    return FlatTree(kinds, parents)


def node_count(tree: FlatTree) -> int:
    return len(tree.kinds)


# --- S-expression interchange -------------------------------------------------
#
# Grammar (one tree per document):
#   tree  := '(' kind tree* ')'
#   kind  := one or more characters excluding whitespace and parentheses
#
# Whitespace (any str.isspace() character) separates tokens and is
# otherwise ignored.

def load_ast_sexpr(text: str) -> FlatTree:
    """Read a parenthesized tree string into its flat pre-order form.

    Raises MalformedSExpr with the byte offset of the first problem.
    """
    i, n = 0, len(text)
    kinds: list[str] = []
    parents = array("i")
    open_nodes: list[int] = []  # the indices of the nodes not yet closed
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
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            if j == i:
                raise MalformedSExpr("empty kind", start)
            if kinds and not open_nodes:
                raise MalformedSExpr("multiple root trees", start)
            parents.append(open_nodes[-1] if open_nodes else -1)
            open_nodes.append(len(kinds))
            # interned, so a corpus holds one string per distinct kind, as
            # the parsers' kinds are, not one per node
            kinds.append(sys.intern(text[i:j]))
            i = j
        elif c == ")":
            if not open_nodes:
                raise MalformedSExpr("unbalanced ')'", i)
            open_nodes.pop()
            i += 1
        else:
            raise MalformedSExpr(f"unexpected character {c!r}", i)
    if open_nodes:
        raise MalformedSExpr("unbalanced '(': tree left open", n)
    if not kinds:
        raise MalformedSExpr("no tree found", 0)
    return FlatTree(kinds, parents)


def render_sexpr(tree: FlatTree, pretty: bool = False) -> str:
    """Render a tree back to S-expression text (inverse of load_ast_sexpr)."""
    out: list[str] = []
    depths: list[int] = []
    for kind, parent in zip(*tree):
        if any(c.isspace() or c in "()" for c in kind):
            raise ValueError(f"kind {kind!r} cannot be rendered")
        depth = depths[parent] + 1 if depths else 0
        if depths:  # close each open node but this one's parent
            out.append(")" * (depths[-1] - depth + 1)
                       + ("\n" + "  " * depth if pretty else " "))
        depths.append(depth)
        out.append(f"({kind}")
    out.append(")" * (depths[-1] + 1))
    return "".join(out)
