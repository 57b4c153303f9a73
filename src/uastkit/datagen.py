"""Seeded generator for a small labeled benchmark corpus.

Emits three algorithm classes (iterative_sum, binary_search, bubble_sort)
in Java and Python with surface-level randomization: identifier names,
constants, optional dead statements, and loop-style variation.  The class
structure stays intact, so a correct model can generalize across the
surface noise.  Each class is built once, as a list of statements that a
per-language syntax table prints.  Everything derives from one seed, making
generated corpora reproducible byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import UsageError

CLASSES = ("iterative_sum", "binary_search", "bubble_sort")
LANGUAGES = ("java", "python")

_NAMES = ["total", "probe", "walker", "runner", "scan", "merge", "lookup",
          "handle", "process", "compute", "resolve", "gather", "reduce",
          "measure", "index", "order", "arrange", "place", "locate", "track"]
_VARS = ["acc", "sum", "count", "value", "item", "left", "right", "low",
         "high", "mid", "pos", "cursor", "mark", "probe", "slot", "tmp",
         "hold", "swap", "edge", "bound", "limit", "top", "base", "span"]
_CLASSNAMES = ["Runner", "Solver", "Engine", "Worker", "Helper", "Core",
               "Logic", "Kernel", "Driver", "Module", "Unit", "Block"]


class _Namer:
    """Draws distinct identifiers for one file.

    A file draws at most 6 of the 24 _VARS, one of _NAMES and one of
    _CLASSNAMES, and each loop-name pool once, so no pool runs out.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.used: set[str] = set()

    def pick(self, pool: list[str]) -> str:
        options = [n for n in pool if n not in self.used]
        name = options[int(self.rng.integers(len(options)))]
        self.used.add(name)
        return name


# A statement is (kind, args, *blocks).  A language prints it as its
# table's format for kind, filled with args, then each block one level
# deeper, an "else" line before a second block, and an "end" line after the
# last, where the language has one.  A language with a "class" format wraps
# the function in a class whose name it draws; one with a "swap" format
# draws whether bubble_sort swaps in one statement.
_SYNTAX = {
    "java": {"ext": ".java", "len": "{}.length", "div": "/",
             "class": "class {} {{", "def": "{} {}({}) {{", "param": "{} {}",
             "decl": "int {} = {};", "assign": "{} = {};",
             "return": "return {};", "while": "while ({}) {{",
             "for": "for (int {0} = {1}; {0} < {2}; {0}++) {{",
             "for0": "for (int {0} = 0; {0} < {1}; {0}++) {{",
             "if": "if ({}) {{", "else": "} else {", "end": "}"},
    "python": {"ext": ".py", "len": "len({})", "div": "//",
               "def": "def {1}({2}):", "param": "{1}", "decl": "{} = {}",
               "assign": "{} = {}", "swap": "{0}, {1} = {1}, {0}",
               "return": "return {}", "while": "while {}:", "if": "if {}:",
               "for": "for {} in range({}, {}):",
               "for0": "for {} in range({}):", "else": "else:", "end": None},
}


def _lines(statements: list, syntax: dict, depth: int = 0):
    pad = "    " * depth
    for kind, args, *blocks in statements:
        yield pad + syntax[kind].format(*args)
        for k, block in enumerate(blocks):
            if k:
                yield pad + syntax["else"]
            yield from _lines(block, syntax, depth + 1)
        if blocks and syntax["end"]:
            yield pad + syntax["end"]


def _head(syntax: dict, nm: _Namer, rng: np.random.Generator):
    """The class name where the language has classes, then a dead statement."""
    cls = nm.pick(_CLASSNAMES) if "class" in syntax else None
    if rng.random() < 0.5:
        return cls, []
    return cls, [("decl", (nm.pick(_VARS), int(rng.integers(0, 50))))]


def _file(syntax: dict, cls: str | None, ret: str, fn: str,
          params: list[tuple[str, str]], body: list) -> str:
    params = ", ".join(syntax["param"].format(*p) for p in params)
    program = [("def", (ret, fn, params), body)]
    program = [("class", (cls,), program)] if cls else program
    return "".join(line + "\n" for line in _lines(program, syntax))


def _iterative_sum(syntax: dict, rng: np.random.Generator) -> str:
    nm = _Namer(rng)
    fn, n, s, i = (nm.pick(_NAMES), nm.pick(_VARS), nm.pick(_VARS),
                   nm.pick(["i", "j", "k", "t"]))
    start = int(rng.integers(0, 3))
    use_while = bool(rng.random() < 0.5)
    cls, dead = _head(syntax, nm, rng)
    add, step = ("assign", (s, f"{s} + {i}")), ("assign", (i, f"{i} + 1"))
    loop = [("for", (i, start, n), [add])]
    if use_while:
        loop = [("decl", (i, start)), ("while", (f"{i} < {n}",), [add, step])]
    body = [("decl", (s, 0)), *dead, *loop, ("return", (s,))]
    return _file(syntax, cls, "int", fn, [("int", n)], body)


def _binary_search(syntax: dict, rng: np.random.Generator) -> str:
    nm = _Namer(rng)
    fn, arr, target = nm.pick(_NAMES), nm.pick(_VARS), nm.pick(_VARS)
    lo, hi, mid = nm.pick(_VARS), nm.pick(_VARS), nm.pick(_VARS)
    miss = int(rng.integers(1, 3)) * -1
    cls, dead = _head(syntax, nm, rng)
    at = f"{arr}[{mid}]"
    body = [("decl", (lo, 0)),
            ("decl", (hi, syntax["len"].format(arr) + " - 1")), *dead,
            ("while", (f"{lo} <= {hi}",), [
                ("decl", (mid, f"({lo} + {hi}) {syntax['div']} 2")),
                ("if", (f"{at} == {target}",), [("return", (mid,))]),
                ("if", (f"{at} < {target}",),
                 [("assign", (lo, f"{mid} + 1"))],
                 [("assign", (hi, f"{mid} - 1"))])]),
            ("return", (miss,))]
    return _file(syntax, cls, "int", fn, [("int[]", arr), ("int", target)],
                 body)


def _bubble_sort(syntax: dict, rng: np.random.Generator) -> str:
    nm = _Namer(rng)
    fn, a = nm.pick(_NAMES), nm.pick(_VARS)
    i, j = nm.pick(["i", "x", "r"]), nm.pick(["j", "y", "c"])
    t = nm.pick(_VARS)
    cls, dead = _head(syntax, nm, rng)
    x, y = f"{a}[{j}]", f"{a}[{j} + 1]"
    swap = [("decl", (t, x)), ("assign", (x, y)), ("assign", (y, t))]
    if "swap" in syntax and rng.random() < 0.5:
        swap = [("swap", (x, y))]
    size = syntax["len"].format(a)
    body = [*dead, ("for0", (i, size), [
        ("for0", (j, size + " - 1"), [("if", (f"{x} > {y}",), swap)])])]
    return _file(syntax, cls, "void", fn, [("int[]", a)], body)


_BUILDERS = {"iterative_sum": _iterative_sum,
             "binary_search": _binary_search,
             "bubble_sort": _bubble_sort}


def generate_corpus(out_dir: str | Path, seed: int = 42,
                    per_pair: int = 60) -> int:
    """Write the benchmark tree under out_dir; returns the file count."""
    if per_pair < 1:
        raise UsageError(f"per_pair must be >= 1, got {per_pair}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    out = Path(out_dir)
    written = 0
    for label in CLASSES:
        for language in LANGUAGES:
            target = out / label / language
            target.mkdir(parents=True, exist_ok=True)
            for index in range(per_pair):
                rng = np.random.default_rng(
                    [seed, CLASSES.index(label), LANGUAGES.index(language),
                     index])
                text = _BUILDERS[label](_SYNTAX[language], rng)
                name = f"sample_{index:03d}{_SYNTAX[language]['ext']}"
                (target / name).write_text(text, encoding="utf-8")
                written += 1
    return written
