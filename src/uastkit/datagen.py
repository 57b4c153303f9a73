"""Seeded generator for a small labeled benchmark corpus.

Emits three algorithm classes (iterative_sum, binary_search, bubble_sort)
in Java and Python with surface-level randomization: identifier names,
constants, optional dead statements, and loop-style variation.  The class
structure stays intact, so a correct model can generalize across the
surface noise.  Everything derives from one seed, making generated corpora
reproducible byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import UsageError

CLASSES = ("iterative_sum", "binary_search", "bubble_sort")
LANGUAGES = ("java", "python")
_EXT = {"java": ".java", "python": ".py"}

_NAMES = ["total", "probe", "walker", "runner", "scan", "merge", "lookup",
          "handle", "process", "compute", "resolve", "gather", "reduce",
          "measure", "index", "order", "arrange", "place", "locate", "track"]
_VARS = ["acc", "sum", "count", "value", "item", "left", "right", "low",
         "high", "mid", "pos", "cursor", "mark", "probe", "slot", "tmp",
         "hold", "swap", "edge", "bound", "limit", "top", "base", "span"]
_CLASSNAMES = ["Runner", "Solver", "Engine", "Worker", "Helper", "Core",
               "Logic", "Kernel", "Driver", "Module", "Unit", "Block"]


class _Namer:
    """Draws distinct identifiers for one file."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.used: set[str] = set()

    def pick(self, pool: list[str]) -> str:
        options = [n for n in pool if n not in self.used]
        if not options:
            options = [n + str(int(self.rng.integers(2, 99))) for n in pool]
        name = options[int(self.rng.integers(len(options)))]
        self.used.add(name)
        return name


def _dead_java(nm: _Namer, rng: np.random.Generator) -> str:
    if rng.random() < 0.5:
        return ""
    return f"        int {nm.pick(_VARS)} = {int(rng.integers(0, 50))};\n"


def _dead_py(nm: _Namer, rng: np.random.Generator) -> str:
    if rng.random() < 0.5:
        return ""
    return f"    {nm.pick(_VARS)} = {int(rng.integers(0, 50))}\n"


def _iterative_sum(language: str, rng: np.random.Generator) -> str:
    nm = _Namer(rng)
    fn, n, s, i = (nm.pick(_NAMES), nm.pick(_VARS), nm.pick(_VARS),
                   nm.pick(["i", "j", "k", "t"]))
    start = int(rng.integers(0, 3))
    use_while = bool(rng.random() < 0.5)
    if language == "java":
        cls = nm.pick(_CLASSNAMES)
        dead = _dead_java(nm, rng)
        if use_while:
            body = (f"        int {i} = {start};\n"
                    f"        while ({i} < {n}) {{\n"
                    f"            {s} = {s} + {i};\n"
                    f"            {i} = {i} + 1;\n"
                    f"        }}\n")
        else:
            body = (f"        for (int {i} = {start}; {i} < {n}; {i}++) {{\n"
                    f"            {s} = {s} + {i};\n"
                    f"        }}\n")
        return (f"class {cls} {{\n"
                f"    int {fn}(int {n}) {{\n"
                f"        int {s} = 0;\n{dead}{body}"
                f"        return {s};\n    }}\n}}\n")
    dead = _dead_py(nm, rng)
    if use_while:
        body = (f"    {i} = {start}\n    while {i} < {n}:\n"
                f"        {s} = {s} + {i}\n        {i} = {i} + 1\n")
    else:
        body = (f"    for {i} in range({start}, {n}):\n"
                f"        {s} = {s} + {i}\n")
    return f"def {fn}({n}):\n    {s} = 0\n{dead}{body}    return {s}\n"


def _binary_search(language: str, rng: np.random.Generator) -> str:
    nm = _Namer(rng)
    fn, arr, target = nm.pick(_NAMES), nm.pick(_VARS), nm.pick(_VARS)
    lo, hi, mid = nm.pick(_VARS), nm.pick(_VARS), nm.pick(_VARS)
    miss = int(rng.integers(1, 3)) * -1
    if language == "java":
        cls = nm.pick(_CLASSNAMES)
        dead = _dead_java(nm, rng)
        return (f"class {cls} {{\n"
                f"    int {fn}(int[] {arr}, int {target}) {{\n"
                f"        int {lo} = 0;\n"
                f"        int {hi} = {arr}.length - 1;\n{dead}"
                f"        while ({lo} <= {hi}) {{\n"
                f"            int {mid} = ({lo} + {hi}) / 2;\n"
                f"            if ({arr}[{mid}] == {target}) {{\n"
                f"                return {mid};\n            }}\n"
                f"            if ({arr}[{mid}] < {target}) {{\n"
                f"                {lo} = {mid} + 1;\n"
                f"            }} else {{\n"
                f"                {hi} = {mid} - 1;\n            }}\n"
                f"        }}\n"
                f"        return {miss};\n    }}\n}}\n")
    dead = _dead_py(nm, rng)
    return (f"def {fn}({arr}, {target}):\n"
            f"    {lo} = 0\n"
            f"    {hi} = len({arr}) - 1\n{dead}"
            f"    while {lo} <= {hi}:\n"
            f"        {mid} = ({lo} + {hi}) // 2\n"
            f"        if {arr}[{mid}] == {target}:\n"
            f"            return {mid}\n"
            f"        if {arr}[{mid}] < {target}:\n"
            f"            {lo} = {mid} + 1\n"
            f"        else:\n"
            f"            {hi} = {mid} - 1\n"
            f"    return {miss}\n")


def _bubble_sort(language: str, rng: np.random.Generator) -> str:
    nm = _Namer(rng)
    fn, a = nm.pick(_NAMES), nm.pick(_VARS)
    i, j = nm.pick(["i", "x", "r"]), nm.pick(["j", "y", "c"])
    t = nm.pick(_VARS)
    if language == "java":
        cls = nm.pick(_CLASSNAMES)
        dead = _dead_java(nm, rng)
        return (f"class {cls} {{\n"
                f"    void {fn}(int[] {a}) {{\n{dead}"
                f"        for (int {i} = 0; {i} < {a}.length; {i}++) {{\n"
                f"            for (int {j} = 0; {j} < {a}.length - 1; {j}++) {{\n"
                f"                if ({a}[{j}] > {a}[{j} + 1]) {{\n"
                f"                    int {t} = {a}[{j}];\n"
                f"                    {a}[{j}] = {a}[{j} + 1];\n"
                f"                    {a}[{j} + 1] = {t};\n"
                f"                }}\n            }}\n        }}\n"
                f"    }}\n}}\n")
    dead = _dead_py(nm, rng)
    swap_tuple = bool(rng.random() < 0.5)
    if swap_tuple:
        swap = (f"                {a}[{j}], {a}[{j} + 1] = "
                f"{a}[{j} + 1], {a}[{j}]\n")
    else:
        swap = (f"                {t} = {a}[{j}]\n"
                f"                {a}[{j}] = {a}[{j} + 1]\n"
                f"                {a}[{j} + 1] = {t}\n")
    return (f"def {fn}({a}):\n{dead}"
            f"    for {i} in range(len({a})):\n"
            f"        for {j} in range(len({a}) - 1):\n"
            f"            if {a}[{j}] > {a}[{j} + 1]:\n{swap}")


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
                text = _BUILDERS[label](language, rng)
                name = f"sample_{index:03d}{_EXT[language]}"
                (target / name).write_text(text, encoding="utf-8")
                written += 1
    return written
