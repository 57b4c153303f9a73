"""src/ holds what a command runs.

Every function, class and method defined in the package must be referred
to from the package outside its own definition, from the benchmark harness
(perfbench/), or by pyproject.toml's console script.  A name only tests
call belongs in tests/, as tests/oracle.py and tests/feature_file.py do.
An __init__'s re-export and an __all__ entry are no use: they are an
import and a string, and the scan counts only names and attributes read.
Python itself calls the dunder methods.  A reference is matched by its
last name only, so the scan can miss a dead method whose name something
else shares, but it does not report a live one.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uastkit"
DATA = PACKAGE / "data"  # the bundled corpus's sources are data, not code


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """Each name or attribute the module reads, with its line."""
    return [(node.id, node.lineno) if isinstance(node, ast.Name)
            else (node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def _console_scripts() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return set(re.findall(r'^\w+ = "uastkit[\w.]*:(\w+)"$', text, re.M))


def unused_definitions() -> list[str]:
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.rglob("*.py"))
               if DATA not in path.parents}
    package_refs = {path: _references(tree) for path, tree in modules.items()}
    outside = _console_scripts() | {
        name for script in sorted((ROOT / "perfbench").glob("*.py"))
        for name, _ in _references(ast.parse(script.read_text("utf-8")))}
    unused = []
    for path, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if name in outside or any(
                    ref == name and (where != path or line not in own)
                    for where, refs in package_refs.items()
                    for ref, line in refs):
                continue
            unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unused


def test_every_definition_in_src_is_used_by_src_or_the_benchmark():
    unused = unused_definitions()
    assert not unused, "nothing outside tests uses:\n" + "\n".join(unused)

