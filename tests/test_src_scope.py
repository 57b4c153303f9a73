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

Likewise every parameter with a default must be passed by some call in
the package or the harness: by keyword, by position (a method's self
not counted), or through *args or **kwargs.  A class's call passes its
__init__'s parameters.  A parameter no such call passes always takes its
default, so it is a constant.  cli.main's argv is exempt: tests enter the
CLI in-process through it.
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


def _modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.rglob("*.py"))
            if DATA not in path.parents}


def _scripts() -> list[ast.Module]:
    return [ast.parse(script.read_text("utf-8"))
            for script in sorted((ROOT / "perfbench").glob("*.py"))]


def unused_definitions() -> list[str]:
    modules = _modules()
    package_refs = {path: _references(tree) for path, tree in modules.items()}
    outside = _console_scripts() | {
        name for script in _scripts() for name, _ in _references(script)}
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



FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
ALWAYS_DEFAULTED = {"src/uastkit/cli.py main(argv)"}


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether call passes the parameter at position (None when keyword
    only) named name."""
    for i, arg in enumerate(call.args):
        if position is not None and (
                i == position or isinstance(arg, ast.Starred) and i <= position):
            return True
    return any(kw.arg in (name, None) for kw in call.keywords)


def _defaulted(fn, is_method: bool) -> list[tuple[str, int | None]]:
    """Each parameter of fn with a default, with its position in a call."""
    args = fn.args
    positional = args.posonlyargs + args.args
    offset = int(is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in fn.decorator_list))
    first = len(positional) - len(args.defaults)
    return ([(p.arg, i - offset) for i, p in enumerate(positional)
             if i >= first] +
            [(p.arg, None) for p, default in zip(args.kwonlyargs,
                                                 args.kw_defaults)
             if default is not None])


def unused_defaults() -> list[str]:
    modules = _modules()
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*modules.values(), *_scripts()]:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(
                    call.func, (ast.Name, ast.Attribute)):
                callee = getattr(call.func, "id", None) or call.func.attr
                calls.setdefault(callee, []).append(call)
    unused = []
    for path, tree in modules.items():
        owner = {id(fn): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, FUNCTIONS)}
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCTIONS):
                continue
            callee = owner[id(fn)] if fn.name == "__init__" else fn.name
            for name, position in _defaulted(fn, id(fn) in owner):
                where = f"{path.relative_to(ROOT)} {fn.name}({name})"
                if where not in ALWAYS_DEFAULTED and not any(
                        _passes(call, position, name)
                        for call in calls.get(callee, [])):
                    unused.append(f"{where} at line {fn.lineno}")
    return unused


def test_every_default_parameter_is_passed_by_src_or_the_benchmark():
    unused = unused_defaults()
    assert not unused, "no call passes, so each is a constant:\n" + \
        "\n".join(unused)
