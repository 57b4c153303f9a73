"""src/ holds what a command runs.

Every function, class and method defined in the package must be referred
to from the package outside its own definition, from the benchmark harness
(perfbench/), or by pyproject.toml's console script.  A name only tests
call belongs in tests/, as tests/oracle.py does.
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

A dataclass field's default is a default parameter of its __init__: some
construction of the class by its name, in the package or the harness,
must leave the field out.  A construction through * or ** leaves every
field out, and a subclass's construction counts for the fields it
inherits.
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


def _name(node) -> str | None:
    """The last name of a Name or an Attribute, or of a call's callee."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _calls(modules: dict[Path, ast.Module]) -> dict[str, list[ast.Call]]:
    """Every call in the package and the harness, by its callee's name."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*modules.values(), *_scripts()]:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _name(call):
                calls.setdefault(_name(call), []).append(call)
    return calls


def unused_defaults() -> list[str]:
    modules = _modules()
    calls = _calls(modules)
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


def _init_field(stmt) -> tuple[str, bool, bool] | None:
    """A dataclass body line as an __init__ parameter: its name, whether it
    has a default and whether it is keyword only; None if it is none."""
    if not (isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)):
        return None
    value = stmt.value
    if not (isinstance(value, ast.Call) and _name(value) == "field"):
        return stmt.target.id, value is not None, False
    # each keyword's value where it is a constant, such as init=False
    options = {kw.arg: getattr(kw.value, "value", None)
               for kw in value.keywords}
    if options.get("init") is False:
        return None
    has_default = bool({"default", "default_factory"} & options.keys())
    return stmt.target.id, has_default, options.get("kw_only") is True


def unused_field_defaults() -> list[str]:
    modules = _modules()
    calls = _calls(modules)
    # each dataclass's module, base names and own __init__ fields
    classes = {cls.name: (path, [_name(b) for b in cls.bases],
                          [f for stmt in cls.body if (f := _init_field(stmt))])
               for path, tree in modules.items() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and any(
                   _name(d) == "dataclass" for d in cls.decorator_list)}

    def init_fields(name: str) -> list[tuple[str, bool, bool]]:
        """name's __init__ fields, inherited ones first."""
        _, bases, own = classes[name]
        found = {f[0]: f for base in bases if base in classes
                 for f in init_fields(base)}
        found.update((f[0], f) for f in own)
        return list(found.values())

    def with_subclasses(name: str) -> list[str]:
        return [name] + [sub for sub, (_, bases, _) in classes.items()
                         if name in bases for sub in with_subclasses(sub)]

    def leaves_out(call: ast.Call, name: str, field: str) -> bool:
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                kw.arg is None for kw in call.keywords):
            return True
        positional = [f[0] for f in init_fields(name) if not f[2]]
        return field not in positional[:len(call.args)] and all(
            kw.arg != field for kw in call.keywords)

    unused = []
    for name, (path, _, own) in classes.items():
        for field, has_default, _ in own:
            if has_default and not any(
                    leaves_out(call, cls, field)
                    for cls in with_subclasses(name)
                    for call in calls.get(cls, [])):
                unused.append(f"{path.relative_to(ROOT)} {name}.{field}")
    return unused


def test_every_field_default_is_left_out_by_src_or_the_benchmark():
    unused = unused_field_defaults()
    assert not unused, "every construction passes, so each is unused:\n" + \
        "\n".join(unused)
