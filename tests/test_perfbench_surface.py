"""The names the benchmark harness calls in uastkit all exist.

perfbench/ imports uastkit from src/ and calls into it by name, some of it
only in traced runs.  A cleanup that deletes or renames one of those names
would break the benchmark without failing any other test.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))
_MISSING = object()


def _imported(module: str, name: str):
    """What `from module import name` binds, or _MISSING."""
    parent = importlib.import_module(module)
    if hasattr(parent, name):
        return getattr(parent, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return _MISSING


def missing_names(source: str) -> list[str]:
    """uastkit names a script imports or reads off a module alias, absent."""
    tree = ast.parse(source)
    modules: dict[str, ModuleType] = {}  # local alias -> uastkit module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "uastkit":
                    modules[alias.asname or "uastkit"] = importlib.import_module(
                        alias.name if alias.asname else "uastkit")
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "uastkit":
            for alias in node.names:
                value = _imported(node.module, alias.name)
                if value is _MISSING:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in modules and \
                not hasattr(modules[node.value.id], node.attr):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


def test_the_harness_is_there():
    assert {p.name for p in SCRIPTS} >= {"layers.py", "worker.py", "run.py"}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_uastkit_name_the_harness_uses_exists(script):
    assert missing_names(script.read_text()) == []


def test_a_missing_name_is_reported():
    source = ("from uastkit import model as M\n"
              "from uastkit.featurizer import featurize_sample, gone\n"
              "M.forward_batch\nM.no_such_function\n")
    assert missing_names(source) == ["uastkit.featurizer.gone",
                                     "uastkit.model.no_such_function"]
