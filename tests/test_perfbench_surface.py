"""The names the benchmark harness calls in uastkit all exist.

perfbench/ imports uastkit from src/ and calls into it by name, some of it
only in traced runs.  A cleanup that deletes or renames one of those names,
or drops a parameter a call passes, would break the benchmark without
failing any other test.  So every such call must bind to its callee's
signature.  The probe itself also runs once, on the bundled toy corpus.
"""

import ast
import importlib
import inspect
from pathlib import Path
from types import ModuleType

import pytest

from conftest import TOY_CORPUS
from uastkit.ast_frontend import load_default_table

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


def _uastkit_imports(tree: ast.AST):
    """The uastkit modules and other names a script imports, by local
    alias, and the imported names that do not exist."""
    modules: dict[str, ModuleType] = {}  # local alias -> uastkit module
    names: dict[str, object] = {}  # local alias -> any other uastkit object
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
                else:
                    names[alias.asname or alias.name] = value
    return modules, names, missing


def missing_names(source: str) -> list[str]:
    """uastkit names a script imports or reads off a module alias, absent."""
    tree = ast.parse(source)
    modules, _, missing = _uastkit_imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in modules and \
                not hasattr(modules[node.value.id], node.attr):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


def unbound_calls(source: str) -> list[str]:
    """Calls of an imported uastkit name, or of a name read off a uastkit
    module alias, whose arguments do not bind to the callee's signature.
    Calls that pass *args or **kwargs are skipped."""
    tree = ast.parse(source)
    modules, names, _ = _uastkit_imports(tree)
    unbound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) \
                or any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            callee = names[func.id]
        elif isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and func.value.id in modules:
            callee = getattr(modules[func.value.id], func.attr, None)
        else:
            continue
        if not callable(callee):
            continue
        try:
            inspect.signature(callee).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {ast.unparse(func)}: {exc}")
    return unbound


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


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_uastkit_call_the_harness_makes_binds(script):
    assert unbound_calls(script.read_text()) == []


def test_a_call_that_does_not_bind_is_reported():
    source = ("from uastkit import model as M\n"
              "from uastkit.train_eval import build_features, predict_one\n"
              "predict_one(ckpt, text, table)\n"
              "build_features(splits, table, True, L, N, True)\n"
              "M.forward(path, graph, params, cfg, no_such_flag=1)\n"
              "predict_one(*args)\n"
              "build_features(splits, **options)\n")
    assert [line.split(":")[0] for line in unbound_calls(source)] == \
        ["line 3", "line 4", "line 5"]


def test_the_probe_runs_on_the_toy_corpus(tmp_path, monkeypatch):
    # the probe reads attributes and shapes, not just names: the views'
    # arrays, the prepared samples' fields, embed's output as
    # self_attention's input, and the dense norm_adj
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer
    from uastkit.cli import PROFILES
    from uastkit.train_eval import build_features, ingest_corpus, split_dataset

    seed = 1
    table = load_default_table()
    samples = ingest_corpus(TOY_CORPUS)
    splits = split_dataset(samples, seed)
    toy = PROFILES["toy"]
    vocab = build_features(splits, table, True, toy["L"], toy["N"])
    labels = sorted({s.label for s in samples})
    train = splits["train"]
    inp = layers.LayerInputs(
        cfg=layers.model_config(toy, vocab.size, len(labels), "uast"),
        table=table, vocab=vocab, labels=labels,
        languages=sorted({s.language for s in samples}), train=train,
        batches=[train[:layers.TOY_BATCH]], training=True,
        files=[(Path(s.source_path).read_text(encoding="utf-8"), s.language)
               for s in samples])
    tr = Tracer()
    layers.probe(tr, inp, seed, tmp_path)
    assert {name for _, _, _, name, _, _ in tr.spans} >= {
        "featurizer.featurize", "featurizer.norm_adj", "model.prepare",
        "model.forward", "model.seq.embed", "model.seq.attention_fwd",
        "model.seq.attention_bwd", "model.graph.bwd", "checkpoint.load",
        "predict.model", "toy.uast.fwd_bwd", "toy.gast.fwd_bwd"}
    assert all(end is not None for *_, end in tr.spans)
    assert tr.last_count("model.prepared_mb") > 0
