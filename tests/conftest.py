"""Shared fixtures and tree builders for the test suite."""

import json
import os
import struct
from array import array
from pathlib import Path

import numpy as np
import pytest

from uastkit.ast_frontend import (
    AstNode,
    FlatTree,
    Vocabulary,
    flatten,
    load_default_table,
    load_tree,
)
from uastkit.autograd import Tensor
from uastkit.featurizer import GraphSample, PathSequence
from uastkit.model import ModelConfig

SRC = Path(__file__).resolve().parents[1] / "src"
TOY_CORPUS = SRC / "uastkit" / "data" / "toy_corpus"

# sources nested past the interpreter's recursion limit; the recursive
# parsers must refuse them with ParseFailure rather than crash
DEEP_SOURCES = {
    "java_parens": ("java", "class A { int f() { return "
                    + "(" * 3000 + "1" + ")" * 3000 + "; } }"),
    "python_unary": ("python", "x = " + "-" * 5000 + "1\n"),
}



def else_if_chain(language: str, branches: int, final_else: bool) -> str:
    """A function whose body is one if with branches - 1 else-if arms."""
    if language == "python":
        arms = "".join(f"    elif x == {i}:\n        pass\n"
                       for i in range(1, branches))
        tail = "    else:\n        x = 1\n" if final_else else ""
        return f"def f(x):\n    if x == 0:\n        pass\n{arms}{tail}"
    arms = "".join(f"else if (x == {i}) {{ }} " for i in range(1, branches))
    body = "if (x == 0) { } " + arms + ("else { x = 1; } " if final_else
                                        else "")
    if language == "java":
        return "class A { void f(int x) { " + body + "} }"
    if language == "javascript":
        return "function f(x) { " + body + "}"
    return "void f(int x) { " + body + "}"


# verdict lines queued by the acceptance tests; printed after the run so
# they survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def src_env() -> dict:
    """os.environ with this checkout's src/ first on PYTHONPATH, for
    running uastkit in a subprocess without installing it."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))


def random_tree(rng: np.random.Generator, max_nodes: int = 30,
                kinds=("alpha", "beta", "gamma", "delta", "epsilon")
                ) -> FlatTree:
    """Random rooted ordered tree; each new node picks a random parent."""
    n = int(rng.integers(1, max_nodes + 1))
    nodes = [AstNode(str(rng.choice(kinds)))]
    for _ in range(n - 1):
        parent = nodes[int(rng.integers(len(nodes)))]
        child = AstNode(str(rng.choice(kinds)))
        parent.children.append(child)
        nodes.append(child)
    return flatten(nodes[0])


def chain_tree(kinds: list[str]) -> FlatTree:
    """A single path: kinds[0] -> kinds[1] -> ... -> kinds[-1]."""
    return FlatTree(list(kinds), array("i", range(-1, len(kinds) - 1)))


def sexpr_tree(text: str) -> FlatTree:
    """The tree an S-expression text reads as."""
    return load_tree(text, None, True)


def make_path(indices) -> PathSequence:
    return PathSequence(np.array(indices, dtype=np.int64))


def make_graph(kinds, edges) -> GraphSample:
    return GraphSample(np.array(kinds, dtype=np.int64),
                       np.array(edges, dtype=np.int64).reshape(-1, 2))


def tape_tensors(out: Tensor) -> list[Tensor]:
    """Tensors reachable from out through _parents, out and leaves included."""
    seen: dict[int, Tensor] = {}
    stack = [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


# a checkpoint header whose sizes or model configuration cannot match its
# parameters and lists; each is refused on loading
BAD_CHECKPOINT_HEADERS = {
    "extra_kinds": (lambda h: h["vocab_kinds"].extend(["zz1", "zz2"]),
                    "vocab_size"),
    "extra_label": (lambda h: h["labels"].append("zz"), "config k"),
    "invalid_config": (lambda h: h["config"].update(attn_dropout=1.5),
                       "attn_dropout"),
}


# a checkpoint header that lacks a field or holds one of the wrong type;
# each is refused on loading as a corrupt header
MALFORMED_CHECKPOINT_HEADERS = {
    **{f"no_{key}": (lambda h, key=key: h.pop(key),
                     f"corrupt header: no {key}")
       for key in ("config", "vocab_kinds", "labels", "params", "languages",
                   "table_hash", "unified", "seed", "epoch", "step")},
    # a model setting missing from the config would load as its default
    "config_no_L": (lambda h: h["config"].pop("L"), "corrupt header: no L"),
    "config_unknown_key": (lambda h: h["config"].update(bogus=1),
                           "corrupt header: unknown key bogus"),
    "seed_not_int": (lambda h: h.update(seed="abc"), "corrupt header"),
    "params_not_list": (lambda h: h.update(params=13), "corrupt header"),
    "params_not_objects": (lambda h: h.update(params=[1] * len(h["params"])),
                           "corrupt header"),
    # a name list that is not a list of strings, even of the right length
    "labels_a_string": (lambda h: h.update(labels="xy"),
                        "corrupt header: labels must be of type list[str]"),
    "labels_not_strings": (lambda h: h.update(labels=[1, 2]),
                           "corrupt header: labels must be of type list[str]"),
    "languages_not_strings": (
        lambda h: h.update(languages=[None] * len(h["languages"])),
        "corrupt header: languages must be of type list[str]"),
    "vocab_kinds_not_strings": (
        lambda h: h["vocab_kinds"].__setitem__(1, None),
        "corrupt header: vocab_kinds must be of type list[str]"),
    # a value of another type, even one that int() or bool() would read,
    # at the top of the header or in its model configuration
    **{f"{key}_{type(value).__name__}": (
        lambda h, key=key, value=value: h.update({key: value}),
        f"corrupt header: {key} must be of type {kind}, got {value!r}")
       for key, kind, value in (
           ("seed", "int", 1.5), ("seed", "int", "7"), ("seed", "int", True),
           ("unified", "bool", "no"), ("unified", "bool", 0),
           ("epoch", "int", 2.9), ("val_metrics", "dict | None", 5),
           ("table_hash", "str", 5), ("run_config", "dict | None", [1]),
           ("config", "dict", [1]))},
    **{f"config_{key}_{type(value).__name__}": (
        lambda h, key=key, value=value: h["config"].update({key: value}),
        f"corrupt header: {key} must be of type {kind}, got {value!r}")
       for key, kind, value in (
           ("L", "int", True), ("L", "int", 7.5),
           ("learned_projections", "bool", "no"))},
}


def rewrite_json_header(path: Path, change) -> None:
    """Apply change to the JSON header of the checkpoint at path, which
    follows its magic, u32 version and u64 header length."""
    data = path.read_bytes()
    (length,) = struct.unpack_from("<Q", data, 12)
    header = json.loads(data[20:20 + length])
    change(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:12] + struct.pack("<Q", len(blob)) + blob
                     + data[20 + length:])


@pytest.fixture(scope="session")
def default_table():
    return load_default_table()


@pytest.fixture
def tiny_config() -> ModelConfig:
    return ModelConfig(vocab_size=10, k=3, mode="uast", L=6, d=8, heads=2,
                       attn_dropout=0.2, h=4, lstm_layers=2, lstm_dropout=0.5,
                       N=6, gcn_layers=2, gcn_hidden=5, d_out=4).validate()


@pytest.fixture
def tiny_vocab() -> Vocabulary:
    return Vocabulary(tuple(f"kind{i}" for i in range(8)))


@pytest.fixture
def toy_corpus_dir() -> Path:
    assert TOY_CORPUS.is_dir()
    return TOY_CORPUS
