"""The flat pre-order form against the node-graph walks it replaced.

Each parser builds a graph of AstNode objects and flatten turns it into the
one tree form every caller gets; the S-expression reader builds that form
directly.  The walks over the node graph, and the reader that built one,
live on in oracle.py; on every tree here the functions that take the flat
form must give the same counts, strings, vocabularies and arrays, bit for
bit.
"""

import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import TOY_CORPUS, src_env
from uastkit.ast_frontend import (
    build_vocabulary,
    flatten,
    load_ast_sexpr,
    load_tree,
    node_count,
    parse_source,
    render_sexpr,
    source_language,
    unify_ast,
)
from uastkit.ast_frontend.backends import _BACKENDS
from uastkit.datagen import generate_corpus
from uastkit.errors import MalformedSExpr, ParseFailure
from uastkit.featurizer import featurize_sample
from uastkit.train_eval import ingest_corpus

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
# the leetcode limits, limits shorter than most trees, and the shortest
LIMITS = [(200, 400), (16, 24), (40, 12), (1, 1)]
DEEP_CHAIN = "(method_declaration " * 100_000 + ")" * 100_000


def node_graph(text, language, is_sexpr):
    """The AstNode graph a parser or the S-expression reader builds."""
    if is_sexpr:
        return oracle.load_ast_sexpr(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SyntaxWarning)
        return _BACKENDS[language](text)


def sources(root, skip=()):
    """(text, language, is_sexpr) of every file under root whose stem,
    case folded, is not in skip."""
    return [(path.read_text(encoding="utf-8"), *source_language(path))
            for path in sorted(Path(root).rglob("*"))
            if path.is_file() and path.stem.lower() not in skip]


def assert_same_as_oracle(files, table, pretty_views=(False, True)):
    """Every replaced walk gives what its node-graph version gives."""
    flats, graphs = [], []
    for text, language, is_sexpr in files:
        flat = load_tree(text, language, is_sexpr)
        graph = node_graph(text, language, is_sexpr)
        assert flat == flatten(graph)
        assert node_count(flat) == oracle.node_count(graph)
        for pretty in pretty_views:
            assert render_sexpr(flat, pretty) == \
                oracle.render_sexpr(graph, pretty)
        assert oracle.render_sexpr(oracle.unflatten(flat)) == \
            oracle.render_sexpr(graph)
        if language is not None:
            flat = unify_ast(flat, language, table)
            graph = oracle.unify_ast(graph, language, table)
            assert render_sexpr(flat) == oracle.render_sexpr(graph)
        flats.append(flat)
        graphs.append(graph)
    vocab = build_vocabulary(flats[::2])
    assert vocab == oracle.build_vocabulary(graphs[::2])
    for flat, graph in zip(flats, graphs):
        for L, N in LIMITS:
            got = featurize_sample(flat, vocab, L, N)
            want = oracle.featurize_sample(graph, vocab, L, N)
            for a, b in ((got[0].indices, want[0].indices),
                         (got[1].node_kinds, want[1].node_kinds),
                         (got[1].edges, want[1].edges)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.flags.c_contiguous == b.flags.c_contiguous
                assert a.tobytes() == b.tobytes()
            assert np.shares_memory(got[0].indices, got[1].node_kinds)
    return flats


@pytest.mark.parametrize("language", ["java", "python"])
def test_datagen_corpus(tmp_path, default_table, language):
    generate_corpus(tmp_path, seed=1)
    files = [f for f in sources(tmp_path) if f[1] == language]
    flats = assert_same_as_oracle(files, default_table)
    assert len(flats) == 180
    # the short limits cut most trees
    assert sum(node_count(t) > 40 for t in flats) > len(flats) // 2


def test_toy_corpus(default_table):
    assert len(assert_same_as_oracle(sources(TOY_CORPUS), default_table)) \
        == 32


def test_golden_sources_and_trees(default_table):
    flats = assert_same_as_oracle(sources(GOLDEN, skip={"nothing"}),
                                  default_table)
    assert any("ERROR" in t.kinds for t in flats)


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        GOLDEN.glob("[Nn]othing.*")))
def test_nothing_parseable_fails_on_both(name):
    path = GOLDEN / name
    text, language = path.read_text(encoding="utf-8"), \
        source_language(path)[0]
    with pytest.raises(ParseFailure):
        node_graph(text, language, False)
    with pytest.raises(ParseFailure):
        parse_source(text, language)


def test_deep_chain_stays_iterative(default_table):
    # its indented rendering would grow with the square of the depth
    [flat] = assert_same_as_oracle([(DEEP_CHAIN, "java", True)],
                                   default_table, pretty_views=[False])
    assert node_count(flat) == 100_000
    assert list(flat.parents[:3]) == [-1, 0, 1]
    assert flat.kinds[-1] == "function_definition"


@pytest.mark.parametrize("text", ["", "(", ")", "(a", "(a))", "(a) (b)",
                                  "()", "( )", "a", "(a\xa0b)", "(a) x",
                                  " (a (b) (c)) )", "(a (b)\n(c) ) (d)",
                                  DEEP_CHAIN + ")"])
def test_malformed_sexpr_fails_as_the_graph_reader_did(text):
    with pytest.raises(MalformedSExpr) as want:
        oracle.load_ast_sexpr(text)
    with pytest.raises(MalformedSExpr) as got:
        load_ast_sexpr(text)
    assert str(got.value) == str(want.value)
    assert got.value.offset == want.value.offset


def test_parent_array_is_four_bytes_per_node():
    tree = parse_source("def f(a):\n    return a\n", "python")
    assert tree.parents.typecode == "i" and tree.parents.itemsize == 4
    assert tree.parents[0] == -1
    assert all(0 <= p < i for i, p in enumerate(tree.parents) if i)


def test_ingest_holds_few_bytes_per_node(tmp_path):
    # a node graph held 124 bytes a node; kinds and parents hold about 22
    generate_corpus(tmp_path, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        samples = ingest_corpus(tmp_path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nodes = sum(node_count(s.tree) for s in samples)
    assert (len(samples), nodes) == (360, 22_289)
    assert held / nodes < 40


def test_sexpr_kinds_are_the_parsers_strings():
    # a kind read from an S-expression is interned, so a .sexpr corpus holds
    # one string a kind, as parsed source does, and not one a node
    for text, language, is_sexpr in sources(GOLDEN, skip={"nothing"}):
        if not is_sexpr:
            parsed = load_tree(text, language, False)
            read = load_tree(render_sexpr(parsed), None, True)
            assert read.kinds == parsed.kinds
            assert all(a is b for a, b in zip(read.kinds, parsed.kinds))


def test_frontend_imports_no_numpy():
    code = ("import sys, uastkit.ast_frontend\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    run = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
