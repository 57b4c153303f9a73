"""Whole-system acceptance checks.

Each test prints one [PASS]/[FAIL]/[SKIP] verdict line to the real stdout
so the verdicts survive pytest's capture, then asserts.  The full-scale
benchmark checks activate when UASTKIT_JC_DIR or UASTKIT_LEETCODE_DIR
point at local copies of those corpora; without them the toy and
generated corpora cover the same pipeline end to end.
"""

import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from conftest import TOY_CORPUS, make_graph, make_path, random_tree
from uastkit import autograd as ag
from uastkit.ast_frontend import (
    load_default_table,
    parse_source,
    unify_ast,
    vocabulary_from_kinds,
)
from uastkit.cli import main
from uastkit.datagen import generate_corpus
from uastkit.featurizer import featurize_sample, path_length_stats
from uastkit.model import ModelConfig, forward_batch, init_params, prepare_sample
from uastkit.train_eval import (
    RunConfig,
    build_features,
    compute_metrics,
    evaluate_samples,
    ingest_corpus,
    split_dataset,
    train,
)

JC_ENV = "UASTKIT_JC_DIR"
LEETCODE_ENV = "UASTKIT_LEETCODE_DIR"
REFERENCE_ACCURACY = {"jc": 0.9626, "leetcode": 0.7964}
ACCURACY_BAND = 0.05
JC_P80_REFERENCE = 726

# dimensions small enough to train on one core in seconds, large enough
# for every mode to memorize the bundled corpora
SMALL_DIMS = dict(L=96, N=96, d=32, heads=4, attn_dropout=0.0, h=16,
                  lstm_layers=2, lstm_dropout=0.0, gcn_layers=2,
                  gcn_hidden=32, d_out=16)


def report(status: str, name: str, detail: str) -> None:
    line = f"[{status}] {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def verdict(ok: bool, name: str, detail: str) -> None:
    report("PASS" if ok else "FAIL", name, detail)
    assert ok, f"{name}: {detail}"


# --- gradients ----------------------------------------------------------------

def test_whole_model_gradients_match_finite_differences():
    name = "whole-model gradients match finite differences"
    cfg = ModelConfig(vocab_size=10, k=3, mode="uast", L=6, d=8, heads=2,
                      attn_dropout=0.0, h=4, lstm_layers=2, lstm_dropout=0.0,
                      N=6, gcn_layers=2, gcn_hidden=5, d_out=4).validate()
    rng = np.random.default_rng(11)
    labels = [0, 2]
    batch = []
    for n_nodes in (4, 6):  # one short sample, one at full length
        idx = rng.integers(1, cfg.vocab_size, size=n_nodes).tolist()
        path = make_path(idx)
        graph = make_graph(idx, [(i, i + 1) for i in range(n_nodes - 1)])
        batch.append(prepare_sample(path, graph, cfg))
    params = init_params(cfg, seed=7)

    def loss_value() -> float:
        probs = forward_batch(batch, params, cfg, training=False)
        return float(ag.cross_entropy_loss(probs, labels).data[0, 0])

    loss = ag.cross_entropy_loss(
        forward_batch(batch, params, cfg, training=False), labels)
    ag.backward(loss)

    eps = 1e-5
    started = time.time()
    worst = 0.0
    checked = 0
    for tensor_name, tensor in params.manifest():
        assert tensor.grad is not None, tensor_name
        it = np.nditer(tensor.data, flags=["multi_index"])
        for _ in it:
            at = it.multi_index
            kept = tensor.data[at]
            tensor.data[at] = kept + eps
            up = loss_value()
            tensor.data[at] = kept - eps
            down = loss_value()
            tensor.data[at] = kept
            fd = (up - down) / (2 * eps)
            g = float(tensor.grad[at])
            err = abs(fd - g) / max(1e-6, abs(fd), abs(g))
            worst = max(worst, err)
            checked += 1
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 30
    verdict(ok, name,
            f"{checked} parameter coordinates, central differences at "
            f"eps {eps:g}: max relative error {worst:.2e} (tolerance 1e-4), "
            f"{elapsed:.1f}s")


# --- memorization and end-to-end training --------------------------------------

def _train_bundled(corpus: Path, mode: str, seed: int, ratios, epochs: int,
                   max_steps: int | None):
    run = RunConfig(mode=mode, **SMALL_DIMS, seed=seed, ratios=ratios,
                    epochs=epochs, batch_size=8, lr=0.01, max_steps=max_steps)
    table = load_default_table()
    samples = ingest_corpus(corpus)
    splits = split_dataset(samples, seed=run.seed, ratios=run.ratios)
    vocab = build_features(splits, table, run.unified, run.L, run.N)
    result = train(splits, run, vocab, table.table_hash)
    return splits, result.checkpoint.params, result.checkpoint.config


def test_toy_corpus_is_memorized_in_every_mode():
    name = "toy corpus memorized in every mode"
    floors = {"uast": 0.97, "sast": 0.90, "gast": 0.90}
    started = time.time()
    accuracy = {}
    for mode in ("uast", "sast", "gast"):
        splits, params, cfg = _train_bundled(
            TOY_CORPUS, mode, seed=0, ratios=(1, 0, 0), epochs=1000,
            max_steps=200)
        accuracy[mode] = evaluate_samples(splits["train"], params,
                                          cfg).accuracy
    elapsed = time.time() - started
    ok = all(accuracy[m] >= floors[m] for m in floors) and elapsed < 120
    verdict(ok, name,
            "train accuracy after 200 steps: " +
            ", ".join(f"{m} {accuracy[m]:.4f} (floor {floors[m]})"
                      for m in ("uast", "sast", "gast")) +
            f"; {elapsed:.1f}s (budget 120s)")


def test_generated_corpus_reaches_high_test_accuracy(tmp_path):
    name = "generated corpus reaches high test accuracy"
    corpus = tmp_path / "generated"
    written = generate_corpus(corpus, seed=42)
    started = time.time()
    splits, params, cfg = _train_bundled(corpus, "uast", seed=42,
                                         ratios=(3, 1, 1), epochs=5,
                                         max_steps=None)
    sizes = {split: len(rows) for split, rows in splits.items()}
    accuracy = evaluate_samples(splits["test"], params, cfg).accuracy
    elapsed = time.time() - started
    problems = []
    if written != 360:
        problems.append(f"expected 360 generated files, got {written}")
    if sizes != {"train": 216, "validation": 72, "test": 72}:
        problems.append(f"unexpected split sizes {sizes}")
    if accuracy < 0.90:
        problems.append(f"test accuracy {accuracy:.4f} below 0.90")
    if elapsed >= 600:
        problems.append(f"took {elapsed:.0f}s, budget 600s")
    verdict(not problems, name,
            "; ".join(problems) or
            f"{written} files, splits 216/72/72, 5 epochs: test accuracy "
            f"{accuracy:.4f} (floor 0.90), {elapsed:.1f}s")


# --- metrics ---------------------------------------------------------------------

def _oracle_metrics(y_true, y_pred, k):
    """Definition-level rebuild with explicit loops, no shared code."""
    total = len(y_true)
    per = []
    for c in range(k):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        tn = total - tp - fp - fn
        support = tp + fn
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per.append((support, prec, rec, f1, tp, tn))
    weighted = lambda vals: sum(s * v for (s, *_), v in
                                zip(per, vals)) / total
    return {
        "precision": weighted([p for _, p, _, _, _, _ in per]),
        "recall": weighted([r for _, _, r, _, _, _ in per]),
        "f1": weighted([f for _, _, _, f, _, _ in per]),
        "accuracy": sum(tp for *_, tp, _ in per) / total,
        "accuracy_tn_weighted": weighted(
            [(tp + tn) / total for *_, tp, tn in per]),
    }


def test_weighted_metrics_match_definition_oracle():
    name = "weighted metrics match definition oracle"
    rng = np.random.default_rng(123)
    trials = 1000
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(2, 11))
        n = int(rng.integers(1, 501))
        y_true = rng.integers(0, k, size=n).tolist()
        y_pred = rng.integers(0, k, size=n).tolist()
        want = _oracle_metrics(y_true, y_pred, k)
        got = compute_metrics(y_true, y_pred, k)
        for field, value in want.items():
            worst = max(worst, abs(getattr(got, field) - value))
    verdict(worst < 1e-12, name,
            f"{trials} random label/prediction pairs (k<=10, n<=500): "
            f"max abs deviation {worst:.2e} (tolerance 1e-12)")


# --- feature extraction ------------------------------------------------------------

def _entrywise_norm_adj(graph) -> np.ndarray:
    """Entry-by-entry rebuild: (adjacency + identity) over the nodes,
    each entry divided by sqrt(d_i * d_j)."""
    n = graph.node_count
    tilde = np.zeros((n, n))
    for i in range(n):
        tilde[i, i] = 1.0
    for i, j in graph.edges.tolist():
        tilde[i, j] = 1.0
        tilde[j, i] = 1.0
    deg = tilde.sum(axis=1)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = tilde[i, j] / math.sqrt(deg[i] * deg[j])
    return out


def test_graph_normalization_and_path_extraction_invariants():
    name = "graph normalization and path extraction invariants"
    rng = np.random.default_rng(97)
    vocab = vocabulary_from_kinds(
        ["alpha", "beta", "delta", "epsilon", "gamma"])
    problems = []
    checked = 0
    for _ in range(500):
        _, graph = featurize_sample(random_tree(rng), vocab, 1, 40)
        if not np.array_equal(graph.norm_adj, _entrywise_norm_adj(graph)):
            problems.append("normalized adjacency deviates from the "
                            "entrywise oracle")
            break
        checked += 1
    if not problems:
        for L, N in ((32, 32), (8, 40), (40, 8)):
            for _ in range(333):
                tree = random_tree(rng)
                expected = [vocab.index.get(kind, vocab.unk_index)
                            for kind in tree.kinds]
                path, graph = featurize_sample(tree, vocab, L, N)
                t = min(len(expected), L)
                n = min(len(expected), N)
                if path.true_length != t or graph.node_count != n:
                    problems.append("prefix lengths wrong")
                elif path.indices.tolist() != expected[:t]:
                    problems.append("path is not the pre-order prefix")
                elif not np.shares_memory(path.indices, graph.node_kinds):
                    problems.append("the views do not share one prefix")
                elif graph.node_kinds.tolist() != expected[:n]:
                    problems.append("graph kinds are not the pre-order "
                                    "prefix")
                elif (graph.edges[:, 1].tolist() != list(range(1, n))
                      or any(not 0 <= i < j for i, j in graph.edges)):
                    problems.append("edges are not one parent link per "
                                    "non-root node")
                if problems:
                    break
                checked += 1
            if problems:
                break
    verdict(not problems, name,
            problems[0] if problems else
            f"{checked} random trees: bitwise-exact adjacency "
            f"normalization, pre-order prefixes of one buffer, one "
            f"parent edge per non-root node")


# --- cross-language unification -----------------------------------------------------

ADD_SNIPPETS = (
    ("java", "class A { int add(int a, int b) { return a + b; } }"),
    ("cpp", "int add(int a, int b) { return a + b; }"),
    ("python", "def add(a, b):\n    return a + b\n"),
)


def test_cross_language_sources_share_unified_kinds(default_table):
    name = "cross-language sources share unified kinds"
    roots = {}
    kind_sets = {}
    for language, source in ADD_SNIPPETS:
        tree = unify_ast(parse_source(source, language), language,
                         default_table)
        roots[language] = tree.kinds[0]
        kind_sets[language] = set(tree.kinds)
    shared = set.intersection(*kind_sets.values())
    problems = []
    if set(roots.values()) != {"unit"}:
        problems.append(f"roots differ: {roots}")
    for required in ("unit", "block", "identifier"):
        if required not in shared:
            problems.append(f"{required!r} is not shared by all three")
    verdict(not problems, name,
            "; ".join(problems) or
            "java/cpp/python all root at 'unit' and share "
            "'block' and 'identifier'")


# --- reproducibility ------------------------------------------------------------------

def test_identical_settings_reproduce_identical_artifacts(tmp_path):
    name = "identical settings reproduce identical artifacts"
    out_dir = tmp_path / "run"
    argv = ["train", "--corpus", str(TOY_CORPUS), "--profile", "toy",
            "--L", "16", "--N", "16", "--d", "8", "--heads", "2",
            "--h", "4", "--lstm-layers", "1", "--gcn-layers", "1",
            "--gcn-hidden", "8", "--d-out", "4", "--epochs", "2",
            "--out-dir", str(out_dir)]
    assert main(list(argv)) == 0
    files = ("final.ckpt", "best.ckpt", "history.jsonl")
    first = {f: (out_dir / f).read_bytes() for f in files}
    assert main(list(argv)) == 0
    differing = [f for f in files if (out_dir / f).read_bytes() != first[f]]
    verdict(not differing, name,
            f"these files differ across reruns: {differing}" if differing
            else "final.ckpt, best.ckpt, and history.jsonl are "
                 "byte-identical across two runs with the same settings")


# --- full-scale benchmarks (activated by environment variables) -----------------------

def _cli_accuracy(capsys, out_dir, corpus, profile, mode, unified) -> float:
    argv = ["train", "--corpus", str(corpus), "--profile", profile,
            "--mode", mode, "--out-dir", str(out_dir)]
    if not unified:
        argv.append("--no-unified-vocab")
    assert main(argv) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out_dir / "best.ckpt"),
                 "--corpus", str(corpus), "--split", "test", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["metrics"]["accuracy"]


def test_benchmark_corpora_reproduce_reported_accuracy(tmp_path, capsys):
    name = "benchmark corpora reproduce reported accuracy"
    configured = [(tag, Path(os.environ[env]))
                  for tag, env in (("jc", JC_ENV), ("leetcode", LEETCODE_ENV))
                  if os.environ.get(env)]
    if not configured:
        report("SKIP", name,
               f"set {JC_ENV} and/or {LEETCODE_ENV} to corpus roots to run "
               "the full-scale check; the bundled corpora cover the same "
               "pipeline above")
        pytest.skip("benchmark corpora not configured")
    summaries = []
    for tag, root in configured:
        accuracy = {}
        for mode, unified in (("uast", True), ("sast", True),
                              ("gast", True), ("uast", False)):
            run_tag = f"{tag}-{mode}-{'unified' if unified else 'raw'}"
            accuracy[(mode, unified)] = _cli_accuracy(
                capsys, tmp_path / run_tag, root, tag, mode, unified)
        headline = accuracy[("uast", True)]
        target = REFERENCE_ACCURACY[tag]
        if abs(headline - target) > ACCURACY_BAND:
            report("WARN", name,
                   f"{tag}: test accuracy {headline:.4f} is outside "
                   f"+/-{ACCURACY_BAND} of {target:.4f}")
        fused, graph_only, seq_only = (accuracy[("uast", True)],
                                       accuracy[("gast", True)],
                                       accuracy[("sast", True)])
        if not fused > graph_only > seq_only:
            report("WARN", name,
                   f"{tag}: expected fused > graph-only > sequence-only, "
                   f"got {fused:.4f} / {graph_only:.4f} / {seq_only:.4f}")
        if not headline > accuracy[("uast", False)]:
            report("WARN", name,
                   f"{tag}: unified kinds did not beat raw per-language "
                   f"kinds: {headline:.4f} vs "
                   f"{accuracy[('uast', False)]:.4f}")
        summaries.append(f"{tag} test accuracy {headline:.4f} "
                         f"(reference {target:.4f} +/-{ACCURACY_BAND})")
    verdict(True, name, "; ".join(summaries))


# --- corpus statistics ------------------------------------------------------------------

def test_path_length_percentiles_match_reference():
    name = "path-length percentiles match reference"
    stats = path_length_stats(
        sample.tree for sample in ingest_corpus(TOY_CORPUS))
    expected = {"count": 32, "mean": 46.03125, "median": 36, "p70": 43,
                "p80": 69, "p90": 90, "min": 25, "max": 101}
    problems = [f"{field} {getattr(stats, field)!r} != {want!r}"
                for field, want in expected.items()
                if getattr(stats, field) != want]
    parts = [f"toy corpus: count {stats.count}, mean {stats.mean}, "
             f"median {stats.median}, p70/p80/p90 "
             f"{stats.p70}/{stats.p80}/{stats.p90}"]
    jc_root = os.environ.get(JC_ENV)
    if jc_root:
        jc_stats = path_length_stats(
            sample.tree for sample in ingest_corpus(Path(jc_root)))
        band = 0.05 * JC_P80_REFERENCE
        if abs(jc_stats.p80 - JC_P80_REFERENCE) > band:
            problems.append(f"jc p80 {jc_stats.p80} outside +/-5% of "
                            f"{JC_P80_REFERENCE}")
        parts.append(f"jc p80 {jc_stats.p80} "
                     f"(reference {JC_P80_REFERENCE} +/-5%)")
    else:
        parts.append(f"jc p80 reference inactive (set {JC_ENV} to enable)")
    verdict(not problems, name, "; ".join(problems or parts))
