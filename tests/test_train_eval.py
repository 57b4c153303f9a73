"""Ingestion, splitting, metrics, the training loop, and checkpoints."""

import json
import logging
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BAD_CHECKPOINT_HEADERS,
    DEEP_SOURCES,
    TOY_CORPUS,
    chain_tree,
    else_if_chain,
    rewrite_checkpoint_header,
)
from uastkit.ast_frontend import (
    build_vocabulary,
    identity_table,
    load_default_table,
    preorder,
    unify_ast,
)
from uastkit.errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceDetected,
    EmptyClass,
    EmptyCorpus,
    EmptySplit,
    UastError,
    UnknownExtension,
    UnsupportedLanguage,
)
from uastkit.featurizer import GraphSample, featurize_sample
from uastkit.model import ModelConfig, init_params
from uastkit.train_eval import (
    SPLIT_NAMES,
    Checkpoint,
    LabeledSample,
    build_features,
    compute_metrics,
    corpus_labels,
    corpus_languages,
    evaluate_samples,
    ingest_corpus,
    load_checkpoint,
    mask_function_names,
    predict_one,
    save_checkpoint,
    split_dataset,
    train,
    training,
)

JAVA_ADD = ("public class C%d { static int f(int a, int b) "
            "{ return a + b; } }")
JAVA_LOOP = ("public class L%d { static int f(int n) "
             "{ int s = 0; for (int i = 0; i < n; i++) { s += i; } "
             "return s; } }")
PY_ADD = "def f(a, b):\n    return a + b + %d\n"
PY_LOOP = "def f(n):\n    s = %d\n    for i in range(n):\n        s += i\n" \
          "    return s\n"


def write_corpus(root, layout):
    """layout: {label: {language: [texts]}} written as label/lang/files."""
    for label, by_lang in layout.items():
        for language, texts in by_lang.items():
            d = root / label / language
            d.mkdir(parents=True)
            ext = {"java": ".java", "python": ".py", "cpp": ".cpp"}[language]
            for i, text in enumerate(texts):
                (d / f"s{i}{ext}").write_text(text)


@pytest.fixture
def two_class_dir(tmp_path):
    write_corpus(tmp_path, {
        "addition": {"java": [JAVA_ADD % i for i in range(3)],
                     "python": [PY_ADD % i for i in range(3)]},
        "looping": {"java": [JAVA_LOOP % i for i in range(3)],
                    "python": [PY_LOOP % i for i in range(3)]},
    })
    return tmp_path


# --- ingestion -------------------------------------------------------------------

class TestIngest:
    def test_directory_layout(self, two_class_dir):
        samples = ingest_corpus(two_class_dir)
        assert len(samples) == 12
        assert corpus_labels(samples) == ["addition", "looping"]
        assert corpus_languages(samples) == ["java", "python"]
        for s in samples:
            assert s.label_index == (0 if s.label == "addition" else 1)
            assert s.tree is not None

    def test_direct_files_infer_language_from_extension(self, tmp_path):
        d = tmp_path / "only"
        d.mkdir()
        (d / "a.py").write_text(PY_ADD % 0)
        (d / "b.java").write_text(JAVA_ADD % 0)
        samples = ingest_corpus(tmp_path)
        assert sorted(s.language for s in samples) == ["java", "python"]

    def test_sexpr_files_need_a_declared_language(self, tmp_path):
        d = tmp_path / "only"
        d.mkdir()
        (d / "a.sexpr").write_text("(unit (block))")
        with pytest.raises(UnknownExtension):
            ingest_corpus(tmp_path)

    def test_unknown_extension_rejected(self, tmp_path):
        d = tmp_path / "only"
        d.mkdir()
        (d / "a.rb").write_text("def f; end")
        with pytest.raises(UnknownExtension):
            ingest_corpus(tmp_path)

    def test_byte_identical_duplicates_dropped(self, tmp_path, caplog):
        d = tmp_path / "only" / "python"
        d.mkdir(parents=True)
        (d / "a.py").write_text(PY_ADD % 0)
        (d / "b.py").write_text(PY_ADD % 0)
        (d / "c.py").write_text(PY_ADD % 1)
        with caplog.at_level(logging.WARNING, logger="uastkit.corpus"):
            samples = ingest_corpus(tmp_path)
        assert len(samples) == 2
        assert any("duplicate" in r.message for r in caplog.records)

    def test_unparseable_files_skipped_with_warning(self, tmp_path, caplog):
        d = tmp_path / "only" / "python"
        d.mkdir(parents=True)
        (d / "a.py").write_text(PY_ADD % 0)
        (d / "bad.py").write_text("def broken(:\n")
        with caplog.at_level(logging.WARNING, logger="uastkit.corpus"):
            samples = ingest_corpus(tmp_path)
        assert len(samples) == 1
        assert any("unparseable" in r.message for r in caplog.records)

    def test_too_deeply_nested_files_skipped_with_warning(self, tmp_path,
                                                          caplog):
        write_corpus(tmp_path, {"deep": {
            "java": [JAVA_ADD % 0] + [src for language, src in
                                      DEEP_SOURCES.values()
                                      if language == "java"],
            "python": [PY_ADD % 0, DEEP_SOURCES["python_unary"][1]]}})
        with caplog.at_level(logging.WARNING, logger="uastkit.corpus"):
            samples = ingest_corpus(tmp_path)
        assert sorted(s.source_path for s in samples) == [
            str(tmp_path / "deep" / "java" / "s0.java"),
            str(tmp_path / "deep" / "python" / "s0.py")]
        skipped = [r.getMessage() for r in caplog.records
                   if "unparseable" in r.getMessage()]
        assert len(skipped) == 2
        assert all("nests too deeply" in m for m in skipped)

    def test_long_else_if_chains_are_ingested(self, tmp_path, caplog):
        write_corpus(tmp_path, {"chains": {
            language: [else_if_chain(language, 1000, final_else=True)]
            for language in ("java", "python", "cpp")}})
        with caplog.at_level(logging.WARNING, logger="uastkit.corpus"):
            samples = ingest_corpus(tmp_path)
        assert sorted(s.language for s in samples) == ["cpp", "java",
                                                       "python"]
        assert not caplog.records

    def test_class_of_only_unparseable_files_raises(self, tmp_path):
        write_corpus(tmp_path, {"good": {"python": [PY_ADD % 0]}})
        bad = tmp_path / "broken" / "python"
        bad.mkdir(parents=True)
        (bad / "x.py").write_text("def broken(:\n")
        with pytest.raises(EmptyClass):
            ingest_corpus(tmp_path)

    def test_label_dir_without_files_raises(self, tmp_path):
        (tmp_path / "solo").mkdir()
        with pytest.raises(EmptyClass):
            ingest_corpus(tmp_path)

    def test_no_label_dirs_raises(self, tmp_path):
        with pytest.raises(EmptyCorpus):
            ingest_corpus(tmp_path)

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(DataError):
            ingest_corpus(tmp_path / "nowhere")

    def test_manifest_rows(self, tmp_path):
        (tmp_path / "x.py").write_text(PY_ADD % 0)
        (tmp_path / "y.src").write_text(JAVA_ADD % 0)
        manifest = tmp_path / "files.csv"
        manifest.write_text("x.py,addition\ny.src,addition,java\n")
        samples = ingest_corpus(tmp_path, manifest=manifest)
        assert sorted(s.language for s in samples) == ["java", "python"]
        assert all(s.label == "addition" for s in samples)

    def test_manifest_relative_paths_resolve_against_manifest(self, tmp_path):
        sub = tmp_path / "meta"
        sub.mkdir()
        (tmp_path / "x.py").write_text(PY_ADD % 0)
        manifest = sub / "files.csv"
        manifest.write_text("../x.py,addition\n")
        assert len(ingest_corpus(tmp_path, manifest=manifest)) == 1

    def test_manifest_needs_two_columns(self, tmp_path):
        manifest = tmp_path / "files.csv"
        manifest.write_text("only_a_path.py\n")
        with pytest.raises(DataError):
            ingest_corpus(tmp_path, manifest=manifest)

    def test_empty_manifest_raises(self, tmp_path):
        manifest = tmp_path / "files.csv"
        manifest.write_text("\n\n")
        with pytest.raises(EmptyCorpus):
            ingest_corpus(tmp_path, manifest=manifest)

    def test_manifest_bad_language_raises(self, tmp_path):
        (tmp_path / "x.py").write_text(PY_ADD % 0)
        manifest = tmp_path / "files.csv"
        manifest.write_text("x.py,addition,fortran\n")
        with pytest.raises(UnsupportedLanguage):
            ingest_corpus(tmp_path, manifest=manifest)


class TestMasking:
    def test_whole_word_only(self):
        out = mask_function_names("add(x); madd(add2); a.add;",
                                  {"add"})
        assert out == "XXX(x); madd(add2); a.XXX;"

    def test_multiple_names(self):
        out = mask_function_names("f(g(h))", {"f", "h"})
        assert out == "XXX(g(XXX))"

    def test_ingest_applies_masking_before_parsing(self, tmp_path):
        d = tmp_path / "only" / "python"
        d.mkdir(parents=True)
        (d / "a.py").write_text("def target(a):\n    return target(a - 1)\n")
        samples = ingest_corpus(tmp_path, mask_names={"target"})
        # masking happens on source text, so the tree still parses cleanly
        kinds = [n.kind for n in preorder(samples[0].tree)]
        assert "function_definition" in kinds


# --- splitting ---------------------------------------------------------------------

def flat_samples(count, language="python", label="a"):
    return [LabeledSample(source_path=f"{label}/{language}/{i:05}",
                          language=language, label=label, label_index=0)
            for i in range(count)]


def ids(samples):
    return {s.source_path for s in samples}


class TestSplits:
    def test_five_samples_go_three_one_one(self):
        splits = split_dataset(flat_samples(5), seed=0)
        assert [len(splits[n]) for n in ("train", "validation", "test")] == \
            [3, 1, 1]

    def test_large_stratum_counts(self):
        splits = split_dataset(flat_samples(8419), seed=1)
        assert [len(splits[n]) for n in ("train", "validation", "test")] == \
            [5051, 1684, 1684]

    def test_disjoint_and_covering(self):
        samples = flat_samples(40) + flat_samples(17, language="java")
        splits = split_dataset(samples, seed=3)
        parts = [ids(splits[n]) for n in ("train", "validation", "test")]
        assert parts[0] | parts[1] | parts[2] == ids(samples)
        assert not (parts[0] & parts[1] or parts[0] & parts[2]
                    or parts[1] & parts[2])

    def test_stratified_by_language(self):
        samples = flat_samples(10) + flat_samples(5, language="java")
        splits = split_dataset(samples, seed=0)
        for name, want_py, want_java in (("train", 6, 3),
                                         ("validation", 2, 1),
                                         ("test", 2, 1)):
            got = [s.language for s in splits[name]]
            assert got.count("python") == want_py
            assert got.count("java") == want_java

    def test_same_seed_same_split(self):
        samples = flat_samples(30)
        a = split_dataset(samples, seed=9)
        b = split_dataset(list(reversed(samples)), seed=9)
        for name in ("train", "validation", "test"):
            assert ids(a[name]) == ids(b[name])

    def test_different_seed_different_split(self):
        samples = flat_samples(50)
        a = split_dataset(samples, seed=1)
        b = split_dataset(samples, seed=2)
        assert ids(a["train"]) != ids(b["train"])

    def test_remainder_ties_prefer_earlier_splits(self):
        splits = split_dataset(flat_samples(2), seed=0, ratios=(1, 1, 1))
        assert [len(splits[n]) for n in ("train", "validation", "test")] == \
            [1, 1, 0]

    def test_zero_ratio_empties_a_split(self):
        splits = split_dataset(flat_samples(12), seed=0, ratios=(1, 0, 0))
        assert len(splits["train"]) == 12
        assert not splits["validation"] and not splits["test"]

    @pytest.mark.parametrize("ratios", [(1, 1), (0, 0, 0), (-1, 1, 1)])
    def test_bad_ratios_rejected(self, ratios):
        with pytest.raises(DataError):
            split_dataset(flat_samples(5), seed=0, ratios=ratios)

    @given(st.integers(0, 10_000), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_counts_sum_and_bound(self, seed, n):
        splits = split_dataset(flat_samples(n), seed=seed)
        counts = [len(splits[k]) for k in ("train", "validation", "test")]
        assert sum(counts) == n
        # largest remainder keeps every count within one of its quota
        for count, ratio in zip(counts, (3, 1, 1)):
            assert abs(count - n * ratio / 5) < 1


# --- metrics ----------------------------------------------------------------------

def oracle_metrics(y_true, y_pred, k):
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


class TestMetrics:
    def test_hand_example_all_predicted_as_majority(self):
        report = compute_metrics([0, 0, 0, 1], [0, 0, 0, 0], k=2)
        assert report.accuracy == 0.75
        assert report.recall == 0.75
        assert report.precision == 0.5625
        assert report.f1 == pytest.approx(0.75 * (2 * 0.75 / 1.75))
        assert report.support.tolist() == [3, 1]
        assert report.confusion.tolist() == [[3, 0], [1, 0]]

    def test_perfect_prediction(self):
        report = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], k=3)
        assert report.precision == report.recall == report.f1 == 1.0
        assert report.accuracy == 1.0

    def test_absent_class_contributes_nothing(self):
        # class 2 never appears in truth; zero support keeps it out of the
        # weighted averages and its zero denominators read as zero
        report = compute_metrics([0, 1], [0, 1], k=3)
        assert report.support.tolist() == [1, 1, 0]
        assert report.precision == 1.0

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 120))
            y_true = rng.integers(0, k, size=n).tolist()
            y_pred = rng.integers(0, k, size=n).tolist()
            want = oracle_metrics(y_true, y_pred, k)
            got = compute_metrics(y_true, y_pred, k)
            for name, value in want.items():
                assert getattr(got, name) == pytest.approx(value,
                                                           abs=1e-12), name

    def test_guards(self):
        with pytest.raises(DataError):
            compute_metrics([], [], k=2)
        with pytest.raises(DataError):
            compute_metrics([0, 1], [0], k=2)
        with pytest.raises(DataError):
            compute_metrics([0, 2], [0, 0], k=2)
        with pytest.raises(DataError):
            compute_metrics([0, -1], [0, 0], k=2)

    def test_json_and_table_render(self):
        report = compute_metrics([0, 1], [0, 1], k=2)
        data = json.loads(report.to_json())
        assert data["accuracy"] == 1.0
        table = report.format_table(("first", "second"))
        assert "first" in table and "second" in table


# --- training loop ---------------------------------------------------------------

def memorizable_splits(per_class=6, with_val=False):
    """Synthetic two-class corpus of trivially separable chain trees."""
    def sample(i, label, idx, kind):
        depth = 3 + i % 3
        return LabeledSample(source_path=f"mem/{label}/{i}",
                             language="python", label=label, label_index=idx,
                             tree=chain_tree([kind] * depth))

    a = [sample(i, "alpha", 0, "x") for i in range(per_class)]
    b = [sample(i, "beta", 1, "y") for i in range(per_class)]
    if with_val:
        return {"train": a[:-2] + b[:-2], "validation": [a[-2], b[-2]],
                "test": [a[-1], b[-1]]}
    return {"train": a + b, "validation": [], "test": []}


class TestBuildFeatures:
    def test_each_tree_is_unified_once(self, monkeypatch):
        table = load_default_table()
        splits = split_dataset(ingest_corpus(TOY_CORPUS), seed=0)
        samples = [s for name in SPLIT_NAMES for s in splits[name]]
        unified = [unify_ast(s.tree, s.language, table) for s in samples]
        calls = []

        def counting(tree, language, table):
            calls.append(language)
            return unify_ast(tree, language, table)

        monkeypatch.setattr(training, "unify_ast", counting)
        vocab = build_features(splits, table, True, L=96, N=96)
        assert len(calls) == len(samples)

        # the same vocabulary and features as unifying afresh
        assert vocab == build_vocabulary(unified[:len(splits["train"])])
        for s, tree in zip(samples, unified):
            path, graph = featurize_sample(tree, vocab, 96, 96)
            assert s.tree is None
            assert np.array_equal(s.path_seq.indices, path.indices)
            assert s.path_seq.true_length == path.true_length
            assert np.array_equal(s.graph.node_kinds, graph.node_kinds)
            assert (s.graph.node_count, s.graph.edges) == \
                (graph.node_count, graph.edges)

    def test_kept_trees_are_the_unified_views(self):
        table = load_default_table()
        splits = split_dataset(ingest_corpus(TOY_CORPUS), seed=0)
        samples = [s for name in SPLIT_NAMES for s in splits[name]]
        unified = [unify_ast(s.tree, s.language, table) for s in samples]
        build_features(splits, table, True, L=96, N=96, keep_trees=True)
        assert [s.tree for s in samples] == unified


def small_config(vocab_size, mode="uast"):
    return ModelConfig(vocab_size=vocab_size, k=2, mode=mode, L=8, d=4,
                       heads=2, attn_dropout=0.0, h=3, lstm_layers=1,
                       lstm_dropout=0.0, N=8, gcn_layers=1, gcn_hidden=3,
                       d_out=3)


class TestTrain:
    def _fit(self, tmp_path=None, lr=0.05, epochs=12, with_val=False,
             seed=0, mode="uast"):
        splits = memorizable_splits(with_val=with_val)
        table = identity_table()
        vocab = build_features(splits, table, True, L=8, N=8)
        cfg = small_config(vocab.size, mode)
        result = train(splits, cfg, vocab, ["alpha", "beta"], ["python"],
                       table.table_hash, True, seed=seed, epochs=epochs,
                       batch_size=4, lr=lr,
                       out_dir=tmp_path)
        return splits, table, vocab, cfg, result

    def test_zero_learning_rate_keeps_initial_parameters(self):
        splits, _, vocab, cfg, result = self._fit(lr=0.0, epochs=2)
        fresh = init_params(cfg, 0)
        for (name, got), (_, want) in zip(
                result.checkpoint.params.manifest(), fresh.manifest()):
            assert np.array_equal(got.data, want.data), name

    def test_memorizes_tiny_corpus(self):
        splits, _, vocab, cfg, result = self._fit()
        report = evaluate_samples(splits["train"], result.checkpoint.params,
                                  cfg)
        assert report.accuracy == 1.0
        assert len(result.history) == 12
        losses = [r["train_loss"] for r in result.history]
        assert losses[-1] < losses[0]

    def test_history_records_validation_metrics(self, tmp_path):
        _, _, _, _, result = self._fit(tmp_path=tmp_path, with_val=True)
        record = result.history[-1]
        assert record["record"] == "epoch"
        assert record["val_accuracy"] is not None
        assert result.best_val_accuracy is not None
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "run"
        assert header["labels"] == ["alpha", "beta"]
        assert len(lines) == 1 + len(result.history)
        for line in lines[1:]:
            assert json.loads(line)["record"] == "epoch"

    def test_saves_final_and_best_checkpoints(self, tmp_path):
        self._fit(tmp_path=tmp_path, with_val=True)
        final = load_checkpoint(tmp_path / "final.ckpt")
        best = load_checkpoint(tmp_path / "best.ckpt")
        assert final.epoch == 12
        assert best.val_metrics is not None
        assert final.labels == ("alpha", "beta")

    def test_without_validation_best_equals_final(self, tmp_path):
        self._fit(tmp_path=tmp_path, with_val=False)
        assert (tmp_path / "final.ckpt").read_bytes() == \
            (tmp_path / "best.ckpt").read_bytes()

    def test_repeat_run_is_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "one", tmp_path / "two"
        self._fit(tmp_path=a, with_val=True, epochs=3)
        self._fit(tmp_path=b, with_val=True, epochs=3)
        assert (a / "final.ckpt").read_bytes() == \
            (b / "final.ckpt").read_bytes()
        assert (a / "history.jsonl").read_text() == \
            (b / "history.jsonl").read_text()

    def test_seed_changes_the_run(self, tmp_path):
        a, b = tmp_path / "one", tmp_path / "two"
        self._fit(tmp_path=a, epochs=2, seed=0)
        self._fit(tmp_path=b, epochs=2, seed=1)
        assert (a / "final.ckpt").read_bytes() != \
            (b / "final.ckpt").read_bytes()

    def test_max_steps_stops_early(self):
        _, _, _, _, result = self._fit(epochs=50)
        splits = memorizable_splits()
        table = identity_table()
        vocab = build_features(splits, table, True, L=8, N=8)
        cfg = small_config(vocab.size)
        capped = train(splits, cfg, vocab, ["alpha", "beta"], ["python"],
                       table.table_hash, True, seed=0, epochs=50,
                       batch_size=4, lr=0.05, max_steps=5)
        assert capped.checkpoint.step == 5

    def test_divergence_has_a_dedicated_error(self):
        splits = memorizable_splits()
        table = identity_table()
        vocab = build_features(splits, table, True, L=8, N=8)
        cfg = small_config(vocab.size)
        with pytest.raises(DivergenceDetected) as err, \
                np.errstate(all="ignore"):
            train(splits, cfg, vocab, ["alpha", "beta"], ["python"],
                  table.table_hash, True, seed=0, epochs=3, batch_size=4,
                  lr=1e308)
        assert "epoch" in str(err.value)

    def test_config_vocab_and_label_guards(self):
        splits = memorizable_splits()
        table = identity_table()
        vocab = build_features(splits, table, True, L=8, N=8)
        with pytest.raises(ConfigError):
            train(splits, small_config(vocab.size + 1), vocab,
                  ["alpha", "beta"], ["python"], table.table_hash, True,
                  seed=0)
        with pytest.raises(ConfigError):
            train(splits, small_config(vocab.size), vocab,
                  ["alpha", "beta", "gamma"], ["python"], table.table_hash,
                  True, seed=0)

    def test_empty_train_split_rejected(self):
        splits = memorizable_splits()
        table = identity_table()
        vocab = build_features(splits, table, True, L=8, N=8)
        splits["train"] = []
        with pytest.raises(EmptySplit):
            train(splits, small_config(vocab.size), vocab, ["alpha", "beta"],
                  ["python"], table.table_hash, True, seed=0)

    def test_graph_only_mode_trains(self):
        _, _, _, cfg, result = self._fit(mode="gast")
        names = [n for n, _ in result.checkpoint.params.manifest()]
        assert names[0] == "gcn.0"

    def test_predict_recovers_training_labels(self):
        splits, table, _, cfg, result = self._fit()
        label, probs = predict_one(result.checkpoint, "(x (x (x)))",
                                   "python", table, is_sexpr=True)
        assert label == "alpha"
        label2, _ = predict_one(result.checkpoint, "(y (y (y)))",
                                "python", table, is_sexpr=True)
        assert label2 == "beta"
        assert probs.shape == (2,)
        assert abs(probs.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("name", sorted(DEEP_SOURCES))
    def test_predict_refuses_too_deep_source(self, name):
        _, table, _, _, result = self._fit(epochs=1)
        language, src = DEEP_SOURCES[name]
        with pytest.raises(UastError):
            predict_one(result.checkpoint, src, language, table)

    def test_predict_classifies_long_else_if_chain(self):
        # such a chain once nested past the recursion limit and was refused
        _, table, _, _, result = self._fit(epochs=1)
        label, probs = predict_one(result.checkpoint,
                                   else_if_chain("java", 1000, False), "java",
                                   table)
        assert label in ("alpha", "beta")
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_predict_parses_real_source(self, two_class_dir):
        samples = ingest_corpus(two_class_dir)
        splits = {"train": samples, "validation": [], "test": []}
        table = load_default_table()
        vocab = build_features(splits, table, True, L=40, N=40)
        cfg = ModelConfig(vocab_size=vocab.size, k=2, mode="uast", L=40, d=4,
                          heads=2, attn_dropout=0.0, h=3, lstm_layers=1,
                          lstm_dropout=0.0, N=40, gcn_layers=1, gcn_hidden=3,
                          d_out=3)
        result = train(splits, cfg, vocab, ["addition", "looping"],
                       ["java", "python"], table.table_hash, True, seed=0,
                       epochs=20, batch_size=4, lr=0.05)
        label, _ = predict_one(result.checkpoint, PY_LOOP % 7, "python",
                               table)
        assert label in ("addition", "looping")
        report = evaluate_samples(splits["train"], result.checkpoint.params,
                                  cfg)
        assert report.accuracy >= 0.9


    @pytest.mark.parametrize("mode", ["uast", "sast", "gast"])
    def test_no_dense_adjacency_on_the_model_path(self, mode, monkeypatch):
        def refuse(graph):
            raise AssertionError("dense N x N adjacency built")

        monkeypatch.setattr(GraphSample, "norm_adj", property(refuse))
        table = load_default_table()
        splits = split_dataset(ingest_corpus(TOY_CORPUS), seed=0)
        labels = corpus_labels(splits["train"])
        vocab = build_features(splits, table, True, L=96, N=96)
        cfg = ModelConfig(vocab_size=vocab.size, k=len(labels), mode=mode,
                          L=96, d=8, heads=2, attn_dropout=0.1, h=4,
                          lstm_layers=1, lstm_dropout=0.0, N=96,
                          gcn_layers=2, gcn_hidden=6, d_out=4)
        result = train(splits, cfg, vocab, labels, ["java", "python"],
                       table.table_hash, True, seed=0, epochs=1,
                       batch_size=8, max_steps=2)
        text = (TOY_CORPUS / "matrix_mult" / "java" / "v1.java").read_text()
        label, probs = predict_one(result.checkpoint, text, "java", table)
        assert label in labels and abs(probs.sum() - 1.0) < 1e-9


# --- checkpoint file -------------------------------------------------------------

class TestCheckpoint:
    def _ckpt(self, seed=0):
        cfg = small_config(7)
        return Checkpoint(config=cfg, params=init_params(cfg, seed),
                          vocab=_vocab7(), labels=("alpha", "beta"),
                          languages=("python",), table_hash="00" * 32,
                          unified=True, seed=seed, epoch=2, step=9,
                          run_config={"lr": 0.05},
                          val_metrics={"accuracy": 1.0})

    def test_roundtrip_is_exact(self, tmp_path):
        ckpt = self._ckpt()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.config == ckpt.config
        assert back.labels == ckpt.labels
        assert back.languages == ckpt.languages
        assert back.vocab.kinds == ckpt.vocab.kinds
        assert (back.table_hash, back.unified) == (ckpt.table_hash, True)
        assert (back.seed, back.epoch, back.step) == (0, 2, 9)
        assert back.run_config == {"lr": 0.05}
        assert back.val_metrics == {"accuracy": 1.0}
        for (name, got), (_, want) in zip(back.params.manifest(),
                                          ckpt.params.manifest()):
            assert np.array_equal(got.data, want.data), name

    def test_save_again_is_bitwise_stable(self, tmp_path):
        ckpt = self._ckpt()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("mangle", [
        lambda d: b"NOTMAGIC" + d[8:],                  # wrong magic
        lambda d: d[:8] + b"\x63" + d[9:],              # wrong version
        lambda d: d[:len(d) // 2],                      # truncated arrays
        lambda d: d + b"\x00" * 8,                      # trailing bytes
        lambda d: d[:40],                               # truncated header
    ])
    def test_corrupt_files_rejected(self, tmp_path, mangle):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._ckpt(), path)
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_one_checkpoint_is_refused(self, tmp_path):
        # version 1 stored each LSTM gate as its own tensor
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._ckpt(), path)
        data = path.read_bytes()
        assert struct.unpack_from("<I", data, 8) == (2,)
        path.write_bytes(data[:8] + struct.pack("<I", 1) + data[12:])
        with pytest.raises(CheckpointError, match="format version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", sorted(BAD_CHECKPOINT_HEADERS))
    def test_header_inconsistent_with_parameters_is_refused(self, tmp_path,
                                                            name):
        change, reason = BAD_CHECKPOINT_HEADERS[name]
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._ckpt(), path)
        load_checkpoint(path)
        rewrite_checkpoint_header(path, change)
        with pytest.raises(CheckpointError, match=reason):
            load_checkpoint(path)

    def test_loaded_parameters_are_trainable(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._ckpt(), path)
        back = load_checkpoint(path)
        assert all(t.requires_grad for t in back.params.parameters())


def _vocab7():
    from uastkit.ast_frontend import vocabulary_from_kinds
    return vocabulary_from_kinds([f"k{i}" for i in range(5)])
