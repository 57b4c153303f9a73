"""Ingestion, splitting, metrics, the training loop, and checkpoints."""

import gc
import json
import logging
import re
import shutil
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BAD_CHECKPOINT_HEADERS,
    MALFORMED_CHECKPOINT_HEADERS,
    DEEP_SOURCES,
    TOY_CORPUS,
    chain_tree,
    else_if_chain,
    rewrite_json_header,
    sexpr_tree,
)
from uastkit.ast_frontend import (
    UnificationTable,
    build_vocabulary,
    load_default_table,
    render_sexpr,
    unify_ast,
)
from uastkit.datagen import generate_corpus
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
from uastkit import model as M
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
    predict_one,
    prepare,
    save_checkpoint,
    score_prepared,
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

    def test_one_info_line_counts_the_files(self, tmp_path, caplog):
        d = tmp_path / "only" / "python"
        d.mkdir(parents=True)
        (d / "a.py").write_text(PY_ADD % 0)
        (d / "b.py").write_text(PY_ADD % 0)
        (d / "bad.py").write_text("def broken(:\n")
        (d / "c.py").write_text(PY_ADD % 1)
        with caplog.at_level(logging.INFO, logger="uastkit.corpus"):
            samples = ingest_corpus(tmp_path)
        assert len(samples) == 2
        assert [r.getMessage() for r in caplog.records
                if r.levelno == logging.INFO] == [
            f"ingested {tmp_path}: 4 files attempted, 2 parsed, "
            "1 duplicates skipped, 1 unparseable skipped"]

    def test_syntax_warnings_name_the_file(self, tmp_path, capfd, caplog):
        d = tmp_path / "only" / "python"
        d.mkdir(parents=True)
        (d / "warns.py").write_text("x = 1if y else 2\n")
        with caplog.at_level(logging.WARNING, logger="uastkit"):
            assert len(ingest_corpus(tmp_path)) == 1
        assert "SyntaxWarning" not in capfd.readouterr().err
        assert [r.getMessage() for r in caplog.records] == [
            f"{d / 'warns.py'}:1: SyntaxWarning: invalid decimal literal"]

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


# --- splitting ---------------------------------------------------------------------

def flat_samples(count, language="python", label="a"):
    return [LabeledSample(source_path=f"{label}/{language}/{i:05}",
                          language=language, label=label, label_index=0,
                          tree=None)
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

    @pytest.mark.parametrize("ratios", [
        (1, 1), (0, 0, 0), (-1, 1, 1), "abc", "311", (True, 1, 1), [3, 1, "1"],
        [3, 1, 1, 1], (float("nan"), 1, 1), (float("inf"), 1, 1), None])
    def test_bad_ratios_rejected(self, ratios):
        with pytest.raises(DataError):
            split_dataset(flat_samples(5), seed=0, ratios=ratios)

    # a checkpoint's seed is read as any int; numpy refuses a negative one
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DataError, match="bad split seed"):
            split_dataset(flat_samples(5), seed=seed)

    def test_ratios_as_a_list_or_as_floats_split_as_the_tuple(self):
        # run configs hold a tuple, checkpoints record a list, and the
        # acceptance tests split with floats
        samples = flat_samples(23) + flat_samples(9, language="java")
        want = split_dataset(samples, seed=4, ratios=(3, 1, 1))
        for ratios in ([3, 1, 1], (3.0, 1.0, 1.0), [3.0, 1, 1]):
            got = split_dataset(samples, seed=4, ratios=ratios)
            assert all([s.source_path for s in got[name]]
                       == [s.source_path for s in want[name]]
                       for name in ("train", "validation", "test"))

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
        data = json.loads(json.dumps(report.to_dict(), sort_keys=True))
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


def unified_copies(samples, table):
    """Unified views of the samples' trees, built from copies taken first.

    The samples' own trees stay raw, and at least one copy differs from
    its raw tree, so a check against these copies fails when the code
    under test does not unify.
    """
    raw = [render_sexpr(s.tree) for s in samples]
    unified = [unify_ast(sexpr_tree(text), s.language, table)
               for text, s in zip(raw, samples)]
    assert [render_sexpr(s.tree) for s in samples] == raw
    assert any(render_sexpr(tree) != text for tree, text in zip(unified, raw))
    return unified


class TestBuildFeatures:
    def test_each_tree_is_unified_once(self, monkeypatch):
        table = load_default_table()
        splits = split_dataset(ingest_corpus(TOY_CORPUS), seed=0)
        samples = [s for name in SPLIT_NAMES for s in splits[name]]
        unified = unified_copies(samples, table)
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
            assert np.array_equal(s.graph.edges, graph.edges)


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def planted_corpus(root, per_pair=60):
    """The seed-1 datagen corpus with byte-identical copies, unparseable
    Python files and one that raises a SyntaxWarning."""
    generate_corpus(root, seed=1, per_pair=per_pair)
    for folder in sorted(p for p in root.glob("*/*") if p.is_dir()):
        files = sorted(folder.iterdir())
        for i, src in enumerate(files[:3]):
            shutil.copyfile(src, src.with_name(f"copy_{i}{src.suffix}"))
        if folder.name == "python":
            (folder / "broken.py").write_text(files[0].read_text()
                                              + "broken = (\n")
            (folder / "warns.py").write_text("x = 1if y else 2\n")
    return root


def golden_corpus(root):
    """Every golden source, one label, languages from the extensions."""
    folder = root / "golden"
    folder.mkdir(parents=True)
    for src in GOLDEN.iterdir():
        if src.suffix != ".sexpr":
            shutil.copyfile(src, folder / src.name)
    return root


def ingest_and_featurize(root):
    splits = split_dataset(ingest_corpus(root), seed=0)
    build_features(splits, load_default_table(), True, L=96, N=96)
    return splits


class TestCollector:
    """Ingest and featurization leave no reference cycles, keep too few
    tracked objects to set off a full collection, and leave the cyclic GC
    as the caller set it."""

    @pytest.fixture
    def collector_on_exit(self):
        was_enabled = gc.isenabled()
        yield
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_ingest_leaves_no_cyclic_garbage(self, tmp_path,
                                             collector_on_exit):
        roots = [planted_corpus(tmp_path / "datagen"),
                 golden_corpus(tmp_path / "golden")]
        gc.unfreeze()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        for root in roots:
            splits = ingest_and_featurize(root)
            assert splits["train"]
            del splits
        gc.unfreeze()
        assert gc.collect() == 0, gc.garbage[:10]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_state_is_kept(self, tmp_path, collector_on_exit,
                                       enabled):
        (gc.enable if enabled else gc.disable)()
        samples = ingest_corpus(planted_corpus(tmp_path))
        assert gc.isenabled() == enabled
        splits = split_dataset(samples, seed=0)
        build_features(splits, load_default_table(), True, L=96, N=96)
        assert gc.isenabled() == enabled

    @pytest.mark.parametrize("name, text, error", [
        ("x.py", "def broken(:\n", EmptyClass),  # raised after the parse loop
        ("x.rb", "def f; end", UnknownExtension)])  # raised inside it
    def test_a_failed_ingest_turns_the_collector_back_on(
            self, tmp_path, collector_on_exit, name, text, error):
        (tmp_path / "only").mkdir()
        (tmp_path / "only" / name).write_text(text)
        gc.enable()
        with pytest.raises(error):
            ingest_corpus(tmp_path)
        assert gc.isenabled()

    def test_no_full_collection_while_ingesting(self, tmp_path,
                                                collector_on_exit):
        # big enough that ingest with the collector on runs full collections
        root = planted_corpus(tmp_path, per_pair=300)
        generations = []

        def record(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.enable()
        gc.collect()  # start every generation's count from zero
        gc.callbacks.append(record)
        try:
            ingest_and_featurize(root)
        finally:
            gc.callbacks.remove(record)
        assert 2 not in generations


def small_config(vocab_size, mode="uast"):
    return ModelConfig(vocab_size=vocab_size, k=2, mode=mode, L=8, d=4,
                       heads=2, attn_dropout=0.0, h=3, lstm_layers=1,
                       lstm_dropout=0.0, N=8, gcn_layers=1, gcn_hidden=3,
                       d_out=3)


class TestTrain:
    def _fit(self, tmp_path=None, lr=0.05, epochs=12, with_val=False,
             seed=0, mode="uast"):
        splits = memorizable_splits(with_val=with_val)
        table = UnificationTable({})
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
        splits, _, _, cfg, result = self._fit(tmp_path=tmp_path,
                                              with_val=True)
        record = result.history[-1]
        assert record["record"] == "epoch"
        assert record["val_accuracy"] is not None
        # exactly the summary of the final parameters' validation report
        summary = evaluate_samples(splits["validation"],
                                   result.checkpoint.params, cfg).summary()
        assert {k: v for k, v in record.items() if k.startswith("val_")} \
            == {f"val_{k}": v for k, v in summary.items()}
        assert result.best_val_accuracy is not None
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "run"
        assert header["labels"] == ["alpha", "beta"]
        assert len(lines) == 1 + len(result.history)
        for line in lines[1:]:
            assert json.loads(line)["record"] == "epoch"

    def test_saves_final_and_best_checkpoints(self, tmp_path):
        splits, _, _, cfg, _ = self._fit(tmp_path=tmp_path, with_val=True)
        final = load_checkpoint(tmp_path / "final.ckpt")
        best = load_checkpoint(tmp_path / "best.ckpt")
        assert final.epoch == 12
        assert best.val_metrics is not None
        assert final.labels == ("alpha", "beta")
        for ckpt in (final, best):
            report = evaluate_samples(splits["validation"], ckpt.params, cfg)
            assert ckpt.val_metrics == report.summary()

    def test_each_step_frees_its_tape_before_the_next(self, monkeypatch):
        # two live tapes would set the peak: the previous step's
        # probabilities, and with them its tape, must be gone by the time
        # the next forward pass starts
        forward_batch = M.forward_batch
        last = []

        def tracked(*args, **kwargs):
            assert not last or last[-1]() is None, "the last tape is alive"
            probs = forward_batch(*args, **kwargs)
            last.append(weakref.ref(probs.data))
            return probs

        monkeypatch.setattr(M, "forward_batch", tracked)
        self._fit(epochs=2)
        assert len(last) == 6  # three steps an epoch

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
        table = UnificationTable({})
        vocab = build_features(splits, table, True, L=8, N=8)
        cfg = small_config(vocab.size)
        capped = train(splits, cfg, vocab, ["alpha", "beta"], ["python"],
                       table.table_hash, True, seed=0, epochs=50,
                       batch_size=4, lr=0.05, max_steps=5)
        assert capped.checkpoint.step == 5

    def test_divergence_has_a_dedicated_error(self):
        splits = memorizable_splits()
        table = UnificationTable({})
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
        table = UnificationTable({})
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
        table = UnificationTable({})
        vocab = build_features(splits, table, True, L=8, N=8)
        splits["train"] = []
        with pytest.raises(EmptySplit):
            train(splits, small_config(vocab.size), vocab, ["alpha", "beta"],
                  ["python"], table.table_hash, True, seed=0)

    # every batch loss of two epochs on the toy corpus with both dropouts
    # on, as recorded when each dropout mask was one float64 draw over the
    # padded layout: the per-path draws must keep that stream
    PINNED_LOSSES = {
        "uast": [1.3884311253011439, 1.3951027692914717, 1.3822460048874068,
                 1.3796266317766164, 1.3358541673428985, 1.3782878286025422,
                 1.3303401280630878, 1.4364941515370493],
        "sast": [1.385868948433532, 1.396549912956928, 1.3811518632665245,
                 1.3831952879365383, 1.2838451997341, 1.4103701090235436,
                 1.3111178917693054, 1.4732695397380677],
    }

    @pytest.mark.parametrize("mode", sorted(PINNED_LOSSES))
    def test_dropout_stream_keeps_its_recorded_losses(self, mode):
        table = load_default_table()
        samples = ingest_corpus(TOY_CORPUS)
        splits = split_dataset(samples, seed=0, ratios=(1.0, 0.0, 0.0))
        vocab = build_features(splits, table, True, L=96, N=96)
        labels = corpus_labels(samples)
        cfg = ModelConfig(vocab_size=vocab.size, k=len(labels), mode=mode,
                          L=96, N=96, d=32, heads=4, attn_dropout=0.2, h=16,
                          lstm_layers=2, lstm_dropout=0.5, gcn_layers=2,
                          gcn_hidden=32, d_out=16)
        result = train(splits, cfg, vocab, labels, corpus_languages(samples),
                       table.table_hash, True, seed=0, epochs=2,
                       batch_size=8, lr=0.01)
        losses = [x for record in result.history
                  for x in record["batch_losses"]]
        # summation-order changes move a loss by about 1e-15; a different
        # mask moves it far more
        np.testing.assert_allclose(losses, self.PINNED_LOSSES[mode],
                                   rtol=1e-10, atol=0)

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
        table, _, labels, result = toy_run(mode)
        text = (TOY_CORPUS / "matrix_mult" / "java" / "v1.java").read_text()
        label, probs = predict_one(result.checkpoint, text, "java", table)
        assert label in labels and abs(probs.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("mode", ["uast", "sast", "gast"])
    def test_predict_one_is_the_batched_scorer_at_one_file(self, mode):
        # a file read, featurized and scored by predict_one gives, bit for
        # bit, its row of the ingested split scored one sample a batch
        table, splits, _, result = toy_run(mode)
        ckpt = result.checkpoint
        samples = splits["validation"] + splits["test"]
        rows = score_prepared(prepare(samples, ckpt.config)[0], ckpt.params,
                              ckpt.config, batch_size=1)
        for s, row in zip(samples, rows):
            text = Path(s.source_path).read_text(encoding="utf-8")
            label, got = predict_one(ckpt, text, s.language, table,
                                     path=s.source_path)
            assert np.array_equal(got, row), s.source_path
            assert label == ckpt.labels[int(row.argmax())]


def toy_run(mode):
    """Two steps on the toy corpus: the table, the featurized splits, the
    labels and the run's result."""
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
    return table, splits, labels, result


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

    def test_save_to_a_directory_is_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot write checkpoint"):
            save_checkpoint(self._ckpt(), tmp_path)

    @pytest.mark.parametrize("mangle", [
        lambda d: b"NOTMAGIC" + d[8:],                  # wrong magic
        lambda d: d[:8] + b"\x63" + d[9:],              # wrong version
        lambda d: d[:len(d) // 2],                      # truncated arrays
        lambda d: d + b"\x00" * 8,                      # trailing bytes
        lambda d: d[:40],                               # truncated header
        lambda d: d[:12],                               # shorter than prefix
        lambda d: d[:20] + b"x" + d[21:],               # header not JSON
        lambda d: d[:12] + struct.pack("<Q", 9) + b"[1, 2, 3]",  # not object
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
        assert struct.unpack_from("<I", data, 8) == (3,)
        path.write_bytes(data[:8] + struct.pack("<I", 1) + data[12:])
        with pytest.raises(CheckpointError, match="format version 1"):
            load_checkpoint(path)

    def test_version_two_checkpoint_is_refused(self, tmp_path):
        # version 2's config also held gcn_activation, pooling and
        # learned_projections; it is refused by its version, not read as a
        # header with unknown keys
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._ckpt(), path)
        rewrite_json_header(path, lambda h: h["config"].update(
            gcn_activation="relu", pooling="mean", learned_projections=False))
        data = path.read_bytes()
        path.write_bytes(data[:8] + struct.pack("<I", 2) + data[12:])
        with pytest.raises(CheckpointError,
                           match="unsupported format version 2$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", sorted(BAD_CHECKPOINT_HEADERS))
    def test_header_inconsistent_with_parameters_is_refused(self, tmp_path,
                                                            name):
        change, reason = BAD_CHECKPOINT_HEADERS[name]
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._ckpt(), path)
        load_checkpoint(path)
        rewrite_json_header(path, change)
        with pytest.raises(CheckpointError, match=reason):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", sorted(MALFORMED_CHECKPOINT_HEADERS))
    def test_malformed_header_is_refused(self, tmp_path, name):
        change, reason = MALFORMED_CHECKPOINT_HEADERS[name]
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._ckpt(), path)
        rewrite_json_header(path, change)
        with pytest.raises(CheckpointError, match=re.escape(reason)):
            load_checkpoint(path)

    def test_loaded_parameters_are_trainable(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._ckpt(), path)
        back = load_checkpoint(path)
        assert all(t.requires_grad for t in back.params.parameters())


def _vocab7():
    from uastkit.ast_frontend import vocabulary_from_kinds
    return vocabulary_from_kinds([f"k{i}" for i in range(5)])
