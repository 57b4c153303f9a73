"""Command-line interface: every subcommand plus exit codes and layering."""

import json
import logging
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    BAD_CHECKPOINT_HEADERS,
    TOY_CORPUS,
    rewrite_checkpoint_header,
)
from uastkit.cli import PROFILES, RunConfig, build_parser, main
from uastkit.featurizer import read_featurized
from uastkit.train_eval import ingest_corpus, load_checkpoint, training

TINY_DIMS = ["--L", "16", "--N", "16", "--d", "8", "--heads", "2", "--h", "4",
             "--lstm-layers", "1", "--gcn-layers", "1", "--gcn-hidden", "8",
             "--d-out", "4"]
PY_SAMPLE = str(TOY_CORPUS / "sum_loop" / "python" / "v1.py")
JAVA_SAMPLE = str(TOY_CORPUS / "sum_loop" / "java" / "v1.java")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def quick_train(tmp_path, capsys=None, *extra):
    """A deliberately underfit but fast training run for plumbing tests."""
    args = ["train", "--corpus", str(TOY_CORPUS), "--profile", "toy",
            *TINY_DIMS, "--epochs", "1", "--max-steps", "3", "--quiet",
            "--out-dir", str(tmp_path), *extra]
    assert main(args) == 0
    if capsys is not None:
        capsys.readouterr()  # drain so later captures see only their command
    return tmp_path / "final.ckpt"


# --- exit codes --------------------------------------------------------------------

class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run(capsys, "parse", PY_SAMPLE)
        assert code == 0 and out

    def test_no_subcommand_is_usage(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_flag_is_usage(self, capsys):
        assert run(capsys, "parse", "--nonsense", PY_SAMPLE)[0] == 1

    def test_bad_flag_value_is_usage(self, capsys):
        code, _, err = run(capsys, "sweep", "--corpus", str(TOY_CORPUS),
                           "--param", "path-length", "--values", ",,")
        assert code == 1
        assert "--values" in err

    def test_missing_file_is_a_data_problem(self, capsys):
        code, _, err = run(capsys, "parse", "/nowhere/missing.py")
        assert code == 2
        assert "error" in err

    def test_unknown_extension_is_a_data_problem(self, tmp_path, capsys):
        odd = tmp_path / "listing.txt"
        odd.write_text("x = 1\n")
        assert run(capsys, "parse", str(odd))[0] == 2

    def test_old_checkpoint_version_is_a_data_problem(self, tmp_path, capsys):
        old = tmp_path / "v1.ckpt"
        old.write_bytes(b"UASTCKPT" + struct.pack("<IQ", 1, 0))
        code, _, err = run(capsys, "predict", PY_SAMPLE,
                           "--checkpoint", str(old))
        assert code == 2
        assert "version 1" in err

    @pytest.mark.parametrize("name", sorted(BAD_CHECKPOINT_HEADERS))
    def test_inconsistent_checkpoint_is_a_data_problem(self, tmp_path, capsys,
                                                       name):
        change, reason = BAD_CHECKPOINT_HEADERS[name]
        ckpt = quick_train(tmp_path, capsys, "--mode", "gast")
        assert run(capsys, "predict", PY_SAMPLE, "--checkpoint",
                   str(ckpt))[0] == 0
        rewrite_checkpoint_header(ckpt, change)
        code, _, err = run(capsys, "predict", PY_SAMPLE,
                           "--checkpoint", str(ckpt))
        assert code == 2
        assert reason in err

    def test_module_runs_without_installation(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-m", "uastkit", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "parse" in proc.stdout and "train" in proc.stdout
        assert proc.stdout.startswith("usage: uast")

    def test_console_script_is_installed(self):
        proc = subprocess.run(["uast", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "parse" in proc.stdout and "train" in proc.stdout


# --- parse ------------------------------------------------------------------------

class TestParse:
    def test_unified_root(self, capsys):
        code, out, _ = run(capsys, "parse", PY_SAMPLE)
        assert code == 0
        assert out.startswith("(unit ")

    def test_raw_keeps_grammar_kinds(self, capsys):
        code, out, _ = run(capsys, "parse", "--raw", PY_SAMPLE)
        assert code == 0
        assert out.startswith("(module ")

    def test_unified_kinds_agree_across_languages(self, capsys):
        _, py_out, _ = run(capsys, "parse", PY_SAMPLE)
        _, java_out, _ = run(capsys, "parse", JAVA_SAMPLE)
        assert py_out.startswith("(unit ")
        assert java_out.startswith("(unit ")
        assert "(block " in py_out and "(block " in java_out

    def test_pretty_indents(self, capsys):
        _, flat, _ = run(capsys, "parse", PY_SAMPLE)
        _, pretty, _ = run(capsys, "parse", "--pretty", PY_SAMPLE)
        assert len(pretty.splitlines()) > len(flat.splitlines())
        assert "  (" in pretty

    def test_lang_flag_overrides_extension(self, tmp_path, capsys):
        src = tmp_path / "snippet.txt"
        src.write_text("def f(a):\n    return a\n")
        code, out, _ = run(capsys, "parse", "--lang", "python", str(src))
        assert code == 0 and out.startswith("(unit ")

    def test_multiple_files_one_line_each(self, capsys):
        code, out, _ = run(capsys, "parse", PY_SAMPLE, JAVA_SAMPLE)
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_sexpr_files_load_directly(self, tmp_path, capsys):
        src = tmp_path / "tree.sexpr"
        src.write_text("(unit (block (identifier)))")
        code, out, _ = run(capsys, "parse", str(src))
        assert code == 0
        assert out.strip() == "(unit (block (identifier)))"


# --- stats -------------------------------------------------------------------------

class TestStats:
    def test_json_values_on_bundled_corpus(self, capsys):
        code, out, _ = run(capsys, "stats", "--corpus", str(TOY_CORPUS),
                           "--json")
        assert code == 0
        stats = json.loads(out)
        assert stats == {"count": 32, "mean": 46.03125, "median": 36,
                         "p70": 43, "p80": 69, "p90": 90, "min": 25,
                         "max": 101}

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "stats", "--corpus", str(TOY_CORPUS))
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert lines["files"] == "32"
        assert lines["p80"] == "69"


# --- logging ---------------------------------------------------------------------

class TestLogging:
    @pytest.fixture
    def corpus_with_broken_file(self, tmp_path):
        folder = tmp_path / "corpus" / "adds" / "python"
        folder.mkdir(parents=True)
        (folder / "good.py").write_text("def add(a, b):\n    return a + b\n")
        (folder / "broken.py").write_text("def add(a, b:\n")
        return tmp_path / "corpus"

    def test_skip_warning_reaches_stderr_by_default(self, capsys,
                                                    corpus_with_broken_file):
        code, _, err = run(capsys, "stats", "--corpus",
                           str(corpus_with_broken_file))
        assert code == 0
        assert "WARNING: unparseable file skipped" in err
        assert "broken.py" in err

    def test_log_level_error_silences_it(self, capsys,
                                         corpus_with_broken_file):
        code, _, err = run(capsys, "--log-level", "error", "stats",
                           "--corpus", str(corpus_with_broken_file))
        assert code == 0
        assert "skipped" not in err

    def test_v_is_log_level_info(self):
        assert build_parser().parse_args(["-v", "parse", PY_SAMPLE]) \
            .log_level == "info"
        assert build_parser().parse_args(["parse", PY_SAMPLE]) \
            .log_level == "warning"

    def test_each_run_attaches_and_removes_one_handler(
            self, capsys, corpus_with_broken_file):
        for _ in range(2):
            code, _, err = run(capsys, "-v", "stats", "--corpus",
                               str(corpus_with_broken_file))
            assert code == 0
            assert err.count("unparseable file skipped") == 1
        assert not logging.getLogger("uastkit").handlers
        assert logging.getLogger("uastkit").level == logging.NOTSET

    def test_unknown_level_is_usage(self, capsys):
        assert run(capsys, "--log-level", "loud", "parse", PY_SAMPLE)[0] == 1


# --- featurize ----------------------------------------------------------------------

class TestFeaturize:
    def test_writes_a_loadable_feature_file(self, tmp_path, capsys):
        out_file = tmp_path / "toy.feat"
        code, out, _ = run(capsys, "featurize", "--corpus", str(TOY_CORPUS),
                           "--profile", "toy", "--L", "16", "--N", "16",
                           "--out", str(out_file))
        assert code == 0
        assert "32 records" in out
        fset = read_featurized(out_file)
        assert (fset.L, fset.N) == (16, 16)
        assert fset.labels == ("fib_recursive", "filter_count",
                               "matrix_mult", "sum_loop")
        assert fset.languages == ("java", "python")
        assert fset.unified is True
        assert len(fset.records) == 32
        assert {r.split for r in fset.records} == {"train", "val", "test"}

    def test_no_unified_vocab_keeps_raw_kinds(self, tmp_path, capsys):
        out_file = tmp_path / "raw.feat"
        code, _, _ = run(capsys, "featurize", "--corpus", str(TOY_CORPUS),
                         "--profile", "toy", "--no-unified-vocab",
                         "--out", str(out_file))
        assert code == 0
        fset = read_featurized(out_file)
        assert fset.unified is False
        assert "module" in fset.vocab.kinds
        assert "unit" not in fset.vocab.kinds


# --- configuration layering -----------------------------------------------------------

class TestConfigLayering:
    def test_profiles_exist(self):
        assert set(PROFILES) == {"jc", "leetcode", "toy"}
        assert PROFILES["jc"]["L"] == 700
        assert PROFILES["leetcode"]["L"] == 200
        assert PROFILES["toy"]["epochs"] == 50

    def test_profiles_resolve_to_their_published_settings(self):
        base = dict(L=200, N=400, d=200, heads=4, attn_dropout=0.2, h=64,
                    lstm_layers=2, lstm_dropout=0.5, gcn_layers=2,
                    gcn_hidden=200, d_out=64, gcn_activation="relu",
                    pooling="mean", learned_projections=False,
                    epochs=5, batch_size=64, lr=0.001)
        assert PROFILES["leetcode"] == base
        assert PROFILES["jc"] == {**base, "L": 700}
        assert PROFILES["toy"] == {
            **base, "L": 96, "N": 96, "d": 32, "attn_dropout": 0.0, "h": 16,
            "lstm_dropout": 0.0, "gcn_hidden": 32, "d_out": 16,
            "epochs": 50, "batch_size": 8, "lr": 0.01}

    def test_run_config_builds_the_model_config(self):
        rc = RunConfig(mode="gast", d=12, heads=3, gcn_activation="tanh",
                       pooling="sum", learned_projections=True, N=7)
        cfg = rc.model_config(vocab_size=9, k=4)
        assert (cfg.vocab_size, cfg.k, cfg.mode, cfg.d, cfg.heads, cfg.N,
                cfg.gcn_activation, cfg.pooling, cfg.learned_projections) == \
            (9, 4, "gast", 12, 3, 7, "tanh", "sum", True)
        assert cfg.L == rc.L and cfg.lstm_dropout == rc.lstm_dropout

    def test_config_file_overrides_profile(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L": 20, "N": 16}))
        out_file = tmp_path / "c.feat"
        code, _, _ = run(capsys, "featurize", "--corpus", str(TOY_CORPUS),
                         "--profile", "toy", "--config", str(cfg),
                         "--out", str(out_file))
        assert code == 0
        assert read_featurized(out_file).L == 20

    def test_explicit_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L": 20}))
        out_file = tmp_path / "c.feat"
        code, _, _ = run(capsys, "featurize", "--corpus", str(TOY_CORPUS),
                         "--profile", "toy", "--config", str(cfg),
                         "--L", "24", "--out", str(out_file))
        assert code == 0
        assert read_featurized(out_file).L == 24

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code, _, err = run(capsys, "featurize", "--corpus", str(TOY_CORPUS),
                           "--config", str(cfg), "--out",
                           str(tmp_path / "x.feat"))
        assert code == 1
        assert "learning_rate" in err

    def test_table_env_var_is_honored(self, tmp_path, capsys, monkeypatch):
        table = tmp_path / "custom.table"
        table.write_text("[python]\nmodule = shoebox\n")
        monkeypatch.setenv("UASTKIT_TABLE", str(table))
        code, out, _ = run(capsys, "parse", PY_SAMPLE)
        assert code == 0
        assert out.startswith("(shoebox ")

    def test_table_flag_beats_env_var(self, tmp_path, capsys, monkeypatch):
        env_table = tmp_path / "env.table"
        env_table.write_text("[python]\nmodule = wrong\n")
        flag_table = tmp_path / "flag.table"
        flag_table.write_text("[python]\nmodule = right\n")
        monkeypatch.setenv("UASTKIT_TABLE", str(env_table))
        code, out, _ = run(capsys, "parse", "--table", str(flag_table),
                           PY_SAMPLE)
        assert code == 0
        assert out.startswith("(right ")


# --- train / eval / predict -----------------------------------------------------------

class TestTrainEvalPredict:
    def test_train_reports_and_saves(self, tmp_path, capsys):
        code, out, _ = run(capsys, "train", "--corpus", str(TOY_CORPUS),
                           "--profile", "toy", *TINY_DIMS, "--epochs", "1",
                           "--max-steps", "3", "--quiet",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "trained mode=uast" in out
        assert "validation accuracy" in out
        assert "test:" in out
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["record"] == "run"

    def test_saved_checkpoint_carries_run_config(self, tmp_path):
        ckpt = load_checkpoint(quick_train(tmp_path))
        assert ckpt.run_config["profile"] == "toy"
        assert ckpt.run_config["max_steps"] == 3
        assert ckpt.labels == ("fib_recursive", "filter_count",
                               "matrix_mult", "sum_loop")

    def test_eval_json_rebuilds_the_split(self, tmp_path, capsys):
        ckpt = quick_train(tmp_path, capsys)
        code, out, _ = run(capsys, "eval", "--corpus", str(TOY_CORPUS),
                           "--checkpoint", str(ckpt), "--split", "test",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["header"]["split"] == "test"
        assert payload["metrics"]["total"] == 6
        assert 0.0 <= payload["metrics"]["accuracy"] <= 1.0

    def test_eval_all_uses_every_sample(self, tmp_path, capsys):
        ckpt = quick_train(tmp_path, capsys)
        code, out, _ = run(capsys, "eval", "--corpus", str(TOY_CORPUS),
                           "--checkpoint", str(ckpt), "--split", "all",
                           "--json")
        assert code == 0
        assert json.loads(out)["metrics"]["total"] == 32

    def test_eval_table_output(self, tmp_path, capsys):
        ckpt = quick_train(tmp_path, capsys)
        code, out, _ = run(capsys, "eval", "--corpus", str(TOY_CORPUS),
                           "--checkpoint", str(ckpt))
        assert code == 0
        assert "accuracy" in out
        assert "sum_loop" in out

    def test_eval_rejects_label_mismatch(self, tmp_path, capsys):
        ckpt = quick_train(tmp_path)
        other = tmp_path / "other_corpus" / "different_label" / "python"
        other.mkdir(parents=True)
        (other / "a.py").write_text("def f(a):\n    return a\n")
        code, _, err = run(capsys, "eval", "--corpus",
                           str(tmp_path / "other_corpus"),
                           "--checkpoint", str(ckpt))
        assert code == 2
        assert "label" in err

    def test_predict_text_and_json(self, tmp_path, capsys):
        ckpt = quick_train(tmp_path, capsys)
        code, out, _ = run(capsys, "predict", PY_SAMPLE,
                           "--checkpoint", str(ckpt))
        assert code == 0
        label = out.splitlines()[0].strip()
        assert label in ("fib_recursive", "filter_count", "matrix_mult",
                         "sum_loop")
        code, out, _ = run(capsys, "predict", PY_SAMPLE,
                           "--checkpoint", str(ckpt), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == label
        total = sum(payload["probabilities"].values())
        assert abs(total - 1.0) < 1e-9

    def test_determinism_across_runs(self, tmp_path):
        # same settings and out_dir; snapshot bytes between the two runs
        out = tmp_path / "run"
        quick_train(out)
        first = (out / "final.ckpt").read_bytes()
        first_history = (out / "history.jsonl").read_bytes()
        quick_train(out)
        assert (out / "final.ckpt").read_bytes() == first
        assert (out / "history.jsonl").read_bytes() == first_history


# --- sweep -----------------------------------------------------------------------------

class TestSweep:
    def test_table_over_two_settings(self, capsys, monkeypatch):
        calls = []
        unify = training.unify_ast
        monkeypatch.setattr(training, "unify_ast",
                            lambda *a: calls.append(a) or unify(*a))
        code, out, _ = run(capsys, "sweep", "--corpus", str(TOY_CORPUS),
                           "--profile", "toy", *TINY_DIMS,
                           "--epochs", "1", "--max-steps", "2",
                           "--param", "path-length", "--values", "8,12")
        assert code == 0
        lines = out.strip().splitlines()
        assert "path-length" in lines[0]
        assert len(lines) == 3
        # every tree is unified once, not once per setting
        assert len(calls) == len(ingest_corpus(TOY_CORPUS))

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "sweep", "--corpus", str(TOY_CORPUS),
                           "--profile", "toy", *TINY_DIMS,
                           "--epochs", "1", "--max-steps", "2",
                           "--param", "gcn-layers", "--values", "1,2",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["param"] == "gcn-layers"
        assert [r["value"] for r in payload["rows"]] == [1, 2]
        assert all("accuracy" in r for r in payload["rows"])

    def test_unknown_param_rejected(self, capsys):
        code, _, _ = run(capsys, "sweep", "--corpus", str(TOY_CORPUS),
                         "--param", "dropout", "--values", "1,2")
        assert code == 1


# --- datagen ----------------------------------------------------------------------------

class TestDatagen:
    def test_generates_a_parseable_corpus(self, tmp_path, capsys):
        code, out, _ = run(capsys, "datagen", "--out", str(tmp_path / "gen"),
                           "--seed", "7", "--count", "2")
        assert code == 0
        assert "12" in out
        files = sorted(p for p in (tmp_path / "gen").rglob("*")
                       if p.is_file())
        assert len(files) == 12
        code, out, _ = run(capsys, "stats", "--corpus",
                           str(tmp_path / "gen"), "--json")
        assert code == 0
        assert json.loads(out)["count"] == 12

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        for name in ("one", "two"):
            assert run(capsys, "datagen", "--out", str(tmp_path / name),
                       "--seed", "5", "--count", "1")[0] == 0
        a = sorted((tmp_path / "one").rglob("*.py"))
        b = sorted((tmp_path / "two").rglob("*.py"))
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]

    def test_count_must_be_positive(self, capsys):
        code, _, _ = run(capsys, "datagen", "--out", "/tmp/unused",
                         "--count", "0")
        assert code == 1
