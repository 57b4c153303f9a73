"""Command-line interface: every subcommand plus exit codes and layering."""

import argparse
import json
import logging
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    BAD_CHECKPOINT_HEADERS,
    MALFORMED_CHECKPOINT_HEADERS,
    TOY_CORPUS,
    rewrite_json_header,
    src_env,
)
from uastkit.cli import (
    PROFILES,
    RunConfig,
    build_parser,
    main,
    resolve_run_config,
)
from uastkit.model import ModelParams, ModelSettings
from uastkit.train_eval import (
    SUMMARY_NAMES,
    ingest_corpus,
    load_checkpoint,
    training,
)

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
            *TINY_DIMS, "--epochs", "1", "--max-steps", "3",
            "--out-dir", str(tmp_path), *extra]
    assert main(args) == 0
    if capsys is not None:
        capsys.readouterr()  # drain so later captures see only their command
    return tmp_path / "final.ckpt"


def train_refused(out_dir, *argv):
    """Run `uast train` on the toy corpus and check that it is refused
    before ingest, as one error line that exits 1 and writes nothing; a
    subprocess, so that stderr shows whether a traceback escaped main."""
    proc = subprocess.run(
        [sys.executable, "-m", "uastkit", "train", "--corpus",
         str(TOY_CORPUS), "--profile", "toy", "--out-dir", str(out_dir),
         *argv], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert not out_dir.exists()
    return proc.stderr


@pytest.fixture(scope="module")
def trained_gast(tmp_path_factory):
    """One gast-mode checkpoint, trained once for the tests that copy it."""
    return quick_train(tmp_path_factory.mktemp("gast"), None, "--mode", "gast")


# --- exit codes --------------------------------------------------------------------

class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run(capsys, "parse", PY_SAMPLE)
        assert code == 0 and out

    def test_no_subcommand_is_usage(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_flag_is_usage(self, capsys):
        assert run(capsys, "parse", "--nonsense", PY_SAMPLE)[0] == 1
        # the model has one design: these switches were removed
        for command in (["train"], ["sweep", "--param", "path-length",
                                    "--values", "8"]):
            for flag in (["--learned-projections"], ["--gcn-activation",
                                                     "relu"],
                         ["--pooling", "mean"]):
                code, _, err = run(capsys, *command, "--corpus",
                                   str(TOY_CORPUS), *flag)
                assert code == 1
                assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_removed_featurize_command_is_usage(self, tmp_path, capsys):
        # features live in memory; no command writes them to a file
        code, _, err = run(capsys, "featurize", "--corpus", str(TOY_CORPUS),
                           "--out", str(tmp_path / "x.feat"))
        assert code == 1
        assert "invalid choice: 'featurize'" in err
        assert not (tmp_path / "x.feat").exists()

    def test_bad_flag_value_is_usage(self, capsys):
        code, _, err = run(capsys, "sweep", "--corpus", str(TOY_CORPUS),
                           "--param", "path-length", "--values", ",,")
        assert code == 1
        assert "--values" in err

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-1"), ("--L", "0"), ("--N", "0"), ("--lr", "-1"),
        ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"), ("--max-steps", "0"),
        ("--max-steps", "-2")])
    def test_bad_run_setting_is_usage(self, tmp_path, flag, value):
        train_refused(tmp_path / "out", "--epochs", "1", flag, value)

    @pytest.mark.parametrize("setting,value", [
        ("L", "7"), ("lr", "0.1"), ("seed", 1.5), ("epochs", 2.5),
        ("unified", "no"), ("L", True), ("ratios", [3, 1])])
    def test_config_value_of_another_type_is_usage(self, tmp_path, setting,
                                                   value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({setting: value}))
        err = train_refused(tmp_path / "out", "--config", str(config))
        assert err.startswith(f"error: {setting} must be of type ")

    @pytest.mark.parametrize("arg,reason", [
        (["--ratios", "3,x,1"], "bad ratios '3,x,1'; expected like 3,1,1"),
        (["--ratios=-1,1,1"], "ratios must be counts >= 0")])
    def test_bad_ratios_are_usage(self, tmp_path, arg, reason):
        assert reason in train_refused(tmp_path / "out", *arg)

    @pytest.mark.parametrize("text,reason", [
        (None, "cannot read config"), ("{", "bad JSON in"),
        ("[1]", "config must be a JSON object")],
        ids=["missing", "bad_json", "list"])
    def test_unreadable_config_is_a_data_problem(self, tmp_path, capsys,
                                                 text, reason):
        config = tmp_path / "run.json"
        if text is not None:
            config.write_text(text)
        code, _, err = run(capsys, "train", "--corpus", str(TOY_CORPUS),
                           "--config", str(config),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["eval", "--corpus", str(TOY_CORPUS)],
                                         ["predict", PY_SAMPLE]],
                             ids=["eval", "predict"])
    def test_table_other_than_the_checkpoints_is_a_data_problem(
            self, trained_gast, tmp_path, capsys, command):
        table = tmp_path / "other.table"
        table.write_text("[python]\nmodule = shoebox\n")
        code, out, err = run(capsys, *command, "--checkpoint",
                             str(trained_gast), "--table", str(table))
        assert (code, out) == (2, "")
        assert err.startswith("error: the active unification table does "
                              "not match the checkpoint")

    def test_eval_of_an_empty_split_is_a_data_problem(self, tmp_path,
                                                      capsys):
        ckpt = quick_train(tmp_path, capsys, "--ratios", "1,0,1")
        code, _, err = run(capsys, "eval", "--corpus", str(TOY_CORPUS),
                           "--checkpoint", str(ckpt), "--split",
                           "validation")
        assert code == 2
        assert err == "error: split 'validation' is empty\n"

    def test_missing_file_is_a_data_problem(self, capsys):
        code, _, err = run(capsys, "parse", "/nowhere/missing.py")
        assert code == 2
        assert "error" in err

    def test_unknown_extension_is_a_data_problem(self, tmp_path, capsys):
        odd = tmp_path / "listing.txt"
        odd.write_text("x = 1\n")
        assert run(capsys, "parse", str(odd))[0] == 2

    def test_old_checkpoint_version_is_a_data_problem(self, tmp_path, capsys):
        for version in (1, 2):
            old = tmp_path / f"v{version}.ckpt"
            old.write_bytes(b"UASTCKPT" + struct.pack("<IQ", version, 0))
            for command in (["predict", PY_SAMPLE],
                            ["eval", "--corpus", str(TOY_CORPUS)]):
                code, _, err = run(capsys, *command, "--checkpoint", str(old))
                assert code == 2
                assert f"unsupported format version {version}" in err

    @pytest.mark.parametrize("name", sorted(BAD_CHECKPOINT_HEADERS))
    def test_inconsistent_checkpoint_is_a_data_problem(self, tmp_path, capsys,
                                                       name):
        change, reason = BAD_CHECKPOINT_HEADERS[name]
        ckpt = quick_train(tmp_path, capsys, "--mode", "gast")
        assert run(capsys, "predict", PY_SAMPLE, "--checkpoint",
                   str(ckpt))[0] == 0
        rewrite_json_header(ckpt, change)
        code, _, err = run(capsys, "predict", PY_SAMPLE,
                           "--checkpoint", str(ckpt))
        assert code == 2
        assert reason in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_CHECKPOINT_HEADERS))
    def test_malformed_checkpoint_is_a_data_problem(self, trained_gast,
                                                    tmp_path, capsys, name):
        change, reason = MALFORMED_CHECKPOINT_HEADERS[name]
        ckpt = tmp_path / "model.ckpt"
        shutil.copyfile(trained_gast, ckpt)
        rewrite_json_header(ckpt, change)
        code, _, err = run(capsys, "predict", PY_SAMPLE,
                           "--checkpoint", str(ckpt))
        assert code == 2
        assert reason in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_CHECKPOINT_HEADERS))
    @pytest.mark.parametrize("command", [["eval", "--corpus", str(TOY_CORPUS)],
                                         ["predict", PY_SAMPLE]],
                             ids=["eval", "predict"])
    def test_malformed_checkpoint_is_one_error_line(self, trained_gast,
                                                    tmp_path, capsys,
                                                    command, name):
        change, reason = MALFORMED_CHECKPOINT_HEADERS[name]
        ckpt = tmp_path / "model.ckpt"
        shutil.copyfile(trained_gast, ckpt)
        rewrite_json_header(ckpt, change)
        code, _, err = run(capsys, *command, "--checkpoint", str(ckpt))
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert reason in err

    def test_recorded_ratios_of_another_type_are_a_data_problem(
            self, trained_gast, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        shutil.copyfile(trained_gast, ckpt)
        rewrite_json_header(ckpt, lambda h: h["run_config"].update(
            ratios="abc"))
        proc = subprocess.run(
            [sys.executable, "-m", "uastkit", "eval", "--corpus",
             str(TOY_CORPUS), "--checkpoint", str(ckpt)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: bad split ratios 'abc'\n"

    def test_recorded_negative_seed_is_a_data_problem(self, trained_gast,
                                                      tmp_path):
        ckpt = tmp_path / "model.ckpt"
        shutil.copyfile(trained_gast, ckpt)
        rewrite_json_header(ckpt, lambda h: h.update(seed=-1))
        proc = subprocess.run(
            [sys.executable, "-m", "uastkit", "eval", "--corpus",
             str(TOY_CORPUS), "--checkpoint", str(ckpt)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 2
        assert proc.stderr == ("error: bad split seed -1; expected an "
                               "integer >= 0\n")

    def test_unknown_recorded_run_setting_still_evaluates(
            self, trained_gast, tmp_path, capsys):
        # such as mask_names, which earlier versions recorded
        argv = ["eval", "--corpus", str(TOY_CORPUS), "--json"]
        code, out, _ = run(capsys, *argv, "--checkpoint", str(trained_gast))
        assert code == 0
        ckpt = tmp_path / "model.ckpt"
        shutil.copyfile(trained_gast, ckpt)
        rewrite_json_header(ckpt, lambda h: h["run_config"].update(
            mask_names=False))
        code, changed, _ = run(capsys, *argv, "--checkpoint", str(ckpt))
        assert code == 0
        assert json.loads(changed)["metrics"] == json.loads(out)["metrics"]
        assert json.loads(changed)["header"]["run_config"]["mask_names"] \
            is False

    @pytest.mark.parametrize("command", ["stats", "train", "sweep"])
    def test_corpus_with_a_manifest_is_usage(self, tmp_path, capsys,
                                             command):
        manifest = tmp_path / "files.csv"
        manifest.write_text(f"{PY_SAMPLE},sum_loop\n")
        out = ["--out-dir", str(tmp_path / "out")]
        extra = {"stats": [], "train": out,
                 "sweep": ["--param", "path-length", "--values", "8", *out]}
        code, _, err = run(capsys, command, *extra[command], "--corpus",
                           "/nonexistent", "--manifest", str(manifest))
        assert code == 1
        assert err == ("error: pass exactly one of --corpus and "
                       "--manifest\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_manifest_row_that_cannot_be_read_is_a_data_problem(
            self, tmp_path, capsys, kind):
        target = tmp_path / "row.py"
        if kind == "directory":
            target.mkdir()
        manifest = tmp_path / "files.csv"
        manifest.write_text(f"{PY_SAMPLE},sum_loop\n{target},sum_loop\n")
        code, out, err = run(capsys, "stats", "--manifest", str(manifest))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {target}: ")
        assert err.count("\n") == 1

    def test_empty_train_split_is_a_data_problem(self, tmp_path, capsys):
        code, out, err = run(capsys, "train", "--corpus", str(TOY_CORPUS),
                             "--profile", "toy", "--ratios", "0,1,1",
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == "error: cannot fit a vocabulary: train split is empty\n"
        assert not (tmp_path / "out").exists()

    def test_module_runs_without_installation(self):
        proc = subprocess.run([sys.executable, "-m", "uastkit", "--help"],
                              capture_output=True, text=True, env=src_env())
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
        # a tree file has no language of its own: only --lang unifies it
        raw = run(capsys, "parse", "--raw", JAVA_SAMPLE)[1]
        src.write_text(raw)
        assert run(capsys, "parse", str(src)) == (0, raw, "")
        assert run(capsys, "parse", "--lang", "java", str(src)) == \
            run(capsys, "parse", JAVA_SAMPLE)


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

    def test_v_reports_the_ingest_counts(self, capsys,
                                         corpus_with_broken_file):
        code, _, err = run(capsys, "-v", "stats", "--corpus",
                           str(corpus_with_broken_file))
        assert code == 0
        assert "2 files attempted, 1 parsed, 0 duplicates skipped, " \
            "1 unparseable skipped" in err

    @staticmethod
    def step_lines(run_dir):
        """The per-step lines a run's history implies, as -v prints them."""
        lines = (run_dir / "history.jsonl").read_text().splitlines()[1:]
        step, out = 0, []
        for record in map(json.loads, lines):
            for loss in record["batch_losses"]:
                step += 1
                out.append(f"INFO: epoch {record['epoch']} step {step} "
                           f"loss {loss:.6f}")
        return out

    def test_train_step_losses_follow_the_log_level(self, tmp_path, capsys):
        argv = ["train", "--corpus", str(TOY_CORPUS), "--profile", "toy",
                *TINY_DIMS, "--epochs", "2", "--max-steps", "5",
                "--out-dir", str(tmp_path)]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        code, loud_out, loud_err = run(capsys, "-v", *argv)
        assert code == 0 and loud_out == out
        steps = [line for line in loud_err.splitlines() if " step " in line]
        assert steps == self.step_lines(tmp_path) and len(steps) == 5

    def test_sweep_logs_each_runs_steps_under_v(self, tmp_path, capsys):
        code, _, err = run(capsys, "-v", "sweep", "--corpus", str(TOY_CORPUS),
                           "--profile", "toy", *TINY_DIMS, "--epochs", "1",
                           "--max-steps", "2", "--param", "path-length",
                           "--values", "8,12", "--out-dir", str(tmp_path))
        assert code == 0
        steps = [line for line in err.splitlines() if " step " in line]
        assert steps == [line for value in (8, 12) for line in
                         self.step_lines(tmp_path / f"path-length-{value}")]
        assert len(steps) == 4

    @pytest.mark.parametrize("level, expected", [
        ("warning", "WARNING: {}:1: SyntaxWarning: invalid decimal literal\n"),
        ("error", "")])
    def test_syntax_warnings_follow_the_log_level(self, tmp_path, level,
                                                  expected):
        # a fresh interpreter, so no warnings filter of the test run applies
        source = tmp_path / "warns.py"
        source.write_text("x = 1if y else 2\n")
        proc = subprocess.run([sys.executable, "-m", "uastkit", "--log-level",
                               level, "parse", str(source)],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0 and proc.stdout.startswith("(unit")
        assert proc.stderr == expected.format(source)


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
                    gcn_hidden=200, d_out=64, epochs=5, batch_size=64,
                    lr=0.001)
        assert PROFILES["leetcode"] == base
        assert PROFILES["jc"] == {**base, "L": 700}
        assert PROFILES["toy"] == {
            **base, "L": 96, "N": 96, "d": 32, "attn_dropout": 0.0, "h": 16,
            "lstm_dropout": 0.0, "gcn_hidden": 32, "d_out": 16,
            "epochs": 50, "batch_size": 8, "lr": 0.01}

    def test_leetcode_is_the_run_config_defaults(self):
        # the profiles take their base from RunConfig's field defaults
        defaults = RunConfig()
        for name, value in PROFILES["leetcode"].items():
            want = getattr(defaults, name)
            assert (value, type(value)) == (want, type(want)), name

    def test_run_config_builds_the_model_config(self):
        rc = RunConfig(mode="gast", d=12, heads=3, gcn_layers=3, N=7)
        cfg = rc.model_config(vocab_size=9, k=4)
        assert (cfg.vocab_size, cfg.k, cfg.mode, cfg.d, cfg.heads, cfg.N,
                cfg.gcn_layers) == (9, 4, "gast", 12, 3, 7, 3)
        assert cfg.L == rc.L and cfg.lstm_dropout == rc.lstm_dropout

    def test_every_model_setting_has_profile_values_and_a_train_flag(self):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a for a in commands.choices["train"]._actions}
        for f in fields(ModelSettings):
            # a profile serves every mode; --mode picks one per run
            assert f.name == "mode" or \
                all(f.name in profile for profile in PROFILES.values())
            action = flags[f.name]
            if action.nargs == 0:
                value, argv = action.const, [action.option_strings[0]]
            else:
                # a valid value: d stays divisible by heads, rates below 1
                value = next(c for c in action.choices if c != f.default) \
                    if action.choices else f.default * 2 \
                    if isinstance(f.default, int) else f.default / 2
                argv = [action.option_strings[0], str(value)]
            rc = resolve_run_config(parser.parse_args(["train", *argv]))
            assert getattr(rc, f.name) == value != f.default, f.name

    def test_config_file_overrides_profile(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L": 20, "N": 16}))
        rc = resolve_run_config(build_parser().parse_args(
            ["train", "--profile", "toy", "--config", str(cfg)]))
        assert (rc.L, rc.N, rc.d) == (20, 16, PROFILES["toy"]["d"])

    def test_explicit_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L": 20}))
        rc = resolve_run_config(build_parser().parse_args(
            ["train", "--profile", "toy", "--config", str(cfg), "--L", "24"]))
        assert rc.L == 24

    def test_unknown_config_keys_rejected(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr("uastkit.cli.ingest_corpus", None)
        cfg = tmp_path / "run.json"
        # the last three are the removed model switches, at their old
        # defaults
        for key, value in (("learning_rate", 0.1), ("mask_names", ["add"]),
                           ("learned_projections", False),
                           ("gcn_activation", "relu"), ("pooling", "mean")):
            cfg.write_text(json.dumps({key: value}))
            code, _, err = run(capsys, "train", "--corpus", str(TOY_CORPUS),
                               "--config", str(cfg))
            assert code == 1
            assert f"unknown keys ['{key}']" in err

    def test_config_file_names_the_profile(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"profile": "toy"}))
        ckpt = load_checkpoint(quick_train(tmp_path, capsys, "--config",
                                           str(cfg)))
        toy = PROFILES["toy"]
        assert ckpt.run_config["profile"] == "toy"
        assert (ckpt.run_config["batch_size"], ckpt.run_config["lr"]) == \
            (toy["batch_size"], toy["lr"])
        assert (ckpt.config.attn_dropout, ckpt.config.lstm_dropout) == \
            (toy["attn_dropout"], toy["lstm_dropout"])
        # --profile wins over the file, and its values come with it
        for profile in ("jc", "leetcode"):
            rc = resolve_run_config(build_parser().parse_args(
                ["train", "--config", str(cfg), "--profile", profile]))
            assert rc == RunConfig(**PROFILES[profile], profile=profile)
        rc = resolve_run_config(build_parser().parse_args(
            ["train", "--config", str(cfg)]))
        assert rc == RunConfig(**toy, profile="toy")

    def test_unknown_profile_in_config_file_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"profile": ["toy"]}))
        code, _, err = run(capsys, "train", "--corpus", str(TOY_CORPUS),
                           "--config", str(cfg))
        assert code == 1
        assert err == ("error: unknown profile ['toy']; "
                       "choose from ['jc', 'leetcode', 'toy']\n")

    @pytest.mark.parametrize("values", [
        {"lr": 1, "attn_dropout": 0, "lstm_dropout": 0},
        {"max_steps": None, "corpus": None, "ratios": "2,1,1"},
        {"ratios": [2, 1, 1], "unified": False}])
    def test_values_of_their_setting_type_resolve_as_given(self, tmp_path,
                                                           values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        rc = resolve_run_config(build_parser().parse_args(
            ["train", "--config", str(cfg)]))
        for name, value in values.items():
            expected = (2, 1, 1) if name == "ratios" else value
            assert getattr(rc, name) == expected
            assert type(getattr(rc, name)) is type(expected)

    def test_table_env_var_is_honored(self, tmp_path, capsys, monkeypatch):
        table = tmp_path / "custom.table"
        table.write_text("[python]\nmodule = shoebox\n")
        monkeypatch.setenv("UASTKIT_TABLE", str(table))
        code, out, _ = run(capsys, "parse", PY_SAMPLE)
        assert code == 0
        assert out.startswith("(shoebox ")

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_table_that_is_not_utf8_is_a_data_problem(
            self, tmp_path, capsys, monkeypatch, source):
        table = tmp_path / "latin1.table"
        table.write_bytes("[python]\nmodule = caf\u00e9\n".encode("latin-1"))
        argv = ["parse", PY_SAMPLE]
        if source == "flag":
            argv[1:1] = ["--table", str(table)]
        else:
            monkeypatch.setenv("UASTKIT_TABLE", str(table))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "latin1.table" in err and "utf-8" in err

    def test_manifest_that_is_not_utf8_is_a_data_problem(self, tmp_path,
                                                          capsys):
        manifest = tmp_path / "files.csv"
        manifest.write_bytes("caf\u00e9.py,addition\n".encode("latin-1"))
        code, _, err = run(capsys, "stats", "--manifest", str(manifest))
        assert code == 2
        assert err.startswith("error: cannot read manifest")
        assert err.count("\n") == 1

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
                           "--max-steps", "3",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "trained mode=uast" in out
        assert "validation accuracy" in out
        assert "test:" in out
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["record"] == "run"

    def test_train_reports_the_epoch_best_ckpt_holds(self, tmp_path,
                                                     capsys):
        code, out, _ = run(capsys, "train", "--corpus", str(TOY_CORPUS),
                           "--profile", "toy", *TINY_DIMS, "--epochs", "4",
                           "--out-dir", str(tmp_path))
        assert code == 0
        best = load_checkpoint(tmp_path / "best.ckpt")
        assert (f"(best {best.val_metrics['accuracy']:.4f} "
                f"at epoch {best.epoch})") in out

    def test_no_unified_vocab_keeps_raw_kinds(self, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--corpus", str(TOY_CORPUS),
                         "--profile", "toy", *TINY_DIMS, "--max-steps", "1",
                         "--no-unified-vocab",
                         "--out-dir", str(tmp_path))
        assert code == 0
        ckpt = load_checkpoint(tmp_path / "final.ckpt")
        assert ckpt.unified is False
        assert "module" in ckpt.vocab.kinds
        assert "unit" not in ckpt.vocab.kinds

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

    @pytest.mark.parametrize("mode", ["uast", "sast"])
    def test_untaped_eval_and_predict_keep_their_bytes(self, mode, tmp_path,
                                                       capsys, monkeypatch):
        # eval and predict score on parameters detached from the tape, and
        # predict's one path takes the BiLSTM's row path: their output is
        # the taped pass's, byte for byte
        ckpt = str(quick_train(tmp_path, capsys, "--mode", mode,
                               "--lstm-layers", "2"))
        commands = [
            ["eval", "--corpus", str(TOY_CORPUS), "--checkpoint", ckpt,
             "--split", "all", "--json"],
            ["predict", PY_SAMPLE, "--checkpoint", ckpt, "--json"],
            ["predict", JAVA_SAMPLE, "--checkpoint", ckpt, "--json"]]
        untaped = [run(capsys, *argv) for argv in commands]
        monkeypatch.setattr(ModelParams, "detached", lambda params: params)
        assert [run(capsys, *argv) for argv in commands] == untaped
        assert all(code == 0 for code, _, _ in untaped)

    def test_predict_sexpr_unifies_only_a_declared_language(
            self, trained_gast, tmp_path, capsys):
        # a tree file declares no language: with --lang its kinds are
        # unified, without it they are read as they stand
        ckpt = ["--checkpoint", str(trained_gast), "--json"]
        code, expected, _ = run(capsys, "predict", PY_SAMPLE, *ckpt)
        assert code == 0
        trees = {}
        for name, flags in (("raw", ["--raw"]), ("unified", [])):
            trees[name] = tmp_path / f"{name}.sexpr"
            trees[name].write_text(run(capsys, "parse", *flags, PY_SAMPLE)[1])
        assert run(capsys, "predict", str(trees["raw"]), "--lang", "python",
                   *ckpt) == (0, expected, "")
        assert run(capsys, "predict", str(trees["unified"]), *ckpt) == \
            (0, expected, "")
        code, out, _ = run(capsys, "predict", str(trees["raw"]), *ckpt)
        assert code == 0 and out != expected

    def test_predict_warnings_name_the_file(self, tmp_path):
        # a fresh interpreter, so no warnings filter of the test run applies
        ckpt = quick_train(tmp_path / "run")
        source = tmp_path / "warns.py"
        source.write_text("x = 1if y else 2\n")
        proc = subprocess.run([sys.executable, "-m", "uastkit", "predict",
                               str(source), "--checkpoint", str(ckpt)],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0
        assert proc.stderr == \
            f"WARNING: {source}:1: SyntaxWarning: invalid decimal literal\n"

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

    def test_each_path_length_trains_as_train_at_that_length(self, tmp_path,
                                                             capsys):
        # the sweep cuts paths featurized once at its longest length
        common = ["--corpus", str(TOY_CORPUS), "--profile", "toy", *TINY_DIMS,
                  "--epochs", "2", "--max-steps", "4"]
        assert run(capsys, "sweep", *common, "--param", "path-length",
                   "--values", "40,8", "--out-dir", str(tmp_path))[0] == 0
        for value in (40, 8):
            swept = tmp_path / f"path-length-{value}"
            alone = tmp_path / f"train-{value}"
            assert run(capsys, "train", *common, "--L", str(value),
                       "--out-dir", str(alone))[0] == 0
            a, b = (load_checkpoint(d / "final.ckpt") for d in (swept, alone))
            assert a.config == b.config and a.config.L == value
            for (name, x), (_, y) in zip(a.params.manifest(),
                                         b.params.manifest()):
                assert np.array_equal(x.data, y.data), name
            epochs = [(d / "history.jsonl").read_text().splitlines()[1:]
                      for d in (swept, alone)]
            assert epochs[0] == epochs[1] and len(epochs[0]) == 2

    def test_each_run_records_its_own_directory(self, tmp_path, capsys):
        assert run(capsys, "sweep", "--corpus", str(TOY_CORPUS), "--profile",
                   "toy", *TINY_DIMS, "--epochs", "1", "--max-steps", "2",
                   "--param", "path-length", "--values", "8,12",
                   "--out-dir", str(tmp_path))[0] == 0
        swept = tmp_path / "path-length-8"
        header = json.loads(
            (swept / "history.jsonl").read_text().splitlines()[0])
        for run_config in (load_checkpoint(swept / "final.ckpt").run_config,
                           header["run_config"]):
            assert run_config["out_dir"] == str(swept)
            assert run_config["L"] == 8

    def test_bad_value_is_refused_before_ingest(self, capsys, monkeypatch):
        monkeypatch.setattr("uastkit.cli.ingest_corpus", None)
        for param, field in (("path-length", "L"),
                             ("gcn-layers", "gcn_layers")):
            code, _, err = run(capsys, "sweep", "--corpus", str(TOY_CORPUS),
                               "--param", param, "--values", "8,0")
            assert code == 1
            assert err == f"error: {field} must be >= 1, got 0\n"
        # a repeated value would train twice and overwrite its directory
        code, _, err = run(capsys, "sweep", "--corpus", str(TOY_CORPUS),
                           "--param", "path-length", "--values", "8,12,8")
        assert code == 1
        assert err == "error: --values repeats a setting: '8,12,8'\n"
        code, _, err = run(capsys, "sweep", "--corpus", str(TOY_CORPUS),
                           "--param", "path-length", "--values", "8,x")
        assert code == 1
        assert err == "error: bad --values '8,x'; expected integers\n"

    def test_json_output(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sweep", "--corpus", str(TOY_CORPUS),
                           "--profile", "toy", *TINY_DIMS,
                           "--epochs", "1", "--max-steps", "2",
                           "--param", "gcn-layers", "--values", "1,2",
                           "--json", "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["param"] == "gcn-layers"
        assert [r["value"] for r in payload["rows"]] == [1, 2]
        # each row is the value and the summary of eval's test report
        for row in payload["rows"]:
            ckpt = tmp_path / f"gcn-layers-{row['value']}" / "final.ckpt"
            metrics = json.loads(run(capsys, "eval", "--corpus",
                                     str(TOY_CORPUS), "--checkpoint",
                                     str(ckpt), "--json")[1])["metrics"]
            assert row == {"value": row["value"],
                           **{name: metrics[name] for name in SUMMARY_NAMES}}

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

    def test_negative_seed_is_refused_before_writing(self, tmp_path,
                                                     capsys):
        out = tmp_path / "gen"
        code, _, err = run(capsys, "datagen", "--out", str(out),
                           "--seed", "-1", "--count", "1")
        assert code == 1
        assert err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_count_must_be_positive(self, capsys):
        code, _, _ = run(capsys, "datagen", "--out", "/tmp/unused",
                         "--count", "0")
        assert code == 1


# --- documentation -----------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(text, heading):
    """The text under a `## heading`, its `###` subsections included."""
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def parser_options(parser):
    """Every option string of parser and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= parser_options(sub)
    return options


class TestReadme:
    def test_one_section_per_command_in_the_parsers_order(self):
        # a command added or removed cannot leave the docs behind
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        headings = re.findall(r"^### `uast (\w+)",
                              README.read_text(encoding="utf-8"), re.M)
        assert headings == list(commands.choices) == [
            "parse", "stats", "train", "eval", "predict", "sweep", "datagen"]

    @pytest.mark.parametrize("heading", ["Commands", "Corpus layout",
                                         "Configuration layering"])
    def test_every_documented_flag_exists(self, heading):
        section = readme_section(README.read_text(encoding="utf-8"), heading)
        named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
        assert named, heading
        assert named <= parser_options(build_parser()), \
            sorted(named - parser_options(build_parser()))
