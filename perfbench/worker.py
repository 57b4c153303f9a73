"""One workload in its own process; started by run.py, which pins the env.

Writes one JSON result file and prints nothing on stdout.  The input files
are written once, untimed; set-up is timed several times and reported as
its median; the timed loop is a closed loop
with one caller, run for --seconds after warm-up.  End-to-end metrics are
process CPU time scaled by a reference measured in the same run (see
README.md); raw and wall-clock times go in the report.  A traced run alternates
traced and untraced operations in that loop, to measure the tracing
overhead, then runs the layer probe.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import inputs
import layers
from tracer import NULL, Tracer
from uastkit import datagen
from uastkit.ast_frontend import load_default_table, node_count, parse_source
from uastkit.cli import PROFILES
from uastkit.errors import UastError
from uastkit.train_eval import (
    Checkpoint,
    build_features,
    ingest_corpus,
    load_checkpoint,
    predict_one,
    prepare,
    save_checkpoint,
    split_dataset,
)
from uastkit.model import init_params
from uastkit.optim import adam_init

SETUP_REPEATS = 3
LEETCODE = PROFILES["leetcode"]
BATCH = LEETCODE["batch_size"]
DROPOUT_STREAM = 2         # the stream ids uastkit's train() uses
BATCH_ORDER_STREAM = 3
PREDICT_PROBE_SAMPLES = 8  # B=1 batches the predict probe times
INGEST_PROBE_STRIDE = 10   # every 10th ingested file feeds the probe
MAX_FAILURE_MESSAGES = 20
# The reference work is fixed and independent of uastkit.  Its CPU time
# says how fast this core runs at the moment, and end-to-end times are
# scaled to the speed at which it takes REF_NOMINAL_S (see README.md).
REF_NOMINAL_S = 0.075
REF_EVERY_S = 2.0         # how often the timed loop samples it


class Reference:
    """Fixed work that does not involve uastkit: BLAS matmuls and a dict loop.

    Its arrays are made once and small (80 KB), and the matmuls write into
    a buffer, so sampling it allocates nothing that could change how the
    allocator serves the program.
    """

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((100, 100))
        self.out = np.empty_like(self.a)

    def cpu_s(self) -> float:
        c0 = time.process_time()
        for _ in range(1000):
            np.matmul(self.a, self.a, out=self.out)
        counts: dict[int, int] = {}
        for i in range(100_000):
            counts[i % 1000] = counts.get(i % 1000, 0) + i
        return time.process_time() - c0


def _ingest(tr, root: Path, seed: int):
    with tr.span("corpus.ingest"):
        samples = ingest_corpus(root)
    with tr.span("corpus.split"):
        splits = split_dataset(samples, seed)
    if tr.enabled:
        attempted = len(inputs.corpus_files(root))
        tr.count("corpus.files_attempted", attempted)
        tr.count("corpus.files_parsed", len(samples))
        tr.count("corpus.files_skipped", attempted - len(samples))
    return samples, splits


def _featurize(tr, splits, table):
    with tr.span("featurizer.build_features"):
        return build_features(splits, table, True, LEETCODE["L"],
                               LEETCODE["N"])


def check_ingest(samples, root: Path) -> list[str]:
    """Ingest returned each expected content once, featurized within L/N."""
    expected, _ = inputs.expected_ingest(root)
    got = [inputs.sha256(Path(s.source_path)) for s in samples]
    problems = []
    if len(got) != len(set(got)):
        problems.append(f"{len(got) - len(set(got))} duplicate files kept")
    if set(got) != expected:
        problems.append(f"{len(expected - set(got))} files missing, "
                        f"{len(set(got) - expected)} unexpected")
    L, N = LEETCODE["L"], LEETCODE["N"]
    bad = [s.source_path for s in samples
           if not (1 <= s.path_seq.true_length <= L
                   and 1 <= s.graph.node_count <= N)]
    if bad:
        problems.append(f"{len(bad)} samples outside L={L}/N={N}: {bad[0]}")
    return problems


def _files_of(samples) -> list[tuple[str, str]]:
    return [(Path(s.source_path).read_text(encoding="utf-8"), s.language)
            for s in samples]


class Train:
    """Closed loop of B=64 Adam steps on the 360-file datagen corpus."""
    warmup = 2
    items_per_op = BATCH

    def __init__(self, mode: str, seed: int, work: Path):
        self.mode, self.seed, self.work = mode, seed, work
        self.root = work / "corpus"

    def make_inputs(self) -> None:
        datagen.generate_corpus(self.root, seed=self.seed)

    def setup(self, tr) -> None:
        self.table = load_default_table()
        self.samples, self.splits = _ingest(tr, self.root, self.seed)
        self.vocab = _featurize(tr, self.splits, self.table)
        self.labels = sorted({s.label for s in self.samples})
        self.cfg = layers.model_config(LEETCODE, self.vocab.size,
                                       len(self.labels), self.mode)
        with tr.span("model.prepare"):
            self.prepped, self.y = prepare(self.splits["train"], self.cfg)
        with tr.span("model.init"):
            self.params = init_params(self.cfg, self.seed)
            self.opt = adam_init(self.params.parameters(),
                                 lr=LEETCODE["lr"])
        self.order_rng = np.random.default_rng([self.seed,
                                                BATCH_ORDER_STREAM])
        self.dropout_rng = np.random.default_rng([self.seed, DROPOUT_STREAM])
        self.queue: list[np.ndarray] = []
        self.first_batch: np.ndarray | None = None

    def check_inputs(self) -> list[str]:
        return check_ingest(self.samples, self.root)

    def op(self, tr) -> float:
        if not self.queue:  # a new epoch; full batches only
            order = self.order_rng.permutation(len(self.prepped))
            self.queue = [order[at:at + BATCH]
                          for at in range(0, len(order) - BATCH + 1, BATCH)]
        sel = self.queue.pop(0)
        if self.first_batch is None:
            self.first_batch = sel
        return layers.train_step(tr, [self.prepped[i] for i in sel],
                                 self.y[sel], self.params, self.opt, self.cfg,
                                 self.dropout_rng)

    def check(self, loss: float) -> list[str]:
        return [] if math.isfinite(loss) else [f"loss {loss} is not finite"]

    def layer_inputs(self) -> layers.LayerInputs:
        train = self.splits["train"]
        return layers.LayerInputs(
            cfg=self.cfg, table=self.table, vocab=self.vocab,
            labels=self.labels,
            languages=sorted({s.language for s in self.samples}),
            train=train, batches=[[train[i] for i in self.first_batch]],
            training=True, files=_files_of(self.samples))

    def report(self, times: list[float]) -> dict:
        return {"train_samples_per_s": [BATCH * len(times) / sum(times),
                                        "1/s"],
                "step_s_p50": [statistics.median(times), "s"]}


class Predict:
    """One caller, predict_one on one file at a time, B=1, eval mode."""
    warmup = 3
    items_per_op = 1

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.root = work / "corpus"

    def make_inputs(self) -> None:
        datagen.generate_corpus(self.root, seed=self.seed)

    def setup(self, tr) -> None:
        self.table = load_default_table()
        self.samples, self.splits = _ingest(tr, self.root, self.seed)
        self.vocab = _featurize(tr, self.splits, self.table)
        labels = sorted({s.label for s in self.samples})
        cfg = layers.model_config(LEETCODE, self.vocab.size, len(labels),
                                  "uast")
        path = self.work / "model.ckpt"
        with tr.span("model.init"):
            params = init_params(cfg, self.seed)
        save_checkpoint(Checkpoint(
            config=cfg, params=params, vocab=self.vocab, labels=labels,
            languages=sorted({s.language for s in self.samples}),
            table_hash=self.table.table_hash, unified=True, seed=self.seed),
            path)
        with tr.span("checkpoint.load"):
            self.ckpt = load_checkpoint(path)
        heldout = [(s.source_path, s.language) for s in self.splits["test"]]
        self.stream = inputs.predict_stream(self.root, heldout,
                                            layers.TOY_ROOT, self.seed)
        self.at = 0

    def check_inputs(self) -> list[str]:
        problems = check_ingest(self.samples, self.root)
        N = self.ckpt.config.N
        for name, text, language in self.stream:
            if name.startswith("long_") and \
                    node_count(parse_source(text, language)) <= N:
                problems.append(f"{name} does not reach past N={N}")
        return problems

    def op(self, tr):
        _, text, language = self.stream[self.at % len(self.stream)]
        self.at += 1
        with tr.span("predict.call"):
            return predict_one(self.ckpt, text, language, self.table)

    def check(self, out) -> list[str]:
        label, row = out
        labels = self.ckpt.labels
        if row.shape != (len(labels),) or not np.isfinite(row).all():
            return [f"probability row {row!r} is not finite of length "
                    f"{len(labels)}"]
        problems = []
        if abs(float(row.sum()) - 1.0) > 1e-9:
            problems.append(f"probabilities sum to {row.sum()!r}")
        if label != labels[int(row.argmax())]:
            problems.append(f"label {label!r} is not the argmax label")
        return problems

    def layer_inputs(self) -> layers.LayerInputs:
        test = self.splits["test"]
        step = max(1, len(test) // PREDICT_PROBE_SAMPLES)
        return layers.LayerInputs(
            cfg=self.ckpt.config, table=self.table, vocab=self.vocab,
            labels=list(self.ckpt.labels),
            languages=list(self.ckpt.languages), train=self.splits["train"],
            batches=[[s] for s in test[::step][:PREDICT_PROBE_SAMPLES]],
            training=False,
            files=[(text, lang) for _, text, lang in self.stream])

    def report(self, times: list[float]) -> dict:
        ms = sorted(1000.0 * t for t in times)
        out = {"predict_ms_p50": [statistics.median(ms), "ms"],
               "predict_calls": [len(ms), "count"]}
        if len(ms) >= 100:  # nearest rank, with at least 10 calls beyond
            out["predict_ms_p90"] = [ms[math.ceil(0.9 * len(ms)) - 1], "ms"]
        refused = crashed = 0
        for name, text in inputs.HOSTILE_JAVA.items():
            try:
                predict_one(self.ckpt, text, "java", self.table)
            except UastError:
                refused += 1
            except Exception as exc:  # the crash is what this probe counts
                crashed += 1
                print(f"hostile input {name}: {type(exc).__name__}",
                      file=sys.stderr)
        out["hostile_refused"] = [refused, "count"]
        out["hostile_crashed"] = [crashed, "count"]
        out["hostile_error_rate"] = [crashed / len(inputs.HOSTILE_JAVA), "1"]
        return out


class Ingest:
    """ingest_corpus + split_dataset + build_features, no model."""
    warmup = 0

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.root = work / "corpus"

    def make_inputs(self) -> None:
        datagen.generate_corpus(self.root, seed=self.seed,
                                per_pair=inputs.INGEST_PER_PAIR)
        self.planted = inputs.plant_ingest_extras(self.root, self.seed)
        self.items_per_op = len(inputs.corpus_files(self.root))

    def setup(self, tr) -> None:
        self.table = load_default_table()

    def check_inputs(self) -> list[str]:
        return []

    def op(self, tr):
        self.samples, self.splits = _ingest(tr, self.root, self.seed)
        self.vocab = _featurize(tr, self.splits, self.table)
        return self.samples

    def check(self, samples) -> list[str]:
        return check_ingest(samples, self.root)

    def layer_inputs(self) -> layers.LayerInputs:
        train = self.splits["train"]
        labels = sorted({s.label for s in self.samples})
        order = np.random.default_rng([self.seed, BATCH_ORDER_STREAM]) \
            .permutation(len(train))[:BATCH]
        return layers.LayerInputs(
            cfg=layers.model_config(LEETCODE, self.vocab.size, len(labels),
                                    "uast"),
            table=self.table, vocab=self.vocab, labels=labels,
            languages=sorted({s.language for s in self.samples}),
            train=train, batches=[[train[i] for i in order]], training=True,
            files=_files_of(self.samples[::INGEST_PROBE_STRIDE]))

    def report(self, times: list[float]) -> dict:
        _, skipped = inputs.expected_ingest(self.root)
        return {"ingest_files_per_s": [self.items_per_op * len(times)
                                       / sum(times), "1/s"],
                "files_on_disk": [self.items_per_op, "count"],
                "planted_copies": [self.planted[0], "count"],
                "planted_broken": [self.planted[1], "count"],
                "expected_skipped": [skipped, "count"]}


WORKLOADS = {
    "train-uast": lambda seed, work: Train("uast", seed, work),
    "train-gast": lambda seed, work: Train("gast", seed, work),
    "predict": Predict,
    "ingest": Ingest,
}


class WarningCounter(logging.Handler):
    """Counts uastkit's log records instead of printing them.

    uastkit configures no handler, so its skip warnings would otherwise go
    to stderr line by line, and the cost of that would depend on where
    stderr goes.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


class Gates:
    """Counts operations and the ones whose outputs failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, fn, *args) -> None:
        """Run one operation and its check; an exception fails it."""
        try:
            problems = fn(*args)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_FAILURE_MESSAGES - len(self.messages)
            self.messages.extend(problems[:max(0, room)])


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run(name: str, seed: int, seconds: float, traced: bool, work: Path,
        import_cpu_s: float, trace_path: Path) -> dict:
    tracer = Tracer() if traced else NULL
    warnings = WarningCounter()
    logging.getLogger("uastkit").addHandler(warnings)
    wl = WORKLOADS[name](seed, work)
    gates = Gates()

    wl.make_inputs()
    reference, refs = Reference(), []
    setup_wall, setup_cpu = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference.cpu_s())
        tracer.begin_op()
        c0, t0 = time.process_time(), time.perf_counter()
        wl.setup(tracer)
        setup_cpu.append(time.process_time() - c0)
        setup_wall.append(time.perf_counter() - t0)
    gates.run(wl.check_inputs)

    for _ in range(wl.warmup):
        gates.run(lambda: wl.check(wl.op(NULL)))

    times = {False: ([], []), True: ([], [])}  # traced? -> (wall, cpu)

    def timed_op(tr) -> list[str]:
        tr.begin_op()
        c0, t0 = time.process_time(), time.perf_counter()
        out = wl.op(tr)
        wall, cpu = times[tr.enabled]
        wall.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        return wl.check(out)

    deadline = time.perf_counter() + seconds
    next_ref = 0.0
    i = 0
    while time.perf_counter() < deadline or not times[False][0] or \
            (traced and not times[True][0]):
        if time.perf_counter() >= next_ref:
            refs.append(reference.cpu_s())
            next_ref = time.perf_counter() + REF_EVERY_S
        gates.run(timed_op, tracer if i % 2 == 0 else NULL)
        i += 1
    refs.append(reference.cpu_s())
    scale = REF_NOMINAL_S / statistics.median(refs)

    wall, cpu = times[False]
    result = {"workload": name, "seed": seed, "trace": int(traced),
              "environment": environment(), "setup_repeats": SETUP_REPEATS,
              "operations_timed": len(wall) + len(times[True][0]),
              "seconds": {"import_cpu": import_cpu_s,
                          "setup_wall": setup_wall, "setup_cpu": setup_cpu,
                          "op_wall": wall, "op_cpu": cpu,
                          "traced_op_wall": times[True][0],
                          "traced_op_cpu": times[True][1],
                          "reference_cpu": refs}}
    if traced:
        layers.probe(tracer, wl.layer_inputs(), seed, work)
        metrics = layers.per_layer_metrics(tracer)
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(times[True][1])
                     / statistics.median(cpu) - 1.0), "%")
        tracer.write(trace_path)
        result["report"] = {}
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (scale * (import_cpu_s + statistics.median(setup_cpu)),
                        "s"),
            "op_ms_p50": (scale * 1000.0 * statistics.median(cpu), "ms"),
            "items_per_s": (wl.items_per_op * len(cpu) / (scale * sum(cpu)),
                            "1/s"),
            "peak_rss_mb": (peak_mib, "MiB"),
        }
        result["report"] = {
            "reference_cpu_s": [statistics.median(refs), "s"],
            "op_cpu_ms_p50": [1000.0 * statistics.median(cpu), "ms"],
            "setup_wall_s": [statistics.median(setup_wall), "s"],
            **wl.report(wall)}
    result["report"]["error_rate"] = [gates.failed / gates.attempted, "1"]
    result["report"]["warnings_logged"] = [warnings.count, "count"]
    result.update(correct=gates.failed == 0, attempted=gates.attempted,
                  failed=gates.failed, failures=gates.messages,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    import_cpu_s = time.process_time()  # interpreter start and imports
    args = ap.parse_args(argv)

    work = args.out.parent / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     work, import_cpu_s, args.out.with_suffix(".trace.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
