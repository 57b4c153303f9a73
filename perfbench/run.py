"""uastkit benchmark: one command for every workload, with correctness gates.

    python3 perfbench/run.py --workload {train-uast,train-gast,predict,ingest,all}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports uastkit from src/.
Each workload runs in its own process (worker.py), one after another, with
the BLAS thread count pinned.  --trace 0 prints the end-to-end metrics;
--trace 1 prints the per-layer metrics and the tracing overhead instead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 1 if any output failed a check, 2 if the
checkout or a worker is broken.  Results and span files are kept under
.perfbench/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train-uast", "train-gast", "predict", "ingest")
# One thread: the same on every machine (<= nproc), and a uast step moved
# by ~20% between one and two threads on a 2-core machine.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 175
OUT_DIR = Path(".perfbench")
HERE = Path(__file__).resolve().parent

# ROADMAP "Baseline" rows: (row, roadmap value, metric(s) of the train-uast
# traced run or of any traced run for toy rows, how to print them).
BASELINE_ROWS = [
    ("ingest / featurize, 360 files", "0.20 s / 0.12 s",
     lambda m: f"{m['corpus.ingest_s']:.2f} s / "
               f"{m['featurizer.featurize_ms_per_file'] * 360 / 1000:.2f} s"),
    ("toy B=8 fwd+bwd: uast / sast / gast", "262 / 257 / 5 ms",
     lambda m: f"{m['toy.uast_fwd_bwd_ms']:.0f} / "
               f"{m['toy.sast_fwd_bwd_ms']:.0f} / "
               f"{m['toy.gast_fwd_bwd_ms']:.0f} ms"),
    ("leetcode B=64 fwd+bwd: sast / gast", "2.24 s / 0.57 s",
     lambda m: f"{(m['model.seq.fwd_ms'] + m['model.seq.bwd_ms']) / 1000:.2f}"
               f" s / {(m['model.graph.fwd_ms'] + m['model.graph.bwd_ms']) / 1000:.2f} s"),
    ("leetcode B=64 attention fwd / fwd+bwd", "795 / 1351 ms",
     lambda m: f"{m['model.seq.attention_fwd_ms']:.0f} / "
               f"{m['model.seq.attention_fwd_ms'] + m['model.seq.attention_bwd_ms']:.0f} ms"),
    ("leetcode B=64 BiLSTM fwd / fwd+bwd", "464 / 968 ms",
     lambda m: f"{m['model.seq.bilstm_fwd_ms']:.0f} / "
               f"{m['model.seq.bilstm_fwd_ms'] + m['model.seq.bilstm_bwd_ms']:.0f} ms"
               " (derived)"),
    ("leetcode B=64 GCN fwd / fwd+bwd", "140 / 479 ms",
     lambda m: f"{m['model.graph.fwd_ms']:.0f} / "
               f"{m['model.graph.fwd_ms'] + m['model.graph.bwd_ms']:.0f} ms"
               " (gast pass, head included)"),
    ("prepared dense adjacency per sample", "194 KB, <= 1.28 MB",
     lambda m: f"{m['model.prepared_mb'] * 2 ** 20 / 216 / 1e6:.2f} MB "
               "(array bytes; every sample is N x N)"),
]
NOT_REPRODUCED = [
    ("acceptance: toy memorization / generated corpus / grad check",
     "pytest wall times; the benchmark does not run the test suite"),
    ("adjacency '194 KB measured'",
     "its method is not recorded; the dense array is 1.28 MB at N=400"),
]


def source_digest(root: Path) -> str:
    """sha256 over every file under src/, so a result names its code."""
    h = hashlib.sha256()
    for f in sorted(p for p in (root / "src").rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_worker(workload: str, args: argparse.Namespace) -> dict | None:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   ["src"] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
               **{var: str(BLAS_THREADS) for var in (
                   "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    try:
        done = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"{workload}: worker timed out after {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if done.returncode != 0 or not out.is_file():
        print(f"{workload}: worker exited with {done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def print_result(r: dict) -> None:
    e = r["environment"]
    print(f"== {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"{'ok' if r['correct'] else 'FAILED'}")
    print(f"   cpus {e['cpus']} (usable {e['cpus_usable']}), "
          f"python {e['python']}, numpy {e['numpy']}, {e['blas']} "
          f"x{e['blas_threads']} thread(s), commit {e['commit']}, "
          f"src sha256 {e['src_sha256'][:12]}")
    print(f"   {r['operations_timed']} timed operations, setup repeated "
          f"{r['setup_repeats']}x; {r['failed']} of {r['attempted']} "
          f"checked operations failed")
    for name, m in r["metrics"].items():
        print(f"   {name:<36} {m['value']:>14.4f} {m['unit']}")
    for name, (value, unit) in r["report"].items():
        print(f"   ({name:<34} {value:>14.4f} {unit})")
    for msg in r["failures"]:
        print(f"   gate: {msg}")


def print_baseline(results: list[dict]) -> None:
    by_name = {r["workload"]: r["metrics"] for r in results}
    metrics = by_name.get("train-uast")
    if metrics is None:
        return
    values = {k: v["value"] for k, v in metrics.items()}
    print("== ROADMAP baseline table, from the train-uast traced run")
    for row, roadmap, fmt in BASELINE_ROWS:
        print(f"   {row:<40} roadmap {roadmap:<20} now {fmt(values)}")
    for row, why in NOT_REPRODUCED:
        print(f"   {row:<40} not reproduced: {why}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = Path.cwd()
    if not (root / "src" / "uastkit" / "__init__.py").is_file():
        print("run.py: no src/uastkit here; run it from the root of a "
              "uastkit checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    machine = {"commit": git_commit(root), "src_sha256": source_digest(root),
               "host_python": platform.python_version()}
    results = []
    for name in names:
        result = run_worker(name, args)
        if result is None:
            return 2
        result["environment"].update(machine)
        (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json") \
            .write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print_result(result)
        results.append(result)
    if args.trace:
        print_baseline(results)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
