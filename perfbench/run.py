"""qfock benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seconds 38

Each run starts fresh interpreters (``worker.py``) with BLAS/OpenMP pinned to
one thread.  ``--trace 0`` reports the end-to-end metrics of an untraced run
of ``--seconds`` (ending on a round boundary, after at least MIN_OPS
operations), with ``setup_s`` the median over several fresh starts.
``--trace 1`` runs a fixed number of rounds untraced, traced, and untraced
again, and reports the per-layer metrics of the traced run together with the
tracing overhead (traced minus mean untraced operation time).

The last stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give each metric with its unit and sample
count, and the run's environment.  Full records, and the spans of traced
runs, go to ``.perfbench/`` at the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("symbolic", "fock-oracle", "rough-path")
THREADS = "1"
SETUP_REPEATS = 2  # fresh starts besides the measured run; setup_s is the median of all
RUN_LIMIT_S = 170  # a workload's workers are killed after this, and the run fails
MIN_OPS = 100  # so that at least 10 latency samples lie beyond op_p90_ms
# Busy seconds of one full round on a 2-core Xeon sandbox at the commit that
# added the benchmark.  A traced run does a fixed amount of work, three times
# the rounds that took a quarter of --seconds there, so that its per-layer
# numbers compare across commits as work done, not as work that fit in time.
ROUND_SECONDS = {"symbolic": 2.7, "fock-oracle": 1.7, "rough-path": 5.5}

# End-to-end metrics of an untraced run: name -> (unit, key in the worker's
# report, sample-count key).
END_TO_END = {
    "ops_per_s": ("1/s", "ops_per_s", "attempted"),
    "op_p50_ms": ("ms", "p50_ms", "attempted"),
    "op_p90_ms": ("ms", "p90_ms", "attempted"),
    "peak_rss_mb": ("MiB", "peak_rss_mb", None),
    "setup_s": ("s", "setup_s", "setup_samples"),
}


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, tiny: bool, *extra: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: THREADS for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra] + (["--tiny"] if tiny else [])
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--started", repr(started)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=deadline - started)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within {RUN_LIMIT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool,
                 deadline: float) -> tuple[dict, dict]:
    repeats = 1 if tiny else SETUP_REPEATS
    if not tiny:
        _worker(workload, seed, tiny, "--setup-only", deadline=deadline)  # warms the file cache
    setups = [_worker(workload, seed, tiny, "--setup-only", deadline=deadline)["setup_s"]
              for _ in range(repeats)]
    rep = _worker(workload, seed, tiny, "--seconds", str(seconds),
                  "--min-ops", "1" if tiny else str(MIN_OPS), deadline=deadline)
    setups.append(rep["setup_s"])
    rep["setup_s"], rep["setup_samples"] = statistics.median(setups), len(setups)
    metrics = {name: {"value": rep[key], "unit": unit,
                      "samples": rep[n_key] if n_key else 1}
               for name, (unit, key, n_key) in END_TO_END.items()}
    return rep, metrics


def run_traced(workload: str, seed: int, seconds: float, tiny: bool,
               deadline: float) -> tuple[dict, dict]:
    from spans import PER_LAYER

    OUT.mkdir(exist_ok=True)
    rounds = "1" if tiny else str(max(1, round(seconds / 4 / ROUND_SECONDS[workload])))
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    # untraced, traced, untraced: the mean of the two untraced runs cancels a
    # host speed that drifts linearly over the three
    before, rep, after = (_worker(workload, seed, tiny, "--rounds", rounds, *extra,
                                  deadline=deadline)
                          for extra in ((), ("--spans", str(spans_path)), ()))
    plain_s = (before["busy_s"] + after["busy_s"]) / 2
    overhead = rep["busy_s"] - plain_s
    metrics = {name: {"value": rep["per_layer"][name], "unit": unit}
               for name, (unit, _) in PER_LAYER.items()}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead / plain_s, "unit": "ratio"}
    rep["untraced_busy_s"] = [before["busy_s"], after["busy_s"]]
    rep["attempted"] += before["attempted"] + after["attempted"]
    rep["failed"] += before["failed"] + after["failed"]
    rep["spans_file"] = str(spans_path.relative_to(ROOT))
    return rep, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    rep, metrics = (run_traced if trace else run_untraced)(workload, seed, seconds, tiny,
                                                           deadline)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "commit": _commit(), "env": rep.pop("env"),
              "report": {k: v for k, v in rep.items() if k != "per_layer"},
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# {workload}: seed {seed}, {seconds:g} s, trace {int(trace)}, "
          f"{rep['attempted']} ops in {rep['rounds']} rounds, "
          f"fail_frac {rep['failed'] / rep['attempted']:.4g} "
          f"({rep['failed']}/{rep['attempted']})")
    print(f"# ops by kind: {json.dumps(rep['ops_by_kind'])}")
    print(f"# env: {json.dumps(dict(record['env'], commit=record['commit'], seed=seed))}")
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{workload:14s} {name:40s} {m['value']:14.6g} {m['unit']}{samples}")
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
            "failed": rep["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes and a single setup, for the self-test")
    args = parser.parse_args()
    # exit through SystemExit, so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qfock" / "__init__.py").is_file():
        print(f"no qfock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.tiny)
                   for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": m for w, r in results.items()
                              for k, m in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
