"""One workload run in a fresh interpreter: set up, run closed-loop, check, report.

Started by ``run.py``; prints one JSON object on its last stdout line.  The
interpreter is fresh for every run so that module-global caches start cold,
as they do for every CLI call, and ``ru_maxrss`` is the run's own.

A single client runs the operations back to back: each starts only after the
previous one returned and was checked.  Only the operation itself is timed;
input generation for later rounds and the checks run off the clock.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment(np, scipy, qfock) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    digest = hashlib.sha256()
    for path in sorted(Path(qfock.__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "qfock_source_sha256": digest.hexdigest(),
    }


def _run_ops(ops, next_round, tracer, seconds, rounds, min_ops) -> dict:
    latencies, by_kind, failures = [], defaultdict(list), Counter()
    passed, busy, round_busy = 0, 0.0, []
    start = time.monotonic()
    while True:
        round_start = busy
        for op in ops:
            tracer.op_id += 1
            t0 = time.perf_counter()
            try:
                result = tracer.call(f"op.{op.kind}", op.run, tracer)
            except Exception:  # a failed operation is counted, and the run goes on
                result, raised = None, traceback.format_exc()
            else:
                raised = None
            elapsed = time.perf_counter() - t0
            latencies.append(elapsed)
            busy += elapsed
            by_kind[op.kind].append(elapsed)
            try:
                ok = raised is None and bool(op.check(result))
            except Exception:
                ok, raised = False, traceback.format_exc()
            if ok:
                passed += 1
            else:
                if not failures[op.kind]:
                    print(f"operation {op.kind} failed\n{raised or 'check out of tolerance'}",
                          file=sys.stderr)
                failures[op.kind] += 1
        round_busy.append(busy - round_start)
        if rounds is not None:
            if len(round_busy) >= rounds:
                break
        elif time.monotonic() - start >= seconds and len(latencies) >= min_ops:
            break
        ops = next_round()
    cuts = statistics.quantiles(latencies, n=10, method="inclusive") if len(latencies) > 1 \
        else latencies * 9
    return {
        "attempted": len(latencies), "failed": len(latencies) - passed,
        "failures": dict(failures),
        "ops_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "p50_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())},
        "rounds": len(round_busy), "round_busy_s": round_busy, "busy_s": busy,
        "wall_s": time.monotonic() - start,
        "ops_per_s": passed / busy if busy > 0 else 0.0,
        "p50_ms": 1e3 * statistics.median(latencies), "p90_ms": 1e3 * cuts[8],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead of --seconds")
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None, help="trace the run and write its spans here")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import qfock
    if Path(qfock.__file__).resolve().parent != SRC / "qfock":
        sys.exit(f"qfock was imported from {qfock.__file__}, not from {SRC}")
    from spans import PER_LAYER, SpanSummary, Tracer, Untraced
    from workloads import make_round

    rng = np.random.default_rng(args.seed)
    ops = make_round(args.workload, rng, args.tiny)
    setup_s = time.monotonic() - args.started
    out = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = Tracer() if args.spans else Untraced()
        later = itertools.count(1)
        out.update(_run_ops(ops, lambda: make_round(args.workload, rng, args.tiny, next(later)),
                            tracer, args.seconds, args.rounds, args.min_ops))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["env"] = _environment(np, scipy, qfock)
        if args.spans:
            summary = SpanSummary(tracer.spans)
            out["per_layer"] = {name: fn(summary) for name, (_, fn) in PER_LAYER.items()}
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
