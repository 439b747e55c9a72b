"""Self-test of the benchmark at tiny sizes, so that a broken benchmark fails fast.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced at tiny sizes and
checks that each run exits 0, reports no failed operation, and prints exactly
the metrics BENCHMARK.json names, with their units.  Then checks that the
benchmark refuses to run (non-zero exit, no result) in a copy that holds only
BENCHMARK.json and the benchmark's own files.  Exits 1 on any problem.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def _problems(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = []
    if set(result) != RESULT_KEYS:
        out.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        out.append(f"correct={result['correct']} failed={result['failed']} "
                   f"attempted={result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        out.append(f"metrics differ from BENCHMARK.json: "
                   f"missing {sorted(set(expected) - set(got))}, "
                   f"extra {sorted(set(got) - set(expected))}, "
                   f"units {[n for n in got if n in expected and got[n] != expected[n]]}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = _problems(_run(ROOT, workload, trace), expected[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}"
                  + "".join(f"\n     {p}" for p in problems), flush=True)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    shutil.rmtree(bare)
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the qfock sources "
          f"(exit {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
