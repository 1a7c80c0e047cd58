"""Smoke test of the benchmark itself; takes under two minutes.

    python3 perfbench/smoke.py

Runs every workload at its smallest size (``--seconds 1``: one cycle, or a
few membership queries) untraced and traced, and requires a zero exit, a
correct result with no failed op, and exactly the metric names that
``BENCHMARK.json`` lists.  Then runs the benchmark in a directory holding
only ``BENCHMARK.json`` and ``perfbench/`` and requires that it fails
without printing a result.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['attempted']} attempted, {result['failed']} failed, "
                                f"correct={result['correct']}")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            print(f"ok {label}: {result['attempted']} ops", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("bench ran without the msarr sources")
        else:
            print("ok refuses to run without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
