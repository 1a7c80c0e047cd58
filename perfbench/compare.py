"""Compare two sets of untraced runs, metric by metric, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as ``perfbench/run.py`` appends them to
``.bench_out/runs.jsonl``.  For every workload and end-to-end metric in
``BENCHMARK.json`` it prints both sides' median and quartiles and the
verdict by the metric's bound: ``worse`` when the new median is worse than
the base median by more than the bound, ``unresolved`` when either side's
quartile spread exceeds the bound, else ``ok``.  Only clean runs (no
failed op, no problem) enter the medians; for each workload it also prints
how many runs each side dropped and how many ops failed, and it exits
non-zero when the new side has no clean run of a workload the base has,
or fails a larger share of its ops than the base.  Runs made with different
rational backends (``fractions.Fraction`` against ``gmpy2.mpq``) are not
comparable at all, so the script refuses them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """Untraced run records of one side."""
    runs = []
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["meta"]["trace"] == 0:
            runs.append(rec)
    return runs


def health(runs, wl):
    """Clean runs of a workload, the number dropped, failed and attempted ops."""
    mine = [r for r in runs if r["meta"]["workload"] == wl]
    clean = [r for r in mine if not r.get("problems") and not r["failed"]]
    failed = sum(r["failed"] for r in mine)
    attempted = sum(r["attempted"] for r in mine)
    return clean, len(mine) - len(clean), failed, attempted


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["meta"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"refusing to compare runs across rational backends: {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse_any = False
    for wl in [w["name"] for w in spec["workloads"]]:
        b_clean, b_dropped, b_failed, b_attempted = health(base, wl)
        n_clean, n_dropped, n_failed, n_attempted = health(new, wl)
        if not b_attempted and not n_attempted:
            continue
        print(
            f"{wl:18s} runs: base {len(b_clean)} clean, {b_dropped} dropped, {b_failed}/{b_attempted} ops failed;  "
            f"new {len(n_clean)} clean, {n_dropped} dropped, {n_failed}/{n_attempted} ops failed"
        )
        if b_attempted and not n_clean:
            print(f"{wl:18s} new side has no clean run  worse")
            worse_any = True
        if n_failed and n_failed * max(b_attempted, 1) > b_failed * max(n_attempted, 1):
            print(f"{wl:18s} new side fails a larger share of its ops  worse")
            worse_any = True
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [r["metrics"][name]["value"] for r in b_clean]
            n = [r["metrics"][name]["value"] for r in n_clean]
            if not b or not n:
                continue
            bq1, bmed, bq3 = summary(b)
            nq1, nmed, nq3 = summary(n)
            change = (nmed - bmed) / bmed
            worse = change > bound if metric["better"] == "lower" else -change > bound
            spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
            verdict = "worse" if worse else "unresolved" if spread > bound else "ok"
            worse_any |= worse
            print(
                f"{wl:18s} {name:15s} base {bmed:.4g} [{bq1:.4g}, {bq3:.4g}] n={len(b)}  "
                f"new {nmed:.4g} [{nq1:.4g}, {nq3:.4g}] n={len(n)}  "
                f"change {change:+.1%} bound {bound:.0%}  {verdict}"
            )
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
