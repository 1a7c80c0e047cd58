"""Run one benchmark workload against the msarr tree of this checkout.

    python3 perfbench/run.py --workload membership-stream --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run sets the workload up several times (``setup_s``
is the median; a workload that builds fresh inputs for every cycle reports
the median build instead), then runs a fixed number of whole cycles of
ops, one at a time, gating every op's output.  The number follows from
``--seconds`` and the workload's nominal cycle time, never from a clock,
so every run of a seed times the same ops.  It prints the end-to-end
metrics and, beside them, each op kind's share of the timed work and the
share of ops that solved an LP (cold ops; the rest were answered from
the library's caches).

With ``--trace 1`` it runs a fixed number of cycles twice from fresh
set-ups, first untraced and then with every public msarr function wrapped
in spans, checks that both passes produced the same output digest, that
the trace saw every LP solve and that every wrapped binding was restored,
and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
appends its record (metrics plus metadata) to ``.bench_out/runs.jsonl``
and a traced run writes its spans under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_library():
    """Import msarr from this checkout's src tree and nowhere else."""
    if not (SRC / "msarr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no msarr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import msarr

    if Path(msarr.__file__).resolve().parent != (SRC / "msarr").resolve():
        sys.exit(f"perfbench: msarr imported from {msarr.__file__}, not from {SRC}")
    return msarr


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _code_hash() -> str:
    """Hash of the library and benchmark sources: both decide the digest."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "msarr").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(msarr, args) -> dict:
    q = msarr.fields.Q
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": f"{q.__module__}.{q.__qualname__}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "code_hash": _code_hash(),
    }


class Outcome:
    """Timed gated ops and cycle builds, failures, and the output digest of
    the first ``digest_cycles`` cycles."""

    def __init__(self, digest_cycles: int):
        self.ops: list[tuple[str, float, int]] = []  # (kind, seconds, LP solves) of each gated op
        self.builds: list[tuple[float, float]] = []  # (start, end) of each cycle's build
        self.attempted = 0
        self.failures: list[str] = []
        self.digest_cycles = digest_cycles
        self.cycles = 0
        self._hash = hashlib.sha256()
        self.digest = None

    def record(self, text: str):
        if self.cycles < self.digest_cycles:
            self._hash.update(text.encode() + b"\n")

    def end_cycle(self):
        self.cycles += 1
        if self.cycles == self.digest_cycles:
            self.digest = self._hash.hexdigest()[:16]

    def final_digest(self) -> str:
        return self.digest or self._hash.hexdigest()[:16]


    def seconds(self) -> list[float]:
        return [t for _, t, _ in self.ops]


def run_cycles(msarr, workload, state, outcome, limit, tracer=None):
    """Closed loop over ``limit`` whole cycles; only each op's call is timed.

    Producing a cycle (building its inputs, for ``setup_per_cycle``
    workloads) is timed separately into ``outcome.builds``.  Checks run
    with tracing paused.  The LP counter is read unwrapped, so reading it
    adds no span.
    """
    from workloads import GateError

    errors = (
        msarr.GuardExceeded,
        msarr.RetryExhausted,
        msarr.VerificationError,
        ArithmeticError,
        GateError,
    )
    lp_count = getattr(msarr.feasibility.lp_count, "__wrapped__", msarr.feasibility.lp_count)
    cycles = workload.cycles(state)
    while outcome.cycles < limit:
        if tracer is not None:
            tracer.op_id = outcome.attempted + 1
        t0 = time.perf_counter()
        try:
            cycle = next(cycles)
        except errors as exc:
            outcome.attempted += 1
            outcome.failures.append(f"building a cycle: {type(exc).__name__}: {exc}")
            outcome.record("failed|build")
            outcome.end_cycle()
            continue
        outcome.builds.append((t0, time.perf_counter()))
        for op in cycle:
            outcome.attempted += 1
            if tracer is not None:
                tracer.op_id = outcome.attempted
            try:
                lp0 = lp_count()
                t0 = time.perf_counter()
                result = op.call()
                t1 = time.perf_counter()
                lps = lp_count() - lp0
                with tracer.paused() if tracer is not None else nullcontext():
                    text = op.check(result)
            except errors as exc:
                outcome.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                outcome.record(f"failed|{op.kind}")
                continue
            outcome.ops.append((op.kind, t1 - t0, lps))
            outcome.record(text)
        outcome.end_cycle()
    return outcome


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    pct = 100.0 * (n - 10) / n
    return pct, ordered[n - 11]


def untraced(msarr, workload, args):
    setup_spans = []
    state = None
    for _ in range(1 if workload.setup_per_cycle else workload.setup_repeats):
        state = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_spans.append((t0, time.perf_counter()))
    outcome = Outcome(workload.trace_cycles(args.seconds))
    run_cycles(msarr, workload, state, outcome, workload.run_cycles(args.seconds))
    if workload.setup_per_cycle:
        setup_spans = outcome.builds
    if not outcome.ops:
        sys.exit("perfbench: no op passed its gate")
    lat = outcome.seconds()
    busy = sum(lat)
    share = {}
    for kind, t, _ in outcome.ops:
        share[kind] = share.get(kind, 0.0) + t / busy
    cold = [t for _, t, lps in outcome.ops if lps]
    metrics = {
        "setup_s": (statistics.median(t1 - t0 for t0, t1 in setup_spans), "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (_rss_mb(), "MB"),
    }
    extra = {
        "failed_ratio": len(outcome.failures) / outcome.attempted,
        "ops": len(lat),
        "cycles": outcome.cycles,
        "setup_runs": len(setup_spans),
        "cold_op_share": len(cold) / len(lat),
        "cold_time_share": sum(cold) / busy,
        "time_share": {k: round(v, 4) for k, v in sorted(share.items())},
    }
    t = tail(lat)
    if t is not None:
        extra["latency_tail_ms"] = {"value": t[1] * 1e3, "percentile": t[0], "samples": len(lat)}
    return outcome, metrics, extra, []


def traced(msarr, workload, args):
    from spans import Tracer, per_layer_metrics

    cycles = workload.trace_cycles(args.seconds)
    plain = Outcome(cycles)
    run_cycles(msarr, workload, workload.setup(args.seed), plain, cycles)
    tracer = Tracer()
    lp0 = msarr.feasibility.lp_count()
    tracer.install()
    try:
        state = workload.setup(args.seed)
        traced_outcome = Outcome(cycles)
        run_cycles(msarr, workload, state, traced_outcome, cycles, tracer=tracer)
    finally:
        bound = tracer.bindings
        unrestored = tracer.uninstall()
    lp_solves = msarr.feasibility.lp_count() - lp0
    problems = [f"binding not restored: {b}" for b in unrestored]
    if plain.final_digest() != traced_outcome.final_digest():
        problems.append("traced and untraced output digests differ")
    calls, _, _ = tracer.summary()
    seen = calls.get("feasibility.strict_feasibility", 0) + calls.get("feasibility.mixed_feasibility", 0)
    if seen != lp_solves:
        problems.append(f"trace saw {seen} LP solves of {lp_solves}")
    overhead = sum(traced_outcome.seconds()) / sum(plain.seconds()) if plain.ops else 0.0
    metrics = {
        name: (m["value"], m["unit"])
        for name, m in per_layer_metrics(tracer, lp_solves, overhead).items()
    }
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
    tracer.write(spans)
    extra = {
        "bindings_wrapped": bound,
        "spans": len(tracer.start),
        "spans_file": str(spans.relative_to(ROOT)),
        "untraced_digest": plain.final_digest(),
        "untraced_failures": plain.failures,
    }
    problems += [f"untraced pass: {f}" for f in plain.failures]
    return traced_outcome, metrics, extra, problems


def _digest_conflicts(record) -> list[str]:
    """Earlier runs of the same code, seed and size must give the same digest."""
    path = OUT / "runs.jsonl"
    if not path.is_file():
        return []
    out = []
    meta = record["meta"]
    for line in path.read_text().splitlines():
        try:
            old = json.loads(line)
        except json.JSONDecodeError:
            continue
        m = old.get("meta", {})
        same = all(m.get(k) == meta[k] for k in ("workload", "seed", "backend", "code_hash"))
        if (
            same
            and old.get("digest_cycles") == record["digest_cycles"]
            and old.get("digest") != record["digest"]
        ):
            out.append(f"digest {record['digest']} differs from an earlier run's {old.get('digest')}")
            break
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    msarr = _import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    meta = metadata(msarr, args)

    run = traced if args.trace else untraced
    outcome, metrics, extra, problems = run(msarr, workload, args)

    digest_cycles = min(outcome.cycles, workload.trace_cycles(args.seconds))
    record = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "digest": outcome.final_digest(),
        "digest_cycles": digest_cycles,
        "extra": extra,
    }
    problems = outcome.failures + problems + _digest_conflicts(record)
    record["problems"] = problems
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed={args.seed} backend={meta['backend']} "
          f"python={meta['python']} nproc={meta['nproc']} commit={meta['commit'][:12]}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:42s} {value:14.6g} {unit}")
    for key, value in extra.items():
        print(f"{args.workload:18s} {key:42s} {value}")
    print(f"{args.workload:18s} {'digest':42s} {record['digest']} ({digest_cycles} cycles)")
    for p in problems:
        print(f"PROBLEM {p}")
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
