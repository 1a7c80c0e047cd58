"""Replay every op of a benchmark workload and print each gate's text.

    python3 tests/replay.py --workload membership-stream --seed 1 [--no-points]

Runs the ops of ``run_cycles(25)`` whole cycles, the ops an untraced
``perfbench/run.py --seconds 25`` run times, from a fresh set-up, and
prints one tab-separated line per op: its kind and the text its gate
returned (the text the run's digest hashes, over every op rather than
the digest's first cycles).  ``--no-points`` drops the coordinates of
member points, so verdicts, failing flats and certificates can be compared
between two checkouts whose points differ.  A gate that fails prints
``GATE FAILED`` and its message on the op's line, and the exit status is 1.

The workloads are read from ``perfbench/workloads.py`` and the library from
``src/`` of the same checkout; neither is changed.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, GateError  # noqa: E402

# a member's points: "member|" and the coordinates, up to the next field
POINTS = re.compile(r"(?<!non-)member\|[^|]*")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-points", action="store_true", help="drop member point coordinates")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    cycles = workload.cycles(workload.setup(args.seed))
    failed = 0
    for _ in range(workload.run_cycles(25)):
        for op in next(cycles):
            try:
                text = op.check(op.call())
            except GateError as e:
                failed += 1
                text = f"GATE FAILED: {e}"
            if args.no_points:
                text = POINTS.sub("member", text)
            print(f"{op.kind}\t{text}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
