"""Time fresh intersection-lattice builds of B(n, k) beyond the benchmark's sizes.

    python3 tests/lattice_timing.py [--repeat 3] [--seed 1]

Builds the seeded very generic B(6,2), B(6,3) and B(7,3) and the
unperturbed witnesses B(7,2) and B(8,4) (``witness_rank_r``), then times
``full_lattice()`` on a fresh copy of each arrangement, so no cache is
warm.  One line per arrangement: hyperplanes, flats, the fastest of the
``--repeat`` builds in seconds, and the first 16 hex digits of a SHA-256
of the lattice masks, covers, pos masks and flat pivots, which two
checkouts with equal lattices print alike.

The library is read from ``src/`` of the same checkout.  Pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from msarr import CentralArrangement, build_ms, random_very_generic, witness_rank_r  # noqa: E402

CASES = [
    ("B(6,2)", "very generic", lambda s: random_very_generic(6, 2, seed=s)),
    ("B(6,3)", "very generic", lambda s: random_very_generic(6, 3, seed=s)),
    ("B(7,2)", "witness", lambda s: build_ms(witness_rank_r(7, 2, seed=s).witness_base)),
    ("B(7,3)", "very generic", lambda s: random_very_generic(7, 3, seed=s)),
    ("B(8,4)", "witness", lambda s: build_ms(witness_rank_r(8, 4, seed=s).witness_base)),
]


def lattice_hash(a: CentralArrangement) -> str:
    flats = a.full_lattice()
    data = (a._masks, a._covers, a._pos, tuple(f.pivots for f in flats))
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print("arrangement\tkind\thyperplanes\tflats\tbuild_s\thash")
    for name, kind, make in CASES:
        a = make(args.seed).arrangement
        best = None
        for _ in range(args.repeat):
            fresh = CentralArrangement(a.dim, [(l, a.normal(l)) for l in a.labels])
            start = time.perf_counter()
            fresh.full_lattice()
            took = time.perf_counter() - start
            best = took if best is None else min(best, took)
        print(f"{name}\t{kind}\t{a.n_hyperplanes}\t{len(fresh.full_lattice())}\t{best:.3f}\t{lattice_hash(fresh)}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
