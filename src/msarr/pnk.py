"""The poset of antichains that governs maximal intersection lattices.

P(n, k) consists of antichains of subsets of [n], each member of size at
least k+1, subject to a strict union inequality for every sub-collection
of two or more members.  For very generic bases the map sending a family
to the intersection of its D_T flats is a rank-preserving bijection onto
the intersection lattice.

The isomorphism check enumerates P(n, k) on each call and reads each
family's flat off the built lattice by label masks, with no echelon form.
Enumeration stops at n <= 8.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .errors import GuardExceeded

__all__ = [
    "SetFamily",
    "is_pnk_element",
    "pnk_rank",
    "enumerate_pnk",
    "lattice_isomorphic_to_pnk",
]


@dataclass(frozen=True)
class SetFamily:
    """An antichain of subsets of [n], normalized for hashing."""

    n: int
    k: int
    members: tuple  # sorted tuple of frozensets

    def __init__(self, n, k, members, check_antichain=False):
        norm = sorted({frozenset(m) for m in members}, key=lambda s: (len(s), sorted(s)))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "members", tuple(norm))
        for m in self.members:
            if not m <= set(range(1, self.n + 1)):
                raise ValueError(f"member {sorted(m)} is not a subset of [n]")
        if check_antichain:
            for a, b in combinations(self.members, 2):
                if a < b or b < a:
                    raise ValueError("members must form an antichain")

    def to_json(self):
        return {
            "n": self.n,
            "k": self.k,
            "members": [sorted(m) for m in self.members],
        }

    @classmethod
    def from_json(cls, data) -> "SetFamily":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(data["n"], data["k"], [frozenset(m) for m in data["members"]])

    def __repr__(self):
        parts = ",".join("{" + ",".join(map(str, sorted(m))) + "}" for m in self.members)
        return f"SetFamily(n={self.n}, k={self.k}, [{parts}])"


def is_pnk_element(f: SetFamily):
    """(bool, failing condition tag or None).

    (i) every member has at least k+1 elements; (ii) antichain;
    (iii) |union| - k > sum(|T| - k) for every sub-collection of size >= 2.
    """
    k = f.k
    for m in f.members:
        if len(m) < k + 1:
            return False, "i"
    for a, b in combinations(f.members, 2):
        if a < b or b < a:
            return False, "ii"
    for size in range(2, len(f.members) + 1):
        for sub in combinations(f.members, size):
            union = frozenset().union(*sub)
            if not len(union) - k > sum(len(t) - k for t in sub):
                return False, "iii"
    return True, None


def pnk_rank(f: SetFamily) -> int:
    ok, tag = is_pnk_element(f)
    if not ok:
        raise ValueError(f"not a poset element (condition {tag})")
    return sum(len(t) - f.k for t in f.members)


def enumerate_pnk(n: int, k: int, max_rank: int):
    """All elements of rank <= max_rank, graded, by antichain backtracking."""
    if n > 8:
        raise GuardExceeded("enumeration is limited to n <= 8")
    ground = list(range(1, n + 1))
    candidates = []
    for size in range(k + 1, n + 1):
        for T in combinations(ground, size):
            candidates.append(frozenset(T))
    # fixed candidate order so each family is generated exactly once
    results = [[] for _ in range(max_rank + 1)]
    results[0].append(SetFamily(n, k, []))

    def extend(chosen, rk, start):
        for i in range(start, len(candidates)):
            T = candidates[i]
            new_rk = rk + len(T) - k
            if new_rk > max_rank:
                continue
            if any(T <= U or U <= T for U in chosen):
                continue
            fam = chosen + [T]
            ok, _ = is_pnk_element(SetFamily(n, k, fam))
            if not ok:
                continue
            results[new_rk].append(SetFamily(n, k, fam))
            extend(fam, new_rk, i + 1)

    extend([], 0, 0)
    graded = []
    for r in range(0, max_rank + 1):
        graded.extend(sorted(results[r], key=lambda f: [sorted(m) for m in f.members]))
    return graded


def lattice_isomorphic_to_pnk(m):
    """(bool, counterexample family or None).

    Checks that family -> intersection of D_T flats is a rank-preserving
    bijection from P(n, k) onto the lattice.  Fails exactly when the base
    is not very generic.

    The flat spanned by labels L is the first flat, in codim order, whose
    closed set contains L: every such flat lies inside the intersection of
    the hyperplanes of L, so only that one has the smallest codim.
    """
    from .msbuild import _dt_labels

    a = m.arrangement
    flats = a.full_lattice()
    masks = a.lattice_masks()
    seen = set()
    for fam in enumerate_pnk(m.n, m.k, a.rank()):
        need = a.label_mask(l for T in fam.members for l in _dt_labels(m, T))
        i = next(i for i, x in enumerate(masks) if x & need == need)
        if flats[i].codim != pnk_rank(fam) or i in seen:
            return False, fam
        seen.add(i)
    if len(seen) != len(flats):
        return False, None
    return True, None
