"""Matroids presented by their lattice of flats.

Flat families are validated against three axioms at construction: the
ground set is a flat, flats are closed under intersection, and for every
flat the covers partition the remaining elements.  The check runs on
integer masks of the flats (bit i for the i-th ground element) and keeps
each flat's height, so rank, closure, coatoms and the paving test are
integer subset tests and bit counts.  The flat family itself stays a
frozenset of frozensets.
"""

from __future__ import annotations

import json
from itertools import combinations

__all__ = [
    "Matroid",
    "matroid_from_coatoms",
    "matroid_rank",
    "is_paving",
    "contract",
    "uniform_matroid",
    "free_matroid",
    "ms_paving_coatoms",
]


class Matroid:
    """Immutable matroid given by its full flat family."""

    def __init__(self, ground, flats):
        if isinstance(ground, int):
            ground = range(1, ground + 1)
        self.ground = frozenset(ground)
        self.flats = frozenset(frozenset(f) for f in flats)
        self._bit = {e: 1 << i for i, e in enumerate(self.ground)}
        self._heights = self._validate()

    def _mask(self, s) -> int:
        return sum(self._bit[e] for e in s)

    def _set(self, mask) -> frozenset:
        return frozenset(e for e, b in self._bit.items() if mask & b)

    def _validate(self):
        """Check the flat axioms on integer masks; return {mask: height}.

        Masks are scanned by size, so every flat comes after the flats
        inside it: the first is the bottom, and a flat above f is a cover
        of f iff it contains none of the covers already found.  The
        returned dict keeps that order.
        """
        if self.ground not in self.flats:
            raise ValueError("ground set must be a flat")
        for f in self.flats:
            if not f <= self.ground:
                raise ValueError(f"flat {sorted(f)} exceeds the ground set")
        masks = sorted((self._mask(f) for f in self.flats), key=int.bit_count)
        present = set(masks)
        for f, g in combinations(masks, 2):
            if f & g not in present:
                raise ValueError(
                    f"flats {sorted(self._set(f))} and {sorted(self._set(g))} "
                    "have a non-flat intersection"
                )
        full = self._mask(self.ground)
        heights = {masks[0]: 0}
        for i, f in enumerate(masks):
            if f == full:
                continue
            covers = []
            for g in masks[i + 1 :]:
                if g & f == f and not any(c & g == c for c in covers):
                    covers.append(g)
            blocks = [g ^ f for g in covers]
            union = 0
            for b in blocks:
                union |= b
            if union != full ^ f or sum(b.bit_count() for b in blocks) != union.bit_count():
                raise ValueError(
                    f"covers of flat {sorted(self._set(f))} do not partition the complement"
                )
            for g in covers:
                heights[g] = heights[f] + 1
        return {f: heights[f] for f in masks}

    def closure(self, s):
        s = frozenset(s)
        if not s <= self.ground:
            raise ValueError("set is not contained in the ground set")
        # the smallest flat containing s lies inside every other one
        x = self._mask(s)
        return self._set(next(f for f in self._heights if f & x == x))

    def coatoms(self):
        r = self._heights[self._mask(self.ground)]
        return frozenset(self._set(f) for f, h in self._heights.items() if h == r - 1)

    def height(self, f):
        return self._heights[self._mask(frozenset(f))]

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.ground == other.ground
            and self.flats == other.flats
        )

    def __hash__(self):
        return hash((self.ground, self.flats))

    def __repr__(self):
        return f"Matroid(|ground|={len(self.ground)}, |flats|={len(self.flats)})"

    def to_json(self):
        return {
            "ground": len(self.ground)
            if self.ground == frozenset(range(1, len(self.ground) + 1))
            else sorted(self.ground),
            "coatoms": [sorted(c) for c in sorted(self.coatoms(), key=sorted)],
        }

    @classmethod
    def from_json(cls, data) -> "Matroid":
        if isinstance(data, str):
            data = json.loads(data)
        return matroid_from_coatoms(data["ground"], data["coatoms"])


def matroid_from_coatoms(ground, coatoms) -> Matroid:
    """Close an antichain of coatoms under intersection; validate axioms."""
    if isinstance(ground, int):
        ground = frozenset(range(1, ground + 1))
    else:
        ground = frozenset(ground)
    coatoms = [frozenset(c) for c in coatoms]
    for a, b in combinations(coatoms, 2):
        if a <= b or b <= a:
            raise ValueError("coatoms must form an antichain")
    flats = {ground} | set(coatoms)
    frontier = set(coatoms)
    while frontier:
        new = set()
        for f in frontier:
            for g in flats:
                h = f & g
                if h not in flats and h not in new:
                    new.add(h)
        flats |= new
        frontier = new
    return Matroid(ground, flats)


def matroid_rank(m: Matroid) -> int:
    return m.height(m.ground)


def is_paving(m: Matroid) -> bool:
    """Closure of every (rank-1)-subset of the ground set is a coatom.

    That holds iff every set of at most rank - 1 elements is independent,
    so iff every flat of height at most rank - 2 has as many elements as
    its height.
    """
    r = matroid_rank(m)
    return all(f.bit_count() == h for f, h in m._heights.items() if h <= r - 2)


def contract(m: Matroid, e) -> Matroid:
    if e not in m.ground:
        raise ValueError(f"element {e!r} is not in the ground set")
    flats = {f - {e} for f in m.flats if e in f}
    return Matroid(m.ground - {e}, flats)


def uniform_matroid(k: int, n: int) -> Matroid:
    ground = frozenset(range(1, n + 1))
    flats = {frozenset(s) for size in range(k) for s in combinations(ground, size)}
    flats.add(ground)
    return Matroid(ground, flats)


def free_matroid(n: int) -> Matroid:
    ground = list(range(1, n + 1))
    flats = {frozenset(s) for size in range(n + 1) for s in combinations(ground, size)}
    return Matroid(ground, flats)


def ms_paving_coatoms(f) -> list:
    """Coatom family of the rank-(k+1) paving matroid attached to a family.

    Ground is [n+1]; the coatoms are the members themselves, the k-subsets
    not inside any member, and the (k-1)-subsets each extended by n+1.
    """
    n, k = f.n, f.k
    coatoms = [frozenset(T) for T in f.members]
    for s in combinations(range(1, n + 1), k):
        if not any(set(s) <= T for T in f.members):
            coatoms.append(frozenset(s))
    for s in combinations(range(1, n + 1), k - 1):
        coatoms.append(frozenset(s) | {n + 1})
    return coatoms
