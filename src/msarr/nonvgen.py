"""Constructions of non-very-generic bases and the perturbation pipeline.

A coincidence family T (conditions (Q1)/(Q2)) plus a target codimension r
cuts out a locus of generic bases whose flats D_T over-intersect.  Two
explicit constructions produce rational points of those loci: a rank-3
family of three (k+1)-sets for n - k = 3, and a cyclic rank-(r-1) family
of r sets for n - k = r >= 4.  Both defining equations are linear in the
first base column once the others are fixed, so a witness is found by one
kernel solve plus rejection sampling over the finitely many avoid
conditions.  Perturbing a witness yields a very generic base whose
discriminantal arrangement carries a simple chamber near the formerly
coincident flat; flipping its walls exhibits the filtration jump.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import prod

from .arrangement import SignVector, _eval
from .errors import RetryExhausted, VerificationError
from .fields import Q, sign
from .linalg import Mat, det, kernel_basis, rank
from .msbuild import (
    GenericArrangement,
    MSArrangement,
    alpha_I,
    build_ms,
    is_generic,
    is_very_generic,
    ms_label,
)
from .pnk import SetFamily
from .sigma import in_sigma_p

__all__ = [
    "WitnessSpec",
    "a_family_matrix",
    "in_variety",
    "witness_rank3",
    "cyclic_map_c",
    "witness_rank_r",
    "perturb_to_very_generic",
    "jump_after_perturbation",
]


@dataclass(frozen=True)
class WitnessSpec:
    """A verified base lying on a coincidence locus.

    audit lists (condition, value) pairs for every exact check that was
    performed during construction.
    """

    n: int
    k: int
    family: SetFamily
    target_codim: int
    witness_base: GenericArrangement
    audit: tuple

    def family_labels(self):
        return tuple(ms_label(sorted(T), self.n) for T in self.family.members)

    def to_json(self):
        from .fields import format_scalar

        return {
            "n": self.n,
            "k": self.k,
            "family": self.family.to_json(),
            "target_codim": self.target_codim,
            "base": [
                [format_scalar(v) for v in col] for col in self.witness_base.columns
            ],
            "audit": [{"condition": c, "value": str(v)} for c, v in self.audit],
        }


def _check_q1_q2(f: SetFamily):
    for T in f.members:
        if len(T) < f.k + 1:
            raise ValueError(f"(Q1) violated: {sorted(T)} has fewer than k+1 elements")
    for a, b in combinations(f.members, 2):
        if len(a & b) >= f.k:
            raise ValueError(
                f"(Q2) violated: {sorted(a)} and {sorted(b)} share a k-subset"
            )


def a_family_matrix(g: GenericArrangement, f: SetFamily) -> Mat:
    """Stacked rows alpha_{I(T, j)} over the family, sum(|T| - k) in total.

    I(T, j) is the k smallest elements of T plus its (k+j)-th element.
    """
    _check_q1_q2(f)
    rows = []
    for T in f.members:
        idx = sorted(T)
        for j in range(len(idx) - g.k):
            rows.append(list(alpha_I(g, idx[: g.k] + [idx[g.k + j]])))
    return Mat(rows)


def in_variety(g: GenericArrangement, f: SetFamily, r: int) -> bool:
    """True iff the family's flats over-intersect to codim <= r."""
    return rank(a_family_matrix(g, f)) <= r


def _minor(columns, idx):
    k = len(columns[0])
    return det(Mat([[columns[i - 1][j] for i in sorted(idx)] for j in range(k)]))


def cyclic_map_c(r: int) -> dict:
    """The three-case cyclic assignment [r-1] -> {r, r+1, r+2}."""
    if r < 4:
        raise ValueError("need r >= 4")
    c = {}
    if (r - 1) % 2 == 1:
        c[1] = r
        for i in range(2, r):
            c[i] = r + 1 if i % 2 == 0 else r + 2
    elif r - 1 == 4:
        c = {1: 5, 2: 6, 3: 5, 4: 7}
    else:
        c[1] = c[3] = r
        for i in range(2, r):
            if i % 2 == 0:
                c[i] = r + 1
            elif i >= 5:
                c[i] = r + 2
    return c


def _rank3_family(n: int) -> SetFamily:
    ground = set(range(1, n + 1))
    return SetFamily(
        n, n - 3, [ground - {1, 2}, ground - {3, 4}, ground - {5, 6}]
    )


def _rank3_equation(columns, n):
    eta = list(range(7, n + 1))
    return _minor(columns, [1, 2, 5] + eta) * _minor(columns, [3, 4, 6] + eta) - _minor(
        columns, [1, 2, 6] + eta
    ) * _minor(columns, [3, 4, 5] + eta)


def _rank_r_family(n: int, r: int) -> SetFamily:
    c = cyclic_map_c(r)
    eta = set(range(r + 3, n + 1))
    members = [{i, i + 1, c[i]} | eta for i in range(1, r - 1)]
    members.append({r - 1, 1, c[r - 1]} | eta)
    members.append({r, r + 1, r + 2} | eta)
    return SetFamily(n, n - r, members)


def _rank_r_equation(columns, n, r):
    c = cyclic_map_c(r)
    eta = list(range(r + 3, n + 1))
    term1 = prod(
        (_minor(columns, [i + 1, c[i]] + eta) for i in range(1, r - 1)), start=Q(1)
    ) * _minor(columns, [1, c[r - 1]] + eta)
    term2 = prod(
        (_minor(columns, [i, c[i]] + eta) for i in range(1, r)), start=Q(1)
    )
    return -term1 + term2


def _solve_first_column(other_columns, k, equation, rng, bound):
    """Zero of an alpha_1-linear-homogeneous equation, or None if it is 0.

    The coefficient vector comes from evaluating the equation at the k
    standard basis vectors; any nonzero kernel element works.
    """
    w = []
    for j in range(k):
        e = tuple(Q(1) if i == j else Q(0) for i in range(k))
        w.append(equation((e,) + other_columns))
    if all(v == 0 for v in w):
        return None
    ker = kernel_basis(Mat([w]))
    for _ in range(20):
        a1 = [Q(0)] * k
        for v in ker:
            c = Q(rng.randint(-bound, bound))
            for i in range(k):
                a1[i] = a1[i] + c * v[i]
        if any(x != 0 for x in a1):
            return tuple(a1)
    return None


def _audit_family(g: GenericArrangement, fam: SetFamily, target_codim: int):
    """Flat checks on B(n, k) of g; returns the audit trail or None.

    The family's r members are hyperplanes of B(n, k) on g.  Each
    sub-collection of r - 1 of them must cut a flat of codim r - 1, so
    every proper sub-collection is independent (a subset of an independent
    set is); the whole family must cut a flat of codim target_codim whose
    closed set is exactly the family, so no other hyperplane contains it.
    """
    a = build_ms(g).arrangement
    labels = [ms_label(sorted(T), g.n) for T in fam.members]
    r = len(labels)
    if any(a.flat_of(sub).codim != r - 1 for sub in combinations(labels, r - 1)):
        return None
    audit = [(f"proper sub-collections independent (all J with |J| < {r})", True)]
    x = a.flat_of(labels)
    if x.codim != target_codim:
        return None
    audit.append((f"codim of full intersection = {target_codim}", x.codim))
    if x.closed_set != set(labels):
        return None
    audit.append(("localization contains no further hyperplane", True))
    return audit


def _search_witness(n, k, fam, target_codim, equation, seed, bound=50, retries=200):
    rng = random.Random(seed)
    for _ in range(retries):
        others = tuple(
            tuple(Q(rng.randint(-bound, bound)) for _ in range(k))
            for _ in range(n - 1)
        )
        a1 = _solve_first_column(others, k, equation, rng, bound)
        if a1 is None:
            continue
        columns = (a1,) + others
        g = GenericArrangement(k, n, columns)
        if not is_generic(g):
            continue
        value = equation(columns)
        if value != 0:
            raise VerificationError("solved point does not satisfy the equation")
        audit = _audit_family(g, fam, target_codim)
        if audit is None:
            continue
        audit.insert(0, ("defining equation value", value))
        return WitnessSpec(n, k, fam, target_codim, g, tuple(audit))
    raise RetryExhausted(f"witness search failed after {retries} tries (seed {seed})")


def witness_rank3(n: int, k: int, seed: int = 0) -> WitnessSpec:
    """Three coincident hyperplanes at codim 2, for n - k = 3 and k >= 3."""
    if n - k != 3 or k < 3:
        raise ValueError("need n - k = 3 and k >= 3")
    fam = _rank3_family(n)
    return _search_witness(
        n, k, fam, 2, lambda cols: _rank3_equation(cols, n), seed
    )


def witness_rank_r(n: int, k: int, seed: int = 0) -> WitnessSpec:
    """r coincident hyperplanes at codim r - 1, for r = n - k >= 4, k >= 2."""
    r = n - k
    if r < 4 or k < 2:
        raise ValueError("need n - k >= 4 and k >= 2")
    fam = _rank_r_family(n, r)
    return _search_witness(
        n, k, fam, r - 1, lambda cols: _rank_r_equation(cols, n, r), seed
    )


def perturb_to_very_generic(
    w: WitnessSpec, denom: int = 10**6, seed: int = 0, retries: int = 50
):
    """Nudge the witness base until its arrangement becomes very generic.

    Returns (MSArrangement, labels of the formerly coincident hyperplanes).
    Failure modes are reported separately: a denom too small keeps failing
    very-genericity with the same flat, retry exhaustion suggests a reseed.
    """
    if denom < 2:
        raise ValueError("denom must be at least 2")
    rng = random.Random(seed)
    last_flat = None
    for _ in range(retries):
        cols = tuple(
            tuple(v + Q(rng.randint(-9, 9), denom) for v in col)
            for col in w.witness_base.columns
        )
        g = GenericArrangement(w.k, w.n, cols)
        if not is_generic(g):
            continue
        m = build_ms(g)
        ok, failing = is_very_generic(m)
        if ok:
            return m, w.family_labels()
        last_flat = failing
    detail = f"; last failing flat {sorted(last_flat.closed_set)}" if last_flat else ""
    raise RetryExhausted(
        f"perturbation never reached a very generic base "
        f"(seed {seed}, denom {denom}){detail}"
    )


def _frozen_signs(a, basis, others, rng: random.Random):
    """Signs of the labels of others at a random integer point of span(basis).

    Each basis vector takes a coefficient in [-9, 9], drawn from rng in
    basis order.  None when some label of others vanishes at the point.
    """
    point = [Q(0)] * a.dim
    for v in basis:
        c = Q(rng.randint(-9, 9))
        for i in range(a.dim):
            point[i] = point[i] + c * v[i]
    signs = {l: sign(_eval(a.normal(l), point)) for l in others}
    if 0 in signs.values():
        return None
    return signs


def jump_after_perturbation(
    m: MSArrangement, w: WitnessSpec, seed: int = 0, tries: int = 40
):
    """Filtration jump witness on the perturbed arrangement.

    The perturbation splits the coincident flat X into a cluster whose
    chambers include a simple one; near X the signs of all other
    hyperplanes are frozen.  Each try fixes those signs at a random exact
    point of the old X, and among the 2^r wall patterns exactly one full
    sign vector is no chamber when the simple chamber exists: that vector
    is the flipped chamber, and it lies one level down in the filtration.

    Every pattern is decided by in_sigma_p at level rank, the chamber
    test, whose report on the one bad pattern carries the failing flat and
    certificate.  Its membership one level down is read with audit, so it
    is returned only with a point, verified by substitution, at every flat
    of that codim.  Returns (sign vector, failing flat, certificate).
    """
    a = m.arrangement
    p = a.rank() - 1
    split = set(w.family_labels())
    others = [l for l in a.labels if l not in split]
    split_order = [l for l in a.labels if l in split]

    old_rows = [list(alpha_I(w.witness_base, sorted(T))) for T in w.family.members]
    x_basis = kernel_basis(Mat(old_rows))
    rng = random.Random(seed)

    for _ in range(tries):
        delta = _frozen_signs(a, x_basis, others, rng)
        if delta is None:
            continue
        bad = []
        for tau in product((1, -1), repeat=len(split_order)):
            assign = dict(delta)
            assign.update(zip(split_order, tau))
            eps = SignVector(a.labels, tuple(assign[l] for l in a.labels))
            rep = in_sigma_p(a, eps, a.rank())
            if not rep.member:
                bad.append(rep)
            if len(bad) > 1:
                break
        if len(bad) != 1 or not in_sigma_p(a, bad[0].sign_vector, p, audit=True).member:
            continue
        rep = bad[0]
        return rep.sign_vector, rep.failing_flat, rep.certificate
    raise RetryExhausted(
        f"no simple-chamber jump found near the old flat after {tries} tries"
    )
