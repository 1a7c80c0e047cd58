"""Sign-vector consistency filtration with certificates.

Sigma_p collects the sign vectors whose chosen open half-spaces meet at
every flat of codimension at most p.  Membership checks reduce soundly to
flats of codimension exactly min(p, rank): consistency at a flat implies
consistency at every flat below it, and every lower flat extends upward
while codim < rank.  Non-membership always carries a positive relation
certificate; membership carries interior points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product

from .arrangement import (
    CHAMBER_GUARD,
    CentralArrangement,
    Flat,
    GordanCertificate,
    SignVector,
    chamber_sign_vectors,
    essentialize,
)
from .errors import GuardExceeded
from .fields import Q, sign
from .feasibility import strict_feasibility
from .linalg import Mat, kernel_basis, rref

__all__ = [
    "SigmaReport",
    "consistent_at",
    "in_sigma_p",
    "sigma_set",
    "find_jump",
    "walls",
    "is_simple_chamber",
    "epsilon_C",
    "direct_sum",
    "sigma_product_check",
]


@dataclass(frozen=True)
class SigmaReport:
    sign_vector: SignVector
    level_tested: int
    verdict: str  # "member" | "non-member"
    failing_flat: Flat | None = None
    certificate: GordanCertificate | None = None
    witness_points: dict = field(default_factory=dict)

    @property
    def member(self) -> bool:
        return self.verdict == "member"


def _cache(a: CentralArrangement) -> dict:
    c = getattr(a, "_consistency_cache", None)
    if c is None:
        c = {}
        a._consistency_cache = c
    return c


def consistent_at(a: CentralArrangement, eps: SignVector, x: Flat):
    """(True, interior point) or (False, GordanCertificate) at the flat x.

    The strict system is solved in the flat's normal-space coordinates:
    each localized row lies in the span of the echelon basis of X^perp, so
    its pivot-column entries are its coordinates there, and a point in the
    reduced system lifts by scattering onto the pivot columns.
    """
    labels = sorted(x.closed_set)
    if not labels:
        return True, tuple(Q(0) for _ in range(a.dim))
    signs = tuple(eps.sign_of(l) for l in labels)
    cache = _cache(a)
    key = (x.key(), tuple(labels), signs)
    if key in cache:
        return cache[key]
    piv = x.pivots
    reduced = [
        [s * a.normal(l)[c] for c in piv] for l, s in zip(labels, signs)
    ]
    res = strict_feasibility(reduced)
    if res.feasible:
        point = [Q(0)] * a.dim
        for c, v in zip(piv, res.point):
            point[c] = v
        out = (True, tuple(point))
    else:
        support = []
        coeffs = []
        for l, lam in zip(labels, res.certificate):
            if lam > 0:
                support.append(l)
                coeffs.append(lam)
        cert = GordanCertificate(tuple(support), tuple(coeffs))
        out = (False, cert)
    cache[key] = out
    return out


def in_sigma_p(a: CentralArrangement, eps: SignVector, p: int, audit: bool = False) -> SigmaReport:
    """Membership of eps in Sigma_p, with certificate on failure."""
    if p < 1:
        raise ValueError("p must be at least 1")
    q = min(p, a.rank())
    witness = {}
    for f in a.full_lattice():
        if f.codim != q:
            continue
        ok, payload = consistent_at(a, eps, f)
        if not ok:
            return SigmaReport(eps, p, "non-member", f, payload,
                               witness if audit else {})
        if audit:
            witness[f] = payload
    return SigmaReport(eps, p, "member", None, None, witness if audit else {})


def sigma_set(a: CentralArrangement, p: int):
    """Exhaustive Sigma_p over all 2^|A| sign vectors."""
    n = a.n_hyperplanes
    if n > CHAMBER_GUARD:
        raise GuardExceeded(
            f"{n} hyperplanes exceeds the enumeration guard ({CHAMBER_GUARD})"
        )
    out = set()
    for signs in product((1, -1), repeat=n):
        eps = SignVector(a.labels, signs)
        if in_sigma_p(a, eps, p).member:
            out.add(eps)
    return out


def walls(a: CentralArrangement, chamber: SignVector):
    """Labels whose sign flip turns the chamber into another chamber."""
    chambers = _chambers(a)
    if chamber not in chambers:
        raise ValueError("input sign vector is not a chamber")
    return {l for l in a.labels if chamber.flip([l]) in chambers}


def _chambers(a: CentralArrangement):
    c = getattr(a, "_chamber_cache", None)
    if c is None:
        c = chamber_sign_vectors(a)
        a._chamber_cache = c
    return c


def _wall_rays(a: CentralArrangement, w):
    """Rays r_j of the cone over the walls w: a_i . r_j = [i == j].

    They are the columns of the inverse of the wall matrix, so r_j spans
    the kernel of the other wall normals; None when the normals of w are
    dependent.  Needs |w| = a.dim.
    """
    d = a.dim
    rows = [list(a.normal(l)) + [int(i == j) for j in range(d)] for i, l in enumerate(w)]
    inverse, piv = rref(Mat(rows))
    if piv != tuple(range(d)):
        return None
    return [[row[d + j] for row in inverse] for j in range(d)]


def _simple_chambers_on(a: CentralArrangement, w, wall_signs):
    """The simple chambers of the essential a with walls w, one per sign pattern.

    For independent wall normals and signs e on w, the cone e_j a_j . x >= 0
    (j in w) is spanned by the rays e_j r_j.  Its interior is a chamber whose
    walls are exactly w, and its closure meets no other hyperplane off the
    origin, iff every other hyperplane takes one strict sign on all those
    rays; that sign is then the chamber's.
    """
    rays = _wall_rays(a, w)
    if rays is None:
        return
    others = [l for l in a.labels if l not in w]
    ray_signs = {
        l: [sign(sum(c * v for c, v in zip(a.normal(l), r))) for r in rays]
        for l in others
    }
    if any(0 in t for t in ray_signs.values()):
        return
    for e in wall_signs:
        signs = dict(zip(w, e))
        for l in others:
            side = {ej * t for ej, t in zip(e, ray_signs[l])}
            if len(side) != 1:
                break
            signs[l] = side.pop()
        else:
            yield SignVector(a.labels, tuple(signs[l] for l in a.labels))


def _simple_chambers(a: CentralArrangement):
    """(chamber, walls) for every simple chamber of the essential a.

    A simple chamber has exactly dim walls, so rank-subsets of the labels
    times sign patterns on them list each one exactly once.
    """
    d = a.dim
    for w in combinations(a.labels, d):
        for ch in _simple_chambers_on(a, w, product((1, -1), repeat=d)):
            yield ch, w


def is_simple_chamber(a: CentralArrangement, chamber: SignVector) -> bool:
    """Chamber closure is a simplicial cone meeting no other hyperplane.

    Requires an essential arrangement.  The walls must number rank with
    independent normals, and every non-wall hyperplane must take the
    chamber's strict sign on every ray of the closed chamber.
    """
    rk = a.rank()
    if rk != a.dim:
        raise ValueError("arrangement must be essential; essentialize first")
    w = sorted(walls(a, chamber))
    if len(w) != rk:
        return False
    pattern = tuple(chamber.sign_of(l) for l in w)
    return next(_simple_chambers_on(a, w, [pattern]), None) is not None


def epsilon_C(a: CentralArrangement, simple_chamber: SignVector) -> SignVector:
    """Flip exactly the wall signs of a simple chamber."""
    if not is_simple_chamber(a, simple_chamber):
        raise ValueError("input is not a simple chamber")
    return simple_chamber.flip(walls(a, simple_chamber))


EXHAUSTIVE_GUARD = 16
JUMP_POINT_TRIES = 20


def _jump_candidates_at(a: CentralArrangement, x: Flat):
    """Candidate jump witnesses built from one over-populated flat.

    A flipped simple chamber of the localization at x is inconsistent
    there; the signs of all hyperplanes off the flat are frozen by exact
    points of x, which is where any witness extending the local one must
    live.  Every candidate is verified by the caller, so this generator
    only has to be plausible, not complete.
    """
    loc = CentralArrangement(
        a.dim, [(l, a.normal(l)) for l in a.labels if l in x.closed_set]
    )
    ess, _ = essentialize(loc)
    simple = sorted(_simple_chambers(ess), key=lambda cw: cw[0].to_string())
    flips = [ch.flip(w).as_dict() for ch, w in simple]
    if not flips:
        return
    others = [l for l in a.labels if l not in x.closed_set]
    basis = kernel_basis(Mat([list(r) for r in x.normal_space])) if x.normal_space else []
    rng = random.Random(7)
    seen = set()
    for _ in range(JUMP_POINT_TRIES if others else 1):
        point = [Q(0)] * a.dim
        for v in basis:
            c = Q(rng.randint(-9, 9))
            for i in range(a.dim):
                point[i] = point[i] + c * v[i]
        vals = {l: sum(c * t for c, t in zip(a.normal(l), point)) for l in others}
        if any(v == 0 for v in vals.values()):
            continue
        frozen = {l: sign(v) for l, v in vals.items()}
        for flip in flips:
            assign = dict(frozen)
            assign.update(flip)
            eps = SignVector(a.labels, tuple(assign[l] for l in a.labels))
            if eps not in seen:
                seen.add(eps)
                yield eps
        if not others:
            return


def find_jump(a: CentralArrangement, p: int):
    """A sign vector in Sigma_p minus Sigma_{p+1}, or None when equal.

    Candidates built from flipped simple chambers of localizations at
    codim-(p+1) flats are tried first; each is fully verified before being
    returned.  The completeness fallback is exhaustive enumeration, only
    available under the size guard.
    """
    rk = a.rank()
    if not 2 <= p < rk:
        raise ValueError("need 2 <= p < rank")
    n = a.n_hyperplanes

    def report_if_jump(eps):
        if not in_sigma_p(a, eps, p).member:
            return None
        rep = in_sigma_p(a, eps, p + 1)
        if rep.member:
            return None
        return eps, rep.failing_flat, rep.certificate

    if n <= CHAMBER_GUARD:
        for x in a.full_lattice():
            # a localization cannot be inconsistent unless over-populated
            if x.codim != p + 1 or len(x.closed_set) < p + 2:
                continue
            for eps in _jump_candidates_at(a, x):
                hit = report_if_jump(eps)
                if hit:
                    return hit
    if n > EXHAUSTIVE_GUARD:
        raise GuardExceeded(
            f"cannot certify Sigma_{p} = Sigma_{p + 1} beyond "
            f"{EXHAUSTIVE_GUARD} hyperplanes ({n} given)"
        )
    for signs in product((1, -1), repeat=n):
        hit = report_if_jump(SignVector(a.labels, signs))
        if hit:
            return hit
    return None


def direct_sum(a1: CentralArrangement, a2: CentralArrangement) -> CentralArrangement:
    """Block-diagonal sum; labels are prefixed "1:" and "2:"."""
    zeros1 = [Q(0)] * a1.dim
    zeros2 = [Q(0)] * a2.dim
    hps = [("1:" + l, list(a1.normal(l)) + zeros2) for l in a1.labels]
    hps += [("2:" + l, zeros1 + list(a2.normal(l))) for l in a2.labels]
    return CentralArrangement(a1.dim + a2.dim, hps)


def sigma_product_check(a1: CentralArrangement, a2: CentralArrangement, p: int) -> bool:
    """Verify Sigma_p(A1 + A2) = Sigma_min(p,l1)(A1) x Sigma_min(p,l2)(A2)."""
    if a1.n_hyperplanes + a2.n_hyperplanes > CHAMBER_GUARD:
        raise GuardExceeded("sum too large for exhaustive product check")
    total = sigma_set(direct_sum(a1, a2), p)
    s1 = sigma_set(a1, min(p, a1.dim) if a1.dim else 1)
    s2 = sigma_set(a2, min(p, a2.dim) if a2.dim else 1)
    expected = set()
    for e1 in s1:
        for e2 in s2:
            labels = tuple("1:" + l for l in e1.labels) + tuple(
                "2:" + l for l in e2.labels
            )
            expected.add(SignVector(labels, e1.signs + e2.signs))
    return total == expected
