"""Sign-vector consistency filtration with certificates.

Sigma_p collects the sign vectors whose chosen open half-spaces meet at
every flat of codimension at most p.  Membership checks reduce soundly to
flats of codimension exactly min(p, rank): consistency at a flat implies
consistency at every flat below it, and every lower flat extends upward
while codim < rank.  Non-membership always carries a positive relation
certificate; membership carries interior points when they are asked for.

A flat is decided by signed circuits on label masks (Gordan's alternative
and conformal decomposition: eps fails at X iff a signed circuit inside
X's closed set conforms to it), and both the verdict and its certificate
are exact integer work.  An interior point, a sum of oriented rays of the
flats one codim down, is built only when a caller reads it.  A strict LP
runs only at an over-populated flat whose circuit table would cost more
than CIRCUIT_BOUND.

The circuits inside codim-q closed sets, q = min(p, rank), are those of
the over-populated flats of codim at most q, so a DFS over the labels
cutting each prefix one of them conforms to lists Sigma_p whole.  That
DFS is find_jump's only search: it certifies Sigma_p = Sigma_{p+1} by
counting both, or returns the first member of Sigma_p outside Sigma_{p+1},
up to CHAMBER_GUARD hyperplanes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .arrangement import (
    CHAMBER_GUARD,
    CentralArrangement,
    Flat,
    GordanCertificate,
    SignVector,
    _bit_indices,
    _circuits_below,
    _conformal_masks,
    _eval,
    _sign_vector,
    _signed_circuits,
    _pivot_rows,
    chamber_sign_vectors,
    zaslavsky_chambers,
)
from .errors import GuardExceeded, VerificationError
from .fields import Q, sign
from .feasibility import strict_feasibility
from .linalg import Mat, _ring_kernel, _ring_primitive, _ring_scalars, rref

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


# An over-populated flat of n labels at codim q is decided by circuits iff
# its table's minors and (q+1)-subsets, sum over k <= q + 1 of C(n, k),
# number at most this.
CIRCUIT_BOUND = 2**15


def _cache(a: CentralArrangement, name="_consistency_cache") -> dict:
    c = getattr(a, name, None)
    if c is None:
        c = {}
        setattr(a, name, c)
    return c


def _lift(dim, pivots, y):
    """The point with coordinates y on the pivot columns and 0 elsewhere."""
    point = [Q(0)] * dim
    for c, v in zip(pivots, y):
        point[c] = v
    return tuple(point)


def _conforming(tables, pos):
    """(lattice index, support) of the first circuit of the tables that
    conforms to the sign vector with positive-label mask pos, or None.
    The tables are built only up to that circuit; None reads them whole."""
    for i, supp, cpos in _signed_circuits(tables):
        t = (pos ^ cpos) & supp
        if t == 0 or t == supp:
            return i, supp
    return None


def _circuit_certificate(a, eps, i, supp):
    """The Gordan certificate of the circuit with support supp spanning the
    lattice flat i, to which eps conforms.

    The kernel vector c of the scaled rows d_j a_j in the flat's pivot
    coordinates has sum c_j d_j a_j = 0, so lambda_j = +-eps_j c_j d_j,
    one sign for all j, is positive.
    """
    f = a.full_lattice()[i]
    ring = a._ring
    idx = _bit_indices(supp)
    scaled = a._scaled_rows()
    rows = _pivot_rows(a, f, idx)
    c = _ring_kernel([[row[k] for row in rows] for k in range(f.codim)], ring)
    labels = [a.labels[k] for k in idx]
    coeffs = [
        ring.mul(v, ring.of_int(eps.sign_of(l) * scaled[k][0]))
        for v, k, l in zip(c, idx, labels)
    ]
    if ring.sign(coeffs[0]) < 0:
        coeffs = [ring.sub(ring.zero, v) for v in coeffs]
    cert = GordanCertificate(tuple(labels), tuple(_ring_scalars(coeffs, a._rt5)))
    if not cert.verify(a, eps):
        raise VerificationError(f"circuit certificate fails at {labels}")
    return cert


def _rays(a, x, idx):
    """(support, positive mask, ray) for each codim-(q-1) flat Y below x,
    flattened into one tuple, q + 2 entries each.

    The ray spans Y modulo x, in x's pivot coordinates: the kernel vector
    of q - 1 independent scaled rows T, orthogonal to exactly the rows of
    Y, made primitive.  The subsets T are met in lexicographic order and
    each Y keeps the first; support holds x's labels off Y and the positive
    mask those whose rows have a positive product with the ray.
    """
    q = x.codim
    ring = a._ring
    xrows = dict(zip(idx, _pivot_rows(a, x, idx)))
    out = []
    for t in combinations(idx, q - 1):
        tmask = 0
        for j in t:
            tmask |= 1 << j
        if any(tmask & supp == 0 for supp in out[:: q + 2]):
            continue  # t lies in a flat met already
        ray = _ring_kernel([xrows[j] for j in t], ring)
        if ray is None:
            continue  # t is dependent
        ray = _ring_primitive(ray, a._rt5)
        supp = pos = 0
        for j in idx:
            g = ring.sign(ring.dot(xrows[j], ray))
            if g:
                supp |= 1 << j
            if g > 0:
                pos |= 1 << j
        out += (supp, pos, *ray)
    return tuple(out)


def _cocircuit_point(a, x, mask, pos):
    """An interior point of the local cone of the sign vector with positive
    mask pos at x, in x's pivot coordinates, when no circuit conforms.

    The cone is pointed (the closed set spans X^perp) and full, so it is
    spanned by its extreme rays, each the ray of a codim-(q-1) flat below x
    oriented to the sign vector, and the sum of all rays that orient is
    interior.  It is checked by substitution into every scaled row.
    """
    idx = _bit_indices(mask)
    kept = _cache(a, "_ray_tables")
    rays = kept.get(mask)
    if rays is None:
        rays = _rays(a, x, idx)
        if len(idx) > x.codim:
            kept[mask] = rays
    ring = a._ring
    q = x.codim
    total = [ring.zero] * q
    for k in range(0, len(rays), q + 2):
        supp, rpos = rays[k], rays[k + 1]
        t = (pos ^ rpos) & supp
        if t == 0:
            total = [ring.add(u, v) for u, v in zip(total, rays[k + 2 : k + q + 2])]
        elif t == supp:
            total = [ring.sub(u, v) for u, v in zip(total, rays[k + 2 : k + q + 2])]
    for j, row in zip(idx, _pivot_rows(a, x, idx)):
        if ring.sign(ring.dot(row, total)) != (1 if pos >> j & 1 else -1):
            raise VerificationError(f"ray sum misses the sign of {a.labels[j]!r} at {sorted(x.closed_set)}")
    return _lift(a.dim, x.pivots, _ring_scalars(total, a._rt5))


def consistent_at(a: CentralArrangement, eps: SignVector, x: Flat):
    """(True, interior point) or (False, GordanCertificate) at the flat x.

    The system is solved in the flat's normal-space coordinates: each
    localized row lies in X^perp, so its pivot-column entries are its
    coordinates over the echelon basis there, and a point in the reduced
    system lifts by scattering onto the pivot columns.

    - eps fails at x iff a signed circuit inside the closed set conforms
      to it (Gordan's alternative and conformal decomposition).  The
      circuit tables of the over-populated flats below x, x included, are
      scanned in lattice order, each in lexicographic order, so the first
      conforming circuit, and its certificate, are deterministic.  When the
      closed set numbers codim its normals are independent: no circuit.
    - Without one, the sum of the oriented rays of the codim-(q-1) flats
      below x is an interior point.  Each ray is one fraction-free kernel
      vector, so a flat whose closed set numbers its codim q costs q of
      them and no table.
    - Only an over-populated x of n labels with sum over k <= q + 1 of
      C(n, k) over CIRCUIT_BOUND solves a strict LP instead.  That cost
      grows with n and q, so no flat below x costs more.

    A point is built on the first read that returns it (this function,
    or in_sigma_p with audit), never by an unaudited in_sigma_p; find_jump
    and jump_after_perturbation audit only the witness they return.
    Certificates and points are verified by substitution.  Four tables
    are kept on the arrangement, each with a bound: one circuit table per
    over-populated flat decided by circuits, built up to the first
    circuit a read finds conforming and whole only once a read finds
    none, at most CIRCUIT_BOUND pairs of label masks, with a memo of at
    most sum over k <= q of C(n, k) minors, n labels, only while it is
    partial; one list per (mask, codim) met of the tables below it,
    sharing them; one ray table per such flat whose point was read, at
    most one ray per codim-(q-1) flat of the lattice below it; and the
    results, one per flat and local sign pattern met, so at most sum over
    flats of 2^|closed set|.
    """
    return _consistent(a, eps, x, audit=True)


def _consistent(a, eps, x, audit):
    """consistent_at's answer; a member's point is None unless audit."""
    labels = sorted(x.closed_set)
    if not labels:
        return True, tuple(Q(0) for _ in range(a.dim))
    signs = tuple(eps.sign_of(l) for l in labels)
    cache = _cache(a)
    key = (x.closed_set, signs)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _decide(a, eps, x, labels, signs)
    if audit and hit[1] is None:
        pos = a.label_mask(l for l, s in zip(labels, signs) if s > 0)
        hit = cache[key] = (True, _cocircuit_point(a, x, a.label_mask(labels), pos))
    return hit


def _decide(a, eps, x, labels, signs):
    """(False, certificate), or (True, None) for a member, on a cache miss."""
    q = x.codim
    if len(labels) == q:
        # the labels of such a flat, and so of every flat below it, are
        # independent: no circuit
        return True, None
    if sum(comb(len(labels), k) for k in range(q + 2)) > CIRCUIT_BOUND:
        return _lp_decide(a, x, labels, signs)
    pos = a.label_mask(l for l, s in zip(labels, signs) if s > 0)
    hit = _conforming(_circuits_below(a, a.label_mask(labels), q), pos)
    if hit is not None:
        return False, _circuit_certificate(a, eps, *hit)
    return True, None


def _lp_decide(a, x, labels, signs):
    """The strict LP of x's localized rows in its pivot coordinates."""
    piv = x.pivots
    res = strict_feasibility(
        [[s * a.normal(l)[c] for c in piv] for l, s in zip(labels, signs)]
    )
    if res.feasible:
        return True, _lift(a.dim, piv, res.point)
    support = [l for l, lam in zip(labels, res.certificate) if lam > 0]
    coeffs = [lam for lam in res.certificate if lam > 0]
    return False, GordanCertificate(tuple(support), tuple(coeffs))


def in_sigma_p(a: CentralArrangement, eps: SignVector, p: int, audit: bool = False) -> SigmaReport:
    """Membership of eps in Sigma_p, with certificate on failure and, when
    audit, the interior point of each flat met on success."""
    if p < 1:
        raise ValueError("p must be at least 1")
    q = min(p, a.rank())
    witness = {}
    for f in a.full_lattice():
        if f.codim != q:
            continue
        ok, payload = _consistent(a, eps, f, audit)
        if not ok:
            return SigmaReport(eps, p, "non-member", f, payload, witness)
        if audit:
            witness[f] = payload
    return SigmaReport(eps, p, "member", None, None, witness)


def sigma_set(a: CentralArrangement, p: int):
    """Sigma_p as a set of sign vectors, listed by circuit DFS."""
    n = a.n_hyperplanes
    if n > CHAMBER_GUARD:
        raise GuardExceeded(
            f"{n} hyperplanes exceeds the enumeration guard ({CHAMBER_GUARD})"
        )
    if p < 1:
        raise ValueError("p must be at least 1")
    return {_sign_vector(a, pos) for pos in _conformal_masks(a, min(p, a.rank()))}


def walls(a: CentralArrangement, chamber: SignVector):
    """Labels whose sign flip turns the chamber into another chamber."""
    chambers = chamber_sign_vectors(a)
    if chamber not in chambers:
        raise ValueError("input sign vector is not a chamber")
    return {l for l in a.labels if chamber.flip([l]) in chambers}


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


def is_simple_chamber(a: CentralArrangement, chamber: SignVector) -> bool:
    """Chamber closure is a simplicial cone meeting no other hyperplane.

    Requires an essential arrangement.  The walls must number rank with
    independent normals, and every non-wall hyperplane must take the
    chamber's strict sign on every ray of the closed chamber: for signs e
    on the walls w the closed chamber is spanned by the rays e_j r_j.
    """
    rk = a.rank()
    if rk != a.dim:
        raise ValueError("arrangement must be essential; essentialize first")
    w = sorted(walls(a, chamber))
    if len(w) != rk:
        return False
    rays = _wall_rays(a, w)
    if rays is None:
        return False
    e = [chamber.sign_of(l) for l in w]
    return all(
        {ej * sign(_eval(a.normal(l), r)) for ej, r in zip(e, rays)} == {chamber.sign_of(l)}
        for l in a.labels
        if l not in w
    )


def epsilon_C(a: CentralArrangement, simple_chamber: SignVector) -> SignVector:
    """Flip exactly the wall signs of a simple chamber."""
    if not is_simple_chamber(a, simple_chamber):
        raise ValueError("input is not a simple chamber")
    return simple_chamber.flip(walls(a, simple_chamber))


def _frozen_signs(a: CentralArrangement, basis, others, rng: random.Random):
    """(point, signs of others there) at a random integer point of span(basis).

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
    return point, signs


def _certified_jump(a: CentralArrangement, eps: SignVector, p: int):
    """(eps, failing flat, certificate) for a jump eps in Sigma_p minus
    Sigma_{p+1}.  Membership at p is read with audit, so the witness has
    a point verified by substitution at every codim-p flat; a member
    verdict without one, or a member at p + 1, raises VerificationError."""
    rep = in_sigma_p(a, eps, p + 1)
    if rep.member or not in_sigma_p(a, eps, p, audit=True).member:
        raise VerificationError(f"{eps.to_string()} is no jump from Sigma_{p}")
    return eps, rep.failing_flat, rep.certificate


def find_jump(a: CentralArrangement, p: int):
    """A sign vector in Sigma_p minus Sigma_{p+1}, or None when equal.

    When no over-populated flat has codim p + 1 the circuits at p and
    p + 1 are the same, so Sigma_p = Sigma_{p+1}, certified before any
    circuit is computed.  Otherwise, up to CHAMBER_GUARD hyperplanes, the
    circuit DFS lists Sigma_p in product((1, -1)) order.  Sigma_{p+1} lies
    in Sigma_p, so equal counts certify None (Zaslavsky's count at
    p + 1 = rank); otherwise the first member outside the DFS's
    Sigma_{p+1} is the witness, certified by in_sigma_p: a certificate at
    p + 1 and audited points at p.  Past the guard it raises GuardExceeded.
    """
    rk = a.rank()
    if not 2 <= p < rk:
        raise ValueError("need 2 <= p < rank")
    n = a.n_hyperplanes
    full = (1 << n) - 1
    if len(_circuits_below(a, full, p)) == len(_circuits_below(a, full, p + 1)):
        return None
    if n > CHAMBER_GUARD:
        raise GuardExceeded(
            f"{n} hyperplanes exceeds the enumeration guard ({CHAMBER_GUARD})"
        )
    members = _conformal_masks(a, p)
    if p + 1 == rk and len(members) == zaslavsky_chambers(a):
        return None
    above = set(_conformal_masks(a, p + 1))
    pos = next((m for m in members if m not in above), None)
    if pos is not None:
        return _certified_jump(a, _sign_vector(a, pos), p)
    if p + 1 == rk:
        raise VerificationError(
            f"|Sigma_{p}| = {len(members)} differs from Zaslavsky's count with no jump"
        )
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
        raise GuardExceeded("sum too large for the product check")
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
