"""Sign-vector consistency filtration with certificates.

Sigma_p collects the sign vectors whose chosen open half-spaces meet at
every flat of codimension at most p.  Membership checks reduce soundly to
flats of codimension exactly min(p, rank): consistency at a flat implies
consistency at every flat below it, and every lower flat extends upward
while codim < rank.  Non-membership always carries a positive relation
certificate; membership carries interior points when they are asked for.

A flat is decided by one cover test on the lattice's cocircuit sign
masks (an oriented matroid's covectors are the compositions of its
cocircuits: eps is consistent at X iff the cocircuits of X's lines that
conform to it cover X's labels), so the verdict is bit operations on
label masks.  in_sigma_p reads eps's positive mask once and runs that
test on one precomputed tuple per level.  A non-member's certificate is a
conforming circuit, found by deleting labels, with its relation from one
fraction-free kernel vector; a member's interior point, a sum of oriented
rays of the flats one codim down or, at an independent flat, one kernel
vector, is built only when a caller reads it.

The same test on the prefixes of the over-populated flats of codim at
most q = min(p, rank), cut from the level tuples, drives a DFS over the
labels that lists Sigma_p whole.  That DFS is find_jump's only search:
each member of Sigma_p it lists gets the cover tests of the level p + 1
tuple, and the first that fails one lies outside Sigma_{p+1}; with none,
equality is certified, up to CHAMBER_GUARD hyperplanes.

The test at level rank is the chamber test: walls runs it on a chamber's
mask and on each one-label flip, and is_simple_chamber reads the rest off
flat_of, so neither lists chambers nor has a guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .arrangement import (
    CHAMBER_GUARD,
    CentralArrangement,
    Flat,
    GordanCertificate,
    SignVector,
    _bit_indices,
    _cocircuits,
    _conformal_masks,
    _covered,
    _enumeration_guard,
    _level,
    _pivot_rows,
    _same_flat,
    _sign_vector,
    zaslavsky_chambers,
)
from .errors import GuardExceeded, VerificationError
from .fields import Q
from .linalg import _ring_kernel, _ring_primitive, _ring_scalars

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


def _proofs(a: CentralArrangement) -> dict:
    """Certificates and points kept on a, under (closed mask, positive mask
    on it): at most the sum over flats F of 2^|closed F| entries."""
    return a.__dict__.setdefault("_proof_cache", {})


def _positive_mask(a: CentralArrangement, eps: SignVector) -> int:
    """eps's positive labels as a's label mask; ValueError unless eps has
    exactly a's labels, in any order."""
    if eps.labels == a.labels:
        return eps.positive_mask
    if len(eps.labels) != a.n_hyperplanes or set(eps.labels) != set(a.labels):
        raise ValueError("sign vector labels differ from the arrangement's")
    return a.label_mask(l for l, s in zip(eps.labels, eps.signs) if s > 0)


def _flat_index(a: CentralArrangement, x: Flat):
    """(lattice index, closed mask) of the flat x of a, the index None when
    x is independent: flat_of checks such an x, with no lattice.  ValueError
    when x is not a flat of a."""
    if len(x.closed_set) == x.codim:
        if x.closed_set <= a._bits.keys() and _same_flat(a.flat_of(x.closed_set), x):
            return None, a.label_mask(x.closed_set)
    elif (i := a._lattice_index(x)) is not None:
        return i, a.lattice_masks()[i]
    raise ValueError("flat does not belong to this arrangement")


def _lift(dim, pivots, y):
    """The point with coordinates y on the pivot columns and 0 elsewhere."""
    point = [Q(0)] * dim
    for c, v in zip(pivots, y):
        point[c] = v
    return tuple(point)


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


def _verified_point(a, x, rows, pos, y):
    """y, made primitive in x's pivot coordinates, lifted to a's once
    substitution shows that each scaled row (a dict label index -> row)
    has pos's sign there."""
    ring = a._ring
    y = _ring_primitive(y, a._rt5)
    for j, row in rows.items():
        if ring.sign(ring.dot(row, y)) != (1 if pos >> j & 1 else -1):
            raise VerificationError(f"point misses the sign of {a.labels[j]!r} at {sorted(x.closed_set)}")
    return _lift(a.dim, x.pivots, _ring_scalars(y, a._rt5))


def _ray_point(a, x, mask, pos, flats):
    """An interior point of the local cone of the sign vector with positive
    mask pos at x, closed mask mask, in a's coordinates, given the label
    masks of the flats x covers whose cocircuits conform to it and cover x.

    Each flat's ray spans it modulo x, in x's pivot coordinates: the
    primitive kernel vector of its lexicographically first q - 1
    independent scaled rows, q the codim, oriented to the sign vector.
    Their sum is interior.
    """
    ring = a._ring
    q = x.codim
    idx = _bit_indices(mask)
    rows = dict(zip(idx, _pivot_rows(a, x, idx)))
    total = [ring.zero] * q
    for y in flats:
        ray = next(
            r for t in combinations(_bit_indices(y), q - 1)
            if (r := _ring_kernel([rows[j] for j in t], ring)) is not None
        )
        ray = _ring_primitive(ray, a._rt5)
        j = next(j for j in idx if not y >> j & 1)
        add = ring.add if (ring.sign(ring.dot(rows[j], ray)) > 0) == bool(pos >> j & 1) else ring.sub
        total = [add(u, v) for u, v in zip(total, ray)]
    return _verified_point(a, x, rows, pos, total)


def _point(a, x, i, mask, cocircuits, pos):
    """An interior point of the local cone at x of the sign vector with
    positive mask pos, which is consistent there; i, mask and cocircuits as
    in a _level entry.

    An over-populated x takes the sum of the oriented rays of the flats it
    covers whose cocircuits conform (_ray_point).  An independent x has
    invertible scaled rows R in its pivot coordinates, so the q x (q + 1)
    system [R | -eps] has one kernel vector (y, t) with t != 0: oriented to
    t > 0, R y = t eps has eps's signs, from one fraction-free kernel.
    """
    if cocircuits is not None:
        masks = a._masks
        covers = zip(a._covers[i], cocircuits)
        return _ray_point(a, x, mask, pos, [masks[y] for y, (supp, c) in covers if (pos ^ c) & supp in (0, supp)])
    ring = a._ring
    idx = _bit_indices(mask)
    rows = dict(zip(idx, _pivot_rows(a, x, idx)))
    k = _ring_kernel([row + [ring.of_int(-1 if pos >> j & 1 else 1)] for j, row in rows.items()], ring)
    if ring.sign(k[-1]) < 0:
        k = [ring.sub(ring.zero, v) for v in k]
    return _verified_point(a, x, rows, pos, k[:-1])


def _proof(a, eps, i, x, mask, cocircuits, pos, member):
    """eps's point at the flat x when member, else its certificate, built
    on the first read and kept under (closed mask, positive mask on x)."""
    proofs = _proofs(a)
    key = (mask, pos & mask)
    hit = proofs.get(key)
    if hit is None:
        if member:
            hit = _point(a, x, i, mask, cocircuits, pos)
        else:
            hit = _circuit_certificate(a, eps, *_failing_circuit(a, i, pos))
        proofs[key] = hit
    return hit


def consistent_at(a: CentralArrangement, eps: SignVector, x: Flat):
    """(True, interior point) or (False, GordanCertificate) at the flat x.

    The system is solved in the flat's normal-space coordinates: each
    localized row lies in X^perp, so its pivot-column entries are its
    coordinates over the echelon basis there, and a point in the reduced
    system lifts by scattering onto the pivot columns.

    - One cover test decides (arrangement._covered): eps is consistent at
      x iff the cocircuits of the flats x covers that conform to it cover
      x's labels.  A flat whose closed set numbers its codim q has
      independent normals, so every sign vector is consistent there.
    - A member's point at an over-populated flat is the sum of the
      oriented rays of those flats, one fraction-free kernel vector each;
      at an independent flat it is one kernel vector of [rows | -eps],
      and it reads no lattice.
    - A non-member's certificate comes from the first flat below x, in
      lattice order, where eps fails: its labels are deleted from the
      highest down while the rest still spans and fails, which leaves a
      conforming circuit, and one kernel vector gives its relation.

    eps must have exactly a's labels, in any order, and x must be a flat
    of a: ValueError otherwise.  Certificates and points are verified by
    substitution and kept on the arrangement, with in_sigma_p's, under two
    ints, x's closed mask and eps's positive mask on it: at most the sum
    over flats F of 2^|closed F| entries.  Verdicts are a few bit
    operations and are not kept.  Beside them are one int per SignVector
    (its positive mask) and the level tuples, at most F entries (_level).
    A point is built on the first read that returns it (this function, or
    in_sigma_p with audit), never by an unaudited in_sigma_p.
    """
    pos = _positive_mask(a, eps)
    i, mask = _flat_index(a, x)
    if i is not None:
        x = a.full_lattice()[i]
    cocircuits = None if i is None else _cocircuits(a, i, mask)
    member = cocircuits is None or _covered(mask, cocircuits, pos)
    return member, _proof(a, eps, i, x, mask, cocircuits, pos, member)


def _fails(a, i, pos):
    """The cover test at the lattice flat i."""
    m = a.lattice_masks()[i]
    return m.bit_count() > a.full_lattice()[i].codim and not _covered(m, _cocircuits(a, i, m), pos)


def _failing_circuit(a, i, pos):
    """(lattice index, support) of a circuit conforming to the sign vector
    with positive mask pos, which fails at the lattice flat i.

    A sign vector fails at a flat below i only if it fails at a flat i
    covers, so the failing flats of least codim below i are reached down
    the failing covers, and the first of them in lattice order is the
    first failing flat below i.  A conforming circuit spans it, as a
    smaller one would span a failing flat before it.  Deleting its labels
    from the highest down while the rest spans it and fails leaves such a
    circuit.
    """
    level = {i}
    while below := {z for y in level for z in a._covers[y] if _fails(a, z, pos)}:
        level = below
    z = min(level)
    t = a.lattice_masks()[z]
    for j in reversed(_bit_indices(t)):
        rest = t ^ 1 << j
        cocircuits = _cocircuits(a, z, rest)
        if cocircuits is not None and not _covered(rest, cocircuits, pos):
            t = rest
    return z, t


def in_sigma_p(a: CentralArrangement, eps: SignVector, p: int, audit: bool = False) -> SigmaReport:
    """Membership of eps in Sigma_p, with certificate on failure and, when
    audit, the interior point of each flat met on success.

    eps's positive mask is read once; each codim-min(p, rank) flat of the
    level tuple is then one cover test, and the first that fails is the
    failing flat.  Proofs come from consistent_at's cache.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    pos = _positive_mask(a, eps)
    proofs = _proofs(a)
    witness = {}
    for i, f, mask, cocircuits in _level(a, min(p, a.rank())):
        if cocircuits is not None and not _covered(mask, cocircuits, pos):
            return SigmaReport(eps, p, "non-member", f, _proof(a, eps, i, f, mask, cocircuits, pos, False), witness)
        if audit:
            # a kept point is read here; _proof builds a missing one
            witness[f] = proofs.get((mask, pos & mask)) or _proof(a, eps, i, f, mask, cocircuits, pos, True)
    return SigmaReport(eps, p, "member", None, None, witness)


def sigma_set(a: CentralArrangement, p: int):
    """Sigma_p as a set of sign vectors, listed by circuit DFS."""
    _enumeration_guard(a)
    if p < 1:
        raise ValueError("p must be at least 1")
    return {_sign_vector(a, pos) for pos in _conformal_masks(a, min(p, a.rank()))}


def walls(a: CentralArrangement, chamber: SignVector):
    """Labels whose sign flip turns the chamber into another chamber.

    A sign vector is a chamber iff it is consistent at the codim-rank
    flat: in_sigma_p's cover test at level rank, on its positive mask.
    That test runs once for the chamber and once per flipped label, with
    no chamber list and no guard.  The chamber must have exactly a's
    labels, in any order: ValueError otherwise, or when it is no chamber.
    """
    pos = _positive_mask(a, chamber)
    level = _level(a, a.rank())

    def is_chamber(p):
        return all(c is None or _covered(m, c, p) for _, _, m, c in level)

    if not is_chamber(pos):
        raise ValueError("input sign vector is not a chamber")
    return {l for j, l in enumerate(a.labels) if is_chamber(pos ^ 1 << j)}


def is_simple_chamber(a: CentralArrangement, chamber: SignVector) -> bool:
    """Chamber closure is a simplicial cone meeting no other hyperplane.

    Requires an essential arrangement.  The walls must number rank, and for
    each wall w the other walls must cut out a line on no other
    hyperplane: flat_of(walls - {w}) has exactly rank - 1 labels.  Then no
    wall lies in the span of the others, so the walls are independent and
    the closed chamber is spanned by the rays of those lines.  A non-wall
    hyperplane takes one strict sign on the open chamber, so it meets the
    closed chamber away from 0 iff it holds one of those rays.
    """
    rk = a.rank()
    if rk != a.dim:
        raise ValueError("arrangement must be essential; essentialize first")
    w = walls(a, chamber)
    return len(w) == rk and all(len(a.flat_of(w - {l}).closed_set) == rk - 1 for l in w)


def epsilon_C(a: CentralArrangement, simple_chamber: SignVector) -> SignVector:
    """Flip exactly the wall signs of a simple chamber."""
    if not is_simple_chamber(a, simple_chamber):
        raise ValueError("input is not a simple chamber")
    return simple_chamber.flip(walls(a, simple_chamber))


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
    search.  Otherwise, up to CHAMBER_GUARD hyperplanes, the DFS lists
    Sigma_p in product((1, -1)) order, and each member gets one cover test
    per over-populated codim-(p + 1) flat of the level tuple: a member of
    Sigma_p lies in Sigma_{p+1} iff it passes them all.  The first member
    that fails one is the witness, certified by in_sigma_p: a certificate
    at p + 1 and audited points at p.  Without one, at p + 1 = rank the
    members must number Zaslavsky's count.  Past the guard it raises
    GuardExceeded.
    """
    rk = a.rank()
    if not 2 <= p < rk:
        raise ValueError("need 2 <= p < rank")
    above = [(m, c) for _, _, m, c in _level(a, p + 1) if c is not None]
    if not above:
        return None
    _enumeration_guard(a)
    members = 0
    for pos in _conformal_masks(a, p):
        for m, cocircuits in above:
            if not _covered(m, cocircuits, pos):
                return _certified_jump(a, _sign_vector(a, pos), p)
        members += 1
    if p + 1 == rk and members != zaslavsky_chambers(a):
        raise VerificationError(
            f"|Sigma_{p}| = {members} differs from Zaslavsky's count with no jump"
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
