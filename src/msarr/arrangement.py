"""Central hyperplane arrangements and their combinatorics.

An arrangement is an ordered list of labeled nonzero normals in an exact
ambient space.  From it we derive the intersection lattice (BFS on
codimension; a flat is identified by its closed label set, the labels of
the hyperplanes containing it), localizations, an essentialization with a
point back-map, chamber sign vectors, the Zaslavsky chamber count used as
an independent oracle, and minimal circuits with their dependency
coefficients.  Beside the lattice each arrangement keeps every closed set
as an integer label mask, for subset tests by bit operations, the flats
each flat covers, and one more mask per flat, pos(F): the labels positive
at a point of F off every hyperplane outside it.  On the labels of a flat
X that covers F, pos(F) is the cocircuit of the line F/X up to sign, so
one cover test on those masks decides consistency at X (sigma) and
drives the DFS that lists chambers and Sigma_p.

Every lattice decision runs on integers: each normal gets one canonical
integral form at construction (a primitive integer vector over Q, a pair
(A, B) for A + B*sqrt5 over Q(sqrt5)), which also rejects parallel
hyperplanes; a hyperplane contains a flat iff its integral normal is
orthogonal to an integer basis of the flat, in rank coordinates (the pivot
columns of the normals), and a cover's basis and pivots come from its
parent's by one fraction-free step, with no echelon form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import lcm

from .errors import GuardExceeded
from .fields import Q, Qrt5, as_scalar, format_scalar, parse_scalar
from .linalg import (
    _RING_Q,
    _RING_RT5,
    Mat,
    _cut,
    _integral,
    _integral_ops,
    _ring_kernel,
    _ring_row,
    _ring_scalars,
    rref,
)

__all__ = [
    "CentralArrangement",
    "Flat",
    "SignVector",
    "GordanCertificate",
    "EssentialMap",
    "intersection_lattice",
    "localization",
    "essentialize",
    "chamber_sign_vectors",
    "zaslavsky_chambers",
    "circuits",
    "matroid_of_arrangement",
    "CHAMBER_GUARD",
]

CHAMBER_GUARD = 22


@dataclass(frozen=True)
class Flat:
    """A lattice element: all hyperplanes containing it, plus its X^perp.

    The closed label set determines the flat within its arrangement, so
    flats hash and compare by (closed_set, codim).  pivots are the pivot
    columns of the echelon basis of X^perp, the coordinates the flat is
    computed in; rows, the normals of the closed set, span X^perp.
    """

    closed_set: frozenset
    codim: int
    pivots: tuple = field(compare=False)
    rows: tuple = field(compare=False, repr=False)

    @cached_property
    def normal_space(self) -> tuple:
        """The reduced echelon basis of X^perp, computed on first read."""
        return rref(self.rows)[0]

    def sorted_labels(self):
        return sorted(self.closed_set)


@dataclass(frozen=True)
class SignVector:
    """Total +/- assignment over an arrangement's labels, in list order."""

    labels: tuple
    signs: tuple  # entries +1 / -1, parallel to labels

    def __post_init__(self):
        if len(self.labels) != len(self.signs):
            raise ValueError("labels and signs must have equal length")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @cached_property
    def _index(self) -> dict:
        """label -> position in labels, built on the first sign_of."""
        return {l: i for i, l in enumerate(self.labels)}

    def sign_of(self, label) -> int:
        return self.signs[self._index[label]]

    @cached_property
    def positive_mask(self) -> int:
        """The positive labels as an integer: bit i for the i-th label."""
        return sum(1 << i for i, s in enumerate(self.signs) if s > 0)

    def as_dict(self):
        return dict(zip(self.labels, self.signs))

    def flip(self, flip_labels) -> "SignVector":
        fl = set(flip_labels)
        unknown = fl - set(self.labels)
        if unknown:
            raise KeyError(f"unknown labels: {sorted(unknown)}")
        return SignVector(
            self.labels,
            tuple(-s if l in fl else s for l, s in zip(self.labels, self.signs)),
        )

    def to_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    @classmethod
    def from_string(cls, labels, text: str) -> "SignVector":
        labels = tuple(labels)
        if len(text) != len(labels):
            raise ValueError(f"expected {len(labels)} signs, got {len(text)}")
        if set(text) - {"+", "-"}:
            raise ValueError("sign string may only contain + and -")
        return cls(labels, tuple(1 if c == "+" else -1 for c in text))


@dataclass(frozen=True)
class GordanCertificate:
    """Positive relation sum lambda_H e_H a_H = 0 proving inconsistency."""

    support: tuple
    coefficients: tuple

    def __post_init__(self):
        if not self.support:
            raise ValueError("certificate support is empty")
        if len(self.support) != len(self.coefficients):
            raise ValueError("support/coefficient length mismatch")
        if any(not c > 0 for c in self.coefficients):
            raise ValueError("certificate coefficients must be positive")

    def verify(self, arrangement: "CentralArrangement", eps: SignVector) -> bool:
        """sum lambda_H e_H a_H = 0 on every coordinate, in ring entries.

        lambda becomes (D, D*lambda) and each normal (d_H, d_H*a_H) by
        positive scales; with L the lcm of the d_H, the sum of
        (D lambda_H) e_H (L / d_H) (d_H a_H) is D L times the relation.
        """
        rt5 = arrangement._rt5 or any(isinstance(c, Qrt5) and c.b for c in self.coefficients)
        ring = _RING_RT5 if rt5 else _RING_Q
        lam = _ring_row(self.coefficients, rt5)[1]
        rows = [_ring_row(arrangement.normal(l), rt5) for l in self.support]
        scale = lcm(*(d for d, _ in rows))
        terms = [
            ring.mul(v, ring.of_int(eps.sign_of(l) * (scale // d)))
            for l, v, (d, _) in zip(self.support, lam, rows)
        ]
        return all(ring.dot(terms, col) == ring.zero for col in zip(*(r for _, r in rows)))

    def to_json(self):
        return {
            "support": list(self.support),
            "lambda": [format_scalar(c) for c in self.coefficients],
        }


class CentralArrangement:
    """Immutable labeled central arrangement with a cached lattice."""

    def __init__(self, dim: int, hyperplanes):
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        labels = []
        normals = {}
        for label, normal in hyperplanes:
            label = str(label)
            nv = tuple(as_scalar(v) for v in normal)
            if len(nv) != dim:
                raise ValueError(f"normal of {label!r} has wrong length")
            if all(v == 0 for v in nv):
                raise ValueError(f"hyperplane {label!r} has zero normal")
            if label in normals:
                raise ValueError(f"duplicate label {label!r}")
            labels.append(label)
            normals[label] = nv
        self.dim = dim
        self.labels = tuple(labels)
        self._normals = normals
        # Q(sqrt5) arithmetic only if some entry is irrational
        self._rt5 = any(
            isinstance(v, Qrt5) and v.b != 0 for nv in normals.values() for v in nv
        )
        self._integral = {l: _integral(nv, self._rt5) for l, nv in normals.items()}
        self._bits = {l: 1 << i for i, l in enumerate(labels)}
        self._ring = _RING_RT5 if self._rt5 else _RING_Q
        self._reject_parallel()
        # filled lazily, write-once
        self._lattice = None
        self._masks = None
        self._rank = None
        self._cols = None  # P, the pivot columns of the normals
        self._ints = None  # label -> integral normal restricted to P
        self._scaled = None
        self._index = None  # closed mask -> lattice index
        self._pos = None  # pos(F) per flat, in lattice order
        self._covers = None  # per flat, the lattice indices of the flats it covers
        self._levels = {}  # codim -> _level tuple, each built once

    def _reject_parallel(self):
        seen = {}
        for lab in self.labels:
            key = self._integral[lab]
            if key in seen:
                raise ValueError(
                    f"hyperplanes {seen[key]!r} and {lab!r} have the same kernel"
                )
            seen[key] = lab

    def normal(self, label):
        try:
            return self._normals[label]
        except KeyError:
            raise KeyError(f"unknown hyperplane label {label!r}") from None

    def _scaled_rows(self):
        """(d, d*normal) in ring entries for every label, in label order;
        d > 0 is the normal's least common denominator."""
        if self._scaled is None:
            self._scaled = [_ring_row(self._normals[l], self._rt5) for l in self.labels]
        return self._scaled

    def normal_matrix(self) -> Mat:
        return Mat([list(self._normals[l]) for l in self.labels])

    @property
    def n_hyperplanes(self) -> int:
        return len(self.labels)

    def rank(self) -> int:
        """|P|, the number of pivot columns of the normals."""
        if self._rank is None:
            self._essential()
        return self._rank

    def _essential(self):
        """The integral normals restricted to P, by label: rank coordinates.

        One pass of _cut steps cuts the unit vectors by every label, and P,
        the complement of the free columns left, is the rref pivots of the
        normals.  On every normal a column outside P is a combination of
        earlier P columns, so restriction to P is injective on the row
        space and keeps every dependency.  On the normals, each kernel
        vector of a build in rank coordinates acts as a positive multiple
        of the all-coordinate build's vector with the same free column in
        P, so images, classes, pos and closed sets agree, and free columns
        map back through P.
        """
        if self._ints is None:
            ints, rt5 = self._integral, self._rt5
            free = _cut_units(self.dim, ints.values(), rt5)[1]
            cols = self._cols = tuple(c for c in range(self.dim) if c not in free)
            self._rank = len(cols)
            pick = lambda v: tuple(v[c] for c in cols)
            self._ints = {l: tuple(map(pick, n)) if rt5 else pick(n) for l, n in ints.items()}
        return self._ints

    def __repr__(self):
        return f"CentralArrangement(dim={self.dim}, n={self.n_hyperplanes})"

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {
            "dim": self.dim,
            "hyperplanes": [
                {
                    "label": l,
                    "normal": [format_scalar(v) for v in self._normals[l]],
                }
                for l in self.labels
            ],
        }

    @classmethod
    def from_json(cls, data) -> "CentralArrangement":
        if isinstance(data, str):
            data = json.loads(data)
        hps = [
            (h["label"], [parse_scalar(v) if isinstance(v, str) else v for v in h["normal"]])
            for h in data["hyperplanes"]
        ]
        return cls(int(data["dim"]), hps)

    # -- lattice ---------------------------------------------------------

    def full_lattice(self):
        if self._lattice is None:
            self._lattice = self._build_lattice()
        return self._lattice

    def label_mask(self, labels) -> int:
        """The labels as an integer: bit i stands for the i-th label."""
        mask = 0
        for l in labels:
            try:
                mask |= self._bits[l]
            except KeyError:
                raise KeyError(f"unknown hyperplane label {l!r}") from None
        return mask

    def lattice_masks(self) -> tuple:
        """Closed sets of full_lattice() as label masks, in the same order.

        Containment of closed sets is the test x & y == x.  One integer per
        flat, built with the lattice.
        """
        self.full_lattice()
        return self._masks

    def _flat(self, mask, free):
        """The flat with closed label mask mask whose integer basis in rank
        coordinates has the free columns free."""
        pivots = tuple(c for i, c in enumerate(self._cols) if i not in free)
        closed = [l for l in self.labels if self._bits[l] & mask]
        return Flat(frozenset(closed), len(pivots), pivots, tuple(self._normals[l] for l in closed))

    def _build_lattice(self):
        """BFS on codim: the covers of F are the classes of labels off F
        whose images under n -> (n . k for k in K) are proportional.

        K is an integer basis of the flat F in rank coordinates (see
        _essential), rank - codim vectors of length rank, so the map is
        linear with kernel X^perp and two labels cut the same cover iff
        their images span one line.  A new cover's basis is a _cut of K by
        its class's image; bases are kept for one level only.

        Beside the flats it records, one int per flat F, pos(F): the labels
        positive at F's point k_1 + t k_2 + t^2 k_3 + ... as t -> 0+, each
        the sign of its first nonzero image, flipped where the integral
        form points against the normal.  That point lies on F and on no
        hyperplane off it.  And, per flat, the lattice indices of the flats
        it covers, from the (flat, class) pairs met: at most F*N entries,
        F flats and N labels.
        """
        dot, key, zero, comb = _integral_ops(self._rt5)
        ints, bits, r = self._essential(), self._bits, self._rank
        flip = self.label_mask(l for l in self.labels if next(v for v in self._normals[l] if v) < 0)
        by_mask = {0: self._flat(0, range(r))}
        pos_of, below = {}, {0: []}
        frontier = [(0, *_cut_units(r, (), self._rt5))]
        while frontier:
            newly = []
            for mask, ker, free in frontier:
                classes = {}  # image line -> [images, label mask of the class]
                pos = 0
                for lab in self.labels:
                    b = bits[lab]
                    if b & mask:
                        continue
                    images = [dot(ints[lab], k) for k in ker]
                    line, positive = key(images)
                    if positive:
                        pos |= b
                    cls = classes.get(line)
                    if cls is None:
                        classes[line] = [images, b]
                    else:
                        cls[1] |= b
                pos_of[mask] = pos ^ (flip & ~mask)
                for images, cls in classes.values():
                    cmask = mask | cls
                    if cmask not in below:
                        cker, cfree = _cut(ker, free, images, zero, comb)
                        by_mask[cmask] = self._flat(cmask, cfree)
                        below[cmask] = []
                        newly.append((cmask, cker, cfree))
                    below[cmask].append(mask)
            frontier = newly
        order = sorted(by_mask, key=lambda m: (by_mask[m].codim, by_mask[m].sorted_labels()))
        self._index = {m: i for i, m in enumerate(order)}
        self._masks = tuple(order)
        self._pos = tuple(pos_of[m] for m in order)
        self._covers = tuple(tuple(map(self._index.__getitem__, below[m])) for m in order)
        return [by_mask[m] for m in order]

    def flats(self, max_codim=None):
        if max_codim is None:
            return list(self.full_lattice())
        return [f for f in self.full_lattice() if f.codim <= max_codim]

    def flat_of(self, labels) -> Flat:
        """The flat determined by a set of hyperplane labels: the rank-
        coordinate unit vectors cut by their integral normals in turn, then
        closed by the labels orthogonal to the basis left."""
        ints, r, labels = self._essential(), self._rank, list(labels)
        self.label_mask(labels)  # rejects an unknown label
        ker, free = _cut_units(r, [ints[l] for l in labels], self._rt5)
        dot, _, zero, _ = _integral_ops(self._rt5)
        closed = self.label_mask(l for l in self.labels if all(dot(ints[l], k) == zero for k in ker))
        return self._flat(closed, free)

    def _lattice_index(self, x: Flat):
        """x's index in full_lattice(), found by its closed mask, or None
        when x is not a flat of this arrangement: the closed set, codim and
        X^perp must all match."""
        if not x.closed_set <= self._bits.keys():
            return None
        self.full_lattice()
        i = self._index.get(self.label_mask(x.closed_set))
        return i if i is not None and _same_flat(self._lattice[i], x) else None

    def has_flat(self, x: Flat) -> bool:
        """x has this arrangement's labels and normals: its closed set and X^perp."""
        return self._lattice_index(x) is not None


def _cut_units(dim, normals, rt5):
    """The integral unit vectors of dim coordinates and their free columns,
    after a _cut by each integral normal off the flat they span, in turn."""
    dot, _, zero, comb = _integral_ops(rt5)
    ker = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    ker, free = [(u, (0,) * dim) for u in ker] if rt5 else ker, tuple(range(dim))
    for n in normals:
        images = [dot(n, k) for k in ker]
        if any(v != zero for v in images):
            ker, free = _cut(ker, free, images, zero, comb)
    return ker, free


def _same_flat(f: Flat, x: Flat) -> bool:
    """f and x have one closed set, codim and X^perp; equal rows show the
    last without an echelon form."""
    return f is x or f == x and (f.rows == x.rows or f.normal_space == x.normal_space)


def intersection_lattice(a: CentralArrangement, max_codim=None):
    """All flats with codim <= max_codim (default: rank), graded by codim."""
    return a.flats(max_codim)


def localization(a: CentralArrangement, x: Flat) -> CentralArrangement:
    """Subarrangement of the hyperplanes containing the flat x."""
    if not a.has_flat(x):
        raise ValueError("flat does not belong to this arrangement")
    return CentralArrangement(
        a.dim, [(l, a.normal(l)) for l in a.labels if l in x.closed_set]
    )


@dataclass(frozen=True)
class EssentialMap:
    """Coordinate data tying an essentialization back to the original space.

    The pivot columns P of the normal matrix serve as quotient coordinates;
    sign vectors carry over unchanged because labels do.
    """

    dim: int
    pivots: tuple

    def lift_point(self, point):
        out = [Q(0)] * self.dim
        for coord, val in zip(self.pivots, point):
            out[coord] = as_scalar(val)
        return tuple(out)

    def project_point(self, point):
        pt = [as_scalar(v) for v in point]
        return tuple(pt[c] for c in self.pivots)


def essentialize(a: CentralArrangement):
    """Rank-preserving quotient presentation plus the point back-map.

    The new normal of H is its coefficient vector over the echelon basis of
    the normal row space: H's entries on the pivot columns P, which the
    rank coordinates already hold (_essential), so no echelon form is built.
    """
    a._essential()
    pivots = a._cols
    ess = CentralArrangement(
        len(pivots),
        [(l, tuple(a.normal(l)[c] for c in pivots)) for l in a.labels],
    )
    return ess, EssentialMap(a.dim, pivots)


def _eval(normal, point):
    return sum(c * v for c, v in zip(normal, point))


def _bit_indices(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _pivot_rows(a, x, idx):
    """The scaled rows of the labels with indices idx, in x's pivot
    coordinates: the coordinates of rows of X^perp over its echelon basis."""
    rows = a._scaled_rows()
    return [[rows[j][1][c] for c in x.pivots] for j in idx]


def _cocircuits(a, i, t):
    """(support, positive mask) on the labels t of the cocircuit of each
    flat that the lattice flat i covers, in the order of a._covers[i];
    None when t lies in one of those flats, so t does not span the flat's
    X^perp.

    A covered flat Y meets the flat's localization in a line, and Y's point
    for pos(Y) lies on that line off the flat, so its signs on t are the
    cocircuit up to sign.  Needs the lattice built.
    """
    masks, pos = a._masks, a._pos
    out = []
    for y in a._covers[i]:
        supp = t & ~masks[y]
        if not supp:
            return None
        out.append((supp, pos[y] & supp))
    return out


def _covered(t, cocircuits, pos):
    """The cover test: the sign vector with positive mask pos is consistent
    on a label set t spanning its flat's X^perp iff the supports of the
    cocircuits that conform to it up to sign cover t.

    Covered, the sum of their oriented points has the signs of pos on t.
    Consistent, the local cone is pointed, so its extreme rays, each a
    conforming cocircuit, span it, and their sum is interior: they cover.
    """
    covered = 0
    for supp, c in cocircuits:
        d = (pos ^ c) & supp
        if d == 0 or d == supp:
            covered |= supp
            if covered == t:
                return True
    return False


def _level(a: CentralArrangement, q: int) -> tuple:
    """(lattice index, flat, closed mask, cocircuits) of each codim-q flat,
    in lattice order; the cocircuits, on the whole closed set, of the flats
    it covers when it is over-populated, None when it is independent.

    Built on the first query at q and kept in a._levels: at most F entries
    over all levels and F*N cocircuit pairs, as for the covers.
    """
    level = a._levels.get(q)
    if level is None:
        level = a._levels[q] = tuple(
            (i, f, m, _cocircuits(a, i, m) if m.bit_count() > q else None)
            for i, (f, m) in enumerate(zip(a.full_lattice(), a.lattice_masks()))
            if f.codim == q
        )
    return level


def _enumeration_guard(a: CentralArrangement):
    """GuardExceeded when a has too many hyperplanes to list sign vectors."""
    if a.n_hyperplanes > CHAMBER_GUARD:
        raise GuardExceeded(
            f"{a.n_hyperplanes} hyperplanes exceeds the enumeration guard ({CHAMBER_GUARD})"
        )


def _conformal_masks(a: CentralArrangement, codim: int):
    """The positive-label mask of each sign vector consistent at every flat
    of codim at most codim, in product((1, -1)) order, as a generator.

    A DFS over the labels, + before -, tests at label i each over-populated
    flat Z of codim q at most codim that contains i, on the prefix t of
    Z's closed set up to i: t is inconsistent iff a conforming circuit lies
    inside the prefix, whose highest label is then i.  A prefix that does
    not span Z is skipped, since such a circuit spans a smaller flat that
    holds i.  The prefix's cocircuits are Z's from _level cut to t, (s & t,
    c & t), as t lies in Z's closed set; a prefix where some s & t is 0 lies
    in a flat Z covers, so it does not span Z.  At codim rank no prefix
    dead-ends; below it one can.
    """
    n = a.n_hyperplanes
    tests = [[] for _ in range(n)]
    for q in range(1, codim + 1):
        for _, _, m, cocircuits in _level(a, q):
            if cocircuits is None:
                continue
            for i in _bit_indices(m):
                t = m & ((2 << i) - 1)
                if t.bit_count() > q:
                    prefix = [(s & t, c & t) for s, c in cocircuits]
                    if all(s for s, _ in prefix):
                        tests[i].append((t, prefix))
    stack = [(0, 0)]
    while stack:
        i, pos = stack.pop()
        if i == n:
            yield pos
            continue
        for p in (pos, pos | 1 << i):  # - pushed first, so + is taken first
            for t, cocircuits in tests[i]:
                if not _covered(t, cocircuits, p):
                    break
            else:
                stack.append((i + 1, p))


def _sign_vector(a: CentralArrangement, pos: int) -> SignVector:
    """The sign vector over a's labels with positive-label mask pos."""
    return SignVector(a.labels, tuple(1 if pos >> j & 1 else -1 for j in range(a.n_hyperplanes)))


def chamber_sign_vectors(a: CentralArrangement) -> frozenset:
    """Sign vectors realized by complement points, by pruned DFS.

    A sign vector is realized iff it passes the cover test at every
    over-populated flat, and every realized prefix extends, so the DFS
    never dead-ends and needs no witness point.  The set is listed anew on
    each call; sigma.walls decides one chamber's flips without it.
    """
    _enumeration_guard(a)
    return frozenset(_sign_vector(a, pos) for pos in _conformal_masks(a, a.rank()))


def zaslavsky_chambers(a: CentralArrangement) -> int:
    """Chamber count as sum of |mu(bottom, X)| over the full lattice, mu by
    Weisner's theorem over the recorded covers.

    Weisner (Rota 1964): for an atom h <= X, the mu(0, Y) over the Y <= X
    with Y v h = X sum to 0.  Take h a label of X.  Besides X itself, such
    a Y misses h, and then X covers Y: semimodularity gives
    rank(Y v h) <= rank(Y) + 1.  Conversely, if X covers Y and h misses Y,
    then Y < Y v h <= X.  So mu(0, X) = -sum of mu(0, Y) over the flats Y
    that X covers and that miss h; a._covers lists them, before X.
    """
    masks, covers = a.lattice_masks(), a._covers
    mu = [1]
    for x in range(1, len(masks)):
        h = masks[x] & -masks[x]
        mu.append(-sum(mu[y] for y in covers[x] if not masks[y] & h))
    return sum(map(abs, mu))


def circuits(a: CentralArrangement, max_size: int):
    """Minimal dependent label sets of size <= max_size with coefficients,
    by size, then in label order.

    A circuit of q + 1 labels has rank q, so it spans its closure, a flat
    of codim q that it over-populates.  Each over-populated flat of codim
    q < max_size takes every (q + 1)-subset of its labels: the subset is a
    circuit iff its scaled rows in the flat's pivot coordinates have one
    kernel vector, with no zero entry.  Each circuit's dependency is unique
    up to scale; it is returned with first coefficient normalized to 1.
    """
    if max_size > a.n_hyperplanes:
        raise ValueError("max_size exceeds the number of hyperplanes")
    ring, scaled = a._ring, a._scaled_rows()
    found = []
    for f, m in zip(a.full_lattice(), a.lattice_masks()):
        q = f.codim
        if q >= max_size or m.bit_count() <= q:
            continue
        idx = _bit_indices(m)
        rows = dict(zip(idx, _pivot_rows(a, f, idx)))
        for sub in combinations(idx, q + 1):
            c = _ring_kernel([[rows[j][k] for j in sub] for k in range(q)], ring)
            if c is None or ring.zero in c:
                continue  # dependent rows, or a smaller circuit inside
            coeffs = _ring_scalars([ring.mul(v, ring.of_int(scaled[j][0])) for v, j in zip(c, sub)], a._rt5)
            labels = [a.labels[j] for j in sub]
            found.append((sub, frozenset(labels), dict(zip(labels, (v / coeffs[0] for v in coeffs)))))
    found.sort(key=lambda t: (len(t[0]), t[0]))
    return [t[1:] for t in found]


def matroid_of_arrangement(a: CentralArrangement):
    """Linear matroid on 1..n whose flats are the lattice closed sets."""
    from .matroid import Matroid

    idx = {l: i + 1 for i, l in enumerate(a.labels)}
    flats = {
        frozenset(idx[l] for l in f.closed_set) for f in a.full_lattice()
    }
    flats.add(frozenset(range(1, a.n_hyperplanes + 1)))
    return Matroid(a.n_hyperplanes, flats)
