"""Central hyperplane arrangements and their combinatorics.

An arrangement is an ordered list of labeled nonzero normals in an exact
ambient space.  From it we derive the intersection lattice (BFS on
codimension; a flat is identified by its closed label set, the labels of
the hyperplanes containing it), localizations, an essentialization with a
point back-map, chamber sign vectors, the Zaslavsky chamber count used as
an independent oracle, and minimal circuits with their dependency
coefficients.  Beside the lattice each arrangement keeps every closed set
as an integer label mask, for subset tests by bit operations.

Every lattice decision runs on integers: at construction each normal gets
one canonical integral form (a primitive integer vector over Q, an integer
pair (A, B) for A + B*sqrt5 over Q(sqrt5)), which also rejects parallel
hyperplanes, and a hyperplane contains a flat iff its integral normal has
zero dot product with every vector of an integer basis of the flat.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

from .errors import GuardExceeded
from .fields import Q, Qrt5, as_scalar, format_scalar, parse_scalar, sign
from .feasibility import strict_feasibility
from .linalg import Mat, _integral, _integral_kernel, _integral_ops, kernel_basis, rank, rref

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
    flats hash and compare by (closed_set, codim).  normal_space is the
    reduced echelon basis of X^perp with its pivot columns, the
    coordinates the flat is computed in.
    """

    closed_set: frozenset
    codim: int
    normal_space: tuple = field(compare=False)
    pivots: tuple = field(compare=False)

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

    def sign_of(self, label) -> int:
        return self.signs[self.labels.index(label)]

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
        dim = arrangement.dim
        total = [Q(0)] * dim
        for lab, lam in zip(self.support, self.coefficients):
            nv = arrangement.normal(lab)
            s = eps.sign_of(lab)
            for j in range(dim):
                total[j] = total[j] + lam * s * nv[j]
        return all(v == 0 for v in total)

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
        self._reject_parallel()
        # filled lazily, write-once
        self._lattice = None
        self._masks = None
        self._rank = None
        self._chambers = None

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

    def normal_matrix(self) -> Mat:
        return Mat([list(self._normals[l]) for l in self.labels])

    @property
    def n_hyperplanes(self) -> int:
        return len(self.labels)

    def rank(self) -> int:
        if self._rank is None:
            self._rank = rank(self.normal_matrix()) if self.labels else 0
        return self._rank

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
            self._masks = tuple(self.label_mask(f.closed_set) for f in self._lattice)
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

    def _build_lattice(self):
        """BFS on codim: the covers of F are the classes of labels off F
        whose images under n -> (n . k for k in K) are proportional.

        K is an integer basis of the flat F (unit vectors at the top, else
        the free-column kernel vectors of F's echelon basis), so the map is
        linear with kernel X^perp and two labels cut the same cover iff
        their images span one line.  Kernels are kept for one level only;
        only a cover not met before needs an rref, for its basis.
        """
        dot, key, _ = _integral_ops(self._rt5)
        ints = self._integral
        top = Flat(frozenset(), 0, (), ())
        by_labels = {top.closed_set: top}
        frontier = [top]
        while frontier:
            newly = []
            for fl in frontier:
                ker = _integral_kernel(fl.normal_space, fl.pivots, self.dim, self._rt5)
                classes = {}
                for lab in self.labels:
                    if lab in fl.closed_set:
                        continue
                    n = ints[lab]
                    classes.setdefault(key([dot(n, k) for k in ker]), []).append(lab)
                for cls in classes.values():
                    closed = fl.closed_set.union(cls)
                    if closed in by_labels:
                        continue
                    ns, piv = rref([*fl.normal_space, self._normals[cls[0]]])
                    child = Flat(closed, fl.codim + 1, ns, piv)
                    by_labels[closed] = child
                    newly.append(child)
            frontier = newly
        return sorted(by_labels.values(), key=lambda f: (f.codim, f.sorted_labels()))

    def flats(self, max_codim=None):
        if max_codim is None:
            return list(self.full_lattice())
        return [f for f in self.full_lattice() if f.codim <= max_codim]

    def flat_of(self, labels) -> Flat:
        """The flat determined by a set of hyperplane labels."""
        labels = list(labels)
        for l in labels:
            self.normal(l)
        if not labels:
            return Flat(frozenset(), 0, (), ())
        ns, piv = rref(Mat([list(self._normals[l]) for l in labels]))
        dot, _, zero = _integral_ops(self._rt5)
        ker = _integral_kernel(ns, piv, self.dim, self._rt5)
        closed = frozenset(
            l for l in self.labels if all(dot(self._integral[l], k) == zero for k in ker)
        )
        return Flat(closed, len(ns), ns, piv)

    def has_flat(self, x: Flat) -> bool:
        """x has this arrangement's labels and normals: its closed set and X^perp."""
        return any(f == x and f.normal_space == x.normal_space for f in self.full_lattice())


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

    Pivot columns of the echelonized normal matrix serve as quotient
    coordinates; sign vectors carry over unchanged because labels do.
    """

    dim: int
    pivots: tuple
    basis: tuple  # echelon basis of the normal row space

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
    the full normal row space; for echelon bases those coefficients are just
    the pivot-column entries of the original normal.
    """
    if not a.labels:
        return CentralArrangement(0, []), EssentialMap(a.dim, (), ())
    basis, pivots = rref(a.normal_matrix())
    ess = CentralArrangement(
        len(basis),
        [(l, tuple(a.normal(l)[c] for c in pivots)) for l in a.labels],
    )
    return ess, EssentialMap(a.dim, pivots, basis)


def _eval(normal, point):
    return sum(c * v for c, v in zip(normal, point))


def chamber_sign_vectors(a: CentralArrangement) -> frozenset:
    """Sign vectors realized by complement points, by pruned DFS.

    Each partial assignment carries an interior witness point; extending by
    a hyperplane reuses the witness for the sign it already satisfies, so
    only the flipped branch costs a feasibility solve.  The set is kept on
    the arrangement, write-once like its lattice.
    """
    n = a.n_hyperplanes
    if n > CHAMBER_GUARD:
        raise GuardExceeded(
            f"{n} hyperplanes exceeds the chamber enumeration guard ({CHAMBER_GUARD})"
        )
    if a._chambers is not None:
        return a._chambers
    normals = [a.normal(l) for l in a.labels]
    out = set()

    def solve(prefix_signs):
        rows = [
            [s * c for c in normals[i]] for i, s in enumerate(prefix_signs)
        ]
        res = strict_feasibility(rows)
        return res.point

    def descend(prefix_signs, witness):
        i = len(prefix_signs)
        if i == n:
            out.add(SignVector(a.labels, tuple(prefix_signs)))
            return
        val = sign(_eval(normals[i], witness)) if witness is not None else 0
        for s in (1, -1):
            if val == s:
                descend(prefix_signs + [s], witness)
            else:
                w = solve(prefix_signs + [s])
                if w is not None:
                    descend(prefix_signs + [s], w)

    descend([], None)
    a._chambers = frozenset(out)
    return a._chambers


def zaslavsky_chambers(a: CentralArrangement) -> int:
    """Chamber count as sum of |mu(bottom, X)| over the full lattice.

    Flats are ordered by containment of their closed sets (which determine
    them), tested on the label masks.  A closed set contains only those of
    flats of smaller codim, and the lattice lists those first.
    """
    masks = a.lattice_masks()
    mu = [1]
    for x in masks[1:]:
        mu.append(-sum(m for y, m in zip(masks, mu) if y & x == y))
    return sum(abs(m) for m in mu)


def circuits(a: CentralArrangement, max_size: int):
    """Minimal dependent label sets of size <= max_size with coefficients.

    Each circuit's dependency is unique up to scale; it is returned with
    first nonzero coefficient normalized to 1.
    """
    if max_size > a.n_hyperplanes:
        raise ValueError("max_size exceeds the number of hyperplanes")
    found = []
    found_sets = []
    for size in range(2, max_size + 1):
        for combo in combinations(a.labels, size):
            cs = set(combo)
            if any(f <= cs for f in found_sets):
                continue
            cols = Mat([list(a.normal(l)) for l in combo]).transpose()
            ker = kernel_basis(cols)
            if len(ker) != 1:
                continue
            coeffs = ker[0]
            if any(c == 0 for c in coeffs):
                continue  # a zero coefficient means a smaller dependent subset
            lead = next(c for c in coeffs if c != 0)
            coeffs = tuple(c / lead for c in coeffs)
            found.append((frozenset(combo), dict(zip(combo, coeffs))))
            found_sets.append(frozenset(combo))
    return found


def matroid_of_arrangement(a: CentralArrangement):
    """Linear matroid on 1..n whose flats are the lattice closed sets."""
    from .matroid import Matroid

    idx = {l: i + 1 for i, l in enumerate(a.labels)}
    flats = {
        frozenset(idx[l] for l in f.closed_set) for f in a.full_lattice()
    }
    flats.add(frozenset(range(1, a.n_hyperplanes + 1)))
    return Matroid(a.n_hyperplanes, flats)
