"""Discriminantal arrangements built from generic base arrangements.

Given a generic k x n base (every maximal minor nonzero), each
(k+1)-subset I of column indices yields one hyperplane D_I in the
n-dimensional translation space, with normal alpha_I given by signed k x k
minors.  The module also provides the D_T flats, Gale duals, canonical
presentations, the very-genericity test, and a seeded random sampler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .arrangement import CentralArrangement, Flat
from .errors import RetryExhausted, VerificationError
from .fields import Q, as_scalar
from .linalg import Mat, det, kernel_basis

__all__ = [
    "GenericArrangement",
    "MSArrangement",
    "is_generic",
    "alpha_I",
    "build_ms",
    "moment_curve_base",
    "d_flat",
    "gale_dual",
    "canonical_presentation",
    "is_very_generic",
    "random_generic",
    "random_very_generic",
    "ms_label",
    "parse_ms_label",
]


def ms_label(I, n: int) -> str:
    idx = sorted(I)
    if n <= 9:
        return "".join(str(i) for i in idx)
    return "-".join(str(i) for i in idx)


def parse_ms_label(label: str, n: int):
    if n <= 9:
        return tuple(int(c) for c in label)
    return tuple(int(p) for p in label.split("-"))


@dataclass(frozen=True)
class GenericArrangement:
    """k x n base matrix whose columns alpha_i are in general position."""

    k: int
    n: int
    columns: tuple  # n column vectors of length k
    # sorted k-subset -> maximal minor, filled on first use: at most C(n, k)
    _minors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < self.k:
            raise ValueError("need n >= k")
        if len(self.columns) != self.n:
            raise ValueError("wrong number of columns")
        if any(len(c) != self.k for c in self.columns):
            raise ValueError("column length mismatch")

    @classmethod
    def from_matrix(cls, rows) -> "GenericArrangement":
        m = Mat(rows)
        cols = tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))
        return cls(m.rows, m.cols, cols)

    def matrix(self) -> Mat:
        return Mat([[self.columns[j][i] for j in range(self.n)] for i in range(self.k)])

    def column(self, i: int):
        # columns are 1-indexed to match the label conventions
        return self.columns[i - 1]

    def minor(self, idx) -> object:
        """Determinant of the columns idx, in increasing order; each is
        computed once per base."""
        idx = tuple(sorted(idx))
        if len(idx) != self.k:
            raise ValueError("minor needs exactly k column indices")
        value = self._minors.get(idx)
        if value is None:
            value = det(Mat([[self.columns[j - 1][i] for j in idx] for i in range(self.k)]))
            self._minors[idx] = value
        return value


def is_generic(rows) -> bool:
    """True iff every k-subset of columns has nonzero determinant."""
    g = rows if isinstance(rows, GenericArrangement) else GenericArrangement.from_matrix(rows)
    return _first_zero_minor(g) is None


def _first_zero_minor(g: GenericArrangement):
    for idx in combinations(range(1, g.n + 1), g.k):
        if g.minor(idx) == 0:
            return idx
    return None


def alpha_I(g: GenericArrangement, I):
    """Normal of D_I: signed maximal minors placed at the indices of I.

    Satisfies sum_p (alpha_I)_{i_p} alpha_{i_p} = 0 by cofactor expansion.
    """
    idx = sorted(I)
    if len(idx) != g.k + 1:
        raise ValueError(f"I must have k+1 = {g.k + 1} elements")
    if idx[0] < 1 or idx[-1] > g.n:
        raise ValueError("index out of range")
    out = [Q(0)] * g.n
    for p, ip in enumerate(idx):
        rest = [j for j in idx if j != ip]
        s = 1 if p % 2 == 0 else -1
        out[ip - 1] = s * g.minor(rest)
    return tuple(out)


@dataclass(frozen=True)
class MSArrangement:
    base: GenericArrangement
    arrangement: CentralArrangement
    subsets: tuple  # label -> index tuple, parallel to arrangement.labels

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def k(self) -> int:
        return self.base.k

    def subset_of(self, label):
        return parse_ms_label(label, self.n)


def build_ms(g) -> MSArrangement:
    """B(n, k, base): one hyperplane per (k+1)-subset of [n]."""
    if not isinstance(g, GenericArrangement):
        g = GenericArrangement.from_matrix(g)
    bad = _first_zero_minor(g)
    if bad is not None:
        raise ValueError(f"base is not generic: zero minor at columns {bad}")
    hps = []
    subs = []
    for I in combinations(range(1, g.n + 1), g.k + 1):
        hps.append((ms_label(I, g.n), alpha_I(g, I)))
        subs.append(I)
    return MSArrangement(g, CentralArrangement(g.n, hps), tuple(subs))


def moment_curve_base(s) -> GenericArrangement:
    """k = 2 base with columns (1, s_i); generic by the Vandermonde identity."""
    vals = [as_scalar(v) for v in s]
    for a, b in zip(vals, vals[1:]):
        if not a < b:
            raise ValueError("parameters must be strictly increasing")
    return GenericArrangement(2, len(vals), tuple((Q(1), v) for v in vals))


_DT_TABLES = {}


def _dt_table(n: int, k: int):
    """{T: labels of the I(T, j)} for every T in [n] with |T| > k.

    T runs over sorted tuples by size, then lexicographically.  Tables are
    kept in a module cache bounded by one entry per (n, k) pair met, each
    with fewer than 2^n label tuples.
    """
    table = _DT_TABLES.get((n, k))
    if table is None:
        table = {
            T: tuple(ms_label(T[:k] + (t,), n) for t in T[k:])
            for size in range(k + 1, n + 1)
            for T in combinations(range(1, n + 1), size)
        }
        _DT_TABLES[(n, k)] = table
    return table


def _dt_labels(m: MSArrangement, T):
    """Labels of the I(T, j): the k smallest elements of T plus one more."""
    return _dt_table(m.n, m.k)[tuple(sorted(T))]


def d_flat(m: MSArrangement, T) -> Flat:
    """The flat D_T, the intersection of the |T| - k hyperplanes D_I(T, j).

    I(T, j) takes the k smallest elements of T together with the (k+j)-th;
    those hyperplanes already cut out D_T.
    """
    idx = sorted(set(T))
    if len(idx) < m.k + 1:
        raise ValueError("T must have at least k+1 elements")
    if idx[0] < 1 or idx[-1] > m.n:
        raise ValueError("index out of range")
    fl = m.arrangement.flat_of(_dt_labels(m, idx))
    if fl.codim != len(idx) - m.k:
        raise VerificationError(
            f"D_T for T={idx} has codim {fl.codim}, expected {len(idx) - m.k}"
        )
    return fl


def gale_dual(g: GenericArrangement) -> Mat:
    """(n-k) x n matrix whose rows span the kernel of the base matrix."""
    ker = kernel_basis(g.matrix())
    dual = Mat([list(v) for v in ker])
    if dual.rows != g.n - g.k:
        raise VerificationError("Gale dual has wrong rank")
    return dual


def canonical_presentation(m: MSArrangement, x: Flat):
    """Maximal T with X inside D_T, as a SetFamily over ([n], k).

    D_T is cut out by the hyperplanes D_I(T, j), so X lies in D_T iff all
    their labels are in X's closed set.
    """
    from .pnk import SetFamily

    containing = [
        frozenset(T)
        for T, labels in _dt_table(m.n, m.k).items()
        if x.closed_set.issuperset(labels)
    ]
    maximal = [
        T for T in containing if not any(T < U for U in containing)
    ]
    return SetFamily(m.n, m.k, maximal, check_antichain=True)


def is_very_generic(m: MSArrangement):
    """(True, None) or (False, first failing flat), by scanning the lattice.

    A flat fails when its codim differs from sum(|T| - k) over its canonical
    presentation.
    """
    for f in m.arrangement.full_lattice():
        if f.codim <= 1:
            continue
        fam = canonical_presentation(m, f)
        expected = sum(len(T) - m.k for T in fam.members)
        if f.codim != expected:
            return False, f
    return True, None


def random_generic(n: int, k: int, seed: int, bound: int = 100, retries: int = 50):
    rng = random.Random(seed)
    for _ in range(retries):
        cols = tuple(
            tuple(Q(rng.randint(-bound, bound)) for _ in range(k)) for _ in range(n)
        )
        g = GenericArrangement(k, n, cols)
        if _first_zero_minor(g) is None:
            return g
    raise RetryExhausted(f"no generic base found in {retries} tries (seed {seed})")


def random_very_generic(n: int, k: int, seed: int, bound: int = 100, retries: int = 50):
    """Seeded rejection sampler for a very generic base; the target set is
    Zariski open, so failures are rare."""
    rng = random.Random(seed)
    for _ in range(retries):
        cols = tuple(
            tuple(Q(rng.randint(-bound, bound)) for _ in range(k)) for _ in range(n)
        )
        g = GenericArrangement(k, n, cols)
        if _first_zero_minor(g) is not None:
            continue
        m = build_ms(g)
        ok, _ = is_very_generic(m)
        if ok:
            return m
    raise RetryExhausted(
        f"no very generic base found in {retries} tries (seed {seed})"
    )
