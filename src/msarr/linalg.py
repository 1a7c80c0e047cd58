"""Exact linear algebra over an ordered field.

Determinant and rank use fraction-free (Bareiss-style) elimination; reduced
row echelon form gives kernels and the normal spaces of flats.  Everything
operates on lists/tuples of exact scalars (see fields).

The private integral helpers serve the intersection lattice: a vector over
Q becomes a primitive integer vector, a vector over Q(sqrt5) a pair of
integer vectors (A, B) with the vector proportional to A + B*sqrt5, and
a flat's integer kernel basis becomes a cover's by one fraction-free step.
The private ring helpers serve certificates and interior points: a normal
scaled by its least common denominator has int entries over Q and (a, b)
pairs for a + b*sqrt5 over Q(sqrt5), and the kernel vector of m
independent rows of length m + 1 comes from one fraction-free
elimination.
Both read the ``numerator``/``denominator`` fields of the rationals
directly, so gmpy2's mpq should work as well as Fraction, but that backend
has not been tested with them.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from operator import add, floordiv, mul, sub

from .fields import Q, Qrt5, as_scalar

__all__ = [
    "Mat",
    "det",
    "rank",
    "kernel_basis",
    "rref",
]


class Mat:
    """Dense exact matrix; entries are coerced to field scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [[as_scalar(v) for v in row] for row in entries]
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def row(self, i):
        return list(self.entries[i])

    def col(self, j):
        return [r[j] for r in self.entries]

    def transpose(self) -> "Mat":
        return Mat([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __eq__(self, other):
        return isinstance(other, Mat) and self.entries == other.entries

    def __repr__(self):
        return f"Mat({self.entries!r})"

    def to_strings(self):
        from .fields import format_scalar

        return [[format_scalar(v) for v in row] for row in self.entries]

    @classmethod
    def from_strings(cls, grid):
        return cls(grid)


def _as_rows(m):
    if isinstance(m, Mat):
        return [row[:] for row in m.entries]
    return [[as_scalar(v) for v in row] for row in m]


def _ff_echelon(a):
    """In-place fraction-free elimination; returns (rank, sign, pivot)."""
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    sgn = 1
    prev = Q(1)
    piv = Q(1)
    for c in range(n):
        if r == m:
            break
        k = next((i for i in range(r, m) if a[i][c] != 0), None)
        if k is None:
            continue
        if k != r:
            a[k], a[r] = a[r], a[k]
            sgn = -sgn
        piv = a[r][c]
        for i in range(r + 1, m):
            ai, ar = a[i], a[r]
            t = ai[c]
            for j in range(c + 1, n):
                ai[j] = (piv * ai[j] - t * ar[j]) / prev
            ai[c] = 0 * t
        prev = piv
        r += 1
    return r, sgn, piv


def det(m):
    """Exact determinant via Bareiss elimination (square matrices only)."""
    a = _as_rows(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("det requires a square matrix")
    if n == 0:
        return Q(1)
    r, sgn, piv = _ff_echelon(a)
    if r < n:
        return 0 * piv
    return sgn * piv


def rank(m) -> int:
    """Exact rank via fraction-free elimination."""
    a = _as_rows(m)
    if not a or not a[0]:
        return 0
    r, _, _ = _ff_echelon(a)
    return r


def rref(m):
    """Reduced row echelon form.

    Returns (rows, pivots): the nonzero rows with each pivot normalized to 1
    and eliminated above and below, plus the pivot column indices.  It
    depends only on the row space, not on the rows that span it.
    """
    a = _as_rows(m)
    mrows = len(a)
    n = len(a[0]) if mrows else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == mrows:
            break
        k = next((i for i in range(r, mrows) if a[i][c] != 0), None)
        if k is None:
            continue
        a[k], a[r] = a[r], a[k]
        p = a[r][c]
        a[r] = [v / p for v in a[r]]
        for i in range(mrows):
            if i != r and a[i][c] != 0:
                t = a[i][c]
                a[i] = [vi - t * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in a[:r]), tuple(pivots)


def kernel_basis(m):
    """Exact basis of the right kernel; empty list iff rank == cols."""
    a = _as_rows(m)
    if not a:
        return []
    rows, pivots = rref(a)
    n = len(a[0])
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Q(0)] * n
        v[free] = Q(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


# -- integral forms ----------------------------------------------------------


def _cleared(vec, rt5):
    """(d, ints): d the least common denominator of the exact vector's
    rational parts, ints the integer parts of d*vec, over Q(sqrt5) all the
    rational parts and then all the sqrt5 parts."""
    if rt5:
        parts = [(x.a, x.b) if isinstance(x, Qrt5) else (x, 0) for x in vec]
        values = [p[0] for p in parts] + [p[1] for p in parts]
    else:
        values = [x.a if isinstance(x, Qrt5) else x for x in vec]
    den = lcm(*(int(v.denominator) for v in values))
    return den, [int(v.numerator) * (den // int(v.denominator)) for v in values]


def _image_key(v):
    """(v divided by its gcd with the sign of its lead, the first nonzero
    entry, and whether that lead is positive) for a nonzero integer vector."""
    g = gcd(*v)
    if max(v, key=bool) < 0:  # the lead
        g = -g
    return tuple([x // g for x in v]), g > 0


def _primitive(v):
    """Divide an integer vector by its gcd, making the lead positive."""
    return _image_key(v)[0]


def _primitive_rt5(a, b):
    """Canonical (A, B) for the line of the nonzero vector a + b*sqrt5.

    Multiplying by the conjugate of the lead entry makes the lead rational;
    dividing by the gcd of all integer parts, with the lead's sign, leaves
    one representative per Q(sqrt5)-line.
    """
    i = next(j for j in range(len(a)) if a[j] or b[j])
    la, lb = a[i], b[i]
    ca = [x * la - 5 * y * lb for x, y in zip(a, b)]
    cb = [y * la - x * lb for x, y in zip(a, b)]
    g = gcd(*ca, *cb)
    if ca[i] < 0:
        g = -g
    return tuple(x // g for x in ca), tuple(y // g for y in cb)


def _integral(vec, rt5):
    """Canonical integral form of the line of a nonzero exact vector.

    Over Q (rt5 false) a primitive integer tuple; over Q(sqrt5) an
    (A, B) pair of integer tuples.  Equal forms mean parallel vectors.
    """
    _, ints = _cleared(vec, rt5)
    if rt5:
        return _primitive_rt5(ints[: len(vec)], ints[len(vec):])
    return _primitive(ints)


def _dot(u, v):
    return sum(map(mul, u, v))


def _dot_rt5(u, v):
    (a, b), (c, d) = u, v
    return (
        sum(map(mul, a, c)) + 5 * sum(map(mul, b, d)),
        sum(map(mul, a, d)) + sum(map(mul, b, c)),
    )


def _image_key_rt5(images):
    return _primitive_rt5(*zip(*images)), _sign_rt5(max(images, key=any)) > 0


def _comb(s, x, t, y):
    return _primitive([s * u - t * v for u, v in zip(x, y)])


def _comb_rt5(s, x, t, y):
    (s1, s2), (x1, x2), (t1, t2), (y1, y2) = s, x, t, y
    return _primitive_rt5(
        [s1 * a + 5 * s2 * b - t1 * c - 5 * t2 * d for a, b, c, d in zip(x1, x2, y1, y2)],
        [s1 * b + s2 * a - t1 * d - t2 * c for a, b, c, d in zip(x1, x2, y1, y2)],
    )


def _integral_ops(rt5):
    """(dot, key, zero, comb) on integral forms over Q or Q(sqrt5).

    dot(n, k) is the exact product of the vectors n and k stand for, up to
    their integral scaling; key maps a nonzero list of such products to the
    canonical form of its line and whether its first nonzero entry is
    positive; zero is the product of orthogonal vectors; comb(s, x, t, y)
    is the canonical form of s*x - t*y.
    """
    if rt5:
        return _dot_rt5, _image_key_rt5, (0, 0), _comb_rt5
    return _dot, _image_key, 0, _comb


_Ring = namedtuple("_Ring", "mul add sub div dot sign zero of_int")
_Ring.__doc__ = """Arithmetic on ring entries: ints over Q, (a, b) pairs standing for
a + b*sqrt5 over Q(sqrt5); div is exact division, for quotients known to
be ring entries; of_int makes an int an entry."""


def _sign_int(x):
    return (x > 0) - (x < 0)


def _mul_rt5(x, y):
    (a, b), (c, d) = x, y
    return a * c + 5 * b * d, a * d + b * c


def _add_rt5(x, y):
    return x[0] + y[0], x[1] + y[1]


def _sub_rt5(x, y):
    return x[0] - y[0], x[1] - y[1]


def _div_rt5(x, y):
    (a, b), (c, d) = x, y
    norm = c * c - 5 * d * d
    return (a * c - 5 * b * d) // norm, (b * c - a * d) // norm


def _sign_rt5(x):
    """Exact sign of a + b*sqrt5 for integers a, b."""
    a, b = x
    sa, sb = _sign_int(a), _sign_int(b)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa if a * a > 5 * b * b else sb


def _dot_pairs(u, v):
    a = b = 0
    for (x1, x2), (y1, y2) in zip(u, v):
        a += x1 * y1 + 5 * x2 * y2
        b += x1 * y2 + x2 * y1
    return a, b


_RING_Q = _Ring(mul, add, sub, floordiv, _dot, _sign_int, 0, int)
_RING_RT5 = _Ring(
    _mul_rt5, _add_rt5, _sub_rt5, _div_rt5, _dot_pairs, _sign_rt5, (0, 0), lambda k: (k, 0)
)


def _ring_row(vec, rt5):
    """(d, d*vec) in ring entries, d the least common denominator of the
    exact vector.  A positive scale keeps the sign of every product with
    the vector."""
    d, ints = _cleared(vec, rt5)
    if rt5:
        return d, tuple(zip(ints[: len(vec)], ints[len(vec):]))
    return d, tuple(ints)


def _ring_primitive(values, rt5):
    """Ring entries divided by the gcd of all their integer parts, a
    positive integer, so the signs stay; all zero entries stay zero."""
    g = gcd(*(p for v in values for p in v)) if rt5 else gcd(*values)
    if g <= 1:
        return tuple(values)
    if rt5:
        return tuple((a // g, b // g) for a, b in values)
    return tuple(v // g for v in values)


def _ring_scalars(values, rt5):
    """Field scalars of primitive ring entries."""
    values = _ring_primitive(values, rt5)
    if rt5:
        return [Qrt5(a, b) for a, b in values]
    return [Q(v) for v in values]


def _ring_kernel(rows, ring):
    """The kernel vector of m rows of length m + 1, or None when they are
    dependent.  It is +-(-1)^k det(rows without column k), their generalized
    cross product, so it is the same up to sign whatever the row order.

    Fraction-free forward elimination (Bareiss 1968) leaves in row r the
    (r+1)-minors on rows 0..r and the pivot columns, so its last pivot d is
    +-det on the pivot columns.  The kernel vector is d on the free column
    and, by back substitution, the Cramer numerators on the pivot columns;
    each of those is a ring entry, so every division is exact.
    """
    mul_, sub_, div_, zero = ring.mul, ring.sub, ring.div, ring.zero
    a = [list(row) for row in rows]
    m = len(a)
    prev = ring.of_int(1)
    pivots = []
    for c in range(m + 1):
        r = len(pivots)
        if r == m:
            break
        k = next((i for i in range(r, m) if a[i][c] != zero), None)
        if k is None:
            continue
        a[k], a[r] = a[r], a[k]
        ar, piv = a[r], a[r][c]
        for i in range(r + 1, m):
            ai, t = a[i], a[i][c]
            for j in range(c + 1, m + 1):
                ai[j] = div_(sub_(mul_(piv, ai[j]), mul_(t, ar[j])), prev)
            ai[c] = zero
        prev = piv
        pivots.append(c)
    if len(pivots) < m:
        return None
    free = next(c for c in range(m + 1) if c not in pivots)
    out = [zero] * (m + 1)
    out[free] = prev
    for r in range(m - 1, -1, -1):
        total = mul_(prev, a[r][free])
        for s in range(r + 1, m):
            total = ring.add(total, mul_(a[r][pivots[s]], out[pivots[s]]))
        out[pivots[r]] = div_(sub_(zero, total), a[r][pivots[r]])
    return out


def _cut(ker, free, images, zero, comb):
    """One fraction-free step (Bareiss 1968) from an integral kernel basis
    of a flat to a cover's, given images[j] = n . ker[j] for a normal n off
    the flat.  ker[j]'s last nonzero entry is in column free[j], free
    increasing, so free is the complement of the rref pivots.  With p the
    first j with images[j] != 0, images[p] ker[j] - images[j] ker[p] (j != p)
    keep that, and the cover's free columns drop free[p]."""
    p = next(j for j, v in enumerate(images) if v != zero)
    out = [comb(images[p], k, v, ker[p]) for j, (k, v) in enumerate(zip(ker, images)) if j != p]
    return out, free[:p] + free[p + 1 :]
