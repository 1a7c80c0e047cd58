"""Exact linear algebra over an ordered field.

Determinant and rank use fraction-free (Bareiss-style) elimination; reduced
row echelon form is used for kernels, span membership and the bases of
flats' normal spaces.  Everything operates on lists/tuples of exact scalars
(see fields).
"""

from __future__ import annotations

from .fields import Q, as_scalar

__all__ = [
    "Mat",
    "det",
    "rank",
    "kernel_basis",
    "rref",
    "in_span",
    "reduce_against",
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


def reduce_against(vec, basis_rows, pivots):
    """Reduce vec modulo an rref basis; returns the residual vector."""
    v = list(vec)
    for row, p in zip(basis_rows, pivots):
        t = v[p]
        if t != 0:
            v = [vi - t * vr for vi, vr in zip(v, row)]
    return v


def in_span(vec, basis_rows, pivots) -> bool:
    return all(x == 0 for x in reduce_against(vec, basis_rows, pivots))


def kernel_basis(m):
    """Exact basis of the right kernel; empty list iff rank == cols."""
    a = _as_rows(m)
    if not a:
        return []
    n = len(a[0])
    rows, pivots = rref(a)
    pivset = set(pivots)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        v = [Q(0)] * n
        v[free] = Q(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis
