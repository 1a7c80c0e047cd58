"""Exact strict linear feasibility with verifiable witnesses.

The workhorse is a phase-1 simplex over the exact field with Bland's rule
(finite termination, no tolerances).  Strict feasibility of B x > 0 is
solved through the equivalent system B x >= 1; when that is infeasible the
phase-1 dual vector is a Gordan certificate: lambda >= 0, lambda != 0,
B^T lambda = 0, and both branches verify by exact substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Q, as_scalar

__all__ = [
    "FeasibilityOutcome",
    "strict_feasibility",
    "lp_count",
    "reset_lp_count",
]

_lp_count = 0


def lp_count() -> int:
    return _lp_count


def reset_lp_count() -> None:
    global _lp_count
    _lp_count = 0


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Exactly one of point / certificate is set.

    point: u with B u > 0 entry-wise.
    certificate: lambda >= 0, lambda != 0 with B^T lambda = 0.
    """

    point: tuple | None
    certificate: tuple | None

    @property
    def feasible(self) -> bool:
        return self.point is not None


def _phase1(a_rows, b):
    """min sum(artificials) s.t. A x + I a = b, x >= 0, a >= 0, b >= 0.

    Returns (opt, x, y): optimum value, structural solution at optimum, and
    the dual vector y (one entry per row).
    """
    global _lp_count
    _lp_count += 1
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    width = n + m + 1  # structural | artificial | rhs
    tab = []
    for i in range(m):
        row = list(a_rows[i]) + [Q(0)] * m + [b[i]]
        row[n + i] = Q(1)
        tab.append(row)
    # phase-1 cost row: c - c_B B^-1 A with basis = artificials (cost 1 each)
    cost = [Q(0)] * width
    for i in range(m):
        cost[n + i] = Q(1)
    for i in range(m):
        for j in range(width):
            cost[j] = cost[j] - tab[i][j]
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)  # Bland
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; input invalid")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                t = tab[i][enter]
                tab[i] = [vi - t * vl for vi, vl in zip(tab[i], tab[leave])]
        t = cost[enter]
        if t != 0:
            cost = [vc - t * vl for vc, vl in zip(cost, tab[leave])]
        basis[leave] = enter

    opt = -cost[-1]
    x = [Q(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    # dual from artificial reduced costs: y_i = 1 - cost[n + i]
    y = [Q(1) - cost[n + i] for i in range(m)]
    return opt, x, y


def strict_feasibility(b_rows) -> FeasibilityOutcome:
    """Gordan dichotomy for the strict system B x > 0.

    Returns a point u with B u > 0 or a certificate lambda with lambda >= 0,
    lambda != 0, B^T lambda = 0; never both.  Both witnesses are checked by
    exact substitution before being returned.
    """
    rows = [[as_scalar(v) for v in r] for r in b_rows]
    m = len(rows)
    if m == 0:
        raise ValueError("strict_feasibility needs at least one row")
    ncols = len(rows[0])
    # B x >= 1 with x = xp - xn, slack s: [B, -B, -I](xp, xn, s) = 1
    a = []
    for i in range(m):
        row = rows[i] + [-v for v in rows[i]] + [Q(0)] * m
        row[2 * ncols + i] = Q(-1)
        a.append(row)
    ones = [Q(1)] * m
    opt, x, y = _phase1(a, ones)
    if opt == 0:
        u = tuple(x[j] - x[ncols + j] for j in range(ncols))
        for r in rows:
            if not sum(c * v for c, v in zip(r, u)) > 0:
                raise ArithmeticError("simplex returned an invalid point")
        return FeasibilityOutcome(point=u, certificate=None)
    lam = tuple(y)
    _check_certificate(rows, lam)
    return FeasibilityOutcome(point=None, certificate=lam)


def _check_certificate(rows, lam):
    if any(v < 0 for v in lam) or all(v == 0 for v in lam):
        raise ArithmeticError("simplex returned an invalid dual vector")
    ncols = len(rows[0])
    for j in range(ncols):
        if sum(lam[i] * rows[i][j] for i in range(len(rows))) != 0:
            raise ArithmeticError("simplex dual is not a kernel vector")
