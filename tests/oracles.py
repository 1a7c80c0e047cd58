"""Independent reference implementations used to validate derived values.

Everything here is deliberately brute force and shares as little code as
possible with the library paths it checks.
"""

from itertools import combinations, permutations, product

from msarr.arrangement import Flat
from msarr.feasibility import _phase1, strict_feasibility
from msarr.fields import Q, as_scalar
from msarr.linalg import Mat, in_span, rank, rref
from msarr.msbuild import alpha_I
from msarr.pnk import SetFamily
from msarr.sigma import walls


def brute_force_flats(arrangement):
    """All lattice flats via the 2^n subset-closure scan.

    Returns a set of (codim, frozenset-of-labels) pairs.
    """
    labels = arrangement.labels
    seen = {}
    for size in range(len(labels) + 1):
        for sub in combinations(labels, size):
            if not sub:
                key, codim = (), 0
            else:
                rows, _ = rref(Mat([list(arrangement.normal(l)) for l in sub]))
                key, codim = rows, len(rows)
            if key in seen:
                continue
            if sub:
                closed = frozenset(
                    l
                    for l in labels
                    if len(rref(Mat([list(r) for r in rows] + [list(arrangement.normal(l))]))[0])
                    == codim
                )
            else:
                closed = frozenset()
            seen[key] = (codim, closed)
    return set(seen.values())


def echelon_lattice(arrangement):
    """The lattice by BFS on codim, deduplicated by echelon form of X^perp.

    Every flat adds each normal off it in turn and takes the rref of the
    result; a new echelon form gives a cover, whose closed set is found by
    a span test on every label.  Returns the flats ordered by (codim,
    sorted labels).
    """
    a = arrangement
    top = Flat(frozenset(), 0, (), ())
    by_key = {(): top}
    frontier = [top]
    while frontier:
        newly = {}
        for fl in frontier:
            for lab in a.labels:
                if lab in fl.closed_set:
                    continue
                ns, piv = rref(Mat([list(r) for r in fl.normal_space] + [list(a.normal(lab))]))
                if ns in by_key or ns in newly:
                    continue
                closed = frozenset(l for l in a.labels if in_span(a.normal(l), ns, piv))
                newly[ns] = Flat(closed, fl.codim + 1, ns, piv)
        by_key.update(newly)
        frontier = list(newly.values())
    return sorted(by_key.values(), key=lambda f: (f.codim, f.sorted_labels()))


def span_closure_flat(arrangement, labels):
    """The flat spanned by labels, closed by a span test of every normal.

    The echelon basis of the labels' normals gives codim, X^perp and its
    pivots; a label is in the closed set iff its normal reduces to zero
    modulo that basis.
    """
    a = arrangement
    labels = list(labels)
    if not labels:
        return Flat(frozenset(), 0, (), ())
    ns, piv = rref(Mat([list(a.normal(l)) for l in labels]))
    closed = frozenset(l for l in a.labels if in_span(a.normal(l), ns, piv))
    return Flat(closed, len(ns), ns, piv)


def braid3_chamber_strings(order):
    """The six chamber sign vectors of the rank-2 braid arrangement.

    order gives the hyperplane labels as (xy, xz, yz); a permutation
    (a, b, c) of (values of x, y, z) realizes signs by comparison.
    """
    out = set()
    for vals in permutations((3, 2, 1)):
        x, y, z = vals
        signs = {"xy": x - y, "xz": x - z, "yz": y - z}
        out.add("".join("+" if signs[l] > 0 else "-" for l in order))
    return out


def naive_sigma_member(arrangement, eps, p):
    """Membership in Sigma_p checked at every flat of codim <= p.

    Uses full-dimension feasibility on each localization, no coordinate
    reduction and no caching.
    """
    for codim, closed in brute_force_flats(arrangement):
        if codim > p or not closed:
            continue
        rows = [
            [eps.sign_of(l) * c for c in arrangement.normal(l)] for l in sorted(closed)
        ]
        if not strict_feasibility(rows).feasible:
            return False
    return True


def naive_sigma_set(arrangement, p):
    from msarr.arrangement import SignVector

    out = set()
    for signs in product((1, -1), repeat=len(arrangement.labels)):
        eps = SignVector(arrangement.labels, signs)
        if naive_sigma_member(arrangement, eps, p):
            out.add(eps)
    return out


def mixed_feasibility(eq_rows, geq_rows, normalization):
    """Point with eq.x = 0, geq.x >= 0 and geq[pin].x = value, or None.

    normalization = (pin_row_index, value) with value > 0, pinning one of
    the inequality rows to a positive constant so 'nonzero solution' becomes
    a plain feasibility question.
    """
    eq = [[as_scalar(v) for v in r] for r in eq_rows]
    geq = [[as_scalar(v) for v in r] for r in geq_rows]
    pin, value = normalization
    value = as_scalar(value)
    if value <= 0:
        raise ValueError("normalization value must be positive")
    if not 0 <= pin < len(geq):
        raise IndexError("normalization row out of range")
    ncols_set = {len(r) for r in eq + geq}
    if len(ncols_set) > 1:
        raise ValueError("inconsistent column counts")
    ncols = ncols_set.pop() if ncols_set else 0

    a = []
    b = []
    nslack = len(geq) - 1

    def emb(row, slack_idx=None):
        out = row + [-v for v in row] + [Q(0)] * nslack
        if slack_idx is not None:
            out[2 * ncols + slack_idx] = Q(-1)
        return out

    for r in eq:
        a.append(emb(r))
        b.append(Q(0))
    si = 0
    for i, r in enumerate(geq):
        if i == pin:
            a.append(emb(r))
            b.append(value)
        else:
            a.append(emb(r, si))
            b.append(Q(0))
            si += 1
    opt, x, _ = _phase1(a, b)
    if opt != 0:
        return None
    u = tuple(x[j] - x[ncols + j] for j in range(ncols))
    for r in eq:
        if sum(c * v for c, v in zip(r, u)) != 0:
            raise ArithmeticError("invalid mixed-feasibility point")
    for i, r in enumerate(geq):
        val = sum(c * v for c, v in zip(r, u))
        if val < 0 or (i == pin and val != value):
            raise ArithmeticError("invalid mixed-feasibility point")
    return u


def lp_is_simple_chamber(a, chamber):
    """Simple-chamber test by one mixed LP per non-wall hyperplane.

    Wall count must equal the rank with independent wall normals, and no
    nonzero point of the closed chamber may lie on a non-wall hyperplane.
    The LP pins the sum of all localized values to 1: a nonzero point of
    the closed cone has positive value-sum in an essential arrangement.
    """
    rk = a.rank()
    if rk != a.dim:
        raise ValueError("arrangement must be essential; essentialize first")
    w = walls(a, chamber)
    if len(w) != rk:
        return False
    if rank(Mat([list(a.normal(l)) for l in sorted(w)])) != rk:
        return False
    eps_rows = [
        [chamber.sign_of(l) * c for c in a.normal(l)] for l in a.labels
    ]
    sum_row = [sum(col) for col in zip(*eps_rows)]
    for l in a.labels:
        if l in w:
            continue
        point = mixed_feasibility(
            [list(a.normal(l))], eps_rows + [sum_row], (len(eps_rows), 1)
        )
        if point is not None:
            return False
    return True


def elimination_presentations(m):
    """Canonical presentation of every flat of m, by span tests.

    Each D_T is eliminated from the rows alpha_I(T, j) computed from the
    base, and X lies in D_T iff D_T's normal space sits inside X's.
    Returns {closed label set: SetFamily}.
    """
    d_flats = {}
    for size in range(m.k + 1, m.n + 1):
        for T in combinations(range(1, m.n + 1), size):
            idx = list(T)
            rows = [list(alpha_I(m.base, idx[:m.k] + [t])) for t in idx[m.k:]]
            d_flats[frozenset(T)] = rref(Mat(rows))[0]
    out = {}
    for x in m.arrangement.full_lattice():
        containing = [
            T
            for T, rows in d_flats.items()
            if all(in_span(r, x.normal_space, x.pivots) for r in rows)
        ]
        maximal = [T for T in containing if not any(T < U for U in containing)]
        out[x.closed_set] = SetFamily(m.n, m.k, maximal, check_antichain=True)
    return out
