"""Independent reference implementations used to validate derived values.

Everything here is deliberately brute force and shares as little code as
possible with the library paths it checks.
"""

import random
from collections import namedtuple
from itertools import combinations, permutations, product

from msarr.arrangement import Flat, SignVector, _bit_indices, _pivot_rows
from msarr.errors import RetryExhausted
from msarr.feasibility import _phase1, strict_feasibility
from msarr.fields import Q, as_scalar, sign
from msarr.linalg import Mat, _cut, _integral, _integral_ops, det, kernel_basis, rank, rref
from msarr.msbuild import _dt_labels, alpha_I
from msarr.pnk import SetFamily, enumerate_pnk, is_pnk_element, pnk_rank
from msarr.sigma import (
    SigmaReport,
    _circuit_certificate,
    _cocircuits,
    _failing_circuit,
    _fails,
    _ray_point,
    in_sigma_p,
    walls,
)

# A flat as the echelon oracles build it: its own rref of X^perp, not the
# library Flat's lazy view of it.
EchelonFlat = namedtuple("EchelonFlat", "closed_set codim normal_space pivots")


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
    top = EchelonFlat(frozenset(), 0, (), ())
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
                newly[ns] = EchelonFlat(closed, fl.codim + 1, ns, piv)
        by_key.update(newly)
        frontier = list(newly.values())
    return sorted(by_key.values(), key=lambda f: (f.codim, sorted(f.closed_set)))


def _full_units(a):
    return [_integral([Q(int(i == j)) for i in range(a.dim)], a._rt5) for j in range(a.dim)]


def _full_flat(a, mask, free):
    pivots = tuple(c for c in range(a.dim) if c not in free)
    closed = [l for l in a.labels if a._bits[l] & mask]
    return Flat(frozenset(closed), len(pivots), pivots, tuple(a.normal(l) for l in closed))


def full_coordinate_lattice(a):
    """(flats, masks, pos, covers) of the lattice built in all dim
    coordinates, on the integral normals and the dim unit vectors: the
    builder before it moved to rank coordinates, with its BFS, classes,
    cuts, pos(F) and covers."""
    dot, key, zero, comb = _integral_ops(a._rt5)
    ints, bits = a._integral, a._bits
    flip = a.label_mask(l for l in a.labels if next(v for v in a.normal(l) if v) < 0)
    by_mask = {0: _full_flat(a, 0, range(a.dim))}
    pos_of, below = {}, {0: []}
    frontier = [(0, _full_units(a), tuple(range(a.dim)))]
    while frontier:
        newly = []
        for mask, ker, free in frontier:
            classes = {}
            pos = 0
            for lab in a.labels:
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
                    by_mask[cmask] = _full_flat(a, cmask, cfree)
                    below[cmask] = []
                    newly.append((cmask, cker, cfree))
                below[cmask].append(mask)
        frontier = newly
    order = sorted(by_mask, key=lambda m: (by_mask[m].codim, by_mask[m].sorted_labels()))
    index = {m: i for i, m in enumerate(order)}
    covers = tuple(tuple(index[m] for m in below[x]) for x in order)
    return [by_mask[m] for m in order], tuple(order), tuple(pos_of[m] for m in order), covers


def full_coordinate_flat_of(a, labels):
    """flat_of in all dim coordinates: the unit vectors cut by the labels'
    integral normals in turn, closed by the labels orthogonal to the rest."""
    dot, _, zero, comb = _integral_ops(a._rt5)
    ker, free = _full_units(a), tuple(range(a.dim))
    for l in labels:
        images = [dot(a._integral[l], k) for k in ker]
        if any(v != zero for v in images):
            ker, free = _cut(ker, free, images, zero, comb)
    closed = a.label_mask(l for l in a.labels if all(dot(a._integral[l], k) == zero for k in ker))
    return _full_flat(a, closed, free)


def span_closure_flat(arrangement, labels):
    """The flat spanned by labels, closed by a span test of every normal.

    The echelon basis of the labels' normals gives codim, X^perp and its
    pivots; a label is in the closed set iff its normal reduces to zero
    modulo that basis.
    """
    a = arrangement
    labels = list(labels)
    if not labels:
        return EchelonFlat(frozenset(), 0, (), ())
    ns, piv = rref(Mat([list(a.normal(l)) for l in labels]))
    closed = frozenset(l for l in a.labels if in_span(a.normal(l), ns, piv))
    return EchelonFlat(closed, len(ns), ns, piv)


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
        if not lp_realizes(arrangement, eps, closed):
            return False
    return True


def lp_realizes(arrangement, eps, labels):
    """Some point has the signs of eps on the labels: one strict LP on
    their normals in full dimension."""
    rows = [[eps.sign_of(l) * c for c in arrangement.normal(l)] for l in sorted(labels)]
    return strict_feasibility(rows).feasible


def is_circuit(arrangement, labels):
    """The normals of labels have rank |labels| - 1 and every proper subset
    is independent, by rank on each subset missing one label."""
    labels = list(labels)

    def rk(sub):
        return rank(Mat([list(arrangement.normal(l)) for l in sub]))

    k = len(labels)
    return rk(labels) == k - 1 and all(rk(labels[:i] + labels[i + 1:]) == k - 1 for i in range(k))


def lattice_sigma_failing_flat(arrangement, eps, p):
    """First codim-min(p, rank) flat, in lattice order, where eps fails.

    Each flat's localized system is solved in full dimension by a strict
    LP, with no coordinate reduction, no square solve and no caching.
    None when eps is consistent at every such flat.
    """
    q = min(p, arrangement.rank())
    for f in arrangement.full_lattice():
        if f.codim == q and not lp_realizes(arrangement, eps, f.closed_set):
            return f
    return None


def naive_sigma_set(arrangement, p):
    out = set()
    for signs in product((1, -1), repeat=len(arrangement.labels)):
        eps = SignVector(arrangement.labels, signs)
        if naive_sigma_member(arrangement, eps, p):
            out.add(eps)
    return out


def exhaustive_sigma_set(arrangement, p):
    """Sigma_p by in_sigma_p on each of the 2^|A| sign vectors."""
    out = set()
    for signs in product((1, -1), repeat=arrangement.n_hyperplanes):
        eps = SignVector(arrangement.labels, signs)
        if in_sigma_p(arrangement, eps, p).member:
            out.add(eps)
    return out


def exhaustive_find_jump(arrangement, p):
    """The first sign vector in product((1, -1)) order that lies in Sigma_p
    but not in Sigma_{p+1}, with the failing flat and certificate of
    in_sigma_p at p + 1; None when Sigma_p = Sigma_{p+1}."""
    for signs in product((1, -1), repeat=arrangement.n_hyperplanes):
        eps = SignVector(arrangement.labels, signs)
        if not in_sigma_p(arrangement, eps, p).member:
            continue
        rep = in_sigma_p(arrangement, eps, p + 1)
        if not rep.member:
            return eps, rep.failing_flat, rep.certificate
    return None


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


def det_alpha_I(g, I):
    """Normal of D_I with each signed minor computed by its own det."""
    idx = sorted(I)
    out = [Q(0)] * g.n
    for p, ip in enumerate(idx):
        rest = [j for j in idx if j != ip]
        minor = det(Mat([[g.columns[j - 1][i] for j in rest] for i in range(g.k)]))
        out[ip - 1] = minor if p % 2 == 0 else -minor
    return tuple(out)


def flat_of_isomorphic_to_pnk(m):
    """P(n, k) isomorphism check with one flat_of closure per family.

    Enumerates P(n, k) afresh and takes each family's flat to be
    flat_of of its D_T labels (an rref plus a closure scan).
    """
    a = m.arrangement
    seen = set()
    for fam in enumerate_pnk(m.n, m.k, a.rank()):
        x = a.flat_of(l for T in fam.members for l in _dt_labels(m, T))
        if x.codim != pnk_rank(fam) or x.closed_set in seen:
            return False, fam
        seen.add(x.closed_set)
    if len(seen) != len(a.full_lattice()):
        return False, None
    return True, None


def enumerate_pnk_by_check(n, k, max_rank):
    """P(n, k) up to max_rank by antichain backtracking, each extended
    family checked whole by is_pnk_element; graded like enumerate_pnk."""
    candidates = [
        frozenset(T) for size in range(k + 1, n + 1) for T in combinations(range(1, n + 1), size)
    ]
    results = [[] for _ in range(max_rank + 1)]
    results[0].append(SetFamily(n, k, []))

    def extend(chosen, rk, start):
        for i in range(start, len(candidates)):
            T = candidates[i]
            new_rk = rk + len(T) - k
            if new_rk > max_rank:
                continue
            if any(T <= U or U <= T for U in chosen):
                continue
            fam = chosen + [T]
            if not is_pnk_element(SetFamily(n, k, fam))[0]:
                continue
            results[new_rk].append(SetFamily(n, k, fam))
            extend(fam, new_rk, i + 1)

    extend([], 0, 0)
    return [
        f for level in results for f in sorted(level, key=lambda f: [sorted(m) for m in f.members])
    ]


def scan_zaslavsky_chambers(a):
    """Sum of |mu(bottom, X)|, each mu(bottom, X) minus the sum over every
    flat whose closed mask lies in X's: F^2 subset tests on label masks."""
    masks = a.lattice_masks()
    mu = [1]
    for x in masks[1:]:
        mu.append(-sum(m for y, m in zip(masks, mu) if y & x == y))
    return sum(abs(m) for m in mu)


def set_zaslavsky_chambers(a):
    """Sum of |mu(bottom, X)|, with mu keyed and ordered by closed sets."""
    flats = a.full_lattice()
    mu = {}
    total = 0
    for f in flats:
        if f.codim == 0:
            m = 1
        else:
            m = 0
            for g in flats:
                if g.codim < f.codim and g.closed_set <= f.closed_set:
                    m -= mu[g.closed_set]
        mu[f.closed_set] = m
        total += abs(m)
    return total


class SetMatroid:
    """Matroid on a frozenset flat family, every question answered by
    scanning the flats: axioms pair by pair, covers as the minimal flats
    above, closure as an intersection, height as the longest chain."""

    def __init__(self, ground, flats):
        if isinstance(ground, int):
            ground = range(1, ground + 1)
        self.ground = frozenset(ground)
        self.flats = frozenset(frozenset(f) for f in flats)
        self._validate()
        self._heights = None

    def _validate(self):
        if self.ground not in self.flats:
            raise ValueError("ground set must be a flat")
        for f in self.flats:
            if not f <= self.ground:
                raise ValueError(f"flat {sorted(f)} exceeds the ground set")
        for f, g in combinations(self.flats, 2):
            if f & g not in self.flats:
                raise ValueError(
                    f"flats {sorted(f)} and {sorted(g)} have a non-flat intersection"
                )
        for f in self.flats:
            if f == self.ground:
                continue
            blocks = [g - f for g in self._covers(f)]
            rest = self.ground - f
            if sum(len(b) for b in blocks) != len(rest) or frozenset().union(*blocks) != rest:
                raise ValueError(
                    f"covers of flat {sorted(f)} do not partition the complement"
                )

    def _covers(self, f):
        above = [g for g in self.flats if f < g]
        return [g for g in above if not any(h < g for h in above if f < h)]

    def closure(self, s):
        s = frozenset(s)
        if not s <= self.ground:
            raise ValueError("set is not contained in the ground set")
        out = self.ground
        for f in self.flats:
            if s <= f:
                out = out & f
        return out

    def coatoms(self):
        below = [f for f in self.flats if f != self.ground]
        return frozenset(f for f in below if not any(f < g for g in below))

    def height(self, f):
        if self._heights is None:
            hs = {}
            for g in sorted(self.flats, key=len):
                subs = [hs[h] for h in self.flats if h < g and h in hs]
                hs[g] = 1 + max(subs) if subs else 0
            self._heights = hs
        return self._heights[frozenset(f)]

    def rank(self):
        return self.height(self.ground)

    def is_paving(self):
        """Closure of every (rank-1)-subset of the ground set is a coatom."""
        r = self.rank()
        if r == 0:
            return True
        coat = self.coatoms()
        return all(
            self.closure(s) in coat for s in combinations(sorted(self.ground), r - 1)
        )


def proper_subcollections_independent(rows):
    """Whether every proper sub-collection of the rows is independent, by
    one rank per sub-collection of each size 1, ..., r - 1."""
    r = len(rows)
    return all(
        rank(Mat([rows[i] for i in sub])) == size
        for size in range(1, r)
        for sub in combinations(range(r), size)
    )


def lp_jump_after_perturbation(m, w, seed=0, tries=40):
    """The perturbation jump with one whole-arrangement strict LP per pattern.

    For each exact point x0 of the old flat, every one of the 2^r wall
    patterns with the frozen signs of x0 is tested for a chamber by a strict
    LP on all hyperplanes; exactly one infeasible pattern that lies in
    Sigma_p is the jump, certified by in_sigma_p at p + 1.
    """
    a = m.arrangement
    p = a.rank() - 1
    split = set(w.family_labels())
    others = [l for l in a.labels if l not in split]
    split_order = [l for l in a.labels if l in split]
    old_rows = [list(alpha_I(w.witness_base, sorted(T))) for T in w.family.members]
    x_basis = kernel_basis(Mat(old_rows))
    rng = random.Random(seed)
    for _ in range(tries):
        x0 = [Q(0)] * a.dim
        for v in x_basis:
            c = Q(rng.randint(-9, 9))
            for i in range(a.dim):
                x0[i] = x0[i] + c * v[i]
        vals = {l: sum(c * x for c, x in zip(a.normal(l), x0)) for l in others}
        if any(v == 0 for v in vals.values()):
            continue
        delta = {l: sign(v) for l, v in vals.items()}
        bad = []
        for tau in product((1, -1), repeat=len(split_order)):
            assign = dict(delta)
            assign.update(zip(split_order, tau))
            eps = SignVector(a.labels, tuple(assign[l] for l in a.labels))
            rows = [[assign[l] * c for c in a.normal(l)] for l in a.labels]
            if not strict_feasibility(rows).feasible:
                bad.append(eps)
            if len(bad) > 1:
                break
        if len(bad) != 1:
            continue
        eps = bad[0]
        if not in_sigma_p(a, eps, p).member:
            continue
        rep = in_sigma_p(a, eps, p + 1)
        if rep.member:
            raise AssertionError("infeasible sign vector reported consistent")
        return eps, rep.failing_flat, rep.certificate
    raise RetryExhausted(f"no simple-chamber jump found near the old flat after {tries} tries")


def minors(rows, q, ring):
    """det of the rows S, in order, on their first q columns, for every
    q-subset S of the rows, keyed by the mask of S's row indices.

    A k-minor expands along its last column into (k-1)-minors, so each
    minor on the first k columns is computed once, by ring products alone.
    """
    mul_, add_, sub_ = ring.mul, ring.add, ring.sub
    prev = {0: ring.of_int(1)}
    for col in range(q):
        cur = {}
        for subset in combinations(range(len(rows)), col + 1):
            mask = 0
            for s in subset:
                mask |= 1 << s
            total = ring.zero
            for j, s in enumerate(subset):
                t = mul_(rows[s][col], prev[mask ^ (1 << s)])
                total = sub_(total, t) if (j + col) % 2 else add_(total, t)
            cur[mask] = total
        prev = cur
    return prev


def circuit_table(a, i):
    """The signed circuits spanning the over-populated flat i of the
    lattice, built whole: every q-minor first, then every (q+1)-subset of
    the closed set in lexicographic order, a circuit when no q-minor of it
    vanishes, signed by Cramer's rule.  (support mask, positive mask) per
    circuit, flattened into one tuple."""
    f = a.full_lattice()[i]
    idx = _bit_indices(a.lattice_masks()[i])
    sign_of = a._ring.sign
    signs = {m: sign_of(v) for m, v in minors(_pivot_rows(a, f, idx), f.codim, a._ring).items()}
    out = []
    for subset in combinations(range(len(idx)), f.codim + 1):
        local = 0
        for s in subset:
            local |= 1 << s
        supp = pos = 0
        for j, s in enumerate(subset):
            g = signs[local ^ (1 << s)]
            if not g:
                break
            supp |= 1 << idx[s]
            if (g > 0) == (j % 2 == 0):
                pos |= 1 << idx[s]
        else:
            out += (supp, pos)
    return tuple(out)


def fraction_verify(cert, a, eps):
    """sum lambda_H e_H a_H = 0 by substitution in field arithmetic."""
    total = [Q(0)] * a.dim
    for lab, lam in zip(cert.support, cert.coefficients):
        nv = a.normal(lab)
        s = eps.sign_of(lab)
        total = [t + lam * s * v for t, v in zip(total, nv)]
    return all(v == 0 for v in total)


def circuits_below(a, mask, codim):
    """[(lattice index, circuit_table)] of the over-populated flats of codim
    at most codim whose closed sets lie in mask, in lattice order.  Every
    signed circuit inside a flat's closed set spans exactly one of them."""
    out = []
    for i, (f, m) in enumerate(zip(a.full_lattice(), a.lattice_masks())):
        if f.codim <= codim and m & mask == m and m.bit_count() > f.codim:
            out.append((i, circuit_table(a, i)))
    return out


def _conforms(pos, supp, cpos):
    t = (pos ^ cpos) & supp
    return t == 0 or t == supp


def circuit_failure(a, pos, mask, codim):
    """(lattice index, support) of the circuit the circuit path certifies
    a failure with, for the sign vector with positive mask pos at the flat
    with closed mask mask and codim codim, or None when none conforms.

    The flat is the first in lattice order that a conforming circuit spans;
    the circuit is the colex-first of those spanning it, the least support
    mask, which is the one deleting labels from the highest down leaves.
    """
    for i, table in circuits_below(a, mask, codim):
        supports = [s for s, c in zip(table[::2], table[1::2]) if _conforms(pos, s, c)]
        if supports:
            return i, min(supports)
    return None


def circuit_sigma_report(a, eps, p):
    """in_sigma_p's unaudited report from the circuit tables: the first
    codim-min(p, rank) flat in lattice order with a conforming circuit,
    certified by sigma's circuit certificate of circuit_failure's circuit."""
    q = min(p, a.rank())
    pos = a.label_mask(l for l in a.labels if eps.sign_of(l) > 0)
    for f, m in zip(a.full_lattice(), a.lattice_masks()):
        if f.codim != q:
            continue
        hit = circuit_failure(a, pos, m, q)
        if hit is not None:
            return SigmaReport(eps, p, "non-member", f, _circuit_certificate(a, eps, *hit), {})
    return SigmaReport(eps, p, "member", None, None, {})


def per_flat_consistent(a, eps, x, audit):
    """consistent_at by the per-flat path the level tuples replaced:
    (verdict, proof) kept under the key (closed set, eps's signs on its
    sorted labels), a member's point None unless audit.  An independent
    flat's point is the sum of q oriented rays, one kernel vector for each
    of its q subsets of q - 1 labels."""
    labels = sorted(x.closed_set)
    if not labels:
        return True, tuple(Q(0) for _ in range(a.dim))
    signs = tuple(eps.sign_of(l) for l in labels)
    cache = a.__dict__.setdefault("_per_flat_cache", {})
    key = (x.closed_set, signs)
    hit = cache.get(key)
    if hit is None or audit and hit[1] is None:
        mask = a.label_mask(labels)
        pos = a.label_mask(l for l, s in zip(labels, signs) if s > 0)
        hit = cache[key] = _per_flat_decide(a, eps, x, mask, pos, audit)
    return hit


def _per_flat_decide(a, eps, x, mask, pos, audit):
    independent = mask.bit_count() == x.codim
    if not independent:
        a.full_lattice()
        i = a._index[mask]
        if _fails(a, i, pos):
            return False, _circuit_certificate(a, eps, *_failing_circuit(a, i, pos))
    if not audit:
        return True, None
    if independent:
        flats = [mask ^ 1 << j for j in _bit_indices(mask)]
    else:
        covers = zip(a._covers[i], _cocircuits(a, i, mask))
        flats = [a._masks[y] for y, (supp, c) in covers if (pos ^ c) & supp in (0, supp)]
    return True, _ray_point(a, x, mask, pos, flats)


def per_flat_sigma_report(a, eps, p, audit=False):
    """in_sigma_p by per_flat_consistent at each codim-min(p, rank) flat,
    in lattice order."""
    q = min(p, a.rank())
    witness = {}
    for f in a.full_lattice():
        if f.codim != q:
            continue
        ok, payload = per_flat_consistent(a, eps, f, audit)
        if not ok:
            return SigmaReport(eps, p, "non-member", f, payload, witness)
        if audit:
            witness[f] = payload
    return SigmaReport(eps, p, "member", None, None, witness)


def circuit_conformal_masks(a, codim):
    """Positive-label masks of the sign vectors no signed circuit of an
    over-populated flat of codim at most codim conforms to, in
    product((1, -1)) order: a DFS over the labels, + before -, checking at
    label i the circuits whose highest label is i."""
    n = a.n_hyperplanes
    ending = [[] for _ in range(n)]
    for _, table in circuits_below(a, (1 << n) - 1, codim):
        for supp, cpos in zip(table[::2], table[1::2]):
            ending[supp.bit_length() - 1].append((supp, cpos))
    out = []

    def descend(i, pos):
        if i == n:
            out.append(pos)
            return
        for p in (pos | 1 << i, pos):
            if not any(_conforms(p, s, c) for s, c in ending[i]):
                descend(i + 1, p)

    descend(0, 0)
    return out


def two_list_find_jump(a, p):
    """find_jump by two circuit DFS lists: Sigma_p in product order, then
    Sigma_{p+1} as a set; the first member of the first outside the second,
    certified by in_sigma_p at p + 1, or None."""
    above = set(circuit_conformal_masks(a, p + 1))
    for pos in circuit_conformal_masks(a, p):
        if pos not in above:
            eps = SignVector(a.labels, tuple(1 if pos >> j & 1 else -1 for j in range(a.n_hyperplanes)))
            rep = in_sigma_p(a, eps, p + 1)
            return eps, rep.failing_flat, rep.certificate
    return None


def packet_member(eps, n):
    """Sigma_2 of a moment-curve B(n, 2) by the packet condition of the
    higher Bruhat order (Manin-Schechtman 1989; Ziegler 1993): for every
    4-subset K of [n], the signs on the four 3-subsets of K, in
    lexicographic order, change at most once.  This holds for the
    library's orientation of alpha_I on moment-curve bases only; labels are
    the 3-subsets written as digits, so n <= 9."""
    for k in combinations(range(1, n + 1), 4):
        signs = [eps.sign_of("".join(map(str, t))) for t in combinations(k, 3)]
        if sum(s != t for s, t in zip(signs, signs[1:])) > 1:
            return False
    return True


def packet_leaves(n, rng=None):
    """Positive-label masks, over the 3-subsets of [n] in lexicographic
    order, of the sign vectors that pass the packet condition, in
    product((1, -1)) order: a DFS that checks each 4-subset once its last
    3-subset has a sign.  With rng each node takes its two signs in a
    random order instead, so the first leaf is a seeded draw."""
    triples = list(combinations(range(1, n + 1), 3))
    bit = {t: j for j, t in enumerate(triples)}
    ending = [[] for _ in triples]
    for k in combinations(range(1, n + 1), 4):
        js = [bit[t] for t in combinations(k, 3)]
        ending[js[-1]].append(js)
    # 4-bit patterns, bit i the sign of the i-th 3-subset, changing at most once
    monotone = {m for m in range(16) if sum((m >> i ^ m >> i + 1) & 1 for i in range(3)) <= 1}
    stack = [(0, 0)]
    while stack:
        i, pos = stack.pop()
        if i == len(triples):
            yield pos
            continue
        for p in (pos, pos | 1 << i) if rng is None or rng.random() < 0.5 else (pos | 1 << i, pos):
            if all(
                (p >> j0 & 1 | (p >> j1 & 1) << 1 | (p >> j2 & 1) << 2 | (p >> j3 & 1) << 3) in monotone
                for j0, j1, j2, j3 in ending[i]
            ):
                stack.append((i + 1, p))
