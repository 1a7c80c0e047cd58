"""Acceptance gate: the ten headline computations, one verdict line each.

Run with -s to see the verdict lines as they are produced; each criterion
is exact (no tolerances) and fails loudly through its assert.
"""

import random
from itertools import combinations

import pytest

from conftest import boolean
from oracles import in_span
from msarr.errors import GuardExceeded
from msarr.fields import Q
from msarr.linalg import Mat, rank, rref
from msarr.feasibility import strict_feasibility
from msarr import (
    SetFamily,
    SignVector,
    a_family_matrix,
    alpha_I,
    build_ms,
    canonical_presentation,
    chamber_sign_vectors,
    circuits,
    enumerate_pnk,
    epsilon_C,
    essentialize,
    find_jump,
    in_sigma_p,
    is_pnk_element,
    is_simple_chamber,
    is_very_generic,
    jump_after_perturbation,
    localization,
    named_base,
    perturb_to_very_generic,
    pnk_rank,
    random_very_generic,
    sigma_product_check,
    sigma_set,
    witness_rank_r,
    zaslavsky_chambers,
)
from msarr.cli import REFERENCE_ORBITS, orbit_canonical


def verdict(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def a52(ms52):
    return ms52.arrangement


@pytest.fixture(scope="module")
def jump63(ms63_very_generic):
    return find_jump(ms63_very_generic.arrangement, 2)


@pytest.fixture(scope="module")
def witness62():
    w = witness_rank_r(6, 2, seed=0)
    m, _ = perturb_to_very_generic(w, seed=0)
    return w, m


def test_criterion_1_cleanliness_52(a52):
    s2 = sigma_set(a52, 2)
    s3 = sigma_set(a52, 3)
    verdict(1, "B(5,2) filtration levels 2 and 3 coincide", s2 == s3 and len(s2) == 62)


def test_criterion_2_circuit_orbits_52(a52):
    supports = [sup for sup, _ in circuits(a52, 4) if len(sup) == 4]
    got = {orbit_canonical(tuple(sorted(s)), 5) for s in supports}
    expected = {orbit_canonical(o, 5) for o in REFERENCE_ORBITS}
    verdict(2, "B(5,2) size-4 circuit supports form three orbit classes",
            got == expected and len(got) == 3)


def test_criterion_3_jump_63(ms63_very_generic, jump63):
    a = ms63_very_generic.arrangement
    ok = jump63 is not None
    if ok:
        eps, flat, cert = jump63
        ok = (
            in_sigma_p(a, eps, 2).member
            and not in_sigma_p(a, eps, 3).member
            and cert.verify(a, eps)
        )
    # the explicit route: flip the walls of a simple chamber of the
    # essentialized arrangement
    if ok:
        ess, _ = essentialize(a)
        simple = next(
            (
                ch
                for ch in sorted(chamber_sign_vectors(ess), key=lambda c: c.to_string())
                if is_simple_chamber(ess, ch)
            ),
            None,
        )
        ok = simple is not None
        if ok:
            ec = epsilon_C(ess, simple)
            ok = in_sigma_p(ess, ec, 2).member and not in_sigma_p(ess, ec, 3).member
    verdict(3, "very generic B(6,3) jumps at level 2, both routes", ok)


def test_criterion_4_witness_and_jump_62(witness62):
    w, m = witness62
    g = w.witness_base
    rows = [list(alpha_I(g, sorted(T))) for T in w.family.members]
    ok = rank(Mat(rows)) == 3  # the four hyperplanes meet at codim r-1 = 3
    for drop in range(4):
        ok = ok and rank(Mat([r for i, r in enumerate(rows) if i != drop])) == 3
    ns, piv = rref(Mat(rows))
    member_labels = set(w.family_labels())
    for I in combinations(range(1, 7), 3):
        lab = "".join(map(str, I))
        if lab in member_labels:
            continue
        ok = ok and not in_span(alpha_I(g, I), ns, piv)
    if ok:
        a = m.arrangement
        eps, flat, cert = jump_after_perturbation(m, w, seed=0)
        ok = (
            in_sigma_p(a, eps, 3).member
            and not in_sigma_p(a, eps, 4).member
            and cert.verify(a, eps)
            and flat.codim == 4
        )
    verdict(4, "rank-4 witness verifies and perturbed B(6,2) jumps at level 3", ok)


def test_criterion_5_falk():
    g = named_base("falk")
    fam = SetFamily(6, 3, [{1, 2, 4, 5}, {1, 3, 4, 6}, {2, 3, 5, 6}])
    ok = rank(a_family_matrix(g, fam)) == 2
    m = build_ms(g)
    x = m.arrangement.flat_of(["1245", "1346", "2356"])
    ok = ok and set(canonical_presentation(m, x).members) == set(fam.members)
    ok = ok and is_pnk_element(fam) == (False, "iii")
    verdict(5, "rank-2 triple intersection fails the union inequality", ok)


def test_criterion_6_dichotomy_1000():
    rng = random.Random(2026)
    ok = True
    for _ in range(1000):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[Q(rng.randint(-9, 9)) for _ in range(nc)] for _ in range(nr)]
        out = strict_feasibility(rows)
        if (out.point is None) == (out.certificate is None):
            ok = False
            break
        if out.point is not None:
            if not all(
                sum(a * b for a, b in zip(row, out.point)) > 0 for row in rows
            ):
                ok = False
                break
        else:
            lam = out.certificate
            if not (all(v >= 0 for v in lam) and any(v > 0 for v in lam)):
                ok = False
                break
            if any(
                sum(lam[i] * rows[i][j] for i in range(nr)) != 0 for j in range(nc)
            ):
                ok = False
                break
    verdict(6, "1000-case feasibility dichotomy with exact witnesses", ok)


def test_criterion_7_zaslavsky(br3, a52):
    ok = True
    cases = [br3] + [boolean(r) for r in range(1, 5)] + [a52]
    ok = all(len(chamber_sign_vectors(a)) == zaslavsky_chambers(a) for a in cases)
    h3, _ = essentialize(build_ms(named_base("h3")).arrangement)
    ok = ok and len(chamber_sign_vectors(h3)) == zaslavsky_chambers(h3)
    verdict(7, "chamber enumeration equals the lattice Moebius count", ok)


def test_criterion_8_lattice_gradings(ms52, ms63_very_generic):
    ok = True
    instances = [
        (ms52, 5, 2),
        (random_very_generic(6, 2, seed=1), 6, 2),
        (ms63_very_generic, 6, 3),
    ]
    for m, n, k in instances:
        vg, _ = is_very_generic(m)
        if not vg:
            ok = False
            continue
        rk = m.arrangement.rank()
        lattice = {}
        for f in m.arrangement.full_lattice():
            lattice[f.codim] = lattice.get(f.codim, 0) + 1
        poset = {}
        for fam in enumerate_pnk(n, k, rk):
            r = pnk_rank(fam) if fam.members else 0
            poset[r] = poset.get(r, 0) + 1
        ok = ok and lattice == poset
    verdict(8, "poset gradings match lattice gradings at (5,2),(6,2),(6,3)", ok)


def test_criterion_9_product_and_localization(br3, boolean2, a52):
    ok = sigma_product_check(boolean2, br3, 2)
    ok = ok and sigma_product_check(br3, br3, 2)
    if ok:
        flats2 = [f for f in a52.full_lattice() if f.codim == 2]
        for eps in sigma_set(a52, 2):
            for x in flats2:
                loc = localization(a52, x)
                sub = SignVector(
                    loc.labels, tuple(eps.sign_of(l) for l in loc.labels)
                )
                if not in_sigma_p(loc, sub, 2).member:
                    ok = False
                    break
            if not ok:
                break
    verdict(9, "product formula and localization transfer hold exhaustively", ok)


def test_criterion_10_pipelines_and_guards(a52, ms63_very_generic, jump63, witness62):
    ok = find_jump(a52, 2) is None  # (5,2,2): clean, certified by |Sigma_2| = |Sigma_3|
    ok = ok and jump63 is not None  # (6,3,2)
    w, m62 = witness62
    try:
        jump_after_perturbation(m62, w, seed=0)  # (6,2,3)
    except Exception:
        ok = False
    m74 = random_very_generic(7, 4, seed=1)
    hit = find_jump(m74.arrangement, 2)  # (7,4,2): 21 hyperplanes
    if hit is None:
        ok = False
    else:
        eps, _, cert = hit
        ok = ok and cert.verify(m74.arrangement, eps)
    # 20 hyperplanes: Sigma_2 = Sigma_3 on the perturbed B(6,2), certified
    ok = ok and find_jump(m62.arrangement, 2) is None
    # beyond the guards the failures must be loud, not silent
    from msarr import CentralArrangement

    try:
        find_jump(CentralArrangement(3, [(f"h{i}", [1, i, i * i]) for i in range(23)]), 2)
        ok = False
    except GuardExceeded:
        pass
    big = CentralArrangement(2, [(f"h{i}", [1, i]) for i in range(23)])
    try:
        chamber_sign_vectors(big)
        ok = False
    except GuardExceeded:
        pass
    try:
        sigma_set(big, 1)
        ok = False
    except GuardExceeded:
        pass
    verdict(10, "desk-scale pipelines succeed, guards fail loudly beyond", ok)
