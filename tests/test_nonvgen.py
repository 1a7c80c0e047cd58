"""Coincidence-locus witnesses and the perturbation jump pipeline."""

import random

import pytest

import oracles
from msarr import arrangement, feasibility, nonvgen, sigma
from msarr.fields import Q
from msarr.linalg import Mat, rank
from msarr.msbuild import alpha_I
from msarr.nonvgen import _rank3_equation, _rank_r_equation
from msarr import (
    SetFamily,
    a_family_matrix,
    build_ms,
    cyclic_map_c,
    in_sigma_p,
    in_variety,
    is_generic,
    is_very_generic,
    jump_after_perturbation,
    named_base,
    perturb_to_very_generic,
    random_generic,
    witness_rank3,
    witness_rank_r,
)

FALK_FAMILY = SetFamily(6, 3, [{1, 2, 4, 5}, {1, 3, 4, 6}, {2, 3, 5, 6}])


@pytest.fixture(scope="module")
def w63():
    return witness_rank3(6, 3, seed=0)


# -- coincidence families -----------------------------------------------------


def test_falk_family_matrix_rows():
    ref = [
        [2, 2, 0, 2, -2, 0],
        [-2, 0, 2, -2, 0, 2],
        [0, -2, -2, 0, 2, -2],
    ]
    m = a_family_matrix(named_base("falk"), FALK_FAMILY)
    assert m.rows == 3 and m.cols == 6
    for row, expect in zip(m.entries, ref):
        ratios = {v / e for v, e in zip(row, expect) if e != 0}
        assert len(ratios) == 1 and 0 not in ratios
        assert all(v == 0 for v, e in zip(row, expect) if e == 0)


def test_in_variety_examples():
    falk = named_base("falk")
    assert in_variety(falk, FALK_FAMILY, 2)
    # a single member always over-intersects trivially at its own codim
    single = SetFamily(6, 3, [{1, 2, 4, 5}])
    assert in_variety(falk, single, 1)
    # a random base misses the codim-2 locus
    g = random_generic(6, 3, seed=11)
    assert not in_variety(g, FALK_FAMILY, 2)


def test_q1_q2_violations_are_named():
    with pytest.raises(ValueError, match="Q1"):
        a_family_matrix(named_base("falk"), SetFamily(6, 3, [{1, 2, 3}]))
    with pytest.raises(ValueError, match="Q2"):
        a_family_matrix(
            named_base("falk"), SetFamily(6, 3, [{1, 2, 3, 4}, {1, 2, 3, 5}])
        )


# -- the cyclic assignment -------------------------------------------------------


def test_cyclic_map_cases():
    assert cyclic_map_c(4) == {1: 4, 2: 5, 3: 6}
    assert cyclic_map_c(5) == {1: 5, 2: 6, 3: 5, 4: 7}
    assert cyclic_map_c(7) == {1: 7, 2: 8, 3: 7, 4: 8, 5: 9, 6: 8}
    with pytest.raises(ValueError):
        cyclic_map_c(3)


def test_cyclic_map_range():
    for r in range(4, 10):
        c = cyclic_map_c(r)
        assert set(c) == set(range(1, r))
        assert set(c.values()) <= {r, r + 1, r + 2}


# -- defining equations -----------------------------------------------------------


def test_rank3_equation_is_linear_homogeneous_in_first_column():
    rng = random.Random(3)
    others = tuple(tuple(Q(rng.randint(-9, 9)) for _ in range(3)) for _ in range(5))
    u = tuple(Q(rng.randint(-9, 9)) for _ in range(3))
    v = tuple(Q(rng.randint(-9, 9)) for _ in range(3))
    e = lambda a1: _rank3_equation((a1,) + others, 6)
    s = Q(7, 3)
    assert e(tuple(s * x for x in u)) == s * e(u)
    assert e(tuple(a + b for a, b in zip(u, v))) == e(u) + e(v)


def test_rank_r_equation_is_linear_homogeneous_in_first_column():
    rng = random.Random(4)
    others = tuple(tuple(Q(rng.randint(-9, 9)) for _ in range(2)) for _ in range(5))
    u = tuple(Q(rng.randint(-9, 9)) for _ in range(2))
    v = tuple(Q(rng.randint(-9, 9)) for _ in range(2))
    e = lambda a1: _rank_r_equation((a1,) + others, 6, 4)
    s = Q(-5, 2)
    assert e(tuple(s * x for x in u)) == s * e(u)
    assert e(tuple(a + b for a, b in zip(u, v))) == e(u) + e(v)


# -- witness constructions ----------------------------------------------------------


def test_witness_rank3_verifies(w63):
    assert (w63.n, w63.k, w63.target_codim) == (6, 3, 2)
    ground = set(range(1, 7))
    assert set(w63.family.members) == {
        frozenset(ground - {1, 2}),
        frozenset(ground - {3, 4}),
        frozenset(ground - {5, 6}),
    }
    g = w63.witness_base
    assert is_generic(g)
    assert in_variety(g, w63.family, 2)
    assert rank(a_family_matrix(g, w63.family)) == 2
    assert w63.audit
    ok, _ = is_very_generic(build_ms(g))
    assert not ok


def test_witness_rank3_parameter_validation():
    with pytest.raises(ValueError):
        witness_rank3(5, 2)
    with pytest.raises(ValueError):
        witness_rank3(7, 3)


def test_witness_rank_r_verifies(w62):
    assert (w62.n, w62.k, w62.target_codim) == (6, 2, 3)
    assert len(w62.family.members) == 4
    g = w62.witness_base
    assert is_generic(g)
    assert rank(a_family_matrix(g, w62.family)) == 3
    # every proper sub-collection stays independent
    rows = a_family_matrix(g, w62.family).entries
    for i in range(4):
        sub = [rows[j] for j in range(4) if j != i]
        assert rank(Mat(sub)) == 3


def test_witness_rank_r_parameter_validation():
    with pytest.raises(ValueError):
        witness_rank_r(5, 2)  # r = 3 too small
    with pytest.raises(ValueError):
        witness_rank_r(5, 1)


def test_witness_json(w63):
    blob = w63.to_json()
    assert blob["target_codim"] == 2
    assert len(blob["base"]) == 6
    assert blob["audit"]


@pytest.mark.parametrize("make,n,k", [(witness_rank_r, 6, 2), (witness_rank3, 6, 3)])
def test_audit_by_size_r_minus_1_matches_all_subcollections(make, n, k, monkeypatch):
    """The r sub-collections of size r - 1 give the verdict of every proper
    sub-collection on each candidate base the seed 0-3 searches draw."""
    drawn = []
    real = nonvgen._proper_independent

    def recorded(rows):
        drawn.append(rows)
        return real(rows)

    monkeypatch.setattr(nonvgen, "_proper_independent", recorded)
    for s in range(4):
        make(n, k, seed=s)
    assert len(drawn) >= 4
    for rows in drawn:
        assert real(rows) == oracles.proper_subcollections_independent(rows)


def test_audit_rejects_dependent_proper_subcollection(w63):
    # the three members meet at codim 2, a dependent proper sub-collection
    # of any four-member family that holds them
    g = w63.witness_base
    fam = SetFamily(6, 3, [*w63.family.members, {1, 3, 5, 6}])
    rows = [list(alpha_I(g, sorted(T))) for T in fam.members]
    assert not nonvgen._proper_independent(rows)
    assert not oracles.proper_subcollections_independent(rows)
    assert nonvgen._audit_family(g, fam, 3) is None


# -- perturbation and jump ------------------------------------------------------------


def test_perturbation_reaches_very_generic(w63):
    m, split = perturb_to_very_generic(w63, seed=0)
    ok, _ = is_very_generic(m)
    assert ok
    assert set(split) == set(w63.family_labels())


def test_perturbation_validates_denominator(w63):
    with pytest.raises(ValueError):
        perturb_to_very_generic(w63, denom=1)


def test_jump_after_perturbation(w62):
    m, _ = perturb_to_very_generic(w62, seed=0)
    a = m.arrangement
    eps, flat, cert = jump_after_perturbation(m, w62, seed=0)
    p = a.rank() - 1
    assert in_sigma_p(a, eps, p).member
    rep = in_sigma_p(a, eps, p + 1)
    assert not rep.member
    assert cert.verify(a, eps)
    assert flat.codim == p + 1


JUMP_CASES = [(witness_rank_r, 6, 2, s) for s in range(4)] + [
    (witness_rank3, 6, 3, 0),
    (witness_rank3, 7, 4, 0),
]


def jump_pair(make, n, k, s):
    """(new, oracle) jump triples, each on a cold proof cache."""
    w = make(n, k, seed=s)
    m, _ = perturb_to_very_generic(w, seed=s)
    new = jump_after_perturbation(m, w, seed=s)
    m.arrangement._proof_cache = {}
    return new, oracles.lp_jump_after_perturbation(m, w, seed=s)


@pytest.mark.parametrize("make,n,k,s", JUMP_CASES)
def test_jump_matches_lp_oracle(make, n, k, s):
    new, old = jump_pair(make, n, k, s)
    assert new == old


def count_strict_lps(monkeypatch):
    """Row counts of every strict LP solved through a library binding."""
    rows = []

    def counted(real):
        def strict_feasibility(r):
            rows.append(len(r))
            return real(r)

        return strict_feasibility

    for mod in (arrangement, nonvgen, sigma):
        if hasattr(mod, "strict_feasibility"):
            monkeypatch.setattr(mod, "strict_feasibility", counted(mod.strict_feasibility))
    return rows


def count_chamber_tests(monkeypatch, rank):
    """Number of in_sigma_p calls at level rank made from nonvgen."""
    calls = []

    def counted(a, eps, p, audit=False):
        calls.append(p == rank)
        return in_sigma_p(a, eps, p, audit)

    monkeypatch.setattr(nonvgen, "in_sigma_p", counted)
    return calls


def test_jump_by_chamber_tests_matches_lp_oracle(monkeypatch):
    # every wall pattern of the returned try goes to the chamber test,
    # in_sigma_p at level rank, and none solves an LP
    rows = count_strict_lps(monkeypatch)
    chamber_tests = count_chamber_tests(monkeypatch, 3)
    solved = feasibility.lp_count()
    w = witness_rank3(6, 3, seed=0)
    m, _ = perturb_to_very_generic(w, seed=0)
    assert m.arrangement.rank() == 3
    new = jump_after_perturbation(m, w, seed=0)
    assert sum(chamber_tests) >= 2 ** 3
    assert rows == [] and feasibility.lp_count() == solved
    m.arrangement._proof_cache = {}
    assert new == oracles.lp_jump_after_perturbation(m, w, seed=0)


def test_jump_solves_no_lp(ms62_perturbed, w62, monkeypatch):
    # every flat is decided by its covers' cocircuits, so no binding solves an LP
    a = ms62_perturbed.arrangement
    monkeypatch.setattr(a, "_proof_cache", {}, raising=False)
    rows = count_strict_lps(monkeypatch)
    solved = feasibility.lp_count()
    jump_after_perturbation(ms62_perturbed, w62, seed=0)
    assert rows == []
    assert feasibility.lp_count() == solved
    assert not hasattr(nonvgen, "strict_feasibility")
