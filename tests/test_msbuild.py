"""Discriminantal arrangement construction and genericity strata."""

from itertools import combinations
from math import comb

import pytest

import msarr.msbuild
import oracles
from msarr.fields import Q
from msarr.linalg import Mat, det, rank, rref
from msarr import (
    GenericArrangement,
    alpha_I,
    build_ms,
    canonical_presentation,
    chamber_sign_vectors,
    d_flat,
    essentialize,
    gale_dual,
    is_generic,
    is_very_generic,
    moment_curve_base,
    ms_label,
    parse_ms_label,
    named_base,
    perturb_to_very_generic,
    random_generic,
    witness_rank_r,
)

MS31 = [[1, 0, 1, -1], [0, 1, 1, 1]]


# -- labels -------------------------------------------------------------------


def test_ms_label_small_and_large():
    assert ms_label([3, 1, 2], 6) == "123"
    assert parse_ms_label("123", 6) == (1, 2, 3)
    assert ms_label([1, 2, 10], 10) == "1-2-10"
    assert parse_ms_label("1-2-10", 10) == (1, 2, 10)


# -- genericity ----------------------------------------------------------------


def test_is_generic_examples():
    assert is_generic([[1, 0, 1], [0, 1, 1]])
    assert not is_generic([[1, 0, 1], [0, 1, 0]])
    assert is_generic(MS31)


def test_non_generic_base_rejected_with_minor():
    with pytest.raises(ValueError, match="zero minor"):
        build_ms([[1, 0, 1], [0, 1, 0]])


# -- alpha_I --------------------------------------------------------------------


def test_alpha_values_on_reference_base():
    g = GenericArrangement.from_matrix(MS31)
    assert alpha_I(g, [1, 2, 3]) == (Q(-1), Q(-1), Q(1), Q(0))
    assert alpha_I(g, [2, 3, 4]) == (Q(0), Q(2), Q(-1), Q(-1))


def test_alpha_defining_relation():
    for g in (
        GenericArrangement.from_matrix(MS31),
        moment_curve_base([0, 1, 2, 3, 4]),
        random_generic(6, 3, seed=5),
    ):
        for I in combinations(range(1, g.n + 1), g.k + 1):
            a = alpha_I(g, I)
            total = [Q(0)] * g.k
            for ip in I:
                col = g.column(ip)
                total = [t + a[ip - 1] * c for t, c in zip(total, col)]
            assert all(v == 0 for v in total)


def test_alpha_rejects_wrong_size():
    g = GenericArrangement.from_matrix(MS31)
    with pytest.raises(ValueError):
        alpha_I(g, [1, 2])
    with pytest.raises(ValueError):
        alpha_I(g, [1, 2, 5])


# -- build ------------------------------------------------------------------------


def test_build_counts_and_rank(ms52):
    assert ms52.arrangement.n_hyperplanes == 10
    assert ms52.arrangement.dim == 5
    assert ms52.arrangement.rank() == 3


def test_build_reference_base():
    m = build_ms(MS31)
    assert m.arrangement.labels == ("123", "124", "134", "234")
    assert m.arrangement.rank() == 2
    assert m.subset_of("134") == (1, 3, 4)


def test_rank_one_base_gives_braid_pattern():
    # with every column equal to (1), normals of pairs are e_i - e_j
    g = GenericArrangement(1, 4, ((Q(1),), (Q(1),), (Q(1),), (Q(1),)))
    m = build_ms(g)
    assert m.arrangement.n_hyperplanes == 6
    by_codim = {}
    for f in m.arrangement.full_lattice():
        by_codim[f.codim] = by_codim.get(f.codim, 0) + 1
    assert [by_codim[i] for i in range(4)] == [1, 6, 7, 1]
    ess, _ = essentialize(m.arrangement)
    assert len(chamber_sign_vectors(ess)) == 24


@pytest.mark.parametrize("name", ["moment-52", "h3", "random-63"])
def test_alpha_matches_per_minor_det(name):
    if name == "moment-52":
        g = moment_curve_base([0, 1, 2, 3, 4])
    elif name == "h3":
        g = named_base("h3")
    else:
        g = random_generic(6, 3, seed=5)
    for I in combinations(range(1, g.n + 1), g.k + 1):
        assert alpha_I(g, I) == oracles.det_alpha_I(g, I)


def test_each_minor_is_computed_once(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return det(m)

    monkeypatch.setattr(msarr.msbuild, "det", counting)
    for k, n in ((3, 6), (2, 6)):
        columns = random_generic(n, k, seed=3).columns
        calls.clear()
        g = GenericArrangement(k, n, columns)
        build_ms(g)
        assert len(calls) == comb(n, k)
        assert is_generic(g) and len(calls) == comb(n, k)
        # the order perturb_to_very_generic and random_very_generic use
        g = GenericArrangement(k, n, columns)
        assert is_generic(g)
        build_ms(g)
        assert len(calls) == 2 * comb(n, k)


# -- moment curve ------------------------------------------------------------------


def test_moment_curve_minors_positive():
    g = moment_curve_base([0, 1, 2, 3, 4])
    for i, j in combinations(range(1, 6), 2):
        assert g.minor([i, j]) > 0


def test_moment_curve_rejects_non_increasing():
    with pytest.raises(ValueError):
        moment_curve_base([0, 0, 1])
    with pytest.raises(ValueError):
        moment_curve_base([3, 1])


# -- D_T flats -----------------------------------------------------------------------


def test_d_flat_hyperplane_and_center(ms52):
    one = d_flat(ms52, [1, 2, 3])
    assert one.codim == 1
    assert "123" in one.closed_set
    center = d_flat(ms52, range(1, 6))
    assert center.codim == 5 - 2
    assert center.closed_set == frozenset(ms52.arrangement.labels)


def test_d_flat_reference_codim():
    m = build_ms(MS31)
    assert d_flat(m, [1, 2, 3, 4]).codim == 2


def test_d_flat_rejects_small_T(ms52):
    with pytest.raises(ValueError):
        d_flat(ms52, [1, 2])


def test_d_flat_codim_formula(ms52):
    for size in range(3, 6):
        for T in combinations(range(1, 6), size):
            assert d_flat(ms52, T).codim == size - 2


# -- Gale dual ---------------------------------------------------------------------


def test_gale_dual_orthogonal_and_full_rank():
    g = GenericArrangement.from_matrix(MS31)
    beta = gale_dual(g)
    assert beta.rows == 2 and beta.cols == 4
    assert rank(beta) == 2
    base = g.matrix()
    for i in range(base.rows):
        for r in range(beta.rows):
            assert sum(a * b for a, b in zip(base.entries[i], beta.entries[r])) == 0


def test_gale_dual_columns_match_essential_normals():
    # for n = k+2 the beta columns and the essentialized D_I normals are the
    # same line arrangement: a proportionality bijection must exist
    g = GenericArrangement.from_matrix(MS31)
    beta = gale_dual(g)
    m = build_ms(g)
    ess, _ = essentialize(m.arrangement)

    def line(v):
        return rref(Mat([list(v)]))[0]

    beta_lines = {line(beta.col(j)) for j in range(beta.cols)}
    ess_lines = {line(ess.normal(l)) for l in ess.labels}
    assert beta_lines == ess_lines


# -- canonical presentation and very-genericity --------------------------------------


def test_presentation_of_hyperplane(ms52):
    x = ms52.arrangement.flat_of(["145"])
    fam = canonical_presentation(ms52, x)
    assert fam.members == (frozenset({1, 4, 5}),)


def test_presentation_falk_triple():
    m = build_ms(named_base("falk"))
    x = m.arrangement.flat_of(["1245", "1346", "2356"])
    assert x.codim == 2
    fam = canonical_presentation(m, x)
    assert set(fam.members) == {
        frozenset({1, 2, 4, 5}),
        frozenset({1, 3, 4, 6}),
        frozenset({2, 3, 5, 6}),
    }


def assert_presentations_match_elimination(m):
    expected = oracles.elimination_presentations(m)
    for x in m.arrangement.full_lattice():
        assert canonical_presentation(m, x) == expected[x.closed_set], x.sorted_labels()


@pytest.mark.parametrize("name", ["falk", "h3"])
def test_presentations_match_elimination_named(name):
    assert_presentations_match_elimination(build_ms(named_base(name)))


def test_presentations_match_elimination_very_generic(ms52, ms63_very_generic):
    assert_presentations_match_elimination(ms52)
    assert_presentations_match_elimination(ms63_very_generic)


def test_presentations_match_elimination_witness_62():
    w = witness_rank_r(6, 2, seed=0)
    assert_presentations_match_elimination(build_ms(w.witness_base))
    m, _ = perturb_to_very_generic(w, seed=0)
    assert_presentations_match_elimination(m)


def test_moment_base_is_very_generic(ms52):
    ok, bad = is_very_generic(ms52)
    assert ok and bad is None


def test_falk_base_is_not_very_generic():
    m = build_ms(named_base("falk"))
    ok, bad = is_very_generic(m)
    assert not ok
    # the failing flat is a genuine rank-2 triple presentation
    fam = canonical_presentation(m, bad)
    assert bad.codim == 2
    assert sum(len(T) - m.k for T in fam.members) > bad.codim


def test_h3_base_is_not_very_generic():
    ok, bad = is_very_generic(build_ms(named_base("h3")))
    assert not ok and bad is not None


def test_random_very_generic_fixture(ms63_very_generic):
    m = ms63_very_generic
    assert m.n == 6 and m.k == 3
    ok, _ = is_very_generic(m)
    assert ok
