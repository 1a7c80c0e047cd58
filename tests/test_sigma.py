"""Consistency filtration, jumps, simple chambers and product structure."""

import pytest

import oracles
from conftest import boolean
from msarr.errors import GuardExceeded
from msarr.fields import Q
from msarr.sigma import _simple_chambers
from msarr import (
    CentralArrangement,
    SignVector,
    build_ms,
    chamber_sign_vectors,
    consistent_at,
    direct_sum,
    epsilon_C,
    essentialize,
    find_jump,
    in_sigma_p,
    is_simple_chamber,
    localization,
    named_base,
    sigma_product_check,
    sigma_set,
    walls,
)


def all_sign_vectors(a):
    from itertools import product

    return {
        SignVector(a.labels, signs)
        for signs in product((1, -1), repeat=a.n_hyperplanes)
    }


# -- consistency at one flat -----------------------------------------------


def test_cyclic_signs_fail_at_center(br3):
    center = br3.flat_of(["xy", "xz", "yz"])
    eps = SignVector(br3.labels, (1, -1, 1))  # x>y, z>x, y>z
    ok, cert = consistent_at(br3, eps, center)
    assert not ok
    assert set(cert.support) == set(br3.labels)
    assert cert.coefficients == (Q(1), Q(1), Q(1))
    assert cert.verify(br3, eps)


def test_total_order_succeeds_at_center(br3):
    center = br3.flat_of(["xy", "xz", "yz"])
    eps = SignVector(br3.labels, (1, 1, 1))  # x>y>z
    ok, point = consistent_at(br3, eps, center)
    assert ok
    for l in br3.labels:
        assert sum(c * v for c, v in zip(br3.normal(l), point)) > 0


def test_consistent_at_empty_flat(br3):
    ok, point = consistent_at(br3, SignVector(br3.labels, (1, 1, 1)), br3.flat_of([]))
    assert ok and point == (Q(0), Q(0), Q(0))


# -- membership --------------------------------------------------------------


def test_sigma1_is_everything(br3):
    assert sigma_set(br3, 1) == all_sign_vectors(br3)


def test_sigma_rank_equals_chambers(br3, boolean2):
    for a in (br3, boolean2):
        assert sigma_set(a, a.rank()) == chamber_sign_vectors(a)


def test_sigma_monotone(br3):
    assert sigma_set(br3, 2) <= sigma_set(br3, 1)
    b3 = boolean(3)
    assert sigma_set(b3, 3) <= sigma_set(b3, 2) <= sigma_set(b3, 1)


def test_levels_above_rank_stabilize(br3):
    assert sigma_set(br3, 2) == sigma_set(br3, 7)


def test_reduced_membership_matches_naive_oracle(br3):
    b3 = boolean(3)
    for a in (br3, b3):
        for p in (1, 2):
            assert sigma_set(a, p) == oracles.naive_sigma_set(a, p)


def test_reduced_membership_spot_checks_on_ms52(ms52):
    a = ms52.arrangement
    chambers = sorted(chamber_sign_vectors(a), key=lambda c: c.to_string())
    probes = chambers[:3] + [chambers[0].flip([a.labels[0], a.labels[5]])]
    for eps in probes:
        for p in (2, 3):
            assert in_sigma_p(a, eps, p).member == oracles.naive_sigma_member(
                a, eps, p
            )


def test_report_contents(br3):
    eps = SignVector(br3.labels, (1, -1, 1))
    rep = in_sigma_p(br3, eps, 2)
    assert rep.verdict == "non-member"
    assert rep.failing_flat.codim == 2
    assert rep.certificate.verify(br3, eps)
    good = in_sigma_p(br3, SignVector(br3.labels, (1, 1, 1)), 2, audit=True)
    assert good.member and good.failing_flat is None
    assert good.witness_points  # audited members carry interior points


def test_invalid_level_rejected(br3):
    with pytest.raises(ValueError):
        in_sigma_p(br3, SignVector(br3.labels, (1, 1, 1)), 0)


def test_sigma_invariant_under_essentialization(br3):
    ess, _ = essentialize(br3)
    for p in (1, 2):
        assert {e.to_string() for e in sigma_set(br3, p)} == {
            e.to_string() for e in sigma_set(ess, p)
        }


def test_sigma_set_guard():
    big = CentralArrangement(2, [(f"h{i}", [1, i]) for i in range(23)])
    with pytest.raises(GuardExceeded):
        sigma_set(big, 1)


# -- localization transfer ------------------------------------------------------


def test_members_restrict_to_localization_members(ms52):
    a = ms52.arrangement
    flats2 = [f for f in a.full_lattice() if f.codim == 2]
    eps = sorted(chamber_sign_vectors(a), key=lambda c: c.to_string())[0]
    assert in_sigma_p(a, eps, 2).member
    for x in flats2:
        loc = localization(a, x)
        sub = SignVector(loc.labels, tuple(eps.sign_of(l) for l in loc.labels))
        assert in_sigma_p(loc, sub, 2).member


# -- walls, simple chambers, epsilon^C ------------------------------------------


def test_walls_of_braid_chamber(br3):
    eps = SignVector(br3.labels, (1, 1, 1))  # x>y>z: walls are xy and yz
    assert walls(br3, eps) == {"xy", "yz"}
    with pytest.raises(ValueError):
        walls(br3, SignVector(br3.labels, (1, -1, 1)))


def test_boolean_chambers_are_simple(boolean2):
    for ch in chamber_sign_vectors(boolean2):
        assert is_simple_chamber(boolean2, ch)
        assert walls(boolean2, ch) == {"x", "y"}
        # flipping all walls of a full-rank simple chamber is the antipode
        assert epsilon_C(boolean2, ch).signs == tuple(-s for s in ch.signs)


def test_braid_epsilon_c_jumps(br3):
    ess, _ = essentialize(br3)
    ch = sorted(chamber_sign_vectors(ess), key=lambda c: c.to_string())[0]
    assert is_simple_chamber(ess, ch)
    ec = epsilon_C(ess, ch)
    assert in_sigma_p(ess, ec, 1).member
    assert not in_sigma_p(ess, ec, 2).member


def test_simple_chamber_requires_essential(br3):
    ch = SignVector(br3.labels, (1, 1, 1))
    with pytest.raises(ValueError):
        is_simple_chamber(br3, ch)


def square_cone():
    return CentralArrangement(
        3,
        [
            ("a", [1, 0, 1]),
            ("b", [-1, 0, 1]),
            ("c", [0, 1, 1]),
            ("d", [0, -1, 1]),
        ],
    )


def test_non_simple_chamber_detected():
    # the all-plus chamber is the cone over a square: four walls in rank 3
    a = square_cone()
    ch = SignVector(a.labels, (1, 1, 1, 1))
    assert ch in chamber_sign_vectors(a)
    assert not is_simple_chamber(a, ch)


def essential_sub(a, labels):
    return essentialize(
        CentralArrangement(a.dim, [(l, a.normal(l)) for l in labels])
    )[0]


def assert_simple_chambers_match_lp(a):
    """Ray test and direct enumeration against the LP test on every chamber."""
    lp = {ch: oracles.lp_is_simple_chamber(a, ch) for ch in chamber_sign_vectors(a)}
    for ch, simple in lp.items():
        assert is_simple_chamber(a, ch) == simple, ch.to_string()
    expected = {ch: frozenset(walls(a, ch)) for ch, simple in lp.items() if simple}
    listed = [(ch, frozenset(w)) for ch, w in _simple_chambers(a)]
    assert len(listed) == len(expected)
    assert dict(listed) == expected
    return sum(lp.values()), len(lp)


def test_simple_chambers_match_lp_small(br3):
    assert assert_simple_chambers_match_lp(boolean(3)) == (8, 8)
    assert assert_simple_chambers_match_lp(essentialize(br3)[0]) == (6, 6)
    # both kinds: 8 of the square cone's 14 chambers are simple
    assert assert_simple_chambers_match_lp(square_cone()) == (8, 14)
    ms31 = build_ms([[1, 0, 1, -1], [0, 1, 1, 1]]).arrangement
    assert assert_simple_chambers_match_lp(essentialize(ms31)[0]) == (8, 8)


def test_simple_chambers_match_lp_moment_52(ms52):
    assert assert_simple_chambers_match_lp(essentialize(ms52.arrangement)[0]) == (0, 62)


def test_simple_chambers_match_lp_falk_subarrangement():
    falk = build_ms(named_base("falk")).arrangement
    sub = essential_sub(falk, ("1234", "1245", "1346", "2356", "3456", "1256"))
    assert sub.rank() == 3
    assert assert_simple_chambers_match_lp(sub) == (12, 30)


def test_simple_chambers_match_lp_h3_subarrangement():
    # over Q(sqrt 5)
    h3 = build_ms(named_base("h3")).arrangement
    sub = essential_sub(h3, ("1235", "1245", "1256", "1346", "1456", "2346"))
    assert sub.rank() == 3
    assert assert_simple_chambers_match_lp(sub) == (6, 28)


# -- jumps ------------------------------------------------------------------------


def test_no_jump_in_clean_instance(ms52):
    assert find_jump(ms52.arrangement, 2) is None


def test_jump_found_in_very_generic_63(ms63_very_generic):
    a = ms63_very_generic.arrangement
    hit = find_jump(a, 2)
    assert hit is not None
    eps, flat, cert = hit
    assert in_sigma_p(a, eps, 2).member
    assert not in_sigma_p(a, eps, 3).member
    assert cert.verify(a, eps)
    assert flat.codim == 3
    # the candidate order decides the witness; this one is pinned
    assert eps.to_string() == "+-+++---++--+-+"


def test_find_jump_level_validation(br3):
    with pytest.raises(ValueError):
        find_jump(br3, 1)
    with pytest.raises(ValueError):
        find_jump(br3, 2)  # rank 2: no level satisfies 2 <= p < rank


# -- products ----------------------------------------------------------------------


def test_direct_sum_and_product_formula(br3, boolean2):
    total = direct_sum(boolean2, br3)
    assert total.n_hyperplanes == 5 and total.dim == 5
    assert sigma_product_check(boolean2, br3, 2)
    assert sigma_product_check(boolean2, boolean2, 2)
