"""Consistency filtration, jumps, simple chambers and product structure."""

import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import boolean, small_arrangements
from msarr import feasibility, nonvgen, sigma
from msarr.arrangement import GordanCertificate, _conformal_masks, _sign_vector
from msarr.errors import GuardExceeded, VerificationError
from msarr.fields import Q, Qrt5, sign
from msarr.linalg import Mat, rank
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
    jump_after_perturbation,
    localization,
    moment_curve_base,
    named_base,
    perturb_to_very_generic,
    random_very_generic,
    sigma_product_check,
    sigma_set,
    walls,
    witness_rank_r,
    zaslavsky_chambers,
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


# -- flats with independent normals ------------------------------------------------


def independent_case(name, w62):
    """A fresh arrangement (cold caches): Q, non-very-generic, Q(sqrt5)."""
    if name == "moment52":
        return build_ms(moment_curve_base([0, 1, 2, 3, 4])).arrangement
    if name == "w62":
        return build_ms(w62.witness_base).arrangement
    return build_ms(named_base(name)).arrangement


def probe_sign_vectors(a, rng, count=4):
    """Chamber sign vectors of random integer points, one or two of their
    signs flipped, and uniform sign vectors."""
    out = []
    while len(out) < count:
        x = [rng.randint(-30, 30) for _ in range(a.dim)]
        signs = tuple(sign(sum(c * v for c, v in zip(a.normal(l), x))) for l in a.labels)
        if 0 in signs:
            continue
        eps = SignVector(a.labels, signs)
        out += [eps, eps.flip(rng.sample(a.labels, rng.choice((1, 2))))]
    out += [SignVector(a.labels, tuple(rng.choice((1, -1)) for _ in a.labels)) for _ in range(count)]
    return out


CASES = ("moment52", "falk", "w62", "h3")


def realizes(a, eps, labels, point):
    return all(
        sign(sum(c * v for c, v in zip(a.normal(l), point))) == eps.sign_of(l) for l in labels
    )


@pytest.mark.parametrize("name", CASES)
def test_independent_flats_are_solved_without_lp(name, w62):
    a = independent_case(name, w62)
    flats = [f for f in a.full_lattice() if f.closed_set and len(f.closed_set) == f.codim]
    assert flats
    for eps in probe_sign_vectors(a, random.Random(11)):
        for f in flats:
            solved = feasibility.lp_count()
            ok, point = consistent_at(a, eps, f)
            assert feasibility.lp_count() == solved
            assert ok and realizes(a, eps, f.closed_set, point)


@pytest.mark.parametrize("name", CASES)
def test_membership_matches_lattice_order_oracle(name, w62):
    """Verdict, failing flat and certificate at every level 2..rank against
    full-dimension LPs on each flat, and every witness point by substitution."""
    a = independent_case(name, w62)
    for eps in probe_sign_vectors(a, random.Random(12)):
        for p in range(2, a.rank() + 1):
            rep = in_sigma_p(a, eps, p, audit=True)
            assert rep.failing_flat == oracles.lattice_sigma_failing_flat(a, eps, p)
            if rep.member:
                for f, point in rep.witness_points.items():
                    assert realizes(a, eps, f.closed_set, point)
            else:
                assert rep.certificate.verify(a, eps)
                assert set(rep.certificate.support) <= rep.failing_flat.closed_set


# -- circuits and cocircuits against the strict LP ----------------------------------


def local_sign_vectors(a, x, rng, cap):
    """Sign vectors that are + off x and run over x's local sign patterns:
    all of them when they number at most cap, else cap random ones."""
    labels = sorted(x.closed_set)
    if 2 ** len(labels) <= cap:
        patterns = product((1, -1), repeat=len(labels))
    else:
        patterns = [tuple(rng.choice((1, -1)) for _ in labels) for _ in range(cap)]
    for pattern in patterns:
        local = dict(zip(labels, pattern))
        yield SignVector(a.labels, tuple(local.get(l, 1) for l in a.labels))


def assert_consistent_at_matches_lp(a, x, eps):
    """Verdict, solving no LP, against the full-dimension strict LP; the
    point by substitution; the certificate verified, inside x and a circuit."""
    solved = feasibility.lp_count()
    ok, payload = consistent_at(a, eps, x)
    assert feasibility.lp_count() == solved
    assert ok == oracles.lp_realizes(a, eps, x.closed_set)
    if ok:
        assert realizes(a, eps, x.closed_set, payload)
    else:
        assert payload.verify(a, eps)
        assert set(payload.support) <= x.closed_set
        assert oracles.is_circuit(a, payload.support)


@pytest.mark.parametrize("name", CASES + ("perturbed62",))
def test_circuit_verdicts_match_lp_at_every_over_populated_flat(name, w62, ms62_perturbed):
    if name == "perturbed62":
        a = CentralArrangement.from_json(ms62_perturbed.arrangement.to_json())
        cap = 4
    else:
        a = independent_case(name, w62)
        cap = 16
    rng = random.Random(14)
    flats = [f for f in a.full_lattice() if len(f.closed_set) > f.codim]
    assert flats
    for f in flats:
        for eps in local_sign_vectors(a, f, rng, cap):
            assert_consistent_at_matches_lp(a, f, eps)


@pytest.mark.parametrize("rt5", [False, True], ids=["Q", "Qrt5"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_circuit_verdicts_match_lp_on_random_arrangements(rt5, data):
    dim, normals = data.draw(small_arrangements(rt5, 7))
    assume(all(rank(Mat([u, v])) == 2 for i, u in enumerate(normals) for v in normals[:i]))
    a = CentralArrangement(dim, [(f"h{i}", v) for i, v in enumerate(normals)])
    rng = random.Random(15)
    for f in a.full_lattice()[1:]:
        for eps in local_sign_vectors(a, f, rng, 8):
            assert_consistent_at_matches_lp(a, f, eps)
    # realized sign vectors as many as Zaslavsky's count are all the chambers
    chambers = chamber_sign_vectors(a)
    assert len(chambers) == zaslavsky_chambers(a)
    assert all(oracles.lp_realizes(a, ch, a.labels) for ch in chambers)


def perturbed73():
    """witness_rank_r(7, 3) made very generic: 35 hyperplanes of rank 4."""
    w = witness_rank_r(7, 3, seed=1)
    return perturb_to_very_generic(w, seed=1)[0].arrangement


@pytest.mark.parametrize("name", ["moment52", "h3-sub", "perturbed73"])
def test_over_bound_flats_take_the_lp_path(name):
    """No flat takes an LP path any more.  The cover test agrees with the
    strict LP oracle on every flat of codim 2..rank of B(5,2) and of an
    essential h3 subarrangement over Q(sqrt5), and at the top flat of a
    perturbed B(7,3), 35 labels at codim 4, which once was over the
    circuit tables' bound and solved an LP; no binding solves one."""
    if name == "moment52":
        a = independent_case(name, None)
    elif name == "h3-sub":
        h3 = build_ms(named_base("h3")).arrangement
        a = essential_sub(h3, ("1235", "1245", "1256", "1346", "1456", "2346"))
    else:
        a = perturbed73()
    rng = random.Random(16)
    probes = probe_sign_vectors(a, rng, count=2 if name == "perturbed73" else 4)
    flats = [f for f in a.full_lattice() if f.codim >= 2]
    if name == "perturbed73":
        flats = flats[-1:]
        assert len(flats[0].closed_set) == 35 and flats[0].codim == 4
    solved = feasibility.lp_count()
    got = [consistent_at(a, eps, f) for eps in probes for f in flats]
    assert feasibility.lp_count() == solved
    assert {ok for ok, _ in got} == {True, False}
    for (ok, payload), (eps, f) in zip(got, [(e, f) for e in probes for f in flats]):
        assert ok == oracles.lp_realizes(a, eps, f.closed_set)
        assert realizes(a, eps, f.closed_set, payload) if ok else payload.verify(a, eps)


def test_high_codim_flats_cost_polynomial_work(monkeypatch):
    """An independent flat of codim 20 takes one kernel vector per point,
    no LP and no lattice.  A codim-10 flat of 11 labels reads the lattice,
    2037 flats, and decides by its covers with no LP.  A minors expansion
    or a lattice of the first would take minutes here."""
    rng = random.Random(17)
    while True:
        normals = [[rng.randint(-2, 2) for _ in range(20)] for _ in range(20)]
        if rank(Mat(normals)) == 20:
            break
    a = CentralArrangement(20, [(f"h{i}", v) for i, v in enumerate(normals)])
    x = a.flat_of(a.labels)
    assert x.codim == len(x.closed_set) == 20
    kernels = []
    real_kernel = sigma._ring_kernel
    monkeypatch.setattr(sigma, "_ring_kernel", lambda *args: kernels.append(1) or real_kernel(*args))
    solved = feasibility.lp_count()
    probes = probe_sign_vectors(a, rng, count=2)
    for eps in probes:
        ok, point = consistent_at(a, eps, x)
        assert ok and realizes(a, eps, a.labels, point)
    assert len(kernels) == len({eps.signs for eps in probes}) == 4
    assert feasibility.lp_count() == solved
    assert a._lattice is None
    units = [[int(i == j) for j in range(10)] for i in range(10)]
    b = CentralArrangement(10, [(f"e{i}", u) for i, u in enumerate(units)] + [("s", [1] * 10)])
    top = b.flat_of(b.labels)
    for signs in ((1,) * 11, (1,) * 10 + (-1,)):
        eps = SignVector(b.labels, signs)
        solved = feasibility.lp_count()
        ok, payload = consistent_at(b, eps, top)
        assert feasibility.lp_count() == solved
        assert ok == oracles.lp_realizes(b, eps, b.labels) == (signs[-1] > 0)
        assert realizes(b, eps, b.labels, payload) if ok else payload.verify(b, eps)
    assert len(b.full_lattice()) == 2037


def test_membership_matches_naive_oracle_on_moment52():
    # the brute-force flat scan is 2^n rank tests, so only B(5,2) fits here
    a = independent_case("moment52", None)
    for eps in probe_sign_vectors(a, random.Random(13), count=2):
        for p in range(2, a.rank() + 1):
            assert in_sigma_p(a, eps, p).member == oracles.naive_sigma_member(a, eps, p)


# -- walls, simple chambers, epsilon^C ------------------------------------------


def test_walls_of_braid_chamber(br3):
    eps = SignVector(br3.labels, (1, 1, 1))  # x>y>z: walls are xy and yz
    assert walls(br3, eps) == {"xy", "yz"}
    with pytest.raises(ValueError):
        walls(br3, SignVector(br3.labels, (1, -1, 1)))


def test_walls_reuse_the_listed_chambers(br3):
    for a in (boolean(3), essentialize(br3)[0]):
        chambers = chamber_sign_vectors(a)
        solved = feasibility.lp_count()
        for ch in chambers:
            walls(a, ch)
        assert feasibility.lp_count() == solved
        assert chamber_sign_vectors(a) is chambers


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
    """The ray test against the LP test on every chamber."""
    lp = {ch: oracles.lp_is_simple_chamber(a, ch) for ch in chamber_sign_vectors(a)}
    for ch, simple in lp.items():
        assert is_simple_chamber(a, ch) == simple, ch.to_string()
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
    # the first member of Sigma_2 in product order outside Sigma_3; pinned
    assert eps.to_string() == "+-+++---++--+-+"


def test_find_jump_level_validation(br3):
    with pytest.raises(ValueError):
        find_jump(br3, 1)
    with pytest.raises(ValueError):
        find_jump(br3, 2)  # rank 2: no level satisfies 2 <= p < rank


# -- the circuit DFS against exhaustive scans -----------------------------------------


def dfs_case(name):
    """A fresh arrangement (cold caches) for the DFS pins."""
    if name == "br3":
        return CentralArrangement(3, [("xy", [1, -1, 0]), ("xz", [1, 0, -1]), ("yz", [0, 1, -1])])
    if name == "boolean3":
        return boolean(3)
    if name.startswith("vg63-"):
        return random_very_generic(6, 3, seed=int(name[5:])).arrangement
    if name == "braid5":  # B(5,1): the braid arrangement, rank 4
        return build_ms([[1, 2, 3, 5, 8]]).arrangement
    if name == "generic4":  # 6 hyperplanes on the moment curve, rank 4
        return CentralArrangement(4, [(f"t{t}", [1, t, t * t, t**3]) for t in range(6)])
    if name == "rank4":  # 8 hyperplanes, jumps at p = 2 and 3
        normals = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                   [1, 1, 1, 1], [1, 2, 3, 4], [1, -1, 2, -3], [2, 1, -1, 3]]
        return CentralArrangement(4, [(f"h{i}", v) for i, v in enumerate(normals)])
    return independent_case(name, None)


LARGE = ("vg63-1", "falk", "h3")  # 15 hyperplanes each, rank 3; h3 over Q(sqrt5)
DFS_LEVELS = [(n, p) for n in ("br3", "boolean3", "moment52") for p in (1, 2, 3, 4)]
DFS_LEVELS += [(n, p) for n in ("braid5", "generic4", "rank4") for p in (1, 2, 3, 4, 5)]
DFS_LEVELS += [(n, p) for n in LARGE for p in (1, 2, 3)]


@pytest.mark.parametrize("name,p", DFS_LEVELS)
def test_sigma_set_matches_exhaustive_scan(name, p):
    a = dfs_case(name)
    got = sigma_set(a, p)
    if name in LARGE and p >= a.rank():
        # the scan would build a certificate for each of the 2^15 - |Sigma_3|
        # non-members at the top flat (45 s over Q(sqrt5)); Sigma_rank is the
        # chamber set, so Zaslavsky's count and a point of each member,
        # checked by substitution, pin it
        assert len(got) == zaslavsky_chambers(a)
        for eps in got:
            (point,) = in_sigma_p(a, eps, p, audit=True).witness_points.values()
            assert realizes(a, eps, a.labels, point)
    else:
        assert got == oracles.exhaustive_sigma_set(dfs_case(name), p)


@pytest.mark.parametrize(
    "name", ["boolean3", "moment52", "braid5", *LARGE, "vg63-3", "generic4", "rank4"]
)
def test_find_jump_matches_exhaustive_scan(name):
    """The witness is the first member of Sigma_p in product order outside
    Sigma_{p+1}.  generic4 has Sigma_2 = Sigma_3 = all 64 sign vectors
    and 52 chambers."""
    a = dfs_case(name)
    for p in range(2, a.rank()):
        assert find_jump(a, p) == oracles.exhaustive_find_jump(dfs_case(name), p)


def test_find_jump_past_16_hyperplanes_follows_the_product_formula():
    """A very generic B(6,3) plus ms-3.1 has 19 hyperplanes and rank 5.
    Sigma_p of the sum is Sigma_p(B(6,3)) x Sigma_2(ms-3.1), ms-3.1 of
    rank 2 with 8 chambers, so the first jump in product order is the
    exhaustive scan's on B(6,3) followed by the first chamber of ms-3.1."""
    vg63 = dfs_case("vg63-1")
    ms31 = build_ms(named_base("ms-3.1")).arrangement
    total = direct_sum(vg63, ms31)
    assert (total.n_hyperplanes, total.rank()) == (19, 5)
    eps, flat, cert = find_jump(total, 2)
    first = oracles.exhaustive_find_jump(dfs_case("vg63-1"), 2)[0]
    chamber = min(chamber_sign_vectors(ms31), key=lambda e: [-s for s in e.signs])
    assert eps.signs == first.signs + chamber.signs
    assert eps.to_string() == "+-+++---++--+-++++-"
    assert flat.codim == 3 and cert.verify(total, eps)
    assert len(sigma_set(total, 2)) == 148 * 8 == 1184
    assert len(sigma_set(total, 3)) == 140 * 8 == 1120


def test_find_jump_without_codim_p1_circuits_lists_nothing(monkeypatch):
    """18 hyperplanes on the moment curve in R^4 have no over-populated
    flat of codim 3, so Sigma_2 = Sigma_3 is certified with no DFS."""

    def refuse(*args, **kwargs):
        raise AssertionError("the DFS ran")

    monkeypatch.setattr(sigma, "_conformal_masks", refuse)
    a = CentralArrangement(4, [(f"t{t}", [1, t, t * t, t**3]) for t in range(18)])
    assert find_jump(a, 2) is None
    with pytest.raises(AssertionError):
        find_jump(a, 3)


def jump_case(name, ms62_perturbed):
    """A fresh arrangement for the two-list pins: every find_jump input of
    the suite the two-list search finishes on at desk scale."""
    if name == "sum19":
        return direct_sum(dfs_case("vg63-1"), build_ms(named_base("ms-3.1")).arrangement)
    if name == "vg74-1":
        return random_very_generic(7, 4, seed=1).arrangement
    return table_case(name, ms62_perturbed)


JUMP_INPUTS = ("boolean3", "moment52", "braid5", *LARGE, "vg63-3", "generic4", "rank4")
JUMP_INPUTS += ("sum19", "vg74-1", "perturbed62")


@pytest.mark.parametrize("name", JUMP_INPUTS)
def test_find_jump_matches_the_two_list_search(name, ms62_perturbed):
    """One DFS pass with a Sigma_{p+1} flag returns what listing Sigma_p
    and then Sigma_{p+1} on whole circuit tables returned: the first
    member of the first outside the second, or None, at every level."""
    a = jump_case(name, ms62_perturbed)
    for p in range(2, a.rank()):
        assert find_jump(a, p) == oracles.two_list_find_jump(jump_case(name, ms62_perturbed), p)


def test_find_jump_stops_at_the_first_jump_in_bounded_memory():
    """22 random integer hyperplanes in R^4 have no over-populated flat
    of codim 3, so Sigma_3 holds all 2^22 sign vectors; the DFS returns
    the first one that no point realizes, without listing Sigma_3."""
    import tracemalloc

    rng = random.Random(1)
    a = CentralArrangement(4, [(f"h{i}", [rng.randint(-99, 99) for _ in range(4)]) for i in range(22)])
    assert not any(f.codim == 3 and len(f.closed_set) > 3 for f in a.full_lattice())
    tracemalloc.start()
    try:
        eps, flat, cert = find_jump(a, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # a list of Sigma_3 alone would take about 180 MB
    first = next(
        e for e in (SignVector(a.labels, s) for s in product((1, -1), repeat=22))
        if not oracles.lp_realizes(a, e, a.labels)
    )
    assert eps == first and flat.codim == 4 and cert.verify(a, eps)


def count_points(monkeypatch):
    """Hooks sigma's one point builder: per point built, True for an
    independent flat (cocircuits None), False for an over-populated one."""
    built = []
    real = sigma._point

    def counted(a, x, i, mask, cocircuits, pos):
        built.append(cocircuits is None)
        return real(a, x, i, mask, cocircuits, pos)

    monkeypatch.setattr(sigma, "_point", counted)
    return built


def test_returned_jumps_carry_audited_points(w62, monkeypatch):
    """find_jump and jump_after_perturbation read the membership of the
    witness they return one level down with audit: a point at each flat
    of that codim, verified by substitution and kept.  A member verdict
    whose point fails substitution raises.  Both kinds of flat, over-populated
    and independent, get their point from the one point builder."""
    built = count_points(monkeypatch)
    a = dfs_case("vg63-1")
    eps, _, _ = find_jump(a, 2)
    assert len(built) == sum(1 for f in a.full_lattice() if f.codim == 2)
    assert set(built) == {True, False}
    m, _ = perturb_to_very_generic(w62, seed=0)
    b = m.arrangement
    del built[:]
    found = jump_after_perturbation(m, w62, seed=0)[0]
    assert built
    del built[:]
    for arr, e, p in ((a, eps, 2), (b, found, b.rank() - 1)):
        rep = in_sigma_p(arr, e, p, audit=True)
        assert rep.member and not built  # kept from the witness's audit
        for f, point in rep.witness_points.items():
            assert realizes(arr, e, f.closed_set, point)

    def broken(*args):
        raise VerificationError("point misses a sign")

    monkeypatch.setattr(sigma, "_point", broken)
    with pytest.raises(VerificationError):
        find_jump(dfs_case("vg63-1"), 2)
    m, _ = perturb_to_very_generic(w62, seed=0)
    with pytest.raises(VerificationError):
        jump_after_perturbation(m, w62, seed=0)


def test_sigma_counts_are_higher_bruhat_sizes():
    """|Sigma_2| of a moment-curve B(n, 2) is the size of the higher Bruhat
    order B(n, 2) (OEIS A006245): 62 for n = 5, 908 for n = 6 and 24 698
    for n = 7, whose 35 hyperplanes are past the enumeration guard, so the
    DFS generator is counted directly.  The top level is the chamber set,
    counted by Zaslavsky."""
    for params, size in (([0, 1, 2, 3, 4], 62), ([0, 1, 2, 3, 4, 5], 908)):
        a = build_ms(moment_curve_base(params)).arrangement
        assert len(sigma_set(a, 2)) == size
        assert len(sigma_set(a, a.rank())) == zaslavsky_chambers(a)
    a = build_ms(moment_curve_base(range(7))).arrangement
    assert sum(1 for _ in _conformal_masks(a, 2)) == 24698


@pytest.mark.parametrize("n", [5, 6])
def test_sigma2_of_moment_bases_is_the_packet_order(n):
    """Sigma_2 of a moment-curve B(n, 2) is the set of sign vectors that
    pass the packet condition, in the same product order; 62 and 908."""
    a = build_ms(moment_curve_base(range(n))).arrangement
    leaves = list(oracles.packet_leaves(n))
    assert len(leaves) == {5: 62, 6: 908}[n]
    assert [pos for pos, _ in _conformal_masks(a, 2)] == leaves
    assert len(sigma_set(a, 2)) == len(leaves)


def test_sigma2_of_moment_b72_matches_the_packet_test():
    """On moment B(7,2), 35 hyperplanes whose top flat was once decided by
    an LP, in_sigma_p at p = 2 agrees with the packet test on seeded
    members (packet DFS leaves) and on near-chamber and uniform vectors,
    most of them non-members; every certificate verifies."""
    a = build_ms(moment_curve_base(range(7))).arrangement
    rng = random.Random(21)
    probes = [_sign_vector(a, next(oracles.packet_leaves(7, rng))) for _ in range(12)]
    probes += probe_sign_vectors(a, rng, count=24)
    verdicts = []
    for eps in probes:
        rep = in_sigma_p(a, eps, 2)
        assert rep.member == oracles.packet_member(eps, 7)
        assert rep.member or rep.certificate.verify(a, eps)
        verdicts.append(rep.member)
    assert all(verdicts[:12]) and verdicts[12:].count(False) > 12


def table_case(name, ms62_perturbed):
    """A fresh arrangement (cold caches) for the circuit-oracle pins."""
    if name == "perturbed62":
        return CentralArrangement.from_json(ms62_perturbed.arrangement.to_json())
    if name == "w62":
        return build_ms(witness_rank_r(6, 2, seed=0).witness_base).arrangement
    return dfs_case(name)


@pytest.mark.parametrize("order", ["partial-first", "dfs-first"])
@pytest.mark.parametrize("name", ["moment52", "vg63-1", "perturbed62", "falk", "h3", "w62"])
def test_lazy_circuit_tables_match_eager_oracle(name, order, ms62_perturbed):
    """The cover test against the circuit path it replaced, on whole
    circuit tables: every report, members and non-members with failing
    flat and certificate, equals the circuit oracle's, and the chamber DFS
    lists the oracle's masks in its order, whether the reads or the DFS
    come first on a cold arrangement."""
    a = table_case(name, ms62_perturbed)
    rk = a.rank()
    probes = probe_sign_vectors(a, random.Random(19))
    queries = [(eps, p) for eps in probes for p in range(2, rk + 1)]
    oracle = table_case(name, ms62_perturbed)
    expected = [oracles.circuit_sigma_report(oracle, eps, p) for eps, p in queries]
    assert any(not rep.member for rep in expected)
    masks = [pos for pos, _ in _conformal_masks(a, rk)] if order == "dfs-first" else None
    assert [in_sigma_p(a, eps, p) for eps, p in queries] == expected
    if masks is None:
        masks = [pos for pos, _ in _conformal_masks(a, rk)]
    assert masks == oracles.circuit_conformal_masks(oracle, rk)


def test_jump_after_perturbation_builds_the_top_table_to_its_certificate(w62, monkeypatch):
    """The jump's failing flat is the top flat of the perturbed B(6,2),
    and its certificate is one of the 3432 circuits spanning it; witness,
    flat and certificate equal those of the circuit path, which decides
    every query by whole circuit tables: each report the search reads
    has the verdict, failing flat and certificate of the circuit path.
    The library builds no circuit table."""
    tables = {}
    real_table = oracles.circuit_table

    def table(a, i):
        if (a, i) not in tables:
            tables[a, i] = real_table(a, i)
        return tables[a, i]

    monkeypatch.setattr(oracles, "circuit_table", table)
    m, _ = perturb_to_very_generic(w62, seed=0)
    got = jump_after_perturbation(m, w62, seed=0)
    assert not tables
    a = m.arrangement
    top = len(a.full_lattice()) - 1
    assert got[1] == a.full_lattice()[top]
    table = oracles.circuit_table(a, top)
    assert len(table) // 2 == 3432
    assert a.label_mask(got[2].support) in table[::2]
    reads = []

    def circuit_checked(a, eps, p, audit=False):
        rep = in_sigma_p(a, eps, p, audit)
        expected = oracles.circuit_sigma_report(a, eps, p)
        assert (rep.verdict, rep.failing_flat, rep.certificate) == (
            expected.verdict, expected.failing_flat, expected.certificate
        )
        reads.append(rep.member)
        return rep

    monkeypatch.setattr(nonvgen, "in_sigma_p", circuit_checked)
    m, _ = perturb_to_very_generic(w62, seed=0)
    assert jump_after_perturbation(m, w62, seed=0) == got
    assert tables and set(reads) == {True, False}


def permuted(eps, rng):
    """eps with its labels, and their signs, in a shuffled order."""
    order = list(range(len(eps.labels)))
    rng.shuffle(order)
    return SignVector(tuple(eps.labels[j] for j in order), tuple(eps.signs[j] for j in order))


@pytest.mark.parametrize("name", ["moment52", "h3", "falk", "vg63-1", "w62", "perturbed62"])
def test_level_tuples_match_the_per_flat_oracle(name, ms62_perturbed):
    """in_sigma_p by one cover test per level-tuple entry against the
    per-flat path it replaced (sorted-label keys, q kernels per independent
    point), over Q and Q(sqrt5), at every level 2..rank, with eps in a's
    label order and shuffled: equal verdicts, failing flats and
    certificates, audited or not, the same flats with points, every point
    verified by substitution, and equal points on over-populated flats."""
    a = table_case(name, ms62_perturbed)
    oracle = table_case(name, ms62_perturbed)
    rng = random.Random(23)
    verdicts = set()
    for eps in probe_sign_vectors(a, random.Random(22)):
        for e in (eps, permuted(eps, rng)):
            for p in range(2, a.rank() + 1):
                old = oracles.per_flat_sigma_report(oracle, eps, p, audit=True)
                plain = in_sigma_p(a, e, p)
                rep = in_sigma_p(a, e, p, audit=True)
                assert rep.sign_vector == plain.sign_vector == e
                for got in (plain, rep):
                    assert (got.verdict, got.failing_flat, got.certificate) == (
                        old.verdict, old.failing_flat, old.certificate
                    )
                assert not plain.witness_points
                assert rep.witness_points.keys() == old.witness_points.keys()
                for f, point in rep.witness_points.items():
                    assert realizes(a, eps, f.closed_set, point)
                    if len(f.closed_set) > f.codim:
                        assert point == old.witness_points[f]
                assert rep.member or rep.certificate.verify(a, e)
                verdicts.add(rep.member)
    assert verdicts == {True, False}


def test_queries_need_exactly_the_arrangements_labels():
    """A sign vector missing a label, or carrying one a lacks, is rejected
    by in_sigma_p and consistent_at; one with a's labels in another order
    is read by label."""
    a = random_very_generic(6, 3, seed=1).arrangement
    eps = SignVector(a.labels, tuple(1 if j % 3 else -1 for j in range(a.n_hyperplanes)))
    short = SignVector(a.labels[:-1], eps.signs[:-1])
    extra = SignVector(a.labels + ("zz",), eps.signs + (1,))
    twice = SignVector(a.labels[:-1] + a.labels[:1], eps.signs)
    flats = [a.full_lattice()[-1], next(f for f in a.full_lattice() if len(f.closed_set) == f.codim == 2)]
    for bad in (short, extra, twice):
        with pytest.raises(ValueError):
            in_sigma_p(a, bad, 2)
        for x in flats:
            with pytest.raises(ValueError):
                consistent_at(a, bad, x)
    shuffled = permuted(eps, random.Random(24))
    for p in (2, 3):
        assert in_sigma_p(a, shuffled, p).verdict == in_sigma_p(a, eps, p).verdict
    for x in flats:
        assert consistent_at(a, shuffled, x) == consistent_at(a, eps, x)


def test_consistent_at_needs_a_flat_of_the_arrangement():
    """An over-populated flat of the unperturbed witness B(6,2) that its
    perturbation (same labels) lacks is rejected, as are independent flats
    whose labels span more in a, have other normals, or are not a's; an
    independent one is checked with no lattice."""
    w = witness_rank_r(6, 2, seed=1)
    plain = build_ms(w.witness_base).arrangement
    b = perturb_to_very_generic(w, seed=1)[0].arrangement
    assert plain.labels == b.labels
    eps = SignVector(b.labels, (1,) * b.n_hyperplanes)
    lost = [f for f in plain.full_lattice() if len(f.closed_set) > f.codim and not b.has_flat(f)]
    assert lost and any(b.label_mask(f.closed_set) not in b._index for f in lost)
    for x in lost:
        with pytest.raises(ValueError):
            consistent_at(b, eps, x)
    a = CentralArrangement(3, [("x", [1, 0, 0]), ("y", [0, 1, 0]), ("z", [0, 0, 1])])
    spans_more = CentralArrangement(3, [("x", [1, 0, 0]), ("y", [0, 1, 0]), ("z", [1, 1, 0])])
    other_normal = CentralArrangement(3, [("x", [1, 1, 0]), ("y", [0, 1, 0]), ("z", [0, 0, 1])])
    other_label = CentralArrangement(3, [("x", [1, 0, 0]), ("w", [0, 1, 0]), ("z", [0, 0, 1])])
    eps = SignVector(spans_more.labels, (1, -1, 1))
    for c, x in ((spans_more, a.flat_of(["x", "y"])), (other_normal, a.flat_of(["x"]))):
        with pytest.raises(ValueError):
            consistent_at(c, eps, x)
    with pytest.raises(ValueError):
        consistent_at(a, eps, other_label.flat_of(["w"]))
    ok, point = consistent_at(a, eps, a.flat_of(["x", "z"]))
    assert ok and realizes(a, eps, ("x", "z"), point)
    assert a._lattice is None


@pytest.mark.parametrize("name", ["moment52", "perturbed62", "h3"])
def test_certificate_verify_matches_fraction_substitution(name, ms62_perturbed):
    """verify on integers against field substitution, over Q (with the
    perturbed 10^6 denominators) and Q(sqrt5): every non-member
    certificate holds, as do its positive multiples, irrational ones over Q
    too; changing one coefficient, giving one an irrational part, or
    flipping a sign of eps breaks it."""
    a = table_case(name, ms62_perturbed)
    certs = []
    for eps in probe_sign_vectors(a, random.Random(20)):
        for p in range(2, a.rank() + 1):
            rep = in_sigma_p(a, eps, p)
            if not rep.member:
                certs.append((eps, rep.certificate))
    assert certs
    scales = [Q(3, 7), Qrt5(Q(1), Q(1)), Qrt5(Q(2), Q(-1, 3))]
    assert all(c > 0 for c in scales)
    for eps, cert in certs:
        lam = cert.coefficients
        for c in scales:
            good = GordanCertificate(cert.support, tuple(c * v for v in lam))
            assert good.verify(a, eps) and oracles.fraction_verify(good, a, eps)
        bad = [
            GordanCertificate(cert.support, (lam[0] * 2,) + lam[1:]),
            GordanCertificate(cert.support, lam[:-1] + (lam[-1] + Q(1, 10**6),)),
            GordanCertificate(cert.support, (lam[0] + Qrt5(Q(0), Q(1)),) + lam[1:]),
        ]
        for c in bad:
            assert not c.verify(a, eps) and not oracles.fraction_verify(c, a, eps)
        flipped = eps.flip([cert.support[0]])
        assert not cert.verify(a, flipped) and not oracles.fraction_verify(cert, a, flipped)


def test_unaudited_reads_build_no_point(monkeypatch):
    """in_sigma_p without audit, and find_jump when it certifies
    equality, decide by the cover test alone; the first audited read
    builds the points of both kinds of flat, verified and equal to those
    of a cold arrangement, and later reads reuse them."""
    built = count_points(monkeypatch)
    a = dfs_case("moment52")
    probes = probe_sign_vectors(a, random.Random(18))
    levels = range(2, a.rank() + 1)
    plain = [in_sigma_p(a, eps, p) for eps in probes for p in levels]
    assert find_jump(a, 2) is None
    assert not built
    assert all(not rep.witness_points for rep in plain)
    cold = dfs_case("moment52")
    for eps in probes:
        for p in levels:
            rep = in_sigma_p(a, eps, p, audit=True)
            assert rep.witness_points == in_sigma_p(cold, eps, p, audit=True).witness_points
            for f, point in rep.witness_points.items():
                assert realizes(a, eps, f.closed_set, point)
    assert set(built) == {True, False}
    built.clear()
    for eps in probes:
        in_sigma_p(a, eps, a.rank(), audit=True)
    assert not built  # kept from the first audited read


# -- products ----------------------------------------------------------------------


def test_direct_sum_and_product_formula(br3, boolean2):
    total = direct_sum(boolean2, br3)
    assert total.n_hyperplanes == 5 and total.dim == 5
    assert sigma_product_check(boolean2, br3, 2)
    assert sigma_product_check(boolean2, boolean2, 2)
