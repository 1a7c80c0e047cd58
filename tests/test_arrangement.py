"""Arrangement lattice, chambers, essentialization and circuits."""

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import msarr.arrangement
import msarr.linalg
import oracles
from msarr.errors import GuardExceeded
from msarr.fields import PHI, Q, Qrt5
from msarr.linalg import Mat, _cut, _integral, _integral_ops, _primitive, _primitive_rt5, kernel_basis, rank, rref
from msarr import (
    CentralArrangement,
    SignVector,
    GordanCertificate,
    build_ms,
    intersection_lattice,
    moment_curve_base,
    lattice_isomorphic_to_pnk,
    localization,
    essentialize,
    chamber_sign_vectors,
    find_jump,
    named_base,
    perturb_to_very_generic,
    random_very_generic,
    zaslavsky_chambers,
    circuits,
    witness_rank_r,
)
from msarr.pnk import SetFamily
from conftest import boolean, small_arrangements


def lattice_closed_sets(a):
    return {(f.codim, f.closed_set) for f in a.full_lattice()}


# -- construction guards ---------------------------------------------------


def test_rejects_zero_normal():
    with pytest.raises(ValueError):
        CentralArrangement(2, [("z", [0, 0])])


def test_rejects_duplicate_label():
    with pytest.raises(ValueError):
        CentralArrangement(2, [("a", [1, 0]), ("a", [0, 1])])


def test_rejects_parallel_normals():
    with pytest.raises(ValueError):
        CentralArrangement(2, [("a", [1, 1]), ("b", [2, 2])])


RT5 = Qrt5(0, 1)
_V = [Q(1), Q(2), PHI]


@pytest.mark.parametrize(
    "u, v",
    [
        ([Q(1, 2), Q(-1)], [Q(-3), Q(6)]),
        (_V, [PHI * x for x in _V]),
        ([Q(1), RT5], [RT5, Q(5)]),
    ],
)
def test_rejects_parallel_by_integral_normal(u, v):
    with pytest.raises(ValueError, match="hyperplanes 'a' and 'b' have the same kernel"):
        CentralArrangement(len(u), [("a", u), ("b", v)])


def test_accepts_non_parallel_over_rt5():
    a = CentralArrangement(2, [("a", [Q(1), PHI]), ("b", [Q(1), Q(1)])])
    assert [f.codim for f in a.full_lattice()] == [0, 1, 1, 2]


# -- lattice vs brute force ------------------------------------------------


def test_boolean_lattice_matches_brute_force(boolean2):
    assert lattice_closed_sets(boolean2) == oracles.brute_force_flats(boolean2)
    assert len(boolean2.full_lattice()) == 4


def test_braid3_lattice_matches_brute_force(br3):
    assert lattice_closed_sets(br3) == oracles.brute_force_flats(br3)
    # center flat contains all three hyperplanes at codim 2
    codims = sorted(f.codim for f in br3.full_lattice())
    assert codims == [0, 1, 1, 1, 2]


def test_boolean4_lattice_is_full_power_set():
    b4 = boolean(4)
    assert lattice_closed_sets(b4) == oracles.brute_force_flats(b4)
    assert len(b4.full_lattice()) == 16


def test_ms52_lattice_matches_brute_force(ms52):
    assert lattice_closed_sets(ms52.arrangement) == oracles.brute_force_flats(
        ms52.arrangement
    )


def flat_data(flats):
    return [(f.codim, f.closed_set, f.normal_space, f.pivots) for f in flats]


def non_essential_rational():
    """Rank 3 in Q^4 (every normal is orthogonal to (1, 2, -1, 3)), with
    mixed signs and denominators and negative leading entries."""
    return CentralArrangement(
        4,
        [
            ("a", [Q(-1), Q(1, 2), 0, 0]),
            ("b", [Q(2, 3), 0, Q(2, 3), 0]),
            ("c", [Q(-3, 5), 0, 0, Q(1, 5)]),
            ("d", [Q(-21, 4), Q(7, 4), Q(-7, 4), 0]),
            ("e", [Q(-1, 3), 0, Q(1, 6), Q(1, 6)]),
            ("f", [Q(-18, 7), Q(3, 7), Q(-3, 7), Q(3, 7)]),
            ("g", [Q(-10), Q(-5, 2), 0, Q(5)]),
        ],
    )


def lattice_case(name, ms63):
    """(arrangement, its MSArrangement or None)."""
    if name in ("falk", "h3"):
        m = build_ms(named_base(name))
    elif name == "ms63":
        m = ms63
    elif name == "moment-52":
        m = build_ms(moment_curve_base([0, 1, 2, 3, 4]))
    elif name == "h3-essential":
        return essentialize(build_ms(named_base("h3")).arrangement)[0], None
    elif name == "non-essential":
        return non_essential_rational(), None
    else:
        w = witness_rank_r(6, 2, seed=0)
        if name == "witness-62":
            m = build_ms(w.witness_base)
        else:
            m = perturb_to_very_generic(w, seed=0)[0]
    return m.arrangement, m


@pytest.mark.parametrize(
    "name, iso",
    [
        ("falk", (False, SetFamily(6, 3, [{1, 2, 3, 4}, {2, 3, 5, 6}]))),
        ("h3", (False, SetFamily(6, 3, [{1, 2, 3, 4}, {2, 3, 5, 6}]))),
        ("witness-62", (False, SetFamily(6, 2, [{1, 2, 3}, {1, 4, 6}, {3, 5, 6}]))),
        ("perturbed-62", (True, None)),
        ("ms63", (True, None)),
        ("moment-52", (True, None)),
        ("h3-essential", None),
        ("non-essential", None),
    ],
)
def test_lattice_matches_echelon_oracle(name, iso, ms63_very_generic):
    a, m = lattice_case(name, ms63_very_generic)
    assert flat_data(a.full_lattice()) == flat_data(oracles.echelon_lattice(a))
    if m is not None:
        assert lattice_isomorphic_to_pnk(m) == iso


RANK_COORDINATE_CASES = [
    "moment-52", "ms63", "h3", "falk", "witness-62", "perturbed-62",
    "br3", "boolean-4", "non-prefix", "non-prefix-rt5", "empty-0", "empty-3",
]


def rank_coordinate_case(name, ms63):
    if name == "br3":
        return CentralArrangement(3, [("xy", [1, -1, 0]), ("xz", [1, 0, -1]), ("yz", [0, 1, -1])])
    if name == "boolean-4":
        return boolean(4)
    if name == "non-prefix":  # rank 2 with pivot columns (0, 2)
        return CentralArrangement(3, [("a", [1, 2, 3]), ("b", [2, 4, 7]), ("c", [3, 6, 10])])
    if name == "non-prefix-rt5":  # the same over Q(sqrt5)
        u, v = [Q(1), Q(2), PHI], [PHI, 2 * PHI, Q(1)]
        return CentralArrangement(3, [("a", u), ("b", v), ("c", [x + y for x, y in zip(u, v)])])
    if name.startswith("empty-"):
        return CentralArrangement(int(name[-1]), [])
    return lattice_case(name, ms63)[0]


def full_flat_data(flats):
    return [(f.closed_set, f.codim, f.pivots, f.rows) for f in flats]


@pytest.mark.parametrize("name", RANK_COORDINATE_CASES)
def test_rank_coordinate_lattice_matches_the_full_coordinate_builder(name, ms63_very_generic):
    """The lattice built in the rank coordinates P equals the one built in
    all coordinates: every flat with its pivots and rows, the masks, pos(F)
    and covers; so does flat_of on seeded label sets.  rank() is |P|, and P
    is the essentialization's pivot columns."""
    a = _fresh(rank_coordinate_case(name, ms63_very_generic))
    flats, masks, pos, covers = oracles.full_coordinate_lattice(a)
    assert full_flat_data(a.full_lattice()) == full_flat_data(flats)
    assert (a._masks, a._pos, a._covers) == (masks, pos, covers)
    assert a.rank() == rank(a.normal_matrix())
    assert a._cols == essentialize(a)[1].pivots
    rng = random.Random(name)
    for _ in range(20 if a.labels else 1):
        labels = rng.sample(a.labels, rng.randint(0, min(5, len(a.labels))))
        got, want = a.flat_of(labels), oracles.full_coordinate_flat_of(a, labels)
        assert full_flat_data([got]) == full_flat_data([want])


@pytest.mark.parametrize("rt5", [False, True], ids=["Q", "Qrt5"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_coordinate_lattice_matches_the_full_coordinate_builder_on_random_arrangements(rt5, data):
    dim, normals = data.draw(small_arrangements(rt5, 6))
    assume(all(rank(Mat([u, v])) == 2 for i, u in enumerate(normals) for v in normals[:i]))
    a = CentralArrangement(dim, [(f"h{i}", v) for i, v in enumerate(normals)])
    flats, masks, pos, covers = oracles.full_coordinate_lattice(a)
    assert full_flat_data(a.full_lattice()) == full_flat_data(flats)
    assert (a._masks, a._pos, a._covers) == (masks, pos, covers)
    assert a.rank() == rank(a.normal_matrix())
    assert zaslavsky_chambers(a) == oracles.scan_zaslavsky_chambers(a)


def test_rank_needs_no_echelon_form(monkeypatch):
    a = _fresh(lattice_case("witness-62", None)[0])
    want = rank(a.normal_matrix())

    def forbidden(*args):
        raise AssertionError("rank() formed an echelon form")

    for module, name in ((msarr.linalg, "rank"), (msarr.linalg, "rref"), (msarr.arrangement, "rref")):
        monkeypatch.setattr(module, name, forbidden)
    assert a.rank() == want == 4


def test_non_essential_case_has_rank_three():
    a = non_essential_rational()
    assert a.rank() == 3
    assert all(sum(c * u for c, u in zip(a.normal(l), (1, 2, -1, 3))) == 0 for l in a.labels)
    assert max(f.codim for f in a.full_lattice()) == 3


@pytest.mark.parametrize("rt5", [False, True], ids=["Q", "Qrt5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lattice_matches_echelon_oracle_on_random_arrangements(rt5, data):
    dim, normals = data.draw(small_arrangements(rt5, 6))
    assume(all(rank(Mat([u, v])) == 2 for i, u in enumerate(normals) for v in normals[:i]))
    a = CentralArrangement(dim, [(f"h{i}", v) for i, v in enumerate(normals)])
    assert flat_data(a.full_lattice()) == flat_data(oracles.echelon_lattice(a))


def _rescaled(a, factors):
    return CentralArrangement(
        a.dim,
        [
            (l, [factors[i % len(factors)] * c for c in a.normal(l)])
            for i, l in enumerate(a.labels)
        ],
    )


@pytest.mark.parametrize("name", ["falk", "h3", "non-essential"])
@pytest.mark.parametrize(
    "factors",
    [(Q(-3), Q(2, 7)), (PHI, -RT5), (Qrt5(-3), Qrt5(Q(2, 7)))],
    ids=["Q", "Qrt5", "rational-Qrt5"],
)
def test_rescaling_normals_keeps_the_lattice(name, factors, ms63_very_generic):
    a, _ = lattice_case(name, ms63_very_generic)
    b = _rescaled(a, factors)
    assert [(f.codim, f.closed_set) for f in b.full_lattice()] == [
        (f.codim, f.closed_set) for f in a.full_lattice()
    ]


@pytest.mark.parametrize("name", ["falk", "h3", "boolean-4", "witness-62", "perturbed-62"])
def test_flat_of_matches_span_closure_oracle(name, ms63_very_generic):
    if name == "boolean-4":
        a = boolean(4)
    else:
        a, _ = lattice_case(name, ms63_very_generic)
    rng = random.Random(name)
    for _ in range(40):
        labels = rng.sample(a.labels, rng.randint(1, min(5, len(a.labels))))
        got, want = a.flat_of(labels), oracles.span_closure_flat(a, labels)
        assert (got.closed_set, got.codim, got.normal_space, got.pivots) == (
            want.closed_set,
            want.codim,
            want.normal_space,
            want.pivots,
        )


def _fresh(a):
    return CentralArrangement(a.dim, [(l, a.normal(l)) for l in a.labels])


@pytest.mark.parametrize("name", ["falk", "h3", "perturbed-62"])
def test_lattice_and_flat_of_form_no_echelon(name, ms63_very_generic, monkeypatch):
    a = _fresh(lattice_case(name, ms63_very_generic)[0])
    calls = []

    def counted(m):
        calls.append(1)
        return rref(m)

    monkeypatch.setattr(msarr.arrangement, "rref", counted)
    monkeypatch.setattr(msarr.linalg, "rref", counted)
    flats = a.full_lattice()
    rng = random.Random(name)
    for _ in range(20):
        a.flat_of(rng.sample(a.labels, rng.randint(1, 5)))
    assert calls == []
    # the echelon basis is computed once, on first read
    assert flats[-1].normal_space == flats[-1].normal_space
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["falk", "h3", "witness-62", "non-essential"])
def test_recorded_covers_and_cocircuits_match_the_lattice(name, ms63_very_generic):
    """Each flat's recorded covers are the flats of one codim less whose
    closed sets lie in its own, and on the labels of a flat X that covers
    F, pos(F) is, up to sign, the sign vector of any point of F off the
    hyperplanes outside F: an independent point from F's kernel basis."""
    a = lattice_case(name, ms63_very_generic)[0]
    flats, masks = a.full_lattice(), a.lattice_masks()
    rng = random.Random(name)
    signs = []
    for f in flats:
        basis = kernel_basis(Mat([list(a.normal(l)) for l in f.closed_set])) if f.closed_set else [
            [int(i == j) for i in range(a.dim)] for j in range(a.dim)
        ]
        while True:
            cs = [rng.randint(-9, 9) for _ in basis]
            point = [sum(c * v[i] for c, v in zip(cs, basis)) for i in range(a.dim)]
            values = [sum(c * x for c, x in zip(a.normal(l), point)) for l in a.labels]
            if all((v == 0) == (l in f.closed_set) for v, l in zip(values, a.labels)):
                break
        signs.append(a.label_mask(l for v, l in zip(values, a.labels) if v > 0))
    for x, (fx, mx) in enumerate(zip(flats, masks)):
        below = [y for y, (fy, my) in enumerate(zip(flats, masks)) if fy.codim == fx.codim - 1 and my & mx == my]
        assert sorted(a._covers[x]) == below
        for y in below:
            supp = mx & ~masks[y]
            assert (a._pos[y] ^ signs[y]) & supp in (0, supp)


@pytest.mark.parametrize("name", ["falk", "h3", "perturbed-62"])
def test_cut_keeps_primitive_kernels_with_free_columns(name, ms63_very_generic):
    """Cutting the unit kernel by labels in turn keeps every vector in
    canonical integral form, orthogonal to the labels cut, with its last
    nonzero entry in its increasing free column; the free columns are the
    complement of the rref pivots of the labels' normals."""
    a = lattice_case(name, ms63_very_generic)[0]
    dot, _, zero, comb = _integral_ops(a._rt5)
    canonical = (lambda k: _primitive_rt5(*k)) if a._rt5 else _primitive
    rng = random.Random(name)
    units = [_integral([Q(int(i == j)) for i in range(a.dim)], a._rt5) for j in range(a.dim)]
    for _ in range(10):
        ker, free = units, tuple(range(a.dim))
        cut = []
        for lab in rng.sample(a.labels, min(6, len(a.labels))):
            images = [dot(a._integral[lab], k) for k in ker]
            if all(v == zero for v in images):
                continue
            ker, free = _cut(ker, free, images, zero, comb)
            cut.append(lab)
            for k, f in zip(ker, free):
                assert canonical(k) == k
                assert all(dot(a._integral[l], k) == zero for l in cut)
                entries = list(zip(*k)) if a._rt5 else k
                last = max(i for i, x in enumerate(entries) if x != zero)
                assert last == f
            assert list(free) == sorted(free)
            _, pivots = rref([a.normal(l) for l in cut])
            assert set(free) == set(range(a.dim)) - set(pivots)


def test_flat_of_and_has_flat(br3):
    x = br3.flat_of(["xy", "yz"])
    assert x.codim == 2
    assert x.closed_set == frozenset({"xy", "xz", "yz"})  # closure adds xz
    assert br3.has_flat(x)
    assert br3.flat_of([]).codim == 0


def test_has_flat_looks_up_the_closed_mask():
    """has_flat finds a flat through the lattice index of its closed mask,
    with no scan of the lattice: every flat of the unperturbed witness
    B(6,2) is found, and none of its perturbation's flats that it lacks."""
    w = witness_rank_r(6, 2, seed=1)
    a = build_ms(w.witness_base).arrangement
    b = perturb_to_very_generic(w, seed=1)[0].arrangement
    flats, foreign = a.full_lattice(), b.full_lattice()

    class Unscannable(list):
        def __iter__(self):
            raise AssertionError("has_flat scanned the lattice")

    a._lattice = Unscannable(flats)
    assert all(a.has_flat(f) for f in flats)
    lost = [f for f in foreign if f not in set(flats)]
    assert lost and not any(a.has_flat(f) for f in lost)


def test_intersection_lattice_truncation(br3):
    assert {f.codim for f in intersection_lattice(br3, max_codim=1)} == {0, 1}


# -- localization ------------------------------------------------------------


def test_localization_keeps_containing_hyperplanes(br3):
    x = br3.flat_of(["xy"])
    loc = localization(br3, x)
    assert loc.labels == ("xy",)
    center = br3.flat_of(["xy", "xz"])
    assert localization(br3, center).labels == ("xy", "xz", "yz")


def test_localization_rejects_foreign_flat(br3, boolean2):
    other = boolean2.flat_of(["x"])
    with pytest.raises(ValueError):
        localization(br3, other)


def test_localization_rejects_flat_with_same_labels_or_same_normals():
    a = CentralArrangement(3, [("x", [1, 0, 0]), ("y", [0, 1, 0]), ("z", [0, 0, 1])])
    b = CentralArrangement(3, [("x", [1, 0, 0]), ("y", [0, 1, 0]), ("z", [1, 1, 0])])
    c = CentralArrangement(3, [("x", [1, 1, 0]), ("y", [0, 1, 0]), ("z", [0, 0, 1])])
    # b's flat {x, y, z} has the X^perp of a's flat {x, y}
    xyz = b.flat_of(["x", "y"])
    assert xyz.closed_set == {"x", "y", "z"}
    assert xyz.normal_space == a.flat_of(["x", "y"]).normal_space
    # c's flat {x} has the labels of a's flat {x} but another normal
    x = c.flat_of(["x"])
    assert x.closed_set == a.flat_of(["x"]).closed_set
    assert x.normal_space != a.flat_of(["x"]).normal_space
    for foreign in (xyz, x):
        assert not a.has_flat(foreign)
        with pytest.raises(ValueError):
            localization(a, foreign)


# -- essentialization --------------------------------------------------------


def test_essentialize_braid(br3):
    ess, emap = essentialize(br3)
    assert ess.dim == 2 == br3.rank()
    assert ess.labels == br3.labels
    # lattice closed sets are preserved
    assert lattice_closed_sets(ess) == lattice_closed_sets(br3)
    # lifted chamber points land in the announced chamber of the original
    for ch in chamber_sign_vectors(ess):
        rows = [
            [ch.sign_of(l) * c for c in ess.normal(l)] for l in ess.labels
        ]
        from msarr.feasibility import strict_feasibility

        pt = strict_feasibility(rows).point
        lifted = emap.lift_point(pt)
        for l in br3.labels:
            val = sum(c * v for c, v in zip(br3.normal(l), lifted))
            assert (val > 0) == (ch.sign_of(l) > 0)


def test_essential_map_roundtrip(br3):
    _, emap = essentialize(br3)
    pt = (Q(2), Q(-1))
    assert emap.project_point(emap.lift_point(pt)) == pt


# -- chambers ----------------------------------------------------------------


def test_braid3_chambers_match_oracle(br3):
    got = {c.to_string() for c in chamber_sign_vectors(br3)}
    assert got == oracles.braid3_chamber_strings(br3.labels)
    assert len(got) == 6


def test_boolean_chambers():
    assert len(chamber_sign_vectors(boolean(3))) == 8


def test_zaslavsky_agrees(br3, boolean2):
    assert zaslavsky_chambers(br3) == 6
    assert zaslavsky_chambers(boolean2) == 4
    for r in (1, 3, 4):
        assert zaslavsky_chambers(boolean(r)) == 2**r


@pytest.mark.parametrize("name", RANK_COORDINATE_CASES)
def test_zaslavsky_matches_closed_set_oracle(name, ms63_very_generic):
    """mu by Weisner's theorem over the recorded covers equals mu by every
    flat below X, on label masks and on frozenset closed sets."""
    a = rank_coordinate_case(name, ms63_very_generic)
    assert zaslavsky_chambers(a) == oracles.scan_zaslavsky_chambers(a)
    assert zaslavsky_chambers(a) == oracles.set_zaslavsky_chambers(a)


def test_zaslavsky_matches_the_mask_scan_on_very_generic_b73():
    a = random_very_generic(7, 3, seed=1).arrangement
    assert len(a.full_lattice()) == 2130
    assert zaslavsky_chambers(a) == oracles.scan_zaslavsky_chambers(a)


def test_lattice_masks_are_the_closed_sets(ms52):
    a = ms52.arrangement
    masks = a.lattice_masks()
    assert len(masks) == len(a.full_lattice())
    for x, f in zip(masks, a.full_lattice()):
        assert {l for i, l in enumerate(a.labels) if x >> i & 1} == f.closed_set


def test_chamber_guard_fires():
    big = CentralArrangement(
        2, [(f"h{i}", [1, i]) for i in range(23)]
    )
    with pytest.raises(GuardExceeded):
        chamber_sign_vectors(big)


@pytest.mark.parametrize("order", [(3, 2), (2, 3)], ids=["top-first", "top-last"])
def test_circuits_below_is_kept_per_mask_and_codim(order):
    """The DFS at codim 2 and at codim 3 lists the circuit oracle's masks
    in its order, whichever is read first; reading the top level first (as
    the chamber DFS does) once made a later codim-2 read see codim-3
    circuits, so find_jump counted Sigma_3 as Sigma_2 and missed the very
    generic B(6,3) jump."""
    fresh = lambda: random_very_generic(6, 3, seed=1).arrangement
    a = fresh()
    assert a.rank() == 3
    expected = {c: oracles.circuit_conformal_masks(fresh(), c) for c in order}
    assert len(expected[2]) > len(expected[3])
    for c in order:
        assert [pos for pos, _ in msarr.arrangement._conformal_masks(a, c)] == expected[c]
    assert find_jump(a, 2)[0].to_string() == "+-+++---++--+-+"


# -- circuits ----------------------------------------------------------------


def test_braid3_single_circuit(br3):
    found = circuits(br3, 3)
    assert len(found) == 1
    support, coeffs = found[0]
    assert support == frozenset({"xy", "xz", "yz"})
    # (1,-1,0) - (1,0,-1) + (0,1,-1) = 0; normalized first coefficient is 1
    assert coeffs["xy"] == Q(1)
    vec = [Q(0)] * 3
    for lab, c in coeffs.items():
        vec = [v + c * nv for v, nv in zip(vec, br3.normal(lab))]
    assert all(v == 0 for v in vec)


def test_circuits_skip_supersets():
    a = CentralArrangement(
        3,
        [
            ("a", [1, 0, 0]),
            ("b", [0, 1, 0]),
            ("c", [1, 1, 0]),
            ("d", [0, 0, 1]),
        ],
    )
    found = circuits(a, 4)
    assert [set(s) for s, _ in found] == [{"a", "b", "c"}]


def test_circuits_size_guard(br3):
    with pytest.raises(ValueError):
        circuits(br3, 4)


# -- sign vectors and certificates --------------------------------------------


def test_sign_vector_string_roundtrip(br3):
    sv = SignVector.from_string(br3.labels, "+-+")
    assert sv.to_string() == "+-+"
    assert sv.sign_of("xz") == -1
    assert sv.flip(["xz"]).to_string() == "+++"
    with pytest.raises(ValueError):
        SignVector.from_string(br3.labels, "+-")
    with pytest.raises(KeyError):
        sv.flip(["nope"])


def test_sign_vector_compares_on_labels_and_signs():
    read = SignVector(("b", "a", "c"), (1, -1, -1))
    assert [read.sign_of(l) for l in "abc"] == [-1, 1, -1]
    fresh = SignVector(("b", "a", "c"), (1, -1, -1))
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh) == "SignVector(labels=('b', 'a', 'c'), signs=(1, -1, -1))"
    assert read != SignVector(("b", "a", "c"), (1, 1, -1))


def test_certificate_verifies_cyclic(br3):
    eps = SignVector(br3.labels, (1, -1, 1))  # x>y, z>x, y>z
    cert = GordanCertificate(br3.labels, (Q(1), Q(1), Q(1)))
    assert cert.verify(br3, eps)
    assert not cert.verify(br3, SignVector(br3.labels, (1, 1, 1)))


def test_certificate_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        GordanCertificate(("a",), (Q(0),))
    with pytest.raises(ValueError):
        GordanCertificate((), ())


# -- serialization -------------------------------------------------------------


def test_arrangement_json_roundtrip(br3):
    blob = json.dumps(br3.to_json())
    back = CentralArrangement.from_json(blob)
    assert back.labels == br3.labels
    assert all(back.normal(l) == br3.normal(l) for l in br3.labels)
