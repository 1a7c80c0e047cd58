"""The antichain poset and its correspondence with intersection lattices."""

import pytest

import msarr.arrangement
import msarr.pnk
import oracles
from msarr.errors import GuardExceeded
from msarr import (
    CentralArrangement,
    MSArrangement,
    SetFamily,
    build_ms,
    enumerate_pnk,
    is_pnk_element,
    lattice_isomorphic_to_pnk,
    named_base,
    pnk_rank,
)


def fam(n, k, *members):
    return SetFamily(n, k, [frozenset(m) for m in members])


def test_membership_conditions():
    assert is_pnk_element(fam(5, 2, [1, 2, 3])) == (True, None)
    assert is_pnk_element(fam(5, 2, [1, 2, 3], [1, 4, 5])) == (True, None)
    # (i): member too small
    assert is_pnk_element(fam(5, 2, [1, 2])) == (False, "i")
    # (iii): union inequality fails for the triple covering [6] with k = 3
    triple = fam(6, 3, [1, 2, 4, 5], [1, 3, 4, 6], [2, 3, 5, 6])
    assert is_pnk_element(triple) == (False, "iii")


def test_antichain_condition():
    bad = SetFamily(5, 2, [frozenset({1, 2, 3}), frozenset({1, 2, 3, 4})])
    assert is_pnk_element(bad) == (False, "ii")
    with pytest.raises(ValueError):
        SetFamily(5, 2, [{1, 2, 3}, {1, 2, 3, 4}], check_antichain=True)


def test_member_range_checked():
    with pytest.raises(ValueError):
        SetFamily(5, 2, [{1, 2, 9}])


def test_rank_values():
    assert pnk_rank(fam(5, 2)) == 0
    assert pnk_rank(fam(5, 2, [1, 2, 3])) == 1
    assert pnk_rank(fam(5, 2, [1, 2, 3, 4])) == 2
    assert pnk_rank(fam(5, 2, [1, 2, 3], [1, 4, 5])) == 2
    with pytest.raises(ValueError):
        pnk_rank(fam(5, 2, [1, 2]))


def test_rank_monotone_under_extension():
    small = fam(5, 2, [1, 2, 3])
    bigger = fam(5, 2, [1, 2, 3], [1, 4, 5])
    assert pnk_rank(bigger) > pnk_rank(small)


def grading(n, k, max_rank):
    counts = {}
    for f in enumerate_pnk(n, k, max_rank):
        r = pnk_rank(f) if f.members else 0
        counts[r] = counts.get(r, 0) + 1
    return [counts.get(r, 0) for r in range(max_rank + 1)]


def test_grading_52_matches_lattice(ms52):
    assert grading(5, 2, 3) == [1, 10, 20, 1]
    by_codim = {}
    for f in ms52.arrangement.full_lattice():
        by_codim[f.codim] = by_codim.get(f.codim, 0) + 1
    assert [by_codim[i] for i in range(4)] == [1, 10, 20, 1]


def test_grading_62():
    assert grading(6, 2, 4) == [1, 20, 115, 186, 1]


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        enumerate_pnk(9, 2, 2)


@pytest.mark.parametrize(
    "n, k, max_rank", [(5, 2, 3), (6, 2, 4), (6, 3, 3), (7, 2, 5), (7, 3, 4), (8, 4, 4)]
)
def test_enumeration_matches_checked_backtracking(n, k, max_rank):
    assert enumerate_pnk(n, k, max_rank) == oracles.enumerate_pnk_by_check(n, k, max_rank)


def test_enumeration_has_no_duplicates():
    fams = enumerate_pnk(5, 2, 3)
    assert len(fams) == len(set(fams))


def test_iso_true_for_very_generic(ms52):
    ok, bad = lattice_isomorphic_to_pnk(ms52)
    assert ok and bad is None


def test_iso_false_for_falk():
    ok, bad = lattice_isomorphic_to_pnk(build_ms(named_base("falk")))
    assert not ok
    assert bad is not None


def iso_case(name, request):
    if name == "moment-52":
        return request.getfixturevalue("ms52")
    if name == "ms63":
        return request.getfixturevalue("ms63_very_generic")
    if name == "perturbed-62":
        return request.getfixturevalue("ms62_perturbed")
    if name == "witness-62":
        return build_ms(request.getfixturevalue("w62").witness_base)
    return build_ms(named_base(name))


@pytest.mark.parametrize(
    "name, ok",
    [
        ("moment-52", True),
        ("ms63", True),
        ("perturbed-62", True),
        ("witness-62", False),
        ("h3", False),
    ],
)
def test_iso_matches_flat_of_oracle(name, ok, request):
    m = iso_case(name, request)
    got = lattice_isomorphic_to_pnk(m)
    assert got == oracles.flat_of_isomorphic_to_pnk(m)
    assert got[0] is ok and (got[1] is None) is ok


def reordered(m):
    """m with its hyperplanes listed in reverse order."""
    a = m.arrangement
    hps = [(l, a.normal(l)) for l in reversed(a.labels)]
    return MSArrangement(m.base, CentralArrangement(a.dim, hps), m.subsets[::-1])


@pytest.mark.parametrize("name", ["perturbed-62", "witness-62"])
def test_iso_independent_of_label_order(name, request):
    """An arrangement that lists its hyperplanes in another order gets the
    same answer."""
    m = iso_case(name, request)
    got = lattice_isomorphic_to_pnk(m)
    r = reordered(m)
    assert r.arrangement.labels != m.arrangement.labels
    assert lattice_isomorphic_to_pnk(r) == got == oracles.flat_of_isomorphic_to_pnk(r)


def test_label_mask_rejects_unknown_label(ms52):
    a = ms52.arrangement
    assert a.label_mask(a.labels[:2]) == 0b11
    with pytest.raises(KeyError, match="unknown hyperplane label"):
        a.label_mask(["nope"])


def test_iso_reads_the_built_lattice(ms62_perturbed, monkeypatch):
    """Once the lattice is built, a repeated check runs no rref and one
    enumeration."""
    lattice_isomorphic_to_pnk(ms62_perturbed)
    calls = {"rref": 0, "enumerate_pnk": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(msarr.arrangement, "rref", counting("rref", msarr.arrangement.rref))
    monkeypatch.setattr(
        msarr.pnk, "enumerate_pnk", counting("enumerate_pnk", msarr.pnk.enumerate_pnk)
    )
    assert lattice_isomorphic_to_pnk(ms62_perturbed) == (True, None)
    assert calls == {"rref": 0, "enumerate_pnk": 1}


def test_iso_unaffected_by_mutating_an_enumeration(ms52):
    assert lattice_isomorphic_to_pnk(ms52) == (True, None)
    fams = enumerate_pnk(5, 2, 3)
    fams.clear()
    fams.append(fam(5, 2, [1, 2, 3], [1, 2, 4]))
    assert len(enumerate_pnk(5, 2, 3)) == 32
    assert lattice_isomorphic_to_pnk(ms52) == (True, None)


def test_set_family_json_roundtrip():
    f = fam(6, 3, [1, 2, 4, 5], [2, 3, 5, 6])
    assert SetFamily.from_json(f.to_json()) == f
