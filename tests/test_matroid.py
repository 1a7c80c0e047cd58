"""Flats-presented matroids: axioms, rank, paving, contraction."""

import random

import pytest

import oracles
from msarr import (
    Matroid,
    SetFamily,
    contract,
    is_paving,
    matroid_from_coatoms,
    matroid_of_arrangement,
    matroid_rank,
    ms_paving_coatoms,
    uniform_matroid,
)
from msarr.matroid import free_matroid


FALK_FAMILY = SetFamily(6, 3, [{1, 2, 4, 5}, {1, 3, 4, 6}, {2, 3, 5, 6}])

# rank 3 with 1 and 2 parallel
PARALLEL_FLATS = [
    frozenset(),
    frozenset({1, 2}),
    frozenset({3}),
    frozenset({4}),
    frozenset({1, 2, 3}),
    frozenset({1, 2, 4}),
    frozenset({3, 4}),
    frozenset({1, 2, 3, 4}),
]


# -- axioms ---------------------------------------------------------------------


def test_ground_must_be_flat():
    with pytest.raises(ValueError, match="ground"):
        Matroid(2, [frozenset(), frozenset({1})])


def test_intersection_closure_required():
    flats = [frozenset(), frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 2, 3})]
    with pytest.raises(ValueError, match="intersection"):
        Matroid(3, flats)


def test_cover_partition_required():
    # the only cover of {} is {1}, leaving 2 and 3 unreachable
    flats = [frozenset(), frozenset({1}), frozenset({1, 2, 3})]
    with pytest.raises(ValueError, match="partition"):
        Matroid(3, flats)


def _dropped(a, codim):
    """The flats of a's matroid without the first of codim codim."""
    idx = {l: i + 1 for i, l in enumerate(a.labels)}
    drop = next(f for f in a.full_lattice() if f.codim == codim)
    flats = [frozenset(idx[l] for l in f.closed_set) for f in a.full_lattice() if f != drop]
    return a.n_hyperplanes, flats


@pytest.mark.parametrize("codim, match", [(2, "non-flat intersection"), (3, "partition")])
@pytest.mark.parametrize("cls", [Matroid, oracles.SetMatroid], ids=["masks", "sets"])
def test_lattice_missing_a_flat_rejected(codim, match, cls, ms62_perturbed):
    # rank 4: a codim-2 flat is a meet of coatoms, a codim-3 flat a coatom
    a = ms62_perturbed.arrangement
    assert a.rank() == 4
    with pytest.raises(ValueError, match=match):
        cls(*_dropped(a, codim))


def test_flats_must_fit_ground():
    with pytest.raises(ValueError):
        Matroid(2, [frozenset(), frozenset({1, 2, 3})])


# -- constructions -----------------------------------------------------------------


def test_uniform_from_coatoms():
    from itertools import combinations

    coatoms = [frozenset(s) for s in combinations(range(1, 7), 2)]
    m = matroid_from_coatoms(6, coatoms)
    assert m == uniform_matroid(3, 6)
    assert matroid_rank(m) == 3


def test_coatoms_roundtrip():
    m = uniform_matroid(3, 5)
    again = matroid_from_coatoms(5, m.coatoms())
    assert again == m
    assert Matroid.from_json(m.to_json()) == m


def test_invalid_antichain_rejected():
    with pytest.raises(ValueError, match="antichain"):
        matroid_from_coatoms(4, [{1, 2}, {1, 2, 3}])


# -- rank, closure, paving ------------------------------------------------------------


def test_rank_examples():
    assert matroid_rank(uniform_matroid(3, 6)) == 3
    assert matroid_rank(free_matroid(4)) == 4
    assert matroid_rank(uniform_matroid(0, 3)) == 0


def test_closure():
    m = uniform_matroid(2, 4)
    assert m.closure({1}) == frozenset({1})
    assert m.closure({1, 2}) == frozenset({1, 2, 3, 4})
    with pytest.raises(ValueError):
        m.closure({9})


def test_paving_examples():
    assert is_paving(uniform_matroid(2, 5))
    assert is_paving(uniform_matroid(3, 6))
    # in the free matroid the closure of any (r-1)-subset is that subset,
    # which is a coatom, so the paving condition holds at every rank
    assert is_paving(free_matroid(4))


def test_non_paving_matroid():
    # closure of {1,2} is the height-1 flat {1,2}, which sits strictly
    # below the line {1,2,3}, so it is no coatom
    m = Matroid(4, PARALLEL_FLATS)
    assert matroid_rank(m) == 3
    assert not is_paving(m)


def matroid_case(name, request):
    if name == "uniform-3-6":
        return uniform_matroid(3, 6)
    if name == "free-4":
        return free_matroid(4)
    if name == "parallel":
        return Matroid(4, PARALLEL_FLATS)
    fixture = {"ms52": "ms52", "perturbed-62": "ms62_perturbed"}[name]
    return matroid_of_arrangement(request.getfixturevalue(fixture).arrangement)


@pytest.mark.parametrize(
    "name, paving",
    [
        ("uniform-3-6", True),
        ("free-4", True),
        ("parallel", False),
        ("ms52", True),
        ("perturbed-62", False),
    ],
)
def test_matroid_matches_set_oracle(name, paving, request):
    m = matroid_case(name, request)
    ref = oracles.SetMatroid(m.ground, m.flats)
    assert m.flats == ref.flats
    assert m.coatoms() == ref.coatoms()
    assert matroid_rank(m) == ref.rank()
    assert all(m.height(f) == ref.height(f) for f in m.flats)
    rng = random.Random(name)
    ground = sorted(m.ground)
    for _ in range(60):
        s = rng.sample(ground, rng.randint(0, min(5, len(ground))))
        assert m.closure(s) == ref.closure(s)
    assert is_paving(m) is ref.is_paving() is paving


# -- contraction ------------------------------------------------------------------------


def test_contract_uniform():
    assert contract(uniform_matroid(3, 6), 6) == uniform_matroid(2, 5)


def test_contract_free():
    assert contract(free_matroid(4), 4) == free_matroid(3)


def test_contract_unknown_element():
    with pytest.raises(ValueError):
        contract(free_matroid(3), 9)


# -- the paving matroid attached to a coincidence family ----------------------------------


def test_family_paving_matroid():
    coatoms = ms_paving_coatoms(FALK_FAMILY)
    m = matroid_from_coatoms(7, coatoms)
    assert matroid_rank(m) == FALK_FAMILY.k + 1
    assert is_paving(m)
    # the family members themselves are coatoms
    for T in FALK_FAMILY.members:
        assert T in m.coatoms()


def test_arrangement_matroid(br3):
    m = matroid_of_arrangement(br3)
    assert matroid_rank(m) == 2
    assert is_paving(m)
    assert m.closure({1, 2}) == frozenset({1, 2, 3})
