import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from msarr.fields import Q, Qrt5
from msarr import (
    CentralArrangement,
    build_ms,
    essentialize,
    moment_curve_base,
    named_base,
    perturb_to_very_generic,
    random_very_generic,
    witness_rank_r,
)


@pytest.fixture(scope="session")
def br3():
    return CentralArrangement(
        3, [("xy", [1, -1, 0]), ("xz", [1, 0, -1]), ("yz", [0, 1, -1])]
    )


@pytest.fixture(scope="session")
def boolean2():
    return CentralArrangement(2, [("x", [1, 0]), ("y", [0, 1])])


@pytest.fixture(scope="session")
def ms52():
    return build_ms(moment_curve_base([0, 1, 2, 3, 4]))


@pytest.fixture(scope="session")
def ms63_very_generic():
    return random_very_generic(6, 3, seed=1)


@pytest.fixture(scope="session")
def w62():
    return witness_rank_r(6, 2, seed=0)


@pytest.fixture(scope="session")
def ms62_perturbed(w62):
    """The witness_rank_r(6, 2) base made very generic: 20 hyperplanes,
    323 flats."""
    return perturb_to_very_generic(w62, seed=0)[0]


def boolean(rank):
    return CentralArrangement(
        rank, [(f"e{i}", [1 if j == i else 0 for j in range(rank)]) for i in range(rank)]
    )


def square_cone():
    """Rank 3, four planes: the all-plus chamber is the cone over a square."""
    return CentralArrangement(
        3,
        [
            ("a", [1, 0, 1]),
            ("b", [-1, 0, 1]),
            ("c", [0, 1, 1]),
            ("d", [0, -1, 1]),
        ],
    )


PIN_CASES = ["boolean-3", "square-cone", "br3", "ms-3.1", "moment-52", "falk", "h3", "very-generic-63"]


@lru_cache(maxsize=None)
def pin_case(name):
    """The essential arrangement name stands for, one object per name: the
    inputs on which walls, simple chambers and circuits are pinned to their
    oracles.  h3 is over Q(sqrt5); very-generic-63 is random_very_generic(6,
    3, seed=1)."""
    if name == "boolean-3":
        return boolean(3)
    if name == "square-cone":
        return square_cone()
    if name == "br3":
        a = CentralArrangement(3, [("xy", [1, -1, 0]), ("xz", [1, 0, -1]), ("yz", [0, 1, -1])])
    elif name == "ms-3.1":
        a = build_ms([[1, 0, 1, -1], [0, 1, 1, 1]]).arrangement
    elif name == "moment-52":
        a = build_ms(moment_curve_base([0, 1, 2, 3, 4])).arrangement
    elif name == "very-generic-63":
        a = random_very_generic(6, 3, seed=1).arrangement
    else:
        a = build_ms(named_base(name)).arrangement
    return essentialize(a)[0]


def _entry(rt5):
    rational = st.builds(Q, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
    if not rt5:
        return rational
    return st.builds(Qrt5, rational, rational)


@st.composite
def small_arrangements(draw, rt5, max_hyperplanes):
    """(dim, normals): dim 2..4 and 1..max_hyperplanes nonzero normals with
    small entries in Q, or in Q(sqrt5) when rt5."""
    dim = draw(st.integers(2, 4))
    normals = draw(
        st.lists(
            st.lists(_entry(rt5), min_size=dim, max_size=dim).filter(lambda v: any(v)),
            min_size=1,
            max_size=max_hyperplanes,
        )
    )
    return dim, normals
