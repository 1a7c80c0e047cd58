import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from msarr import (
    CentralArrangement,
    build_ms,
    moment_curve_base,
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
