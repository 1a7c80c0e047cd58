"""Strict-feasibility dichotomy, and the mixed equality/inequality solver
kept as the oracle of the simple-chamber test."""

from hypothesis import given, settings
from hypothesis import strategies as st

from msarr.fields import Q
from msarr.feasibility import strict_feasibility
from oracles import mixed_feasibility


def verify_outcome(rows, out):
    """Exactly one branch holds and the returned witness checks by substitution."""
    assert (out.point is None) != (out.certificate is None)
    if out.point is not None:
        for row in rows:
            assert sum(a * b for a, b in zip(row, out.point)) > 0
    else:
        lam = out.certificate
        assert all(v >= 0 for v in lam) and any(v > 0 for v in lam)
        cols = len(rows[0])
        for j in range(cols):
            assert sum(lam[i] * rows[i][j] for i in range(len(rows))) == 0


def test_positive_orthant_point():
    out = strict_feasibility([[1, 0], [0, 1]])
    assert out.point is not None
    verify_outcome([[Q(1), Q(0)], [Q(0), Q(1)]], out)


def test_opposite_covectors_certificate():
    out = strict_feasibility([[1], [-1]])
    assert out.certificate is not None
    assert out.certificate[0] == out.certificate[1] > 0


def test_cyclic_contradiction_certificate():
    # x > y, y > z, z > x cannot all hold
    rows = [[Q(1), Q(-1), Q(0)], [Q(0), Q(1), Q(-1)], [Q(-1), Q(0), Q(1)]]
    out = strict_feasibility(rows)
    assert out.certificate is not None
    verify_outcome(rows, out)


def test_single_row_always_feasible():
    out = strict_feasibility([[3, -7, 2]])
    assert out.point is not None


small_rows = st.lists(
    st.lists(st.integers(min_value=-5, max_value=5).map(Q), min_size=3, max_size=3),
    min_size=1,
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(small_rows)
def test_dichotomy_property(rows):
    verify_outcome(rows, strict_feasibility(rows))


def test_mixed_identity_pin():
    pt = mixed_feasibility([], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, Q(1)))
    assert pt is not None
    assert pt[0] == 1 and pt[1] >= 0 and pt[2] >= 0


def test_mixed_equality_forces_coordinate():
    pt = mixed_feasibility([[1, 0]], [[1, 0], [0, 1]], (1, Q(1)))
    assert pt is not None
    assert pt[0] == 0 and pt[1] == 1


def test_mixed_contradiction():
    assert mixed_feasibility([[1, 0]], [[1, 0]], (0, Q(1))) is None


def test_mixed_exact_substitution():
    eq = [[1, -1, 0]]
    geq = [[1, 1, -2], [0, 0, 1]]
    pt = mixed_feasibility(eq, geq, (0, Q(3)))
    assert pt is not None
    assert pt[0] == pt[1]
    assert pt[0] + pt[1] - 2 * pt[2] == 3
    assert pt[2] >= 0
