"""Exact linear algebra checks against hand values and random properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from msarr.fields import Q, Qrt5, PHI
from msarr.linalg import Mat, det, rank, rref, kernel_basis
from oracles import in_span, reduce_against


def small_matrix(n_rows, n_cols):
    entry = st.integers(min_value=-9, max_value=9).map(Q)
    return st.lists(
        st.lists(entry, min_size=n_cols, max_size=n_cols),
        min_size=n_rows,
        max_size=n_rows,
    )


def test_det_hand_values():
    assert det([[Q(2)]]) == Q(2)
    assert det([[1, 2], [3, 4]]) == Q(-2)
    # 2x2 minor of the moment curve with parameters 1 and 2: det [[1,1],[1,2]]
    assert det([[1, 1], [1, 2]]) == Q(1)
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == Q(0)


def test_det_repeated_row_is_zero():
    assert det([[5, 7, 1], [5, 7, 1], [0, 2, 3]]) == 0


def test_det_quadratic_field():
    # det [[phi, 1], [1, phi]] = phi^2 - 1 = phi
    assert det([[PHI, Qrt5(Q(1), Q(0))], [Qrt5(Q(1), Q(0)), PHI]]) == PHI


def test_det_requires_square():
    import pytest

    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=60, deadline=None)
@given(small_matrix(3, 3))
def test_row_swap_negates_det(rows):
    swapped = [rows[1], rows[0], rows[2]]
    assert det(swapped) == -det(rows)


@settings(max_examples=60, deadline=None)
@given(small_matrix(3, 4))
def test_rank_nullity(rows):
    assert rank(rows) + len(kernel_basis(rows)) == 4


@settings(max_examples=60, deadline=None)
@given(small_matrix(3, 4))
def test_kernel_vectors_annihilate(rows):
    for v in kernel_basis(rows):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_rref_identity_block():
    rows, pivots = rref([[2, 0, 4], [0, 3, 9]])
    assert pivots == (0, 1)
    assert rows == ((Q(1), Q(0), Q(2)), (Q(0), Q(1), Q(3)))


def test_rref_is_canonical_for_a_subspace():
    # two different spanning sets of the same plane yield the same rref
    a, pa = rref([[1, 1, 0], [0, 1, 1]])
    b, pb = rref([[2, 3, 1], [1, 2, 1]])
    assert (a, pa) == (b, pb)


def test_rref_hashable():
    rows, pivots = rref([[1, 2], [3, 4]])
    hash((rows, pivots))


def test_in_span_and_reduce():
    rows, pivots = rref([[1, 0, 1], [0, 1, 1]])
    assert in_span([2, 3, 5], rows, pivots)
    assert not in_span([1, 0, 0], rows, pivots)
    res = reduce_against([2, 3, 4], rows, pivots)
    assert res == [Q(0), Q(0), Q(-1)]


def test_mat_basics():
    m = Mat([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.col(1) == [Q(2), Q(4)]
    assert m.transpose().entries == [[Q(1), Q(3)], [Q(2), Q(4)]]
    assert Mat.from_strings(m.to_strings()) == m


def test_mat_rejects_ragged():
    import pytest

    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])
