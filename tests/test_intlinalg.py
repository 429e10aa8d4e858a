import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from weakcomm.errors import ArgumentError
from weakcomm.intlinalg import (FinAbGroup, IntMatrix, cokernel, hermite_basis,
                                smith_normal_form, tensor)

from .oracles import (cyclic_tensor_invariants, det_laplace, direct_sum,
                      full_smith_normal_form, minors_gcd)

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r, max_size=r)))
wide_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 7).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


# cokernels Z/6 x Z/60 x Z and 0: a Smith form run on the full matrix,
# without the Hermite pass, took seconds on the first and ran past two
# minutes on the second
SLOW_9X11 = [[0, -12, 24, 0, 0, 17, 0, 0, -25, 0, 0],
             [3, -7, 0, 0, -11, 0, 0, 0, 0, 0, 0],
             [0, 0, 0, 0, 0, 0, 0, 30, 0, 0, 0],
             [0] * 11,
             [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -11],
             [-9, 0, 0, 0, 8, 0, 0, 0, 0, -2, 0],
             [10, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0],
             [0, 0, 0, 0, 27, 0, 0, 0, -17, 0, 0],
             [30, -12, 0, 9, 0, 0, 0, 0, -9, 0, 0]]
SLOW_6X7 = [[-8, 6, 3, 2, 3, 7, -4], [8, -8, 7, -7, -1, -6, -1],
            [-7, -5, -7, 5, -2, 3, 4], [3, -4, 1, 5, -5, 6, -3],
            [-6, 4, 8, 4, -6, 0, -1], [-2, 3, 8, -9, -3, 7, 5]]


def assert_smith_form(rows):
    """U is unimodular, d is a divisibility chain, every column of U m lies
    in the sum of the d_i Z (zero where d_i = 0), and the product of the
    first k entries of d is the gcd of the k x k minors of m.  Together
    these say U m V = diag(d) for some unimodular V."""
    m = IntMatrix(rows)
    u, d = smith_normal_form(m)
    assert abs(det_laplace(u.data)) == 1
    assert len(d) == m.rows
    for a, b in zip(d, d[1:]):
        assert b % a == 0 if a else b == 0
    for row, di in zip((u @ m).data, d):
        assert all(x % di == 0 if di else x == 0 for x in row)
    prod = 1
    for k, dk in enumerate(d, start=1):
        prod *= dk
        assert prod == minors_gcd(rows, k)
    return u, d


def test_snf_identity_and_zero():
    assert assert_smith_form(IntMatrix.identity(3).data)[1] == [1, 1, 1]
    u, d = assert_smith_form(IntMatrix.zero(2, 3).data)
    assert u == IntMatrix.identity(2) and d == [0, 0]


def test_snf_worked_example():
    # oracle: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
    m = [[2, 4], [6, 8]]
    assert minors_gcd(m, 1) == 2
    assert minors_gcd(m, 2) == 8
    assert assert_smith_form(m)[1] == [2, 4]


@settings(max_examples=150, deadline=None)
@given(wide_matrices)
def test_snf_invariants_random(rows):
    assert_smith_form(rows)


@settings(max_examples=150)
@given(small_matrices)
def test_snf_diagonal_matches_the_full_smith_form(rows):
    m = IntMatrix(rows)
    _, d = smith_normal_form(m)
    _, full, _ = full_smith_normal_form(m)
    diag = [full.data[i][i] for i in range(min(m.rows, m.cols))]
    assert d == diag + [0] * (m.rows - len(diag))


@pytest.mark.parametrize("rows,group", [(SLOW_9X11, FinAbGroup((6, 60), 1)),
                                        (SLOW_6X7, FinAbGroup())])
def test_snf_stays_fast_and_small_on_slow_matrices(rows, group):
    start = time.perf_counter()
    u, _ = smith_normal_form(IntMatrix(rows))
    assert time.perf_counter() - start < 1
    assert max(abs(x) for row in u.data for x in row).bit_length() < 64
    assert_smith_form(rows)
    assert cokernel(IntMatrix(rows)) == group


@settings(max_examples=60, deadline=None)
@given(wide_matrices)
def test_hermite_basis_is_an_echelon_basis_of_the_column_lattice(rows):
    m = IntMatrix(rows)
    basis = hermite_basis(map(m.column, range(m.cols)), m.rows)
    pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
    assert pivots == sorted(set(pivots))
    # every column of m is an integer combination of the basis ...
    for j in range(m.cols):
        c = m.column(j)
        for b, p in zip(basis, pivots):
            q, rem = divmod(c[p], b[p])
            assert rem == 0
            c = [x - q * y for x, y in zip(c, b)]
        assert not any(c)
    # ... and the basis spans no more: same rank, same gcd of maximal minors
    r = len(basis)
    assert minors_gcd(rows, r + 1) == 0
    if r:
        assert minors_gcd(IntMatrix.from_columns(basis, m.rows).data, r) == \
            minors_gcd(rows, r)


@settings(max_examples=60)
@given(small_matrices, st.randoms(use_true_random=False))
def test_cokernel_invariant_under_unimodular_moves(rows, rnd):
    m = IntMatrix(rows)
    before = cokernel(m)
    # random elementary row and column operations
    a = IntMatrix([row[:] for row in m.data])
    for _ in range(6):
        i, j = rnd.randrange(a.rows), rnd.randrange(a.rows)
        c = rnd.randrange(-2, 3)
        if i != j:
            for col in range(a.cols):
                a.data[i][col] += c * a.data[j][col]
        p, q = rnd.randrange(a.cols), rnd.randrange(a.cols)
        if p != q:
            for row in a.data:
                row[p] += c * row[q]
    assert cokernel(a) == before


def test_cokernel_examples():
    assert cokernel(IntMatrix([[3]])) == FinAbGroup((3,))
    assert cokernel(IntMatrix.zero(2, 1)) == FinAbGroup((), 2)
    assert str(FinAbGroup((2, 4), 1)) == "Z/2 x Z/4 x Z"


def test_tensor_examples():
    assert tensor(FinAbGroup((2,)), FinAbGroup((3,))).is_trivial()
    a = FinAbGroup((2, 4), 1)
    assert tensor(FinAbGroup((), 1), a) == a
    assert tensor(FinAbGroup((4,)), FinAbGroup((6,))) == FinAbGroup((2,))


@pytest.mark.parametrize("m,n", [(2, 3), (4, 6), (6, 4), (2, 2), (6, 6), (5, 3)])
def test_tensor_cyclic_against_bilinear_table(m, n):
    inv = cyclic_tensor_invariants(m, n)
    got = tensor(FinAbGroup((m,)), FinAbGroup((n,)))
    assert got.invariant_factors == inv
    assert got.free_rank == 0


groups = st.builds(
    lambda orders, free: FinAbGroup.from_orders(orders, free),
    st.lists(st.integers(1, 12), max_size=3), st.integers(0, 2))


@given(groups, groups)
def test_tensor_symmetric(a, b):
    assert tensor(a, b) == tensor(b, a)


@given(groups, groups, groups)
def test_tensor_distributes_over_direct_sum(a, b, c):
    assert tensor(direct_sum(a, b), c) == direct_sum(tensor(a, c), tensor(b, c))


def test_fin_ab_group_validation():
    with pytest.raises(ArgumentError):
        FinAbGroup((4, 2))
    with pytest.raises(ArgumentError):
        FinAbGroup((1,))
    assert FinAbGroup.from_orders([4, 2]) == FinAbGroup((2, 4))
    assert FinAbGroup.from_orders([2, 3]) == FinAbGroup((6,))
    assert FinAbGroup((2,)).order() == 2
    assert FinAbGroup((), 1).order() is None
    assert FinAbGroup((2, 6)).exponent() == 6


def test_matrix_helpers():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.apply([1, 1]) == [3, 7]
    with pytest.raises(ArgumentError):
        IntMatrix([[1], [2, 3]])
