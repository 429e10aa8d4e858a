import math

import pytest
from hypothesis import given, settings, strategies as st

from weakcomm.errors import ArgumentError
from weakcomm.intlinalg import (FinAbGroup, IntMatrix, cokernel,
                                smith_normal_form, tensor)

from .oracles import cyclic_tensor_invariants, det_laplace, direct_sum, minors_gcd

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def test_snf_identity_and_zero():
    ident = IntMatrix.identity(3)
    _, d, _ = smith_normal_form(ident)
    assert d == ident
    zero = IntMatrix.zero(2, 3)
    _, d, _ = smith_normal_form(zero)
    assert d == zero


def test_snf_worked_example():
    # oracle: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
    m = [[2, 4], [6, 8]]
    assert minors_gcd(m, 1) == 2
    assert minors_gcd(m, 2) == 8
    u, d, v = smith_normal_form(IntMatrix(m))
    assert [d.data[0][0], d.data[1][1]] == [2, 4]
    assert (u @ IntMatrix(m) @ v) == d
    assert abs(det_laplace(u.data)) == 1 and abs(det_laplace(v.data)) == 1


@settings(max_examples=150)
@given(small_matrices)
def test_snf_invariants_random(rows):
    m = IntMatrix(rows)
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v) == d
    assert abs(det_laplace(u.data)) == 1 and abs(det_laplace(v.data)) == 1
    diag = [d.data[i][i] for i in range(min(m.rows, m.cols))]
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d.data[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    # product of the first k diagonal entries = gcd of k x k minors
    prod = 1
    for k, dk in enumerate(diag, start=1):
        prod *= dk
        assert prod == minors_gcd(rows, k)


@settings(max_examples=60)
@given(small_matrices, st.randoms(use_true_random=False))
def test_cokernel_invariant_under_unimodular_moves(rows, rnd):
    m = IntMatrix(rows)
    before = cokernel(m)
    # random elementary row and column operations
    a = m.copy()
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
