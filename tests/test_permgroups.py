import random

import pytest
from hypothesis import given, settings, strategies as st

from weakcomm.enumerator import enumerate_cosets, perm_realization
from weakcomm.errors import ArgumentError, SizeGuardError
from weakcomm.permgroups import (GroupHom, Perm, PermGroup, abelian_invariants,
                                 block_perm, commutator, evaluate,
                                 quotient_realization, _base_of_rows,
                                 _chain_order)
from weakcomm.presentations import AllElements, parse_presentation, sidki_double

from .oracles import (closure, pcompose, pinverse, quaternion_group,
                      s3_generators)


def s3_regular():
    return perm_realization(enumerate_cosets(
        parse_presentation("< a, b | a^2, b^2, (a*b)^3 >"), []))


def q8_from_table():
    table = quaternion_group()
    perms = table.regular_permutations(["i", "j"])
    return PermGroup(8, [Perm(p) for p in perms]), table


def test_perm_basics():
    p = Perm([1, 2, 0])
    q = Perm([1, 0, 2])
    assert (p * q).img == tuple(q.img[x] for x in p.img)
    assert (p * p.inverse()).is_identity()
    assert p.order() == 3 and q.order() == 2
    assert (p ** -1) == p.inverse()
    assert p.conjugate(q) == q.inverse() * p * q
    assert repr(Perm([0, 1])) == "()"


def test_orders():
    assert PermGroup.trivial(3).order() == 1
    assert s3_regular().order() == 6
    xc2 = perm_realization(enumerate_cosets(
        sidki_double(parse_presentation("< a | a^2 >"), AllElements()), []))
    assert xc2.order() == 4
    assert xc2.is_abelian()


def test_elements_guard():
    g = s3_regular()
    with pytest.raises(SizeGuardError):
        g.elements(guard=3)


def test_center_of_quaternion_group():
    q8, table = q8_from_table()
    # oracle: exhaustive commuting check over the multiplication table
    assert table.center() == {"1", "-1"}
    assert q8.center().order() == 2


def test_derived_and_intersection():
    q8, table = q8_from_table()
    derived = q8.derived_subgroup()
    assert derived.order() == 2          # {1, -1}
    abelian = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2])])
    assert abelian.derived_subgroup().order() == 1
    assert q8.intersection(q8).order() == q8.order()


def test_lower_central_series_and_nilpotency():
    c4 = PermGroup(4, [Perm([1, 2, 3, 0])])
    assert c4.nilpotency_class() == 1
    q8, table = q8_from_table()
    # oracle: brute-force series over the multiplication table
    sizes = [len(t) for t in table.lower_central_series()]
    assert sizes == [8, 2, 1]
    assert q8.nilpotency_class() == 2
    series = q8.lower_central_series()
    orders = [t.order() for t in series]
    assert orders == sorted(orders, reverse=True)
    s3 = s3_regular()
    assert s3.nilpotency_class() is None
    assert s3.lower_central_series()[-1].order() == 3   # stabilizes at the 3-cycle part
    assert PermGroup.trivial(2).nilpotency_class() == 0


def test_is_perfect():
    assert not s3_regular().is_perfect()
    a5 = PermGroup(5, [Perm([1, 2, 3, 4, 0]), Perm([1, 2, 0, 3, 4])])
    assert a5.order() == 60
    assert a5.is_perfect()


def test_normal_closure_conjugation_invariant():
    s3 = s3_regular()
    a3 = s3.normal_closure([s3.generators[0] * s3.generators[1]])
    assert a3.order() == 3
    rng = random.Random(5)
    elems = set(a3.elements())
    for _ in range(20):
        g = s3.random_element(rng)
        for x in a3.generators:
            assert x.conjugate(g) in elems
    sub = s3.subgroup([s3.generators[0]])
    assert sub.order() == 2
    assert sub.order() <= a3.order() or True  # subgroup vs closure compared below
    closure_of_gen = s3.normal_closure([s3.generators[0]])
    assert closure_of_gen.order() == 6       # transpositions normally generate S3


def test_engel_checks():
    abelian = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2])])
    assert abelian.minimal_engel_class(cap=3) == 1
    q8, _ = q8_from_table()
    assert not q8.is_n_engel(1)
    assert q8.is_n_engel(2)
    assert q8.minimal_engel_class(cap=5) == 2
    s3 = s3_regular()
    # oracle: the chain starting at ([c, t]) is constant and nontrivial
    a, b = s3.generators
    c = a * b       # order 3
    gamma = commutator(c, a)
    seen = set()
    while gamma not in seen:
        seen.add(gamma)
        gamma = commutator(gamma, a)
    assert not any(g.is_identity() for g in seen)
    assert s3.minimal_engel_class(cap=12) is None
    with pytest.raises(SizeGuardError):
        s3.is_n_engel(2, guard=3)
    with pytest.raises(ArgumentError):
        s3.is_n_engel(0)


@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_perm_product_matches_oracle(pq):
    p, q = pq
    prod = Perm(p) * Perm(q)
    assert prod.img == pcompose(p, q)
    assert type(prod.img) is tuple


def brute_engel_class(gens, cap):
    """Least n <= cap with [x, y, ..., y] (n times y) trivial for every
    ordered pair of elements, or None; straight from the definition."""
    elems = closure(gens)
    ident = tuple(range(len(gens[0])))
    worst = 1
    for x in elems:
        for y in elems:
            g = x
            for k in range(1, cap + 1):
                g = pcompose(pcompose(pinverse(g), pinverse(y)), pcompose(g, y))
                if g == ident:
                    break
            else:
                return None
            worst = max(worst, k)
    return worst


D4_ON_4 = [(1, 2, 3, 0), (0, 3, 2, 1)]
S3xC2_ON_5 = [(1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (0, 1, 2, 4, 3)]
D4xC2_ON_6 = [g + (4, 5) for g in D4_ON_4] + [(0, 1, 2, 3, 5, 4)]
D8_ON_8 = [tuple((i + 1) % 8 for i in range(8)), tuple(-i % 8 for i in range(8))]


@pytest.mark.parametrize("gens, base_size, engel", [
    (D4_ON_4, 2, 2), (S3xC2_ON_5, 3, None), (D4xC2_ON_6, 3, 2), (D8_ON_8, 2, 3)])
def test_engel_scan_matches_brute_force(gens, base_size, engel):
    group = PermGroup(len(gens[0]), [Perm(g) for g in gens])
    assert brute_engel_class(gens, cap=4) == engel
    assert group.minimal_engel_class(cap=4) == engel
    for n in range(1, 5):
        assert group.is_n_engel(n) == (engel is not None and engel <= n)
    assert len(_base_of_rows(group._element_matrix())) == base_size


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)))
def test_engel_scan_matches_brute_force_on_random_groups(gens):
    group = PermGroup(len(gens[0]), [Perm(g) for g in gens])
    assert group.minimal_engel_class(cap=3) == brute_engel_class(gens, cap=3)


@pytest.mark.parametrize("gens", [
    D4_ON_4, S3xC2_ON_5, D4xC2_ON_6, D8_ON_8, s3_generators(),
    quaternion_group().regular_permutations(["i", "j"])])
def test_base_is_fixed_pointwise_only_by_the_identity(gens):
    group = PermGroup(len(gens[0]), [Perm(g) for g in gens])
    base = _base_of_rows(group._element_matrix())
    fixers = [p for p in closure(gens) if all(p[b] == b for b in base)]
    assert fixers == [tuple(range(len(gens[0])))]


def test_base_of_a_regular_group_is_one_point():
    assert _base_of_rows(s3_regular()._element_matrix()) == [0]
    assert _base_of_rows(q8_from_table()[0]._element_matrix()) == [0]


def test_hom_kernel_image_orders():
    s3 = s3_regular()
    sign_images = [Perm([1, 0]), Perm([1, 0])]   # both involutions are odd
    hom = GroupHom(s3, PermGroup(2, sign_images), sign_images)
    assert hom.kernel().order() * hom.image().order() == s3.order()
    with pytest.raises(ArgumentError):
        # a -> (01), b -> id violates (a*b)^3 = 1
        GroupHom(s3, PermGroup(2, sign_images), [Perm([1, 0]), Perm([0, 1])],
                 relators=[(1, 2, 1, 2, 1, 2)])


def test_quotient_realization():
    s3 = s3_regular()
    a3 = s3.normal_closure([s3.generators[0] * s3.generators[1]])
    quot, project = quotient_realization(s3, a3)
    assert quot.order() == 2
    assert project(s3.generators[0]).order() == 2
    q8, _ = q8_from_table()
    center = q8.center()
    quot, _ = quotient_realization(q8, center)
    assert abelian_invariants(quot) == (2, 2)


def test_abelian_invariants():
    c6 = PermGroup(6, [Perm([1, 2, 3, 4, 5, 0])])
    assert abelian_invariants(c6) == (6,)
    c2xc4 = PermGroup(6, [Perm([1, 0, 2, 3, 4, 5]),
                          Perm([0, 1, 3, 4, 5, 2])])
    assert abelian_invariants(c2xc4) == (2, 4)
    with pytest.raises(ArgumentError):
        abelian_invariants(s3_regular())


def test_stabilizer_chain_orders():
    assert _chain_order([Perm(p) for p in s3_generators()], 3) == 6
    a5_gens = [Perm([1, 2, 3, 4, 0]), Perm([1, 2, 0, 3, 4])]
    assert _chain_order(a5_gens, 5) == 60
    # force the chain path through a tiny guard
    g = PermGroup(5, a5_gens, guard=2)
    assert g.order() == 60
    s5 = PermGroup(5, [Perm([1, 2, 3, 4, 0]), Perm([1, 0, 2, 3, 4])], guard=2)
    assert s5.order() == 120


def test_block_perm_and_evaluate():
    p = Perm([1, 0])
    q = Perm([0, 2, 1])
    b = block_perm([p, q])
    assert b.img == (1, 0, 2, 4, 3)
    assert evaluate([p], [1, 1], 2).is_identity()
    assert evaluate([p], [-1], 2) == p.inverse()
