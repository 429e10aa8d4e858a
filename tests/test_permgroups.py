import pytest
from hypothesis import given, settings, strategies as st

from weakcomm.enumerator import enumerate_cosets, perm_realization
from weakcomm.errors import ArgumentError, SizeGuardError
from weakcomm.permgroups import (GroupHom, Perm, PermGroup, abelian_invariants,
                                 block_perm, commutator, evaluate,
                                 quotient_realization, _base_of_rows)
from weakcomm.presentations import AllElements, parse_presentation, sidki_double
from weakcomm.sidki import build

from .oracles import (bfs_closure, closure, numpy_engel_class, pcompose,
                      pinverse, quaternion_group, s3_generators, word_kernel)


def element_matrix(group):
    return [p.img for p in group.elements()]


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
    elems = set(a3.elements())
    for g in s3.elements():
        for x in a3.generators:
            assert x.conjugate(g) in elems
    sub = s3.subgroup([s3.generators[0]])
    assert sub.order() == 2
    assert sub.order() <= a3.order() or True  # subgroup vs closure compared below
    closure_of_gen = s3.normal_closure([s3.generators[0]])
    assert closure_of_gen.order() == 6       # transpositions normally generate S3


def test_subgroups_come_back_closed(monkeypatch):
    s3 = s3_regular()
    a, b = s3.generators
    groups = [s3.subgroup([]), s3.subgroup([a]), s3.subgroup([a, b, a * b]),
              s3.from_elements(s3.elements()), s3.normal_closure([a * b])]
    products = 0
    real = Perm.__mul__

    def counting(p, q):
        nonlocal products
        products += 1
        return real(p, q)

    monkeypatch.setattr(Perm, "__mul__", counting)
    orders = [g.order() for g in groups]
    enumerated = [set(g.elements()) for g in groups]
    assert products == 0
    monkeypatch.undo()
    assert orders == [1, 2, 6, 6, 3]
    # the generators the closure before coset extension chose, and the
    # elements of a fresh enumeration from them
    closed = [[], [a], [a, b, a * b],
              sorted((p for p in s3.elements() if not p.is_identity()),
                     key=lambda p: p.img)]
    assert [g.generators for g in groups[:4]] == \
        [bfs_closure(s3, elems).generators for elems in closed]
    assert enumerated == [set(PermGroup(g.degree, g.generators).elements())
                          for g in groups]


RANDOM_ELEMENTS = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(RANDOM_ELEMENTS)
def test_span_matches_the_bfs_closure(elems):
    perms = [Perm(e) for e in elems]
    degree = len(elems[0])
    gens, members = PermGroup(degree, [])._span(perms)
    reference = bfs_closure(PermGroup(degree, []), perms)
    assert gens == reference.generators
    assert members == set(reference.elements())
    assert {p.img for p in members} == closure(elems)
    order = len(members)
    assert PermGroup(degree, [], guard=order)._span(perms)[1] == members
    if order > 1:
        with pytest.raises(SizeGuardError):
            PermGroup(degree, [], guard=order - 1)._span(perms)
        with pytest.raises(SizeGuardError):
            bfs_closure(PermGroup(degree, [], guard=order - 1), perms)


@settings(max_examples=40, deadline=None)
@given(RANDOM_ELEMENTS, st.data())
def test_normal_closure_is_the_span_of_all_conjugates(elems, data):
    group = PermGroup(len(elems[0]), [Perm(e) for e in elems])
    sub = [Perm(data.draw(st.sampled_from(sorted(closure(elems))))) for _ in range(2)]
    conjugates = [pcompose(pcompose(pinverse(g), s.img), g)
                  for s in sub for g in closure(elems)]
    assert set(p.img for p in group.normal_closure(sub).elements()) == closure(conjugates)


@settings(max_examples=60, deadline=None)
@given(RANDOM_ELEMENTS, st.data())
def test_pointwise_stabilizer_matches_the_filter(elems, data):
    degree = len(elems[0])
    points = data.draw(st.lists(st.integers(0, degree - 1), min_size=1, max_size=3))
    group = PermGroup(degree, [Perm(e) for e in elems])
    stabilizer = group.pointwise_stabilizer(points)
    assert group._elements is None
    fixed = {p for p in closure(elems) if all(p[q] == q for q in points)}
    assert stabilizer._elements is not None     # the members its span made
    assert {p.img for p in stabilizer.elements()} == fixed
    assert stabilizer.order() == len(fixed)
    assert all(g.img in fixed for g in stabilizer.generators)
    assert group.order() == len(closure(elems))   # by orbit-stabilizer


@settings(max_examples=300, deadline=None)
@given(RANDOM_ELEMENTS, st.data())
def test_a_span_is_normal_iff_the_conjugates_of_its_generators_stay_in_it(elems, data):
    """The criterion of build's L_subgroup_equals_normal_closure check: the
    conjugates of span(H)'s generators by the group's generators lie in
    span(H) iff span(H) is its own normal closure."""
    group = PermGroup(len(elems[0]), [Perm(e) for e in elems])
    sub = [Perm(p) for p in data.draw(
        st.lists(st.sampled_from(sorted(closure(elems))), max_size=3))]
    gens, members = group._span(sub)
    stays = all(g.inverse() * s * g in members for s in gens for g in group.generators)
    assert stays == (group.normal_closure(sub).order() == len(members))


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
    assert len(_base_of_rows(element_matrix(group))) == base_size


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)))
def test_engel_scan_matches_brute_force_on_random_groups(gens):
    group = PermGroup(len(gens[0]), [Perm(g) for g in gens])
    assert group.minimal_engel_class(cap=3) == brute_engel_class(gens, cap=3)


@pytest.mark.parametrize("name", ["C2xC2", "C4", "S3", "D4", "Q8"])
def test_engel_scan_matches_brute_force_on_suite_doubles(realizations, name):
    x = realizations[name].X
    gens = [g.img for g in x.generators]
    assert x.minimal_engel_class(cap=4) == brute_engel_class(gens, cap=4)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)))
def test_engel_scan_matches_the_numpy_scan_on_random_groups(gens):
    group = PermGroup(len(gens[0]), [Perm(g) for g in gens])
    assert group.minimal_engel_class(cap=3) == numpy_engel_class(group, cap=3)


@pytest.mark.parametrize("name", ["C2", "C3", "C2xC2", "C4", "S3", "D4", "Q8"])
def test_engel_scan_matches_the_numpy_scan_on_suite_doubles(realizations, name):
    x = realizations[name].X
    assert x.minimal_engel_class(cap=4) == numpy_engel_class(x, cap=4)


def test_engel_scan_matches_the_numpy_scan_on_the_double_of_d8():
    x = build(parse_presentation("< r, s | r^8, s^2, (r*s)^2 >")).X
    assert x.order() == 2048
    assert x.minimal_engel_class(cap=5) == numpy_engel_class(x, cap=5) == 4
    assert x.minimal_engel_class(cap=3) is numpy_engel_class(x, cap=3) is None


@pytest.mark.parametrize("gens", [
    D4_ON_4, S3xC2_ON_5, D4xC2_ON_6, D8_ON_8, s3_generators(),
    quaternion_group().regular_permutations(["i", "j"])])
def test_base_is_fixed_pointwise_only_by_the_identity(gens):
    group = PermGroup(len(gens[0]), [Perm(g) for g in gens])
    base = _base_of_rows(element_matrix(group))
    fixers = [p for p in closure(gens) if all(p[b] == b for b in base)]
    assert fixers == [tuple(range(len(gens[0])))]


def test_base_of_a_regular_group_is_one_point():
    assert _base_of_rows(element_matrix(s3_regular())) == [0]
    assert _base_of_rows(element_matrix(q8_from_table()[0])) == [0]


def test_hom_kernel_image_orders():
    s3 = s3_regular()
    sign_images = [Perm([1, 0]), Perm([1, 0])]   # both involutions are odd
    hom = GroupHom(s3, PermGroup(2, sign_images), sign_images)
    assert hom.kernel().order() * hom.target.order() == s3.order()   # onto
    # the kernel off the graph group against the one off defining words
    assert set(hom.kernel().elements()) == word_kernel(hom)
    assert hom.kernel().generators == s3.from_elements(word_kernel(hom)).generators
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


def test_order_past_the_guard_is_read_off_a_stabilizer():
    """An order is counted from the elements within the guard; past it,
    order() raises until pointwise_stabilizer reads the order off by
    orbit-stabilizer."""
    assert PermGroup(3, [Perm(p) for p in s3_generators()]).order() == 6
    cycle = Perm([1, 2, 3, 4, 0])
    for other, guard, order in ((Perm([1, 2, 0, 3, 4]), 12, 60),    # A5
                                (Perm([1, 0, 2, 3, 4]), 24, 120)):  # S5
        group = PermGroup(5, [cycle, other], guard=guard)
        with pytest.raises(SizeGuardError):
            group.order()
        assert group.pointwise_stabilizer([0]).order() == guard
        assert group.order() == order


def test_block_perm_and_evaluate():
    p = Perm([1, 0])
    q = Perm([0, 2, 1])
    b = block_perm([p, q])
    assert b.img == (1, 0, 2, 4, 3)
    assert evaluate([p], [1, 1], 2).is_identity()
    assert evaluate([p], [-1], 2) == p.inverse()
