"""The keyed group layer against the full-tuple routines it replaced.

``build`` names the elements of X by their images of coset 0 and the first
point of rho block 0, and every subgroup that X's spans make inherits that
base.  These tests evaluate the keyed member sets to full elements and
compare them, and the orders and Engel classes read off keys, with the
full-tuple Dimino, breadth-first enumeration and Engel scan kept in
``tests/oracles.py``.  Random groups, with a base that
``oracles.base_of_rows`` finds by scanning their elements, run the keyed
spans, stabilizers, intersections, quotients and scans against the same
routines on bases of one to three points.
"""

import pytest
from hypothesis import given, settings, strategies as st

from weakcomm import sidki
from weakcomm.errors import ArgumentError
from weakcomm.permgroups import Perm, PermGroup, quotient_realization
from weakcomm.presentations import parse_presentation

from . import oracles
from .conftest import SUITE_TEXT

BASES = {**SUITE_TEXT,
         "A4": "< a, b | a^2, b^3, (a*b)^3 >",
         "D8": "< r, s | r^8, s^2, (r*s)^2 >",
         "Q16": "< a, b | a^8, b^2*a^-4, b^-1*a*b*a >",
         "C4xC4": "< a, b | a^4, b^4, [a, b] >"}


@pytest.fixture(scope="module")
def doubles(realizations):
    built = dict(realizations)
    return lambda name: built.get(name) or built.setdefault(
        name, sidki.build(parse_presentation(BASES[name])))


@pytest.mark.parametrize("name", list(BASES))
def test_keyed_member_sets_match_the_full_tuple_spans(doubles, name):
    """L, D, W, DL and the split copy, evaluated from their keys, against
    full-tuple spans of their generators, and W against D n L."""
    x = doubles(name)
    X = x.X
    assert X.base == (0, X.degree - 3 * x.G.degree)
    split = X.subgroup(x.x_images)
    for group in (x.L, x.D, x.W, split):
        assert group.base == X.base
        gens, members = oracles.full_tuple_span(X, group.generators)
        assert gens == group.generators
        assert set(group.elements()) == members
        assert group.order() == len(members)
    assert set(x.W.elements()) == set(x.D.elements()) & set(x.L.elements())
    assert x.DL.order() == len(oracles.full_tuple_span(
        X, x.D.generators + x.L.generators)[1])
    assert split.order() == x.G.order()


@pytest.mark.parametrize("name", list(BASES))
def test_keyed_orders_and_engel_class_match_the_full_tuple_routines(doubles, name):
    """X breadth-first in the same order, its lower central series, and its
    minimal Engel class against the scan over a base found from all rows."""
    X = doubles(name).X
    assert X.elements() == oracles.full_tuple_elements(X)
    assert [t.order() for t in X.lower_central_series()] == \
        oracles.full_tuple_lower_central_orders(X)
    assert X.minimal_engel_class(cap=5) == oracles.rows_engel_class(X, cap=5)


def test_x_keys_its_elements_on_two_points():
    """Two elements of X agree on the base only when they are equal, and a
    key evaluates back to its element."""
    x = sidki.build(parse_presentation(BASES["D8"]))
    elements = x.X.elements()
    keys = [x.X.key(p) for p in elements]
    assert len(set(keys)) == len(elements) == x.X.order() == 2048
    assert all(len(k) == 2 for k in keys)
    element = x.X.evaluator()
    assert [element(k) for k in keys[::97]] == elements[::97]


def test_groups_on_different_bases_are_refused():
    """Keys on two bases name different things, so intersections and
    quotients refuse to mix them."""
    gens = [Perm([1, 2, 0, 3]), Perm([0, 1, 3, 2])]
    full, based = PermGroup(4, gens), PermGroup(4, gens, base=[0, 3])
    with pytest.raises(ArgumentError):
        based.intersection(full.subgroup(gens[:1]))
    with pytest.raises(ArgumentError):
        quotient_realization(based, full.subgroup([]))
    assert based.intersection(based.subgroup(gens[:1])).order() == 3


@st.composite
def _based_groups(draw):
    """A random permutation group, its elements breadth-first, and the same
    group carrying the base that base_of_rows finds (a point of its own
    when the group is trivial)."""
    degree = draw(st.integers(1, 6))
    gens = [Perm(draw(st.permutations(range(degree))))
            for _ in range(draw(st.integers(1, 3)))]
    full = PermGroup(degree, gens)
    elements = oracles.full_tuple_elements(full)
    base = oracles.base_of_rows([p.img for p in elements]) or [0]
    return full, elements, PermGroup(degree, gens, base=base)


@settings(max_examples=80, deadline=None)
@given(_based_groups(), st.data())
def test_keyed_spans_match_the_full_tuple_routines_on_random_bases(based, data):
    full, elements, group = based
    assert group.elements() == elements
    x, y = data.draw(st.sampled_from(elements)), data.draw(st.sampled_from(elements))
    for keyed in (group, full):     # a key on the base, and the image tuple itself
        element = keyed.evaluator()
        assert element(keyed.key(x)) == x
        assert element.at(keyed.key(x), keyed.key(y)) == keyed.key(y * x)
        assert element.with_inverse_key(keyed.key(x)) == (x, keyed.key(x.inverse()))
    sub = data.draw(st.lists(st.sampled_from(elements), max_size=3))
    gens, members = oracles.full_tuple_span(full, sub)
    span = group.subgroup(sub)
    assert span.generators == gens and set(span.elements()) == members
    normal = group.normal_closure(sub)
    assert set(normal.elements()) == oracles.full_tuple_normal_closure(full, sub)[1]
    other = group.from_elements(
        data.draw(st.lists(st.sampled_from(elements), max_size=3)))
    assert set(span.intersection(other).elements()) == members & set(other.elements())
    points = data.draw(st.lists(st.integers(0, full.degree - 1), min_size=1, max_size=2))
    assert set(group.pointwise_stabilizer(points).elements()) == \
        {p for p in elements if all(p.img[q] == q for q in points)}
    quotient, project = quotient_realization(group, normal)
    assert quotient.order() * normal.order() == len(elements)
    assert all(project(a * b) == project(a) * project(b)
               for a in full.generators for b in elements)
    assert [t.order() for t in group.lower_central_series()] == \
        oracles.full_tuple_lower_central_orders(full)
    assert group.minimal_engel_class(cap=3) == oracles.rows_engel_class(full, cap=3)
