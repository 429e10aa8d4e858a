"""The orders of X, L, D and W against sympy's Schreier-Sims.

sympy's ``PermutationGroup`` on X's generators is an independent
implementation of the stabilizer chain: L, D and W are its pointwise
stabilizers of the first points of rho block 1, of blocks 0 and 2, and of
all three blocks, as ``build`` defines them.  The module skips itself when
sympy is not installed; sympy is a test extra, never a dependency.
"""

import pytest

from weakcomm import sidki
from weakcomm.presentations import parse_presentation

from .conftest import SUITE_TEXT

combinatorics = pytest.importorskip("sympy.combinatorics")

BASES = {**SUITE_TEXT,
         "D5": "< r, s | r^5, s^2, (r*s)^2 >",
         "C2xC4": "< a, b | a^2, b^4, [a, b] >",
         "A4": "< a, b | a^2, b^3, (a*b)^3 >",
         "D8": "< r, s | r^8, s^2, (r*s)^2 >",
         "S4": "< a, b | a^2, b^3, (a*b)^4 >",
         "Q16": "< a, b | a^8, b^2*a^-4, b^-1*a*b*a >",
         "C4xC4": "< a, b | a^4, b^4, [a, b] >"}


@pytest.mark.parametrize("name", list(BASES))
def test_orders_match_sympy(realizations, name):
    x = realizations.get(name) or sidki.build(parse_presentation(BASES[name]))
    X = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.img)) for g in x.X.generators])
    index, gdeg = x.X.degree - 3 * x.G.degree, x.G.degree
    first = [index, index + gdeg, index + 2 * gdeg]   # first point of each rho block
    assert X.order() == x.X.order()
    assert X.pointwise_stabilizer([first[1]]).order() == x.L.order()
    assert X.pointwise_stabilizer([first[0], first[2]]).order() == x.D.order()
    assert X.pointwise_stabilizer(first).order() == x.W.order()
