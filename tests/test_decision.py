import random

import pytest
from hypothesis import given, settings, strategies as st

from weakcomm import decision
from weakcomm.decision import (FiniteRealizationOracle, FreeAbelianOracle,
                               FreeGroupOracle, Verdict, WPOracle, WPSetup,
                               ball_sizes, growth_classifier,
                               oracle_for_presentation, xg_word_problem)
from weakcomm.enumerator import enumerate_cosets, signed_letters
from weakcomm.errors import ArgumentError, WeakcommError
from weakcomm.permgroups import evaluate
from weakcomm.presentations import (AllElements, LengthBound,
                                    parse_presentation, sidki_double)
from weakcomm.words import GenSymbol, Word, parse_word, reduced_words

from .oracles import word_ball_sizes


def make_setup(text):
    base = parse_presentation(text)
    double = sidki_double(base, AllElements())
    oracle, kind = oracle_for_presentation(base)
    return WPSetup(base, oracle, double), double


def test_oracle_selection():
    assert oracle_for_presentation(parse_presentation("< a | >"))[1] == "free"
    assert oracle_for_presentation(parse_presentation("< a,b | [a,b] >"))[1] == \
        "free-abelian"
    dz = sidki_double(parse_presentation("< a | >"), LengthBound(2))
    oracle, kind = oracle_for_presentation(dz)
    assert kind == "free-abelian"       # the doubled infinite cyclic group
    assert oracle.is_trivial(parse_word("[a, a~]", dz.generators))
    assert not oracle.is_trivial(parse_word("a * a~", dz.generators))
    assert oracle_for_presentation(parse_presentation("< a | a^3 >"))[1] == "finite"


def test_free_group_oracle():
    o = FreeGroupOracle([GenSymbol("a"), GenSymbol("b")])
    assert o.is_trivial(parse_word("a*a^-1"))
    assert not o.is_trivial(parse_word("[a,b]"))
    assert o.normal_form(parse_word("a*b")) == o.normal_form(parse_word("a*b*b^-1*b"))
    assert o.normal_form(parse_word("a*b")) != o.normal_form(parse_word("b*a"))
    # a letter outside the alphabet keeps its own code
    assert o.normal_form(parse_word("c*b*b^-1")) == o.normal_form(parse_word("c"))
    assert o.normal_form(parse_word("c")) not in (
        o.normal_form(parse_word("c^-1")), o.normal_form(parse_word("a")),
        o.normal_form(parse_word("b")))


def test_xg_word_problem_examples():
    setup, double = make_setup("< a | a^2 >")
    rel = parse_word("[a, a~]", double.generators)
    v = xg_word_problem(setup, rel)
    assert v.value == "trivial" and v.reason == "explicit area certificate"
    mixed = parse_word("a * a~", double.generators)
    v = xg_word_problem(setup, mixed)
    assert v.value == "nontrivial"
    assert v.reason == "rho coordinate nontrivial"
    assert v.is_trivial() is False
    with pytest.raises(ArgumentError):
        xg_word_problem(setup, Word([GenSymbol("z")]))


def test_xg_commuting_subgroup_word_in_s3_double():
    """[letter difference, commutator of the two copies]: trivial because the
    two kernels commute elementwise."""
    setup, double = make_setup("< a, b | a^2, b^2, (a*b)^3 >")
    w = parse_word("[a^-1 * a~, [a, b~]]", double.generators)
    v = xg_word_problem(setup, w)
    assert v.value == "trivial"


def test_xg_kernel_nontrivial_word():
    setup, double = make_setup("< a, b | a^2, b^2, (a*b)^3 >")
    # l_a * l_b has trivial rho image? no: rho(l_a l_b) first coord a^-1 b^-1
    w = parse_word("l_a * l_b", double.generators)
    v = xg_word_problem(setup, w)
    assert v.value == "nontrivial"


def test_stage_two_verdict_does_not_depend_on_the_cached_table():
    """The call that enumerates the double's table and a later call that
    reads the cached table give the same witness."""
    setup, double = make_setup("< a, b | a^2, b^2, [a, b] >")
    w = parse_word("a^-1*b^-1*a^-1*a~*b*a~", double.generators)
    first = xg_word_problem(setup, w)
    assert setup.faithful is not None
    second = xg_word_problem(setup, w)
    assert first.value == second.value == "nontrivial"
    assert first.reason == second.reason == "faithful enumeration of the double"
    assert first.witness == second.witness == {"n_cosets": 32, "image_order": 2}
    trivial = parse_word("[a, b~]^2", double.generators)
    assert xg_word_problem(setup, trivial).witness == {"n_cosets": 32}


def test_faithful_image_order_is_the_order_of_the_image():
    """On a regular table the action is free, so the cycle of a word through
    coset 0 is as long as the order of its whole image."""
    _, double = make_setup("< a, b | a^2, b^2, (a*b)^3 >")
    table = enumerate_cosets(double, [])
    for w in reduced_words(double.generators, 3):
        verdict = decision._faithful_verdict(table, w, {})
        assert verdict.witness.get("image_order", 1) == \
            table.word_image_unchecked(w).order()


def test_a_coset_quotient_decides_a_kernel_word():
    """A member of ker rho in X(A4), of order 1152: at lap 2 the full
    enumeration overflows its budget of 1024 cosets, and the 576 cosets of
    <a> tell the word from 1."""
    setup, double = make_setup("< a, b | a^2, b^3, (a*b)^3 >")
    w = parse_word("a^-1*b*a^-1*b^-1*a^-1*a~*b*a*b^-1*a~", double.generators)
    v = xg_word_problem(setup, w)
    assert (v.value, v.reason, v.witness) == (
        "nontrivial", "nontrivial in a coset quotient",
        {"quotient": "cosets-of-<a>", "index": 576})
    assert setup.faithful is None
    assert xg_word_problem(setup, w) == v       # again, on the kept quotients
    assert not enumerate_cosets(double, []).is_trivial_word(w)


def test_a_symmetric_group_image_decides_a_kernel_word():
    """Over the len:1 double of the free group F2 no coset quotient closes
    within the budget, and a random image in S4 tells [ab, ~a~b] from 1."""
    base = parse_presentation("< a, b | >")
    double = sidki_double(base, LengthBound(1))
    setup = WPSetup(base, oracle_for_presentation(base)[0], double)
    w = parse_word("[a*b, a~*b~]", double.generators)
    v = xg_word_problem(setup, w)
    assert (v.value, v.reason, v.witness) == (
        "nontrivial", "nontrivial in a symmetric-group image", {"degree": 4})
    assert setup.partial_quotients == []
    # the first image that moves w is a homomorphism: it kills every relator
    code = signed_letters(double, w)
    degree, images = next((d, im) for d, im in setup.random_quotients
                          if not evaluate(im, code, d).is_identity())
    assert degree == 4
    assert all(evaluate(images, signed_letters(double, r), 4).is_identity()
               for r in double.relators)


def test_a_kernel_word_beyond_every_search_ends_unknown():
    """[a^2, a~^2] is trivial in X(Z) = Z^2 but has area 4, beyond the area
    search's 3; Z^2 is infinite and every image of it abelian, so the search
    stops at lap 2, whose enumeration budget reaches the whole budget."""
    base = parse_presentation("< a | >")
    double = sidki_double(base, LengthBound(1))
    setup = WPSetup(base, oracle_for_presentation(base)[0], double)
    v = xg_word_problem(setup, parse_word("[a^2, a~^2]", double.generators),
                        budget=1024)
    assert (v.value, v.budget_spent) == ("unknown", {"area_laps": 3, "enum_budget": 1024})


def test_verdict_unknown_raises_on_use():
    v = Verdict("unknown", "budgets exhausted")
    with pytest.raises(WeakcommError):
        v.is_trivial()


def test_budget_exhaustion_yields_unknown():
    setup, double = make_setup("< a | a^2 >")
    # trivial kernel word out of reach of tiny area bounds and a coset budget
    # too small for the double to close
    w = parse_word("(a*a~)^2", double.generators)
    v = xg_word_problem(setup, w, budget=3)
    assert v.value == "unknown"
    assert v.budget_spent["enum_budget"] <= 3
    # the same word resolves once the budget admits the full enumeration
    fresh, _ = make_setup("< a | a^2 >")
    assert xg_word_problem(fresh, w, budget=10_000).value == "trivial"


def test_soundness_against_realization_short_words():
    setup, double = make_setup("< a | a^2 >")
    table = enumerate_cosets(double, [])
    letters = []
    for g in double.generators:
        letters.append(GenSymbol(g.name, g.bar, 1))
        letters.append(GenSymbol(g.name, g.bar, -1))

    mismatches = []

    def walk(seq, depth):
        w = Word(seq)
        verdict = xg_word_problem(setup, w)
        expected = "trivial" if table.is_trivial_word(w) else "nontrivial"
        if verdict.value != expected:
            mismatches.append(w)
        if depth == 5:
            return
        for l in letters:
            if seq and seq[-1].same_generator(l) and seq[-1].sign == -l.sign:
                continue
            walk(seq + [l], depth + 1)

    walk([], 0)
    assert not mismatches


def test_ball_sizes_taxicab():
    z2 = parse_presentation("< a, b | [a,b] >")
    oracle, _ = oracle_for_presentation(z2)
    gens = [parse_word("a", z2.generators), parse_word("b", z2.generators)]
    sizes = ball_sizes(gens, oracle, 8)
    assert sizes == [2 * n * n + 2 * n + 1 for n in range(9)]


def test_ball_sizes_generator_order_independent():
    z2 = parse_presentation("< a, b | [a,b] >")
    oracle, _ = oracle_for_presentation(z2)
    a, b = (parse_word(t, z2.generators) for t in ("a", "b"))
    assert ball_sizes([a, b], oracle, 5) == ball_sizes([b, a], oracle, 5)
    # closing under inverses is automatic
    assert ball_sizes([a, b], oracle, 5) == \
        ball_sizes([a, a.inverse(), b], oracle, 5)


def test_ball_sizes_finite_stabilize():
    double = sidki_double(parse_presentation("< a | a^2 >"), AllElements())
    table = enumerate_cosets(double, [])
    oracle = FiniteRealizationOracle(double, table)
    gens = [parse_word("a", double.generators),
            parse_word("a~", double.generators)]
    sizes = ball_sizes(gens, oracle, 6)
    assert sizes[0] == 1
    assert max(sizes) == 4
    assert sizes[-1] == sizes[-2] == 4


def test_solver_backed_balls_match_realization_balls():
    """On X(C2), the solver calls two ball words equal exactly when the
    regular realization gives them one normal form."""
    setup, double = make_setup("< a | a^2 >")
    oracle = FiniteRealizationOracle(double, enumerate_cosets(double, []))
    ball = reduced_words(double.generators, 3)
    for u in ball:
        for v in ball:
            assert xg_word_problem(setup, u * v.inverse()).is_trivial() == \
                (oracle.normal_form(u) == oracle.normal_form(v)), (u, v)


def test_finite_oracles_take_regular_tables_only():
    """The action on the cosets of <a^2> in C4 would call a^2 trivial."""
    c4 = parse_presentation("< a | a^4 >")
    table = enumerate_cosets(c4, [parse_word("a^2", c4.generators)])
    with pytest.raises(ArgumentError):
        FiniteRealizationOracle(c4, table)
    with pytest.raises(ArgumentError):
        table.is_trivial_word(parse_word("a^2", c4.generators))


def test_growth_classifier_examples():
    quad = [2 * n * n + 2 * n + 1 for n in range(9)]
    assert growth_classifier(quad).label() == "PolynomialDegree(2)"
    lin = [2 * n + 1 for n in range(9)]
    assert growth_classifier(lin).label() == "PolynomialDegree(1)"
    geo = [1, 3, 7, 15, 31, 63]
    cls = growth_classifier(geo)
    assert cls.kind == "exponential" and abs(cls.rate - 2) < 0.3
    const = [1, 4, 4, 4, 4, 4]
    assert growth_classifier(const).label() == "PolynomialDegree(0)"
    assert growth_classifier(quad).heuristic is True
    with pytest.raises(ArgumentError):
        growth_classifier([1, 2])
    with pytest.raises(ArgumentError):
        growth_classifier([1, 2, 1, 2])


# -- balls on normal forms ---------------------------------------------------------

def _finite_oracle(text):
    double = sidki_double(parse_presentation(text), AllElements())
    return FiniteRealizationOracle(double, enumerate_cosets(double, []))


# every kind of oracle, each with the generators of its group: a free group
# with a barred letter, two free-abelian groups, and the regular tables of
# X(C2) and X(S3)
NORMAL_FORM_ORACLES = {
    "free": FreeGroupOracle([GenSymbol("a"), GenSymbol("b", True)]),
    "Z^2": oracle_for_presentation(parse_presentation("< a, b | [a, b] >"))[0],
    "X(Z)": oracle_for_presentation(
        sidki_double(parse_presentation("< a | >"), LengthBound(1)))[0],
    "X(C2)": _finite_oracle("< a | a^2 >"),
    "X(S3)": _finite_oracle("< a, b | a^2, b^2, (a*b)^3 >"),
}


def _oracle_words(oracle):
    letters = [s for g in oracle.alphabet for s in (g, g.inverse())]
    return st.lists(st.sampled_from(letters), max_size=10).map(Word)


@pytest.mark.parametrize("name", NORMAL_FORM_ORACLES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_right_multiplier_is_right_multiplication(name, data):
    oracle = NORMAL_FORM_ORACLES[name]
    u = data.draw(_oracle_words(oracle))
    w = data.draw(_oracle_words(oracle))
    assert oracle.right_multiplier(w)(oracle.normal_form(u)) == \
        oracle.normal_form(u * w)


def test_right_multiplier_needs_a_normal_form():
    """The base interface answers neither, and no method returns None for
    unsupported, so a ball search without them fails loudly."""
    for method in (WPOracle().normal_form, WPOracle().right_multiplier):
        with pytest.raises(NotImplementedError):
            method(Word())
    with pytest.raises(NotImplementedError):
        ball_sizes([], WPOracle(), 1)


@pytest.mark.parametrize("oracle, radius", [
    (FreeGroupOracle([GenSymbol("a"), GenSymbol("b")]), 6),
    (NORMAL_FORM_ORACLES["Z^2"], 8), (NORMAL_FORM_ORACLES["X(Z)"], 8),
    (NORMAL_FORM_ORACLES["X(S3)"], 8)], ids=["F2", "Z^2", "X(Z)", "X(S3)"])
def test_ball_sizes_match_the_word_walk(oracle, radius):
    gens = [Word([g]) for g in oracle.alphabet]
    assert ball_sizes(gens, oracle, radius) == word_ball_sizes(gens, oracle, radius)
    # longer generators and generators given with their inverses
    mixed = [gens[0] * gens[-1], gens[0].inverse()]
    assert ball_sizes(mixed, oracle, 4) == word_ball_sizes(mixed, oracle, 4)
