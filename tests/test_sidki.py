import copy

import pytest

from weakcomm import enumerator, permgroups, sidki
from weakcomm.errors import ArgumentError, CheckFailure, SizeGuardError
from weakcomm.permgroups import GroupHom, Perm, PermGroup, block_perm, commutator
from weakcomm.presentations import parse_presentation
from weakcomm.words import bar_word

from . import oracles
from .conftest import NILPOTENT_SUITE, SUITE_ORDERS, SUITE_TEXT

EXTRA_TEXT = {
    "D5": "< r, s | r^5, s^2, (r*s)^2 >",
    "C2xC4": "< a, b | a^2, b^4, [a, b] >",
    "A4": "< a, b | a^2, b^3, (a*b)^3 >",
}
LARGER_TEXT = {
    "D8": "< r, s | r^8, s^2, (r*s)^2 >",
    "S4": "< a, b | a^2, b^3, (a*b)^4 >",
}


def test_build_c2_exact_orders(realizations):
    x = realizations["C2"]
    assert x.orders() == {"G": 2, "X": 4, "D": 1, "L": 2, "W": 1, "DL": 2,
                          "im_rho": 4}
    assert x.X.is_abelian()


def test_all_suite_checks_pass(realizations):
    for name, x in realizations.items():
        assert x.failed_checks() == [], name
        assert x.G.order() == SUITE_ORDERS[name]


def test_order_product_identity(realizations):
    for name, x in realizations.items():
        o = x.orders()
        assert o["X"] == o["W"] * o["im_rho"], name


def _realization(realizations, name):
    return realizations.get(name) or sidki.build(parse_presentation(EXTRA_TEXT[name]))


def test_s3_image_of_rho(realizations):
    x = realizations["S3"]
    assert x.im_rho.order() == 108
    assert x.G.order() ** 3 // x.im_rho.order() == 2 == x.Q.order()


@pytest.mark.parametrize("name", list(SUITE_TEXT) + list(EXTRA_TEXT))
def test_image_of_rho_is_the_constraint_subgroup(realizations, name):
    x = _realization(realizations, name)
    expected = oracles.constraint_subgroup([g.img for g in x.G.generators])
    assert {p.img for p in x.im_rho.elements()} == expected


@pytest.mark.parametrize("name", list(SUITE_TEXT) + ["A4", "SL23", "S4", "A5"])
def test_im_rho_order_is_read_off_a_stabilizer(monkeypatch, name):
    """|im rho| = |G|^2 |G'|, with G' closed by brute force, and _im_rho
    knows it without enumerating im rho (216 000 elements for A5)."""
    text = {**SUITE_TEXT, **EXTRA_TEXT, **LARGER_TEXT,
            "SL23": "< a, b | a^3*b^-3, a^3*(a*b)^-2 >",
            "A5": "< a, b | a^2, b^3, (a*b)^5 >"}[name]
    G = enumerator.perm_realization(
        enumerator.enumerate_cosets(parse_presentation(text), []))
    elems = oracles.closure([g.img for g in G.generators])
    derived = oracles.closure([commutator(Perm(a), Perm(b)).img
                               for a in elems for b in elems])
    expected = len(elems) ** 2 * len(derived)

    def refuse(group, guard=None):
        raise AssertionError("im rho enumerated")

    monkeypatch.setattr(PermGroup, "elements", refuse)
    assert sidki._im_rho(G).order() == expected
    if name == "A5":
        assert expected == 216_000


def _homs(X, G, double):
    """pi, pi x pibar and rho on X, each checked on the double's relators."""
    relators = [enumerator.signed_letters(double, r) for r in double.relators]
    gens, one = list(G.generators), Perm.identity(G.degree)
    two = [block_perm([p, one]) for p in gens] + [block_perm([one, p]) for p in gens]
    rho_images = sidki._im_rho(G).generators
    return (GroupHom(X, G, gens + gens, relators=relators),
            GroupHom(X, PermGroup(2 * G.degree, two), two, relators=relators),
            GroupHom(X, PermGroup(3 * G.degree, rho_images), rho_images,
                     relators=relators))


@pytest.mark.parametrize("name", list(SUITE_TEXT) + list(EXTRA_TEXT))
def test_kernels_match_the_hom_kernels(realizations, name):
    """L, D and the W members of build against GroupHom.kernel of pi,
    pi x pibar and rho, which enumerates the graph of each hom."""
    x = _realization(realizations, name)
    pi, pi_pibar, rho = _homs(x.X, x.G, x.double)
    assert set(x.L.elements()) == set(pi.kernel().elements())
    assert set(x.D.elements()) == set(pi_pibar.kernel().elements())
    _, base_table, _, double, table = sidki._split_copy(x.presentation, 10 ** 6, 10 ** 5)
    assert double == x.double
    members = [x.element(m) for m in sidki._w_members(table, base_table)]
    assert len(set(members)) == len(members)
    assert set(members) == set(rho.kernel().elements()) == set(x.W.elements())


@pytest.mark.parametrize("name", list(SUITE_TEXT))
def test_hom_kernels_match_the_word_kernels(realizations, name):
    """GroupHom.kernel against the kernel read off a defining word of every
    element, on pi, pi x pibar and rho of the double."""
    x = realizations[name]
    for hom in _homs(x.X, x.G, x.double):
        kernel = hom.kernel()
        assert set(kernel.elements()) == oracles.word_kernel(hom)
        assert kernel.generators == \
            x.X.from_elements(oracles.word_kernel(hom)).generators


@pytest.mark.parametrize("name", list(SUITE_TEXT) + list(EXTRA_TEXT) + list(LARGER_TEXT))
def test_stabilizers_match_the_fixing_filter(realizations, name):
    """L and D, taken as pointwise stabilizers of rho-block points, against
    the filter over all of X that they replaced: the same elements, and
    generators drawn from them."""
    x = realizations.get(name) or sidki.build(
        parse_presentation({**EXTRA_TEXT, **LARGER_TEXT}[name]))
    index = x.X.degree - 3 * x.G.degree
    for group, coords in ((x.L, (1,)), (x.D, (0, 2))):
        fixed = set(oracles.fixing(x.X, [index + k * x.G.degree for k in coords]))
        assert set(group.elements()) == fixed
        assert all(g in fixed for g in group.generators)


def test_build_checks_the_guard_before_any_span(monkeypatch):
    """|X| = [X : split copy] |G| is known from the tables, so a base past
    the guard stops before L is spanned."""
    calls = []
    real = PermGroup.pointwise_stabilizer

    def counting(group, points):
        calls.append(points)
        return real(group, points)

    monkeypatch.setattr(PermGroup, "pointwise_stabilizer", counting)
    with pytest.raises(SizeGuardError) as info:
        sidki.build(parse_presentation("< a, b | a^2, b^3, (a*b)^5 >"))  # A5
    assert str(info.value) == "group of size > 100000 exceeds the configured guard 100000"
    assert calls == []


def test_build_keeps_the_stabilizers_it_closed(monkeypatch):
    """L and D are the groups pointwise_stabilizer returned, not closed again."""
    returned = {}
    real = PermGroup.pointwise_stabilizer

    def recording(group, points):
        returned[tuple(points)] = result = real(group, points)
        return result

    monkeypatch.setattr(PermGroup, "pointwise_stabilizer", recording)
    x = sidki.build(parse_presentation(SUITE_TEXT["S3"]))
    index, gdeg = x.X.degree - 3 * x.G.degree, x.G.degree
    assert x.L is returned[(index + gdeg,)]
    assert x.D is returned[(index, index + 2 * gdeg)]


def test_build_spans_the_letter_differences_once(monkeypatch):
    """The normality of the span of the letter differences is read off its
    generators; their normal closure is never spanned."""
    calls = []
    real = PermGroup.normal_closure

    def recording(group, gens):
        calls.append(list(gens))
        return real(group, gens)

    monkeypatch.setattr(PermGroup, "normal_closure", recording)
    x = sidki.build(parse_presentation(SUITE_TEXT["S3"]))
    ells = list(x.ell_images.values())
    assert calls and all(gens != ells for gens in calls)


def test_build_verifies_the_perfect_base_a5():
    """A5 past the default guard: every check passes, the centrality of W
    for a perfect base included, and perfect_base_report agrees on the
    orders."""
    pres = parse_presentation("< a, b | a^2, b^3, (a*b)^5 >")
    x = sidki.build(pres, guard=10 ** 6, raise_on_failure=False)
    assert x.failed_checks() == []
    assert "W_central_for_perfect_base" in {c["name"] for c in x.checks}
    orders = x.orders()
    assert orders == {"G": 60, "X": 432_000, "D": 120, "L": 7200, "W": 2,
                      "DL": 432_000, "im_rho": 216_000}
    rep = sidki.perfect_base_report(pres)
    assert (rep["X_order"], rep["W_order"], rep["im_rho_order"]) == \
        (orders["X"], orders["W"], orders["im_rho"])


def test_build_leaves_the_double_unenumerated():
    x = sidki.build(parse_presentation(LARGER_TEXT["D8"]))
    assert x.X._elements is None
    assert x.X.order() == 2048 and x.DL._elements is None


def test_an_orbit_one_point_short_fails_the_faithfulness_guard(monkeypatch):
    real = permgroups._schreier_generators

    def short(*args):
        transversal, schreier = real(*args)
        transversal.popitem()
        return transversal, schreier

    monkeypatch.setattr(permgroups, "_schreier_generators", short)
    with pytest.raises(CheckFailure) as info:
        sidki.build(parse_presentation(SUITE_TEXT["S3"]))
    assert info.value.name == "faithful_realization"


# C10 x| C4 with b acting by cubing: sending each generator to its inverse is
# no automorphism of it, so a W-member trace that moves by the base column of
# a letter's inverse finds another set there (one member, not two)
W_TEXT = {"A5": "< a, b | a^2, b^3, (a*b)^5 >",
          "C10:C4": "< a, b | a^10, b^4, b^-1*a*b*a^-3 >"}


@pytest.mark.parametrize("name", list(SUITE_TEXT) + list(W_TEXT))
def test_w_members_match_the_rho_word_reference(suite, name):
    pres = suite.get(name) or parse_presentation(W_TEXT[name])
    _, base_table, _, _, table = sidki._split_copy(pres, 10 ** 6, 10 ** 5)
    assert sidki._w_members(table, base_table) == \
        oracles.rho_word_w_members(table, base_table)


def test_c2xc2_recorded_values(realizations):
    x = realizations["C2xC2"]
    o = x.orders()
    assert o["W"] == 2 and o["X"] == 32 and o["im_rho"] == 16


def test_generator_commutators_suffice_for_d(realizations):
    """The normal closure of generator-pair commutators equals the subgroup
    generated by all element-pair commutators [g, bar h]."""
    for name in ("C2xC2", "S3"):
        x = realizations[name]
        all_pairs = []
        for wg in x.G_words:
            for wh in x.G_words:
                all_pairs.append(commutator(x.element(wg), x.element(bar_word(wh))))
        full = x.X.subgroup(all_pairs)
        assert full.order() == x.D.order(), name


def test_ell_identity_exhaustive(realizations):
    for name in ("C2xC2", "S3"):
        assert sidki._ell_identity(realizations[name]) == (True, None)


@pytest.mark.parametrize("name", list(SUITE_TEXT) + list(EXTRA_TEXT))
def test_coset_0_and_the_first_rho_point_are_a_base_of_x(realizations, name):
    """The two points on which _ell_identity compares elements of X."""
    x = _realization(realizations, name)
    assert x.X.pointwise_stabilizer([0, x.X.degree - 3 * x.G.degree]).order() == 1


@pytest.mark.parametrize("name", ["S3", "D4", "A4", "Q8"])
def test_ell_identity_catches_a_letter_difference_moved_in_d(realizations, name):
    """Each mutant multiplies one l_u by a nontrivial generator of D."""
    x = _realization(realizations, name)
    mutants = 0
    for u in x.G_elements:
        for d in x.D.generators:
            if d.is_identity():
                continue
            mutant = copy.copy(x)
            mutant.ell_images = {**x.ell_images, u: x.ell_images[u] * d}
            ok, witness = sidki._ell_identity(mutant)
            assert not ok and witness is not None, (u, d)
            mutants += 1
    assert mutants >= len(x.G_elements)


def test_w_central_and_l_not_normally_bigger(realizations):
    for name, x in realizations.items():
        w_elems = list(x.W.elements())
        for w in w_elems:
            for g in x.DL.generators:
                assert w * g == g * w, name


def test_nilpotence_reports(realizations):
    assert sidki.nilpotence_report(realizations["C2"]) == \
        {"class_G": 1, "class_X": 1}
    rep = sidki.nilpotence_report(realizations["Q8"])
    assert rep["class_G"] == 2 and rep["class_X"] is not None
    rep = sidki.nilpotence_report(realizations["S3"])
    assert rep["class_G"] is None       # no assertion made about the double


def test_hom_order_identities(realizations):
    for name in ("C2xC2", "Q8"):
        x = realizations[name]
        pi, _, rho = _homs(x.X, x.G, x.double)
        assert rho.kernel().order() * x.im_rho.order() == x.X.order()
        assert pi.kernel().order() * x.G.order() == x.X.order()   # pi is onto


def test_engel_certificate_abelian(realizations):
    cert = sidki.engel_certificate(realizations["C2"])
    assert cert["n"] == 1 and cert["d"] == 1
    assert cert["m"] == cert["s"] + 5
    assert cert["verdict"] is True


@pytest.mark.parametrize("name", ["Q8", "D4"])
def test_engel_certificate_two_generated(realizations, name):
    cert = sidki.engel_certificate(realizations[name])
    assert cert["n"] == 2 and cert["d"] == 2
    assert cert["m"] == 2 + 2 + cert["s"] + 3
    assert cert["verdict"] is True
    assert cert["minimal_engel_class_of_double"] <= cert["m"]


def test_engel_certificate_rejects_non_engel(realizations):
    with pytest.raises(ArgumentError):
        sidki.engel_certificate(realizations["S3"])


def test_build_rejects_barred_base():
    with pytest.raises(ArgumentError):
        sidki.build(parse_presentation("< a, a~ | >"))


def test_perfect_base_report_rejects_non_perfect_base(monkeypatch):
    monkeypatch.setattr(sidki, "enumerate_cosets", None)  # refused before enumerating
    with pytest.raises(ArgumentError):
        sidki.perfect_base_report(parse_presentation("< a, b | a^2, b^2, (a*b)^3 >"))


def test_perfect_base_report_rejects_barred_base_before_enumerating(monkeypatch):
    monkeypatch.setattr(enumerator, "enumerate_cosets", None)
    monkeypatch.setattr(sidki, "enumerate_cosets", None)
    with pytest.raises(ArgumentError):
        sidki.perfect_base_report(
            parse_presentation("< a~, b~ | a~^2, b~^3, (a~*b~)^5 >"))


def test_each_pipeline_enumerates_the_base_once(monkeypatch):
    enumerated = []
    real = enumerator.enumerate_cosets

    def counting(pres, *args, **kwargs):
        enumerated.append(pres)
        return real(pres, *args, **kwargs)

    monkeypatch.setattr(enumerator, "enumerate_cosets", counting)
    monkeypatch.setattr(sidki, "enumerate_cosets", counting)
    for text, pipeline in (("< a, b | a^2, b^2, (a*b)^3 >", sidki.build),
                           ("< a, b | a^2, b^3, (a*b)^5 >", sidki.perfect_base_report)):
        base = parse_presentation(text)
        enumerated.clear()
        pipeline(base)
        assert enumerated.count(base) == 1, pipeline.__name__


def test_build_enumerates_no_double_regularly(monkeypatch):
    regular = []
    real = enumerator.enumerate_cosets

    def counting(pres, subgens=(), **kwargs):
        if not subgens:
            regular.append(pres)
        return real(pres, subgens, **kwargs)

    monkeypatch.setattr(enumerator, "enumerate_cosets", counting)
    monkeypatch.setattr(sidki, "enumerate_cosets", counting)
    base = parse_presentation(SUITE_TEXT["S3"])
    x = sidki.build(base)
    assert regular == [base]
    assert x.X.degree == 108 // 6 + 3 * 6


def _regular_orders(x) -> dict[str, int]:
    """The orders of build's subgroups, recomputed on the regular
    realization of the double: D and L as kernels, DL spanned, and im rho
    enumerated from rho's generator images."""
    X = enumerator.perm_realization(enumerator.enumerate_cosets(x.double, []))
    pi, pi_pibar, rho = _homs(X, x.G, x.double)
    D, L = pi_pibar.kernel(), pi.kernel()
    return {"G": x.G.order(), "X": X.order(), "D": D.order(), "L": L.order(),
            "W": D.intersection(L).order(),
            "DL": X.subgroup(D.generators + L.generators).order(),
            "im_rho": len(rho.target.elements())}


@pytest.mark.parametrize("name", list(SUITE_TEXT) + list(EXTRA_TEXT))
def test_orders_match_the_regular_realization(realizations, name):
    x = _realization(realizations, name)
    assert x.orders() == _regular_orders(x)


@pytest.mark.parametrize("text, x_order", [
    ("< a, b | a^2, b^3, (a*b)^4 >", 13_824),             # S4
    ("< a, b | a^3*b^-3, a^3*(a*b)^-2 >", 4_608),          # SL(2,3)
])
def test_build_larger_bases(text, x_order):
    x = sidki.build(parse_presentation(text))
    assert x.failed_checks() == []
    assert x.X.order() == x_order


LARGER_NILPOTENT = {     # text, and (n, d, s, m, minimal Engel class of X)
    "D8": ("< r, s | r^8, s^2, (r*s)^2 >", (3, 3, 2, 11, 4)),
    "Q16": ("< a, b | a^8, b^2*a^-4, b^-1*a*b*a >", (3, 3, 2, 11, 3)),
    "C4xC4": ("< a, b | a^4, b^4, [a, b] >", (1, 1, 2, 7, 2)),
}


@pytest.mark.parametrize("name", list(LARGER_NILPOTENT))
def test_engel_bound_on_larger_nilpotent_bases(name):
    text, expected = LARGER_NILPOTENT[name]
    cert = sidki.engel_certificate(sidki.build(parse_presentation(text)))
    assert cert["verdict"] is True
    assert cert["m"] == cert["n"] + cert["d"] + cert["s"] + 3
    assert (cert["n"], cert["d"], cert["s"], cert["m"],
            cert["minimal_engel_class_of_double"]) == expected
    assert cert["bound_gap"] == expected[3] - expected[4]


def test_engel_certificate_scans_the_double_once(realizations, monkeypatch):
    x = realizations["Q8"]
    scanned = []
    real = PermGroup._engel_scan

    def spy(group, *args, **kwargs):
        scanned.append(group)
        return real(group, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "_engel_scan", spy)
    cert = sidki.engel_certificate(x)
    assert sum(group is x.X for group in scanned) == 1
    assert cert["verdict"] is True and cert["minimal_engel_class_of_double"] == 2


def test_verification_report_shape(realizations):
    rep = sidki.verification_report(realizations["C4"], include_engel=True)
    assert rep["orders"]["X"] == 16
    assert all(c["pass"] for c in rep["checks"])
    assert rep["engel"]["verdict"] is True
    assert set(rep["engel"]) >= {"n", "d", "s", "m", "verdict"}
