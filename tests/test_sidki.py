from random import Random

import pytest

from weakcomm import enumerator, sidki
from weakcomm.errors import ArgumentError
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


@pytest.mark.parametrize("name", list(SUITE_TEXT) + list(EXTRA_TEXT))
def test_kernels_match_the_hom_kernels(realizations, name):
    """L, D and the W members of build against GroupHom.kernel, which
    evaluates pi, pi x pibar and rho on a word for every element of X."""
    x = _realization(realizations, name)
    gens, one = list(x.G.generators), Perm.identity(x.G.degree)
    two = [block_perm([p, one]) for p in gens] + [block_perm([one, p]) for p in gens]
    pi_pibar = GroupHom(x.X, PermGroup(2 * x.G.degree, two), two)
    assert set(x.L.elements()) == set(x.pi.kernel().elements())
    assert set(x.D.elements()) == set(pi_pibar.kernel().elements())
    base_table = enumerator.enumerate_cosets(x.presentation, [])
    table = sidki._split_copy_cosets(x.presentation, x.double, 10 ** 6)
    members = [x.element(m) for m in sidki._w_members(table, base_table)]
    assert len(set(members)) == len(members)
    assert set(members) == set(x.rho.kernel().elements()) == set(x.W.elements())


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
        assert sidki._ell_identity(realizations[name], None, Random(7)) == (True, None)


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
        assert x.rho.kernel().order() * x.rho.image().order() == x.X.order()
        assert x.pi.kernel().order() * x.pi.image().order() == x.X.order()


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


def test_perfect_base_report_rejects_non_perfect_base():
    with pytest.raises(ArgumentError):
        sidki.perfect_base_report(parse_presentation("< a, b | a^2, b^2, (a*b)^3 >"))


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

    monkeypatch.setattr(sidki, "enumerate_cosets", counting)
    base = parse_presentation(SUITE_TEXT["S3"])
    x = sidki.build(base)
    assert regular == [base]
    assert x.X.degree == 108 // 6 + 3 * 6


def _regular_orders(x) -> dict[str, int]:
    """The orders of build's subgroups, recomputed on the regular
    realization of the double: D and L as kernels, im rho elementwise."""
    X = enumerator.perm_realization(enumerator.enumerate_cosets(x.double, []))
    relators = [enumerator.signed_letters(x.double, r) for r in x.double.relators]
    gens, deg = list(x.G.generators), x.G.degree
    ident = Perm.identity(deg)
    two = [block_perm([p, ident]) for p in gens] + [block_perm([ident, p]) for p in gens]
    D = GroupHom(X, PermGroup(2 * deg, two), two, relators=relators).kernel()
    L = GroupHom(X, x.G, gens + gens, relators=relators).kernel()
    rho_images = sidki._rho_images(x.G)
    rho = GroupHom(X, PermGroup(3 * deg, rho_images), rho_images, relators=relators)
    return {"G": x.G.order(), "X": X.order(), "D": D.order(), "L": L.order(),
            "W": D.intersection(L).order(),
            "DL": X.subgroup(D.generators + L.generators).order(),
            "im_rho": len({rho.image_of(p) for p in X.elements()})}


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
