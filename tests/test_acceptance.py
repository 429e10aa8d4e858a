"""Acceptance gate: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines).
"""

import random

import pytest

from weakcomm import sidki, zqmodules
from weakcomm.decision import (FiniteRealizationOracle, WPSetup, ball_sizes,
                               growth_classifier, oracle_for_presentation,
                               xg_word_problem)
from weakcomm.enumerator import enumerate_cosets
from weakcomm.isoperimetry import (GRID_PRESENTATION, c_n_letters,
                                   central_extension_presentation,
                                   central_transform, check_certificate,
                                   grid_certificate, minimal_area_search,
                                   reduce_to_free_area, rho_of_spelling)
from weakcomm.presentations import (AllElements, LengthBound,
                                    parse_presentation, sidki_double)
from weakcomm.words import GenSymbol, Word, commutator, parse_word

from .conftest import NILPOTENT_SUITE, SUITE_ORDERS

REQUIRED_CHECKS = {
    "D_commutes_with_L",
    "W_equals_kernel_of_rho",
    "W_central_in_DL",
    "im_rho_equals_constraint_subgroup",
    "index_of_im_rho_is_Q",
    "splitting_intersection_trivial",
    "splitting_orders",
    "letter_difference_identity",
    "order_product",
    "L_generated_by_letter_differences",
}


def _report(n, name):
    print(f"acceptance {n:02d} {name}: PASS")


def test_criterion_01_structure_suite(realizations):
    for name, x in realizations.items():
        ran = {c["name"] for c in x.checks}
        assert REQUIRED_CHECKS <= ran, name
        assert x.failed_checks() == [], name
        assert x.W.order() == x.D.intersection(x.L).order(), name
    _report(1, "structure suite (7 groups, all checks)")


def test_criterion_02_double_of_c2(realizations):
    x = realizations["C2"]
    assert x.X.order() == 4
    assert x.X.is_abelian()
    _report(2, "double of the 2-element group has order 4 and is abelian")


def test_criterion_03_nilpotence_preserved(realizations):
    for name in NILPOTENT_SUITE:
        rep = sidki.nilpotence_report(realizations[name])
        assert rep["class_G"] is not None, name
        assert rep["class_X"] is not None, name
    _report(3, "nilpotent bases give nilpotent doubles")


def test_criterion_04_module_consistency(realizations):
    for name, x in realizations.items():
        rep = zqmodules.ell_module_consistency(x)
        assert rep["aug_model_invariants"] == rep["realization_invariants"], name
        assert rep["matched_generator_agreement"], name
        nil = zqmodules.nil_equation_checks(zqmodules.aug_mod_I2(x.G))
        assert nil["two_v_aug2_zero"], name
        assert nil["v_aug_k3_zero"], name
    _report(4, "augmentation model matches L/L' and both vanishing laws hold")


def test_criterion_05_engel_bound(realizations):
    for name in NILPOTENT_SUITE:
        cert = sidki.engel_certificate(realizations[name])
        assert cert["verdict"] is True, name
        assert cert["m"] == cert["n"] + cert["d"] + cert["s"] + 3, name
    _report(5, "m = n + d + s + 3 Engel bound verified exhaustively")


def test_criterion_06_w_structure(realizations):
    rep = zqmodules.w_structure_checks(realizations["S3"])
    assert rep["M_order"] == 3
    assert rep["M_order"] % rep["N_order"] == 0
    assert 3 % rep["N_exponent"] == 0
    for name in ("C2", "C3", "C2xC2", "C4"):
        rep = zqmodules.w_structure_checks(realizations[name])
        assert rep["W_action_class"] is not None, name
        assert rep["W_action_class"] <= 3 + rep["s"], name
    _report(6, "W-structure consequences (S3 divisibility, abelian nilpotence)")


def _equivalence_sweep(base_text, max_len, n_random, seed):
    base = parse_presentation(base_text)
    double = sidki_double(base, AllElements())
    oracle, _ = oracle_for_presentation(base)
    setup = WPSetup(base, oracle, double)
    table = enumerate_cosets(double, [])
    letters = []
    for g in double.generators:
        letters.append(GenSymbol(g.name, g.bar, 1))
        letters.append(GenSymbol(g.name, g.bar, -1))

    disagreements = 0
    checked = 0

    def verdicts_agree(w):
        nonlocal disagreements, checked
        checked += 1
        got = xg_word_problem(setup, w).value
        expected = "trivial" if table.is_trivial_word(w) else "nontrivial"
        if got != expected:
            disagreements += 1

    def walk(seq, depth):
        verdicts_agree(Word(seq))
        if depth == max_len:
            return
        for l in letters:
            if seq and seq[-1].same_generator(l) and seq[-1].sign == -l.sign:
                continue
            walk(seq + [l], depth + 1)

    walk([], 0)
    rng = random.Random(seed)
    for _ in range(n_random):
        w = Word(rng.choice(letters) for _ in range(rng.randrange(0, 21)))
        verdicts_agree(w)
    return checked, disagreements


@pytest.mark.slow
def test_criterion_07_word_problem_oracle_equivalence():
    for text, seed in (("< a | a^2 >", 11), ("< a, b | a^2, b^2, (a*b)^3 >", 12)):
        checked, disagreements = _equivalence_sweep(text, 8, 10_000, seed)
        assert disagreements == 0, text
        assert checked > 10_000
    _report(7, "solver and realization agree (exhaustive <=8, 10^4 random <=20)")


def test_criterion_08_isoperimetry():
    for n in range(1, 11):
        cert = grid_certificate(n)
        assert cert.area == n * n
        assert check_certificate(GRID_PRESENTATION, cert)
    w = parse_word("[a^2, b^2]", GRID_PRESENTATION.generators)
    assert minimal_area_search(GRID_PRESENTATION, w, 4, 4) == 4
    sigma = parse_word("c^-1", [GenSymbol("c")])
    lifting = central_extension_presentation(GRID_PRESENTATION, ["c"], [sigma])
    for n in (2, 3):
        out, report = central_transform(lifting, grid_certificate(n))
        assert check_certificate(lifting.total, out)
        assert report["within_bound"]
        assert report["central_correction"] == f"c^-{n * n}"
    _report(8, "grid fillings, exact minimum 4, central transform in bound")


def test_criterion_09_distortion_machinery():
    a = Word([GenSymbol("a")])
    b = Word([GenSymbol("b")])
    for n in range(1, 9):
        letters = c_n_letters(n)
        assert len(letters) == 6 * n
        first, second, third = rho_of_spelling(letters)
        assert first == commutator(a ** n, b ** n)
        assert second.is_identity() and third.is_identity()
    rng = random.Random(9)
    pool = [GenSymbol(nm, sign=s) for nm in ("l_a", "l_b", "lam") for s in (1, -1)]
    for _ in range(100):
        w = Word(rng.choice(pool) for _ in range(rng.randrange(0, 13)))
        _, thetas = reduce_to_free_area(w)   # free equality re-checked inside
        assert len(thetas) <= len(w)
    _report(9, "6n-letter spellings, triple images, free-area round trips")


def test_criterion_10_growth():
    z = parse_presentation("< a | >")
    dz = sidki_double(z, LengthBound(1))
    oracle, _ = oracle_for_presentation(dz)
    gens = [parse_word("a", dz.generators), parse_word("a~", dz.generators)]
    sizes = ball_sizes(gens, oracle, 8)
    assert sizes == [2 * n * n + 2 * n + 1 for n in range(9)]
    assert growth_classifier(sizes).label() == "PolynomialDegree(2)"
    z_oracle, _ = oracle_for_presentation(z)
    z_sizes = ball_sizes([parse_word("a", z.generators)], z_oracle, 8)
    assert growth_classifier(z_sizes).label() == "PolynomialDegree(1)"
    for text in ("< a | a^2 >", "< a, b | a^2, b^2, (a*b)^3 >"):
        pres = parse_presentation(text)
        table = enumerate_cosets(pres, [])
        oracle = FiniteRealizationOracle(pres, table)
        gens = [parse_word(g.name, pres.generators) for g in pres.generators]
        sizes = ball_sizes(gens, oracle, 8)
        assert max(sizes) == table.n_cosets
        assert sizes[-1] == sizes[-2] == table.n_cosets
    _report(10, "taxicab counts, classifier degrees, finite stabilization")


def test_criterion_11_perfect_base():
    rep = sidki.perfect_base_report(
        parse_presentation("< a, b | a^2, b^3, (a*b)^5 >"))
    assert rep["group_order"] == 60
    assert rep["index_of_split_copy"] == 7200
    assert rep["X_order"] == 432000
    assert rep["W_order"] == 2
    assert rep["im_rho_is_full_triple_product"]
    assert rep["W_central"]
    _report(11, f"perfect base: X order {rep['X_order']}, W order "
               f"{rep['W_order']}, W central, full triple image")
