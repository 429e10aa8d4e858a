import functools
import json
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from weakcomm import isoperimetry
from weakcomm.cli import main
from weakcomm.errors import ArgumentError, ParseError
from weakcomm.isoperimetry import (AreaCertificate, CN_ALPHABET,
                                   ELL_ALPHABET, GRID_PRESENTATION,
                                   c_n_candidate_l_word, c_n_letters,
                                   central_extension_presentation,
                                   central_transform, check_certificate,
                                   distortion_bracket,
                                   expand_letter_differences,
                                   free_commutator_instance, grid_certificate,
                                   minimal_area_search, p_image, pbar_image,
                                   reduce_to_free_area, rho_of_spelling)
from weakcomm.presentations import AllElements, parse_presentation, sidki_double
from weakcomm.words import GenSymbol, Word, commutator, format_word, parse_word

from .oracles import word_minimal_area_search, word_product

A, B = (Word([g]) for g in GRID_PRESENTATION.generators)
S3 = parse_presentation("< a, b | a^2, b^2, (a*b)^3 >")
C2 = parse_presentation("< a | a^2 >")
X_C2 = sidki_double(C2, AllElements())


def word(text, alphabet=GRID_PRESENTATION.generators):
    return parse_word(text, alphabet)


def test_checker_examples():
    one = AreaCertificate(word("[a,b]"), ((Word(), 0, 1),))
    assert check_certificate(GRID_PRESENTATION, one)
    assert one.area == 1 and one.radius == 0
    empty = AreaCertificate(Word(), ())
    assert check_certificate(GRID_PRESENTATION, empty)
    assert empty.area == 0
    grid2 = grid_certificate(2)
    assert check_certificate(GRID_PRESENTATION, grid2)
    wrong = AreaCertificate(word("[a,b]"), ((A, 0, 1),))
    assert not check_certificate(GRID_PRESENTATION, wrong)
    with pytest.raises(ArgumentError):
        check_certificate(GRID_PRESENTATION, AreaCertificate(Word(), ((Word(), 5, 1),)))


@pytest.mark.parametrize("n", range(1, 11))
def test_grid_certificates(n):
    cert = grid_certificate(n)
    assert cert.area == n * n
    assert cert.radius <= 2 * n
    assert cert.word == commutator(A ** n, B ** n)
    assert check_certificate(GRID_PRESENTATION, cert)


def test_certificate_json_round_trip():
    for n in range(1, 31):
        cert = grid_certificate(n)
        back = AreaCertificate.from_json(cert.to_json(), GRID_PRESENTATION)
        assert back == cert


# a certificate written by hand: its text uses brackets, parentheses, negative
# exponents and ^0, and the word is the product of the four conjugates
HAND_CERTIFICATE = {
    "word": "(b^-2*[a, b]*b^2) * [a, b]^-1 * (a^-2 * [a,b]^-1 * a^2)"
            " * ((a*b^-1)^-1 * [a, b] * (a*b^-1))",
    "factors": [
        {"theta": "(b^-1)^-2", "relator": 0, "sign": 1},
        {"theta": "(a*b)^0 * [a, b^3]^0", "relator": 0, "sign": -1},
        {"theta": "a^3 * a^-1", "relator": 0, "sign": -1},
        {"theta": "[b, a] * [a, b] * a * b^-1", "relator": 0, "sign": 1},
    ],
}


def test_hand_written_certificate_reads_back():
    comm = commutator(A, B)
    thetas = [B ** 2, Word(), A ** 2, A * B.inverse()]
    signs = [1, -1, -1, 1]
    product = functools.reduce(operator.mul, ((comm ** e).conjugate(t)
                                              for t, e in zip(thetas, signs)))
    cert = AreaCertificate.from_json(json.dumps(HAND_CERTIFICATE), GRID_PRESENTATION)
    assert cert == AreaCertificate(product, tuple((t, 0, e) for t, e in zip(thetas, signs)))
    assert check_certificate(GRID_PRESENTATION, cert)


def test_certificate_with_an_undeclared_letter(tmp_path, capsys):
    doc = dict(HAND_CERTIFICATE, factors=HAND_CERTIFICATE["factors"][:-1]
               + [{"theta": "a * c^2", "relator": 0, "sign": 1}])
    with pytest.raises(ParseError, match="undeclared generator 'c'"):
        AreaCertificate.from_json(json.dumps(doc), GRID_PRESENTATION)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["area", "-p", "< a, b | [a,b] >", "--check", str(path)]) == 3
    assert "undeclared generator" in capsys.readouterr().err


def test_minimal_area_trivial_cases():
    assert minimal_area_search(GRID_PRESENTATION, word("[a,b]"), 2, 2) == 1
    assert minimal_area_search(GRID_PRESENTATION, Word(), 2, 2) == 0
    # abelian infeasibility: a^3 cannot be a product of two conjugates of a^2
    p2 = parse_word("a^3")
    from weakcomm.presentations import parse_presentation
    assert minimal_area_search(parse_presentation("< a | a^2 >"), p2, 1, 1) is None


def test_minimal_area_of_the_two_by_two_grid():
    got = minimal_area_search(GRID_PRESENTATION, word("[a^2,b^2]"), 4, 4)
    assert got == 4     # in particular no certificate of area <= 3 in radius 4


def test_minimal_area_bounds():
    w = word("[a,b]")
    assert minimal_area_search(GRID_PRESENTATION, w, 0, 2) is None
    assert minimal_area_search(GRID_PRESENTATION, Word(), 0, 2) == 0
    assert minimal_area_search(GRID_PRESENTATION, w, 1, 0) == 1
    for max_area, max_radius in ((2, -1), (-1, 2)):
        with pytest.raises(ArgumentError):
            minimal_area_search(GRID_PRESENTATION, w, max_area, max_radius)
        with pytest.raises(ArgumentError):
            minimal_area_search(GRID_PRESENTATION, Word(), max_area, max_radius)


def test_minimal_area_of_a_foreign_word_is_none_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("search started")

    monkeypatch.setattr(isoperimetry, "reduced_words", no_search)
    foreign = parse_word("[a,b] * c^2 * c^-2 * c")
    assert minimal_area_search(GRID_PRESENTATION, foreign, 4, 4) is None


# values computed by the Word-based search it replaced (tests/oracles.py)
@pytest.mark.parametrize("pres, text, max_area, max_radius, want", [
    (GRID_PRESENTATION, "[a^2, b^2]", 3, 4, None),
    (GRID_PRESENTATION, "[a^2, b^2]", 4, 1, None),
    (GRID_PRESENTATION, "[a^3, b]", 3, 2, 3),
    (GRID_PRESENTATION, "[a^2, b^3]", 4, 3, None),
    (S3, "(a*b)^6", 2, 1, 2),
    (S3, "b*a*b*a*b*a", 2, 2, 1),
    (S3, "a*b*a*b", 3, 2, None),
    (S3, "a", 3, 2, None),
    (X_C2, "[a, a~]", 2, 2, 1),
    (X_C2, "a*a~*a*a~", 3, 2, 3),
], ids=lambda v: v if isinstance(v, str) else None)
def test_minimal_area_pinned(pres, text, max_area, max_radius, want):
    w = parse_word(text, pres.generators)
    assert minimal_area_search(pres, w, max_area, max_radius) == want


def _area_words(pres, max_radius):
    """Words of length <= 8: free words, and products of up to three
    conjugates of relators by conjugators within the radius bound."""
    letters = st.sampled_from([s for g in pres.generators for s in (g, g.inverse())])
    conjugate = st.builds(
        lambda r, sign, theta: (r ** sign).conjugate(Word(theta)),
        st.sampled_from(pres.relators), st.sampled_from([1, -1]),
        st.lists(letters, max_size=max_radius))
    products = st.lists(conjugate, min_size=1, max_size=3).map(
        lambda fs: functools.reduce(operator.mul, fs, Word()))
    return st.one_of(st.lists(letters, max_size=8).map(Word), products) \
        .filter(lambda w: len(w) <= 8)


@pytest.mark.parametrize("pres, max_area, max_radius", [
    (GRID_PRESENTATION, 3, 2), (S3, 3, 2), (C2, 3, 2), (X_C2, 2, 1)],
    ids=["grid", "S3", "C2", "X(C2)"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_minimal_area_matches_the_word_search(pres, max_area, max_radius, data):
    w = data.draw(_area_words(pres, max_radius))
    area = data.draw(st.integers(0, max_area))
    radius = data.draw(st.integers(0, max_radius))
    assert minimal_area_search(pres, w, area, radius) == \
        word_minimal_area_search(pres, w, area, radius)


# -- central extension: integer Heisenberg matrices as an independent oracle --

def _heis_matrices():
    def mat(rows):
        return tuple(tuple(r) for r in rows)
    e = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    a = mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = mat([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    c = mat([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    return e, {"a": a, "b": b, "c": c}


def _mat_mul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


def _mat_inv_unitriangular(x):
    # inverse by exponent negation: for these 3x3 unitriangular matrices the
    # group inverse is the matrix of the inverse word; compute via adjugate-free
    # closed form
    a, c = x[0][1], x[0][2]
    b = x[1][2]
    return ((1, -a, a * b - c), (0, 1, -b), (0, 0, 1))


def heisenberg_oracle(w: Word) -> bool:
    e, mats = _heis_matrices()
    acc = e
    for sym in w:
        m = mats[sym.name]
        if sym.sign < 0:
            m = _mat_inv_unitriangular(m)
        acc = _mat_mul(acc, m)
    return acc == e


def test_heisenberg_oracle_sanity():
    gens = [GenSymbol("a"), GenSymbol("b"), GenSymbol("c")]
    assert heisenberg_oracle(parse_word("[a,b] * c^-1", gens))
    assert heisenberg_oracle(parse_word("[a,c]", gens))
    assert not heisenberg_oracle(parse_word("[a,b]", gens))


def test_central_lifting_validation():
    sig = parse_word("c^-1", [GenSymbol("c")])
    lift = central_extension_presentation(GRID_PRESENTATION, ["c"], [sig],
                                          triviality_oracle=heisenberg_oracle)
    assert lift.validated
    bad = parse_word("c", [GenSymbol("c")])
    with pytest.raises(ArgumentError):
        central_extension_presentation(GRID_PRESENTATION, ["c"], [bad],
                                       triviality_oracle=heisenberg_oracle)
    with pytest.raises(ArgumentError):
        central_extension_presentation(GRID_PRESENTATION, ["c"], [])
    with pytest.raises(ArgumentError):
        central_extension_presentation(GRID_PRESENTATION, ["a"], [sig])


def test_lifting_json_round_trip():
    from weakcomm.isoperimetry import lifting_from_json, lifting_to_json
    sig = parse_word("c^-1", [GenSymbol("c")])
    lift = central_extension_presentation(GRID_PRESENTATION, ["c"], [sig])
    back = lifting_from_json(lifting_to_json(lift))
    assert back.total == lift.total
    assert back.sigmas == lift.sigmas
    out, _ = central_transform(back, grid_certificate(2))
    assert check_certificate(back.total, out)


def test_central_transform_trivial_kernel_is_noop():
    lift = central_extension_presentation(GRID_PRESENTATION, ["z"], [Word()])
    cert = grid_certificate(2)
    out, report = central_transform(lift, cert)
    assert out.word == cert.word
    assert out.area == cert.area
    assert report["central_correction"] == "1"
    assert check_certificate(lift.total, out)


@pytest.mark.parametrize("n", [2, 3])
def test_central_transform_heisenberg(n):
    sig = parse_word("c^-1", [GenSymbol("c")])
    lift = central_extension_presentation(GRID_PRESENTATION, ["c"], [sig],
                                          triviality_oracle=heisenberg_oracle)
    out, report = central_transform(lift, grid_certificate(n))
    assert check_certificate(lift.total, out)
    assert report["central_correction"] == f"c^-{n * n}"
    assert report["within_bound"]
    assert heisenberg_oracle(out.word)   # the certified word is trivial upstairs


def test_central_transform_with_inverse_factors():
    # certificate for [b,a] = [a,b]^-1 using a sign -1 factor
    cert = AreaCertificate(word("[b,a]"), ((Word(), 0, -1),))
    assert check_certificate(GRID_PRESENTATION, cert)
    sig = parse_word("c^-1", [GenSymbol("c")])
    lift = central_extension_presentation(GRID_PRESENTATION, ["c"], [sig])
    out, report = central_transform(lift, cert)
    assert check_certificate(lift.total, out)
    assert report["central_correction"] == "c"


@pytest.mark.parametrize("sigma", ["c", "c^-1"])
def test_central_transform_commutes_every_sign_of_letter(monkeypatch, sigma):
    """Conjugators with letters of both signs, in factors of both signs,
    against a correction word c or c^-1: the transform commutes a base letter
    past a central letter in all four sign cases."""
    seen = set()
    real = isoperimetry._letter_commutator_factor

    def spy(lifting, central, other):
        seen.add((other.sign, central.sign))
        return real(lifting, central, other)

    monkeypatch.setattr(isoperimetry, "_letter_commutator_factor", spy)
    factors = ((word("a*b^-1"), 0, 1), (word("a^-1*b"), 0, -1))
    product = AreaCertificate(Word(), factors).product_word(GRID_PRESENTATION)
    cert = AreaCertificate(product, factors)
    lift = central_extension_presentation(
        GRID_PRESENTATION, ["c"], [parse_word(sigma, [GenSymbol("c")])])
    out, report = central_transform(lift, cert)
    assert seen == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert check_certificate(lift.total, out)
    assert report["within_bound"]


def test_central_transform_with_two_central_generators():
    """Two central generators add their commutator [c, d] to the relators."""
    central = [GenSymbol("c"), GenSymbol("d")]
    lift = central_extension_presentation(
        GRID_PRESENTATION, ["c", "d"], [parse_word("c^-1*d", central)])
    assert lift.total.relators[lift.comm_index["c", "d"]] == \
        commutator(Word([central[0]]), Word([central[1]]))
    out, report = central_transform(lift, grid_certificate(2))
    assert check_certificate(lift.total, out)
    assert report["within_bound"]


def test_c_n_spelling():
    for n in range(1, 9):
        letters = c_n_letters(n)
        assert len(letters) == 6 * n
        first, second, third = rho_of_spelling(letters)
        assert first == commutator(A ** n, B ** n)
        assert second.is_identity() and third.is_identity()
    assert len(Word(c_n_letters(4))) == 16   # the reduced form has 4n letters
    with pytest.raises(ArgumentError):
        c_n_letters(0)


def test_expand_letter_differences():
    w = expand_letter_differences([GenSymbol("l_a"), GenSymbol("b")])
    assert w == parse_word("a^-1 * a~ * b",
                           [GenSymbol("a"), GenSymbol("b"),
                            GenSymbol("a", bar=True)])
    inv = expand_letter_differences([GenSymbol("l_a", sign=-1)])
    assert inv == expand_letter_differences([GenSymbol("l_a")]).inverse()


def test_reduce_to_free_area_examples():
    la, lb, lam = (Word([g]) for g in ELL_ALPHABET)
    v, thetas = reduce_to_free_area(lam)
    assert v.is_identity() and thetas == [(1, Word())]
    v, thetas = reduce_to_free_area(la * lam * la.inverse())
    assert v.is_identity()
    assert thetas == [(1, la.inverse())]
    v, thetas = reduce_to_free_area(la * lb)
    assert v == la * lb and thetas == []
    with pytest.raises(ArgumentError):
        reduce_to_free_area(Word([GenSymbol("a")]))


def test_reduce_to_free_area_random_round_trips():
    rng = random.Random(13)
    letters = [GenSymbol(n, sign=s) for n in ("l_a", "l_b", "lam")
               for s in (1, -1)]
    for _ in range(100):
        w = Word(rng.choice(letters) for _ in range(rng.randrange(0, 13)))
        v, thetas = reduce_to_free_area(w)   # re-multiplication checked inside
        assert len(thetas) <= len(w)
        assert all({s.generator for s in t} <= {GenSymbol("l_a"), GenSymbol("l_b")}
                   for _, t in thetas)


ell_words = st.lists(
    st.sampled_from([GenSymbol(n, sign=s) for n in ("l_a", "l_b", "lam")
                     for s in (1, -1)]), max_size=14).map(Word)


@given(ell_words)
@settings(max_examples=80)
def test_reduce_to_free_area_properties(w):
    v, thetas = reduce_to_free_area(w)
    assert len(thetas) <= len(w)
    # killing the unbarred copy sends the word to its l-part image
    assert pbar_image(w) == pbar_image(v)


def test_projection_images():
    la, lb, lam = (Word([g]) for g in ELL_ALPHABET)
    assert p_image(lam) == word("[a,b]")
    assert p_image(la) == A.inverse()
    assert pbar_image(lam).is_identity()
    assert pbar_image(lb) == B


def test_free_commutator_instance_of_candidate():
    for n in (1, 2, 3):
        cand = c_n_candidate_l_word(n)
        inst = free_commutator_instance(cand)
        assert inst.word == commutator(A ** n, B ** n)
        assert inst.area == n * n
        assert check_certificate(GRID_PRESENTATION, inst)


def test_candidate_word_is_rho_consistent_with_c_n():
    """Expanding l_g -> g^-1 g~ and lam -> l_a l_b l_ab^-1 into the doubled
    alphabet, the grid-shaped candidate has the same triple-product image as
    the canonical spelling."""
    from weakcomm.words import rho_word
    a, abar = Word([GenSymbol("a")]), Word([GenSymbol("a", bar=True)])
    b, bbar = Word([GenSymbol("b")]), Word([GenSymbol("b", bar=True)])
    ell_a = a.inverse() * abar
    ell_b = b.inverse() * bbar
    ell_ab = (a * b).inverse() * (abar * bbar)
    table = {"l_a": ell_a, "l_b": ell_b, "lam": ell_a * ell_b * ell_ab.inverse()}

    def expand(w):
        out = Word()
        for sym in w:
            img = table[sym.name]
            out = out * (img if sym.sign > 0 else img.inverse())
        return out

    for n in (1, 2, 3):
        cand = expand(c_n_candidate_l_word(n))
        assert rho_word(cand) == rho_of_spelling(c_n_letters(n))


def test_distortion_bracket():
    rep = distortion_bracket(3)
    assert rep["lower_bound"] == 9
    assert rep["extrinsic_length"] == 18
    assert rep["candidate_rho_verified_only"] is True
    cand = c_n_candidate_l_word(3)
    assert rep["candidate_upper_length"] == len(cand) or \
        rep["candidate_upper_length"] >= len(cand)   # reduced length can shrink


# letters of X(C2), plus one the presentation does not have
_CERT_LETTERS = [GenSymbol(n, bar, s) for n, bar in (("a", False), ("a", True), ("c", False))
                 for s in (1, -1)]


@given(st.lists(st.tuples(st.lists(st.sampled_from(_CERT_LETTERS), max_size=6).map(Word),
                          st.sampled_from(range(len(X_C2.relators))),
                          st.sampled_from([1, -1])), max_size=6),
       st.lists(st.sampled_from(_CERT_LETTERS), max_size=4).map(Word))
@settings(max_examples=200, deadline=None)
def test_product_word_matches_the_word_product(factors, word):
    cert = AreaCertificate(word, tuple(factors))
    product = cert.product_word(X_C2)
    assert product == word_product(cert, X_C2)
    assert check_certificate(X_C2, cert) == (product == word)
    assert check_certificate(X_C2, AreaCertificate(product, cert.factors))
