import json

import pytest

from weakcomm import enumerator
from weakcomm.enumerator import enumerate_cosets
from weakcomm.errors import (ArgumentError, EnumerationOverflow, ParseError,
                             SizeGuardError)
from weakcomm.intlinalg import FinAbGroup
from weakcomm.presentations import (AllElements, LengthBound, Presentation,
                                    abelianization, direct_product,
                                    double_and_base_table, format_presentation,
                                    free_product, parse_presentation,
                                    presentation_from_json, presentation_to_json,
                                    sidki_double)
from weakcomm.words import GenSymbol, Word, commutator, parse_word

from .oracles import closure, pcompose, s3_generators

S3_TEXT = "< a, b | a^2, b^2, (a*b)^3 >"


def test_parse_single_relator():
    p = parse_presentation("< a | a^3 >")
    assert [g.name for g in p.generators] == ["a"]
    assert abelianization(p) == FinAbGroup((3,))


def test_parse_free_abelian():
    p = parse_presentation("< a,b | [a,b] >")
    assert abelianization(p) == FinAbGroup((), 2)


def test_parse_s3_and_enumerate():
    # oracle: the two involutions on three points generate a group of order 6
    # and satisfy the relators of the presentation
    gens = s3_generators()
    model = closure(gens)
    assert len(model) == 6
    a, b = gens
    ab = pcompose(a, b)
    assert pcompose(a, a) == tuple(range(3))
    assert pcompose(ab, pcompose(ab, ab)) == tuple(range(3))
    p = parse_presentation(S3_TEXT)
    assert enumerate_cosets(p, []).n_cosets == 6


def test_round_trip_and_json():
    for text in ("< a | a^3 >", S3_TEXT, "< a, b | >", "< a, a~ | [a, a~] >"):
        p = parse_presentation(text)
        assert parse_presentation(format_presentation(p)) == p
        q, meta = presentation_from_json(presentation_to_json(p, {"k": 1}))
        assert q == p and meta == {"k": 1}


def test_parse_errors_carry_position():
    for bad in ("a | a >", "< a | a^3", "< | a >", "< a,a | >", "< a | c >"):
        with pytest.raises((ParseError, ArgumentError)):
            parse_presentation(bad)
    try:
        parse_presentation("< a | a^3")
    except ParseError as exc:
        assert exc.position is not None


def test_relators_cyclically_reduced():
    p = parse_presentation("< a, b | b*a^2*b^-1, 1 >")
    assert p.relators == (parse_word("a^2"),)


def test_double_of_c2_exact():
    p = parse_presentation("< a | a^2 >")
    d = sidki_double(p, AllElements())
    names = [(g.name, g.bar) for g in d.generators]
    assert names == [("a", False), ("a", True)]
    a = Word([GenSymbol("a")])
    abar = Word([GenSymbol("a", bar=True)])
    assert set(d.relators) == {a * a, abar * abar, commutator(a, abar)}


def test_double_of_z_length_bound_one():
    z = parse_presentation("< a | >")
    d = sidki_double(z, LengthBound(1))
    assert len(d.relators) == 1
    assert abelianization(d) == FinAbGroup((), 2)


def test_witness_dedup_inverse_pairs():
    def witness_words(base, policy):
        """The w of each relator [w, bar w] = w^-1 bar(w)^-1 w bar(w) that
        the double adds after R and bar(R)."""
        relators = sidki_double(base, policy).relators[2 * len(base.relators):]
        return [Word(list(r)[len(r) // 2:3 * len(r) // 4]) for r in relators]

    c4 = parse_presentation("< a | a^4 >")
    ws = witness_words(c4, AllElements())
    # elements a, a^2, a^3; a^3 = (a)^-1 is dropped
    assert len(ws) == 2
    z = parse_presentation("< a | >")
    ws = witness_words(z, LengthBound(2))
    assert ws == [Word([GenSymbol("a")]), Word([GenSymbol("a")]) ** 2]


def test_double_comes_with_the_base_table_its_witnesses_were_read_off():
    p = parse_presentation(S3_TEXT)
    double, table = double_and_base_table(p, AllElements())
    assert table.to_json() == enumerate_cosets(p, []).to_json()
    assert double == sidki_double(p, AllElements())
    double, table = double_and_base_table(p, LengthBound(2))
    assert table is None
    assert double == sidki_double(p, LengthBound(2))


def test_double_s3_bounded_witnesses():
    """Bounded witness sets: length 2 already recovers the true double of the
    symmetric group, while length 1 presents a proper pre-image whose
    enumeration blows past a generous budget."""
    p = parse_presentation(S3_TEXT)
    full = enumerate_cosets(sidki_double(p, AllElements()), []).n_cosets
    lb2 = enumerate_cosets(sidki_double(p, LengthBound(2)), []).n_cosets
    assert full == lb2 == 108
    with pytest.raises(EnumerationOverflow):
        enumerate_cosets(sidki_double(p, LengthBound(1)), [], max_cosets=50_000)


def test_double_over_all_elements_refuses_an_infinite_base(monkeypatch):
    monkeypatch.setattr(enumerator, "enumerate_cosets", None)  # refused before enumerating
    with pytest.raises(SizeGuardError, match="free rank 2"):
        sidki_double(parse_presentation("< a, b | [a, b] >"), AllElements())


def test_double_rejects_barred_input():
    with pytest.raises(ArgumentError):
        sidki_double(parse_presentation("< a, a~ | >"), LengthBound(1))


def test_abelianization_examples():
    assert abelianization(parse_presentation(S3_TEXT)) == FinAbGroup((2,))
    assert abelianization(parse_presentation("< a | a^3 >")) == FinAbGroup((3,))


@pytest.mark.parametrize("text", ["< a | a^2 >", "< a | a^3 >", S3_TEXT,
                                  "< a, b | a^2, b^2, [a,b] >"])
def test_double_abelianization_is_q_squared(text):
    p = parse_presentation(text)
    q = abelianization(p)
    qq = FinAbGroup.from_orders(list(q.invariant_factors) * 2, 2 * q.free_rank)
    assert abelianization(sidki_double(p, AllElements())) == qq


def test_free_and_direct_products():
    c2 = parse_presentation("< a | a^2 >")
    c2b = parse_presentation("< b | b^2 >")
    fp = free_product(c2, c2b)
    assert format_presentation(fp) == "< a, b | a^2, b^2 >"
    dp = direct_product(c2, c2b)
    assert enumerate_cosets(dp, []).n_cosets == 4
    # name clash forces renaming
    clash = direct_product(c2, c2)
    assert {g.name for g in clash.generators} == {"a_1", "a_2"}
    s3 = parse_presentation(S3_TEXT)
    triple = direct_product(direct_product(s3, s3), s3)
    assert enumerate_cosets(triple, []).n_cosets == 216


def test_index_numbers_the_generators_in_order():
    p = parse_presentation("< b, a, a~, c | b^2, [a, a~] >")
    assert p.index == {("b", False): 0, ("a", False): 1, ("a", True): 2,
                       ("c", False): 3}
    assert all(p.index[(g.name, g.bar)] == i for i, g in enumerate(p.generators))
    double = sidki_double(parse_presentation(S3_TEXT), LengthBound(1))
    assert list(double.index) == [("a", False), ("b", False), ("a", True), ("b", True)]


def test_duplicate_generator_message():
    a = GenSymbol("a")
    for gens in ([a, GenSymbol("b"), a], [a, a.inverse()]):
        with pytest.raises(ArgumentError, match=r"^duplicate generator a$"):
            Presentation(gens, [])
    with pytest.raises(ArgumentError, match=r"^duplicate generator a~$"):
        Presentation([GenSymbol("a", True), a, GenSymbol("a", True)], [])


@pytest.mark.parametrize("doc", [
    '{"generators": ["a"], "relators": ["a^2"]',
    '["a"]',
    '{"relators": ["a^2"]}',
    '{"generators": ["a"]}',
    '{"generators": "ab", "relators": []}',
    '{"generators": ["a", 1], "relators": []}',
    '{"generators": ["a"], "relators": [["a"]]}',
    '{"generators": ["a~~"], "relators": []}',
    '{"generators": ["a b"], "relators": []}',
    '{"generators": [""], "relators": []}',
    '{"generators": ["a"], "relators": ["b"]}',
], ids=["invalid-json", "not-an-object", "no-generators", "no-relators",
        "generators-a-string", "generator-not-a-string", "relator-not-a-string",
        "double-bar", "space-in-name", "empty-name", "undeclared-letter"])
def test_presentation_from_json_rejects_what_the_parser_rejects(doc):
    with pytest.raises(ParseError):
        presentation_from_json(doc)


def test_presentation_from_json_reads_names_as_the_parser_does():
    q, meta = presentation_from_json(
        '{"generators": ["a", "a~", "b_2"], "relators": ["[a, a~]", "b_2^3"]}')
    assert q == parse_presentation("< a, a~, b_2 | [a, a~], b_2^3 >") and meta == {}
    for bad in ("< a~~ | >", "< a b | >"):
        with pytest.raises(ParseError):
            parse_presentation(bad)
