from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from weakcomm import words as words_module
from weakcomm.errors import AlphabetError, ArgumentError, ParseError
from weakcomm.words import (GenSymbol, Word, bar_word, commutator, engel_word,
                            format_word, free_reduce, left_normed, parse_word,
                            pi_word, pibar_word, reduced_words, rho_word)

from .oracles import lazy_parse_word, run_format_word

A, B = GenSymbol("a"), GenSymbol("b")
ABAR = GenSymbol("a", bar=True)
ALPHABET = (A, B, ABAR, GenSymbol("b", bar=True))
L_A = Word([A.inverse(), ABAR])     # the letter difference l_a = a^-1 a~


def gen(name: str, bar: bool = False) -> Word:
    """The one-letter word on a generator."""
    return Word([GenSymbol(name, bar)])


symbols = st.sampled_from([GenSymbol(n, b, s) for n in "ab"
                           for b in (False, True) for s in (1, -1)])
raw_words = st.lists(symbols, max_size=12)
words = raw_words.map(Word)


def test_free_reduce_examples():
    assert free_reduce([A, A.inverse()]) == Word()
    assert free_reduce([A, B, B.inverse(), A]) == Word([A, A])
    w = [A.inverse(), B.inverse(), A, B]
    assert free_reduce(w) == Word(w)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_reduced_words_breadth_first(rank):
    alphabet = [GenSymbol(name) for name in "abc"[:rank]]
    ws = reduced_words(alphabet, 4)
    assert len(ws) == 1 + sum(2 * rank * (2 * rank - 1) ** (n - 1)
                              for n in range(1, 5))
    assert len(set(ws)) == len(ws)
    for w in ws:
        assert not any(x.same_generator(y) and x.sign == -y.sign
                       for x, y in zip(w.letters, w.letters[1:]))
    assert [len(w) for w in ws] == sorted(len(w) for w in ws)
    assert ws[:1 + 2 * rank] == [Word()] + [Word([g]) for g in alphabet] + \
        [Word([g.inverse()]) for g in alphabet]


def test_free_reduce_alphabet_error():
    with pytest.raises(AlphabetError):
        free_reduce([GenSymbol("z")], alphabet=(A, B))


@given(raw_words)
def test_free_reduce_idempotent_and_nonincreasing(letters):
    once = free_reduce(letters)
    assert free_reduce(list(once)) == once
    assert len(once) <= len(letters)


def test_commutator_examples():
    a, b = gen("a"), gen("b")
    assert commutator(a, a) == Word()
    assert commutator(a, b) == Word([A.inverse(), B.inverse(), A, B])
    assert left_normed([a, b, gen("c")]) == commutator(commutator(a, b), gen("c"))
    with pytest.raises(ArgumentError):
        left_normed([])


def test_engel_words():
    x, y = gen("x"), gen("y")
    assert engel_word(x, y, 1) == commutator(x, y)
    assert engel_word(x, y, 2) == commutator(commutator(x, y), y)
    for n in range(1, 5):
        assert engel_word(x, x, n) == Word()
    with pytest.raises(ArgumentError):
        engel_word(x, y, 0)


def test_structural_map_examples():
    first, second, third = rho_word(L_A)
    assert first == gen("a") ** -1
    assert second == Word()
    assert third == gen("a")
    # the defining relator maps to the identity in all three coordinates
    relator = commutator(gen("a"), Word([ABAR]))
    assert rho_word(relator) == (Word(), Word(), Word())


def test_bar_pi_pibar():
    w = parse_word("a * b~ * a^-1", ALPHABET)
    assert bar_word(w) == parse_word("a~ * b * a~^-1", ALPHABET)
    assert pi_word(w) == parse_word("a * b * a^-1", (A, B))
    assert pibar_word(w) == gen("b")


@given(words)
def test_pi_of_bar_equals_pi(w):
    assert pi_word(bar_word(w)) == pi_word(w)


@given(words)
def test_pibar_sees_only_barred_letters(w):
    barred_only = Word([s for s in w if s.bar])
    assert pibar_word(w) == pibar_word(barred_only)


@given(words, words)
def test_rho_is_multiplicative(u, v):
    ru, rv, ruv = rho_word(u), rho_word(v), rho_word(u * v)
    assert ruv == tuple(x * y for x, y in zip(ru, rv))


@given(words)
def test_rho_middle_coordinate_is_pi(w):
    assert rho_word(w)[1] == pi_word(w)


def test_parse_examples():
    w = parse_word("[a, a~]^-1 * b", ALPHABET)
    assert w == commutator(gen("a"), Word([ABAR])).inverse() * gen("b")
    assert parse_word("(a*b)^3") == (gen("a") * gen("b")) ** 3
    assert parse_word("a^-2") == gen("a") ** -2
    assert parse_word("1") == Word()
    assert parse_word("[a, b, a]") == left_normed([gen("a"), gen("b"), gen("a")])


def test_parse_letter_difference_token():
    assert parse_word("l_a", ALPHABET) == L_A
    # a literal generator named l_a wins over the derived notation
    lit = (GenSymbol("l_a"),)
    assert parse_word("l_a", lit) == Word([GenSymbol("l_a")])


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("a^")
    with pytest.raises(ParseError):
        parse_word("[a]")
    with pytest.raises(ParseError):
        parse_word("a )")
    with pytest.raises(ParseError):
        parse_word("c", (A, B))
    try:
        parse_word("a * $")
    except ParseError as exc:
        assert exc.position is not None


def test_parse_matches_each_token_once(monkeypatch):
    class CountingPattern:
        def __init__(self, pattern):
            self.pattern, self.matches = pattern, 0

        def match(self, *args):
            self.matches += 1
            return self.pattern.match(*args)

    counting = CountingPattern(words_module._TOKEN_RE)
    monkeypatch.setattr(words_module, "_TOKEN_RE", counting)
    text = "[a^2, b~]*c^-3*(a*b)^2"
    expected = commutator(gen("a") ** 2, Word([GenSymbol("b", True)])) \
        * gen("c") ** -3 * (gen("a") * gen("b")) ** 2
    assert parse_word(text) == expected
    assert counting.matches <= 20 + 1   # 20 tokens, plus the end check


def test_parse_with_an_alphabet_matches_each_token_once(monkeypatch):
    pattern, matches = words_module._TOKEN_RE, []

    def counting_match(*args):
        matches.append(args)
        return pattern.match(*args)

    monkeypatch.setattr(words_module, "_TOKEN_RE", SimpleNamespace(match=counting_match))
    text = "b~^7 * a^-12 * l_a * [a, b~]^2"
    expected = Word([GenSymbol("b", True)]) ** 7 * gen("a") ** -12 * L_A \
        * commutator(gen("a"), Word([GenSymbol("b", True)])) ** 2
    assert parse_word(text, ALPHABET) == expected
    assert len(matches) == 19     # one per token, none at the end


def _parsed(parse, text, alphabet):
    try:
        return parse(text, alphabet)
    except ParseError as exc:
        return str(exc), exc.position


# the token alphabet of the text form, an undeclared name, the derived l_a,
# and a character that does not lex
parse_tokens = st.sampled_from(["a", "b", "c", "a~", "l_a", "1", "-2", "3", "~",
                                "^", "*", "[", "]", "(", ")", ",", " ", "$"])
exponents = st.sampled_from(["", "^0", "^2", "^3", "^-1", "^-2"])
letter_texts = st.tuples(st.sampled_from(["a", "b", "c", "a~", "l_a", "1"]),
                         exponents).map("".join)


def _compound(inner):
    group = st.one_of(inner.map("({})".format),
                      st.lists(inner, min_size=1, max_size=3).map(", ".join)
                      .map("[{}]".format))
    factor = st.one_of(letter_texts, st.tuples(group, exponents).map("".join))
    return st.lists(factor, min_size=1, max_size=4).map("*".join)


# texts that follow the grammar, and texts of tokens in any order
parse_texts = st.one_of(st.recursive(letter_texts, _compound, max_leaves=12),
                        st.lists(parse_tokens, max_size=16).map("".join))


@settings(max_examples=500)
@given(parse_texts)
def test_parse_matches_the_lazy_parser(text):
    for alphabet in (ALPHABET, None):
        assert _parsed(parse_word, text, alphabet) == \
            _parsed(lazy_parse_word, text, alphabet)


@given(words)
def test_format_parse_round_trip(w):
    assert parse_word(format_word(w), ALPHABET) == w


def test_word_algebra():
    a, b = gen("a"), gen("b")
    w = a * b
    assert w.inverse() == b.inverse() * a.inverse()
    assert (w ** 0) == Word()
    assert w ** -2 == (w ** 2).inverse()
    assert w.conjugate(a) == a.inverse() * w * a
    assert (a * b * a.inverse()).cyclically_reduced() == b
    assert w.exponent_sum(A) == 1 and w.exponent_sum(B) == 1


# Word products cancel only at the junction and inverses skip reduction; the
# properties below hold them to a full re-reduction of the raw letters.

def _reduced_inverse(letters):
    return words_module._reduce(s.inverse() for s in reversed(letters))


@given(words, words)
def test_product_is_the_reduced_concatenation(u, v):
    assert (u * v).letters == words_module._reduce(u.letters + v.letters)


@given(words)
def test_inverse_is_the_reduced_reversal(u):
    assert u.inverse().letters == _reduced_inverse(u.letters)
    assert (u * u.inverse()).is_identity()
    assert (u.inverse() * u).is_identity()


@given(words, st.integers(-3, 3))
def test_power_is_the_reduced_repetition(u, n):
    base = u.letters if n >= 0 else _reduced_inverse(u.letters)
    assert (u ** n).letters == words_module._reduce(base * abs(n))


@given(words)
def test_format_word_matches_the_run_scan(w):
    assert format_word(w) == run_format_word(w)


@given(words)
def test_exponent_sum_counts_signed_letters(w):
    for g in ALPHABET:
        # the comparison of whole generator symbols it replaced
        assert w.exponent_sum(g) == \
            sum(s.sign for s in w if s.generator == g.generator)
        assert w.exponent_sum(g.inverse()) == w.exponent_sum(g)
