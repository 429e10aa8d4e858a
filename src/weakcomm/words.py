"""Free-group words over a two-sorted alphabet.

An alphabet consists of generator symbols, each a base name with an optional
bar flag (``a`` vs ``a~`` in text form).  Words are immutable, freely reduced
sequences of signed symbols.  Because every ``Word`` is reduced, a product
cancels only across the junction of its two operands and an inverse is the
reversed word with each letter inverted; neither re-reduces.  On top of the
plain word algebra (also on tuples of signed generator codes, ``mul_codes``
and ``inverse_codes``) this module provides the structural letter maps of the
weak-commutativity double: the copy swap ``bar``, the two coordinate
projections ``pi`` / ``pibar``, and the three-coordinate embedding map
``rho`` defined letter-by-letter by

    g  ->  (g, g, 1)        g~  ->  (1, g, g).

The token ``l_<name>`` in text input is derived notation for the letter
difference ``<name>^-1 * <name>~`` and is expanded eagerly at parse time.
``parse_word`` lexes its text once and reads the tokens in one loop: a
declared letter is the alphabet's own symbol, so parsing builds no symbol
per letter, and each factor joins the word parsed so far with cancellation
at the junction only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, neg
from typing import Iterable, Iterator, Sequence

from .errors import AlphabetError, ArgumentError, ParseError


@dataclass(frozen=True)
class GenSymbol:
    """One signed letter: base name, bar flag, and sign (+1 or -1).

    Symbols compare and hash by (name, bar, sign), so a letter and its
    inverse are different symbols; ``same_generator`` compares (name, bar)
    alone.  ``format_word`` collapses a run of one (name, bar, sign) into a
    power.
    """

    name: str
    bar: bool = False
    sign: int = 1

    def __post_init__(self):
        if not self.name or not re.fullmatch(r"[A-Za-z0-9_]+", self.name):
            raise ArgumentError(f"invalid generator name {self.name!r}")
        if self.sign not in (1, -1):
            raise ArgumentError(f"symbol sign must be +1 or -1, got {self.sign}")

    @property
    def generator(self) -> "GenSymbol":
        return GenSymbol(self.name, self.bar, 1)

    def inverse(self) -> "GenSymbol":
        # the symbol was validated when it was made, so its inverse is built
        # once and cached (one entry per distinct letter) rather than run
        # through the name check again
        inv = _INVERSES.get(self)
        if inv is None:
            inv = _INVERSES[self] = GenSymbol(self.name, self.bar, -self.sign)
        return inv

    def same_generator(self, other: "GenSymbol") -> bool:
        return self.name == other.name and self.bar == other.bar

    def __str__(self) -> str:
        s = self.name + ("~" if self.bar else "")
        return s + ("^-1" if self.sign < 0 else "")


_INVERSES: dict[GenSymbol, GenSymbol] = {}


def _reduce(letters: Iterable[GenSymbol]) -> tuple[GenSymbol, ...]:
    stack: list[GenSymbol] = []
    for sym in letters:
        if stack and stack[-1].same_generator(sym) and stack[-1].sign == -sym.sign:
            stack.pop()
        else:
            stack.append(sym)
    return tuple(stack)


class Word:
    """A freely reduced word.  The empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[GenSymbol] = ()):
        object.__setattr__(self, "letters", _reduce(letters))

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[GenSymbol]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        # both operands are reduced: only letters at the junction can cancel
        a, b = self.letters, other.letters
        i, n, k = len(a), min(len(a), len(b)), 0
        while k < n:
            x, y = a[i - 1 - k], b[k]
            if x.sign == y.sign or x.name != y.name or x.bar != y.bar:
                break
            k += 1
        return _reduced_word(a[:i - k] + b[k:])

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        letters = base.letters
        if letters and letters[0] != letters[-1].inverse():
            # cyclically reduced: the copies cannot cancel at their junctions
            return _reduced_word(letters * abs(n))
        return Word(letters * abs(n))

    def inverse(self) -> "Word":
        # the reverse of a reduced word is reduced
        return _reduced_word(tuple(sym.inverse() for sym in reversed(self.letters)))

    def conjugate(self, by: "Word") -> "Word":
        """self^by = by^-1 * self * by."""
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return not self.letters

    def cyclically_reduced(self) -> "Word":
        letters = list(self.letters)
        while len(letters) >= 2 and letters[0].same_generator(letters[-1]) \
                and letters[0].sign == -letters[-1].sign:
            letters = letters[1:-1]
        return Word(letters)

    def exponent_sum(self, gen: GenSymbol) -> int:
        name, bar = gen.name, gen.bar
        return sum(sym.sign for sym in self.letters
                   if sym.name == name and sym.bar == bar)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


def _reduced_word(letters: tuple[GenSymbol, ...]) -> Word:
    """A Word over letters that are already freely reduced, without _reduce."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


def mul_codes(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two reduced signed-code words: cancel at the junction."""
    if not a or not b or a[-1] != -b[0]:
        return a + b
    i, n, k = len(a), min(len(a), len(b)), 0
    while k < n and a[i - 1 - k] == -b[k]:
        k += 1
    return a[:i - k] + b[k:]


def inverse_codes(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(a)))


def free_reduce(letters: Sequence[GenSymbol],
                alphabet: Sequence[GenSymbol] | None = None) -> Word:
    """Freely reduce a raw symbol sequence.

    When an alphabet is given, every symbol must be drawn from it.
    """
    if alphabet is not None:
        allowed = {s.generator for s in alphabet}
        for sym in letters:
            if sym.generator not in allowed:
                raise AlphabetError(f"symbol {sym} not in declared alphabet")
    return Word(letters)


def reduced_words(alphabet: Sequence[GenSymbol], max_len: int) -> list[Word]:
    """Every freely reduced word of length <= max_len over the alphabet,
    breadth first: the empty word, then by length, extending each word of the
    previous length by the generators in order and then by their inverses."""
    letters = [Word([g]) for g in alphabet] + [Word([g.inverse()]) for g in alphabet]
    out = [Word()]
    frontier = [Word()]
    for _ in range(max_len):
        frontier = [v for w in frontier for letter in letters
                    if len(v := w * letter) == len(w) + 1]
        out.extend(frontier)
    return out


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v."""
    return u.inverse() * v.inverse() * u * v


def left_normed(ws: Sequence[Word]) -> Word:
    """[[w1, w2], w3], ... folded left."""
    if not ws:
        raise ArgumentError("left_normed needs at least one word")
    acc = ws[0]
    for w in ws[1:]:
        acc = commutator(acc, w)
    return acc


def engel_word(x: Word, y: Word, n: int) -> Word:
    """The n-th Engel word: [x, y, y, ..., y] with n copies of y."""
    if n < 1:
        raise ArgumentError(f"Engel index must be >= 1, got {n}")
    acc = commutator(x, y)
    for _ in range(n - 1):
        acc = commutator(acc, y)
    return acc


# -- structural maps of the double ------------------------------------------

def bar_word(w: Word) -> Word:
    """Swap the two copies of the alphabet."""
    return Word(GenSymbol(s.name, not s.bar, s.sign) for s in w)


def pi_word(w: Word) -> Word:
    """Send both g and g~ to g."""
    return Word(GenSymbol(s.name, False, s.sign) for s in w)


def pibar_word(w: Word) -> Word:
    """Kill unbarred letters; barred letters map to their unbarred names."""
    return Word(GenSymbol(s.name, False, s.sign) for s in w if s.bar)


def rho_word(w: Word) -> tuple[Word, Word, Word]:
    """Letter-by-letter image in the triple product: g -> (g,g,1), g~ -> (1,g,g)."""
    first: list[GenSymbol] = []
    second: list[GenSymbol] = []
    third: list[GenSymbol] = []
    for s in w:
        plain = GenSymbol(s.name, False, s.sign)
        if s.bar:
            second.append(plain)
            third.append(plain)
        else:
            first.append(plain)
            second.append(plain)
    return Word(first), Word(second), Word(third)


# -- text form ---------------------------------------------------------------
#
# word     := factor*                     (juxtaposition; '*' optional)
# factor   := atom ('^' integer)?
# atom     := NAME '~'? | '[' word (',' word)+ ']' | '(' word ')' | '1'
#
# Commutator brackets with more than two entries are left-normed.  The text
# is lexed once, one _TOKEN_RE match per token; a tail that does not lex
# becomes an error token, raised only when the grammar reaches it, so errors
# come in the order of a left-to-right reading.  parse_word reads the tokens
# in one loop with a stack of open brackets, takes declared letters from the
# alphabet, repeats a single letter for its power, and joins each factor
# (reduced) onto the letters so far (reduced) with cancellation at the
# junction only; one Word is built at the end.  Bracketed factors are rare,
# and take their commutators and powers from the Word algebra.

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z0-9_]+)|(?P<op>[~^*\[\](),])|(?P<int>-\d+))")


def _lex(text: str) -> tuple[list, list[int], list[int], ParseError | None]:
    """The tokens of the text, each matched once: their strings, their kinds
    (the ``_TOKEN_RE`` group index: 1 name, 2 operator, 3 negative integer),
    and bounds, where token i spans ``bounds[i]`` (before its leading
    whitespace) to ``bounds[i + 1]``.  A last token of kind 0 ends the text;
    if the text ends in something that does not lex, that last token has kind
    -1 and the error is returned, to be raised when the grammar reaches it."""
    match = _TOKEN_RE.match
    toks: list = []
    kinds: list[int] = []
    bounds = [0]
    p, n = 0, len(text)
    while p < n:
        m = match(text, p)
        if m is None:
            break
        k = m.lastindex
        toks.append(m[k])
        kinds.append(k)
        p = m.end()
        bounds.append(p)
    toks.append(None)
    bounds.append(n)
    rest = text[p:].lstrip()
    if rest:
        kinds.append(-1)
        return toks, kinds, bounds, ParseError(f"unexpected character {rest[0]!r}", p)
    kinds.append(0)
    return toks, kinds, bounds, None


def _expand_symbol(name: str, bar: bool, alphabet: set[tuple[str, bool]] | None,
                   pos: int) -> list[GenSymbol]:
    if alphabet is None or (name, bar) in alphabet:
        return [GenSymbol(name, bar)]
    if not bar and name.startswith("l_") and (name[2:], False) in alphabet \
            and (name[2:], True) in alphabet:
        base = name[2:]
        return [GenSymbol(base, False, -1), GenSymbol(base, True, 1)]
    raise ParseError(f"undeclared generator {name + ('~' if bar else '')!r}", pos)


def _join(acc: list[GenSymbol], factor: Sequence[GenSymbol]) -> None:
    """acc := acc * factor; both are reduced, so only the junction cancels."""
    k, n = 0, len(factor)
    while acc and k < n:
        x, y = acc[-1], factor[k]
        if x.sign == y.sign or x.name != y.name or x.bar != y.bar:
            break
        acc.pop()
        k += 1
    acc.extend(factor[k:] if k else factor)


def parse_word(text: str, alphabet: Sequence[GenSymbol] | None = None) -> Word:
    """Parse the text form of a word.

    `alphabet` is a sequence of (unsigned) generator symbols; when given,
    undeclared names are an error and ``l_<name>`` expands to the letter
    difference.  Without it any alphanumeric name is accepted literally.
    """
    toks, kinds, bounds, lex_error = _lex(text)
    # the letters of each name, by bar flag: the alphabet's own symbols, and
    # what _expand_symbol gives for other names, the first time each is read
    spelled: tuple[dict[str, list[GenSymbol]], dict[str, list[GenSymbol]]] = ({}, {})
    for s in alphabet or ():
        spelled[s.bar][s.name] = [s if s.sign == 1 else s.generator]
    acc: list[GenSymbol] = []
    # one frame per open bracket: (opener, its position, the word outside it,
    # the finished entries of a commutator)
    stack: list[tuple[str, int, list[GenSymbol], list[list[GenSymbol]]]] = []
    i = 0
    while True:
        tok, kind = toks[i], kinds[i]
        if kind == 1 and tok != "1":
            at = i
            i += 1
            bar = toks[i] == "~"
            if bar:
                i += 1
            elif kinds[i] < 0:
                raise lex_error
            factor = spelled[bar].get(tok)
            if factor is None:
                declared = None if alphabet is None else {(s.name, s.bar) for s in alphabet}
                factor = spelled[bar][tok] = _expand_symbol(tok, bar, declared, bounds[at])
        elif tok == "*":
            i += 1
            continue
        elif tok == "1":
            factor = []
            i += 1
        elif tok == "(" or tok == "[":
            stack.append((tok, bounds[i], acc, []))
            acc = []
            i += 1
            continue
        elif kind <= 0:
            if kind < 0:
                raise lex_error
            if not stack:
                return _reduced_word(tuple(acc))
            if stack[-1][0] == "(":
                raise ParseError("expected ')'", bounds[i + 1])
            raise ParseError("expected ',' or ']'", bounds[i + 1])
        elif tok == ")" and stack and stack[-1][0] == "(":
            factor = acc
            acc = stack.pop()[2]
            i += 1
        elif (tok == "]" or tok == ",") and stack and stack[-1][0] == "[":
            parts = stack[-1][3]
            parts.append(acc)
            i += 1
            if tok == ",":
                acc = []
                continue
            _, at, acc, _ = stack.pop()
            if len(parts) < 2:
                raise ParseError("commutator needs at least two entries", at)
            factor = left_normed([_reduced_word(tuple(p)) for p in parts]).letters
        else:
            raise ParseError(f"unexpected token {tok!r}", bounds[i])
        if toks[i] == "^":
            i += 1
            exp, kind = toks[i], kinds[i]
            if kind < 0:
                raise lex_error
            if not (kind == 3 or kind == 1 and exp.isdigit()):
                raise ParseError("expected integer exponent after '^'", bounds[i + 1])
            i += 1
            n = int(exp)
            if len(factor) == 1:
                # a power of one letter is a repeat of it or of its inverse
                factor = [factor[0]] * n if n >= 0 else [factor[0].inverse()] * -n
            else:
                factor = (_reduced_word(tuple(factor)) ** n).letters
        if acc:
            _join(acc, factor)
        else:
            acc = list(factor)


_SIGNED_LETTER = attrgetter("name", "bar", "sign")


def format_word(w: Word) -> str:
    """Canonical text form: runs collapsed to powers, '*'-separated."""
    if not len(w):
        return "1"
    parts: list[str] = []
    for (name, bar, sign), run in groupby(w, _SIGNED_LETTER):
        base = name + "~" if bar else name
        exp = sign * len(list(run))
        parts.append(base if exp == 1 else f"{base}^{exp}")
    return "*".join(parts)
