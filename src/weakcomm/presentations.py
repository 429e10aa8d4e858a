"""Finite group presentations and the weak-commutativity double.

A presentation is an ordered generator list plus freely-and-cyclically
reduced relator words.  It numbers its letters once, in ``index``, and every
other module that needs a generator's position reads it there.  The double
of ``<X | R>`` adds a barred copy of every generator and, per witness word
w, the relator ``[w, bar(w)]``.  With the ``AllElements`` policy (one
witness per element of a finite group, obtained from a coset enumeration)
the double presents the weak-commutativity group exactly; with
``LengthBound(k)`` it presents a group that may be a proper pre-image,
which callers must surface.  One function, ``double_and_base_table``,
builds every double; it also returns the regular base table that it read
the witnesses off, which ``sidki_double`` drops.  It refuses a barred base,
and an infinite one under ``AllElements``, before it enumerates anything.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import ArgumentError, ParseError, SizeGuardError
from .intlinalg import FinAbGroup, IntMatrix, cokernel
from .words import (GenSymbol, Word, bar_word, commutator, format_word,
                    parse_word, reduced_words)

if TYPE_CHECKING:
    from .enumerator import CosetTable


@dataclass(frozen=True)
class AllElements:
    """One witness word per non-identity group element (finite groups only)."""

    def label(self) -> str:
        return "all"


@dataclass(frozen=True)
class LengthBound:
    """Witness words: all freely reduced words of length <= k."""

    k: int

    def label(self) -> str:
        return f"len:{self.k}"


WitnessPolicy = AllElements | LengthBound


class Presentation:
    """``< generators | relators >`` with validated, cyclically reduced
    relators; ``index`` maps each generator's (name, bar) to its position."""

    def __init__(self, generators: Sequence[GenSymbol], relators: Sequence[Word]):
        gens = tuple(g.generator for g in generators)
        self.index = index = {}
        for i, g in enumerate(gens):
            if index.setdefault((g.name, g.bar), i) != i:
                raise ArgumentError(f"duplicate generator {g}")
        reduced = []
        for r in relators:
            for sym in r:
                if (sym.name, sym.bar) not in index:
                    raise ArgumentError(f"relator uses undeclared generator {sym}")
            r = r.cyclically_reduced()
            if not r.is_identity():
                reduced.append(r)
        self.generators = gens
        self.relators = tuple(reduced)

    def __eq__(self, other) -> bool:
        return isinstance(other, Presentation) and \
            self.generators == other.generators and self.relators == other.relators

    def __repr__(self) -> str:
        return f"Presentation({format_presentation(self)!r})"

    def __str__(self) -> str:
        return format_presentation(self)


def parse_presentation(text: str) -> Presentation:
    """Parse ``< gens | relators >``; whitespace-insensitive."""
    stripped = text.strip()
    if not stripped.startswith("<"):
        raise ParseError("presentation must start with '<'", 0)
    if not stripped.endswith(">"):
        raise ParseError("presentation must end with '>'", len(text) - 1)
    body = stripped[1:-1]
    if "|" not in body:
        raise ParseError("presentation needs a '|' separator", text.index("<") + 1)
    gens_part, _, rel_part = body.partition("|")
    generators: list[GenSymbol] = []
    for piece in gens_part.split(","):
        piece = piece.strip()
        if not piece:
            if gens_part.strip():
                raise ParseError("empty generator name", text.index(","))
            continue
        generators.append(_generator(piece, text.index(piece)))
    if not generators:
        raise ParseError("presentation needs at least one generator", 1)
    relators = []
    for piece in _split_top_level(rel_part):
        piece = piece.strip()
        if piece:
            relators.append(parse_word(piece, generators))
    return Presentation(generators, relators)


_GENERATOR_RE = re.compile(r"([A-Za-z0-9_]+)(~?)")


def _generator(name: str, pos: int | None = None) -> GenSymbol:
    """The generator a name spells: a base name and an optional bar."""
    m = _GENERATOR_RE.fullmatch(name)
    if not m:
        raise ParseError(f"bad generator name {name!r}", pos)
    return GenSymbol(m.group(1), bar=bool(m.group(2)))


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested inside brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def format_presentation(p: Presentation) -> str:
    gens = ", ".join(map(str, p.generators))
    rels = ", ".join(format_word(r) for r in p.relators)
    return f"< {gens} | {rels} >"


def presentation_to_json(p: Presentation, meta: dict | None = None) -> str:
    doc = {
        "schema_version": 1,
        "generators": [str(g) for g in p.generators],
        "relators": [format_word(r) for r in p.relators],
        "meta": meta or {},
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def presentation_from_json(text: str) -> tuple[Presentation, dict]:
    """Inverse of ``presentation_to_json``; ParseError on invalid JSON, a
    missing key, an entry that is not a string, or a generator name that
    ``parse_presentation`` rejects."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"presentation is not valid JSON: {exc.msg}", exc.pos) from exc
    doc = doc if isinstance(doc, dict) else {}
    names, rels = doc.get("generators"), doc.get("relators")
    if not all(isinstance(v, list) and all(isinstance(s, str) for s in v)
               for v in (names, rels)):
        raise ParseError("presentation needs lists of strings 'generators' and 'relators'")
    gens = [_generator(name) for name in names]
    return Presentation(gens, [parse_word(r, gens) for r in rels]), doc.get("meta", {})


# -- the double ---------------------------------------------------------------

def require_unbarred(p: Presentation) -> None:
    if any(g.bar for g in p.generators):
        raise ArgumentError("presentation already contains barred generators")


def double_and_base_table(p: Presentation, policy: WitnessPolicy,
                          max_cosets: int = 10 ** 6
                          ) -> tuple[Presentation, CosetTable | None]:
    """The double: generators X u barred X, relators R u bar(R) u
    {[w, bar w] : w a witness}, and the regular base table the witnesses
    were read off, or None.  The witnesses are one word per non-identity
    element of the base (``AllElements``), or the reduced words of length
    1..k (``LengthBound(k)``), in both cases without w when w^-1 is taken.
    Before any enumeration: ArgumentError for a barred generator, then
    SizeGuardError for ``AllElements`` over a base of positive free rank."""
    require_unbarred(p)
    base_table = None
    if isinstance(policy, LengthBound):
        if policy.k < 1:
            raise ArgumentError("length bound must be >= 1")
        words, key = reduced_words(p.generators, policy.k)[1:], lambda w: w
    else:
        require_finite(p, max_cosets)
        from .enumerator import enumerate_cosets
        base_table = enumerate_cosets(p, [], max_cosets=max_cosets)
        words = base_table.coset_words()[1:]
        key = lambda w: base_table.trace_word(0, w)
    # [w, bar w] and [w^-1, bar(w)^-1] are consequences of each other
    witnesses, taken = [], set()
    for w in words:
        if key(w.inverse()) not in taken:
            taken.add(key(w))
            witnesses.append(w)
    gens = list(p.generators) + [GenSymbol(g.name, bar=True) for g in p.generators]
    relators = list(p.relators) + [bar_word(r) for r in p.relators]
    relators += [commutator(w, bar_word(w)) for w in witnesses]
    return Presentation(gens, relators), base_table


def sidki_double(p: Presentation, policy: WitnessPolicy,
                 max_cosets: int = 10 ** 6) -> Presentation:
    """The double alone, as ``double_and_base_table`` builds it."""
    return double_and_base_table(p, policy, max_cosets)[0]


# -- abelian invariants and products ------------------------------------------

def exponent_matrix(p: Presentation) -> IntMatrix:
    """Generators as rows, relators as columns; entries are exponent sums."""
    m = IntMatrix.zero(len(p.generators), len(p.relators))
    for j, r in enumerate(p.relators):
        for sym in r:
            m.data[p.index[sym.name, sym.bar]][j] += sym.sign
    return m


def abelianization(p: Presentation) -> FinAbGroup:
    return cokernel(exponent_matrix(p))


def require_finite(p: Presentation, max_cosets: int) -> FinAbGroup:
    """The abelianization, or SizeGuardError when its free rank is positive:
    the group is infinite, so no coset budget suffices and enumerating would
    only exhaust it."""
    q = abelianization(p)
    if q.free_rank:
        raise SizeGuardError(f"infinite (free rank {q.free_rank})", max_cosets)
    return q


def _renamed(p: Presentation, suffix: str) -> Presentation:
    def rename(w: Word) -> Word:
        return Word(GenSymbol(s.name + suffix, s.bar, s.sign) for s in w)

    gens = [GenSymbol(g.name + suffix, g.bar) for g in p.generators]
    return Presentation(gens, [rename(r) for r in p.relators])


def _disjointify(p1: Presentation, p2: Presentation) -> tuple[Presentation, Presentation]:
    if {name for name, _ in p1.index} & {name for name, _ in p2.index}:
        return _renamed(p1, "_1"), _renamed(p2, "_2")
    return p1, p2


def free_product(p1: Presentation, p2: Presentation) -> Presentation:
    p1, p2 = _disjointify(p1, p2)
    return Presentation(list(p1.generators) + list(p2.generators),
                        list(p1.relators) + list(p2.relators))


def direct_product(p1: Presentation, p2: Presentation) -> Presentation:
    p1, p2 = _disjointify(p1, p2)
    relators = list(p1.relators) + list(p2.relators)
    relators += [commutator(Word([g]), Word([h]))
                 for g in p1.generators for h in p2.generators]
    return Presentation(list(p1.generators) + list(p2.generators), relators)
