"""Todd-Coxeter coset enumeration.

The default strategy is HLT (scan-and-fill every relator at every live
coset) with a lookahead pass and table compaction when the live-coset count
approaches the budget; a Felsch-style deduction-stack strategy is available
as an alternative.  Coincidences are processed with a path-compressed
union-find.  Cosets are numbered in discovery order and dead cosets are
compacted away before the table is published, so output is deterministic for
a fixed strategy and input order.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import ArgumentError, EnumerationOverflow, WeakcommError
from .permgroups import Perm, PermGroup
from .presentations import Presentation
from .words import GenSymbol, Word


def signed_letters(p: Presentation, w: Word) -> tuple[int, ...]:
    """Encode a word as signed 1-based generator indices."""
    idx = p.gen_index()
    out = []
    for sym in w:
        i = idx.get((sym.name, sym.bar))
        if i is None:
            raise ArgumentError(f"word uses undeclared generator {sym}")
        out.append((i + 1) * sym.sign)
    return tuple(out)


def _columns(p: Presentation, w: Word) -> tuple[int, ...]:
    # column 2i is generator i, column 2i+1 its inverse
    return tuple(2 * (abs(s) - 1) + (0 if s > 0 else 1)
                 for s in signed_letters(p, w))


def _inv_col(x: int) -> int:
    return x ^ 1


# HLT renumbers the table mid-run once more than this many rows are dead and
# dead rows are more than half of all rows
COMPACT_THRESHOLD = 4096


@dataclass
class CosetTable:
    """A closed coset table: one permutation of cosets per generator."""

    n_cosets: int
    action: list[Perm]             # one permutation per generator, forward
    generators: tuple[GenSymbol, ...]
    subgroup_words: tuple[Word, ...]

    def _letter_maps(self) -> dict[tuple[str, bool, int], tuple[int, ...]]:
        maps = getattr(self, "_letter_cache", None)
        if maps is None:
            maps = {}
            for g, perm in zip(self.generators, self.action):
                maps[(g.name, g.bar, 1)] = perm.img
                maps[(g.name, g.bar, -1)] = perm.inverse().img
            object.__setattr__(self, "_letter_cache", maps)
        return maps

    def trace_word(self, start: int, w: Word) -> int:
        maps = self._letter_maps()
        c = start
        for sym in w:
            c = maps[(sym.name, sym.bar, sym.sign)][c]
        return c

    def is_trivial_word(self, w: Word) -> bool:
        """For a regular table (trivial subgroup) the action is free, so a
        word is trivial iff it fixes coset 0."""
        if self.subgroup_words:
            return self.word_image_unchecked(w).is_identity()
        return self.trace_word(0, w) == 0

    def word_image_unchecked(self, w: Word) -> Perm:
        maps = self._letter_maps()
        cur = list(range(self.n_cosets))
        for sym in w:
            m = maps[(sym.name, sym.bar, sym.sign)]
            cur = [m[c] for c in cur]
        return Perm(cur)

    def word_image(self, p: Presentation, w: Word) -> Perm:
        signed_letters(p, w)  # alphabet validation
        return self.word_image_unchecked(w)

    def coset_words(self) -> list[Word]:
        """One representative word per coset, BFS-shortest, discovery order."""
        letters: list[tuple[GenSymbol, Perm]] = []
        for g, perm in zip(self.generators, self.action):
            letters.append((GenSymbol(g.name, g.bar, 1), perm))
            letters.append((GenSymbol(g.name, g.bar, -1), perm.inverse()))
        words: list[Word | None] = [None] * self.n_cosets
        words[0] = Word()
        queue = deque([0])
        while queue:
            c = queue.popleft()
            for sym, perm in letters:
                d = perm.img[c]
                if words[d] is None:
                    words[d] = words[c] * Word([sym])
                    queue.append(d)
        if any(w is None for w in words):
            raise WeakcommError("coset table is not transitive")  # cannot happen
        return words  # type: ignore[return-value]

    def to_json(self) -> str:
        doc = {
            "schema_version": 1,
            "n_cosets": self.n_cosets,
            "action": {g.name + ("~" if g.bar else ""): list(perm.img)
                       for g, perm in zip(self.generators, self.action)},
            "subgroup": [str(w) for w in self.subgroup_words],
        }
        return json.dumps(doc, sort_keys=True, indent=2)


class _Enumeration:
    def __init__(self, pres: Presentation, subgens: Sequence[Word], max_cosets: int):
        self.pres = pres
        self.ncols = 2 * len(pres.generators)
        self.relators = [_columns(pres, r) for r in pres.relators]
        self.subgens = [_columns(pres, w) for w in subgens]
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p = [0]                     # union-find
        self.n_dead = 0
        self.track_deductions = False    # only Felsch consumes the stack
        self.deductions: deque[tuple[int, int]] = deque()

    # union-find ---------------------------------------------------------

    def find(self, a: int) -> int:
        root = a
        while self.p[root] != root:
            root = self.p[root]
        while self.p[a] != root:
            self.p[a], a = root, self.p[a]
        return root

    def alive(self, a: int) -> bool:
        return self.p[a] == a

    def n_live(self) -> int:
        return len(self.table) - self.n_dead

    # table primitives ------------------------------------------------------

    def define(self, a: int, x: int) -> int:
        if self.n_live() >= self.max_cosets:
            raise EnumerationOverflow(self.max_cosets)
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(b)
        self.table[a][x] = b
        self.table[b][_inv_col(x)] = a
        return b

    def set_entry(self, a: int, x: int, b: int) -> None:
        self.table[a][x] = b
        self.table[b][_inv_col(x)] = a
        if self.track_deductions:
            self.deductions.append((a, x))

    def merge(self, a: int, b: int, queue: deque) -> None:
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        self.n_dead += 1
        queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        queue: deque[int] = deque()
        self.merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            for x in range(self.ncols):
                d = self.table[dead][x]
                if d is None:
                    continue
                self.table[d][_inv_col(x)] = None
                mu, nu = self.find(dead), self.find(d)
                if self.table[mu][x] is not None:
                    self.merge(nu, self.table[mu][x], queue)
                elif self.table[nu][_inv_col(x)] is not None:
                    self.merge(mu, self.table[nu][_inv_col(x)], queue)
                else:
                    self.set_entry(mu, x, nu)

    # scanning ----------------------------------------------------------------

    def scan(self, a: int, word: tuple[int, ...], fill: bool) -> None:
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            while i <= j and self.table[f][word[i]] is not None:
                f = self.table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][_inv_col(word[j])] is not None:
                b = self.table[b][_inv_col(word[j])]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.set_entry(f, word[i], b)
                return
            if not fill:
                return
            self.define(f, word[i])

    # strategies -----------------------------------------------------------

    def run_hlt(self) -> None:
        for w in self.subgens:
            self.scan(0, w, fill=True)
        a = 0
        lookaheads_left = 3
        while a < len(self.table):
            if not self.alive(a):
                a += 1
                continue
            try:
                for r in self.relators:
                    self.scan(a, r, fill=True)
                    if not self.alive(a):
                        break
                if self.alive(a):
                    for x in range(self.ncols):
                        if self.table[a][x] is None:
                            self.define(a, x)
            except EnumerationOverflow:
                # lookahead: hunt for coincidences without defining cosets
                if lookaheads_left == 0:
                    raise
                lookaheads_left -= 1
                before = self.n_live()
                self.lookahead()
                if self.n_live() > 0.95 * before:
                    raise
                a = self.compact(0)
                continue
            a += 1
            if self.n_dead > COMPACT_THRESHOLD and self.n_dead > len(self.table) // 2:
                a = self.compact(a)

    def lookahead(self) -> None:
        for a in range(len(self.table)):
            if not self.alive(a):
                continue
            for r in self.relators:
                self.scan(a, r, fill=False)
                if not self.alive(a):
                    break

    def compact(self, pointer: int) -> int:
        """Renumber live cosets, dropping dead rows; returns the new pointer."""
        live = [a for a in range(len(self.table)) if self.alive(a)]
        renumber = {a: i for i, a in enumerate(live)}
        new_pointer = sum(1 for a in live if a < pointer)
        new_table = []
        for a in live:
            row = self.table[a]
            new_table.append([renumber[self.find(b)] if b is not None else None
                              for b in row])
        if self.track_deductions:
            self.deductions = deque(
                (renumber[self.find(a)], x) for a, x in self.deductions)
        self.table = new_table
        self.p = list(range(len(live)))
        self.n_dead = 0
        return new_pointer

    def run_felsch(self) -> None:
        self.track_deductions = True
        rotations: dict[int, list[tuple[int, ...]]] = {x: [] for x in range(self.ncols)}
        seen = set()
        for r in self.relators:
            for base in (r, tuple(_inv_col(x) for x in reversed(r))):
                for k in range(len(base)):
                    rot = base[k:] + base[:k]
                    if rot not in seen:
                        seen.add(rot)
                        rotations[rot[0]].append(rot)
        for w in self.subgens:
            self.scan(0, w, fill=True)
        self._process_deductions(rotations)
        while True:
            target = None
            for a in range(len(self.table)):
                if self.alive(a):
                    for x in range(self.ncols):
                        if self.table[a][x] is None:
                            target = (a, x)
                            break
                if target:
                    break
            if target is None:
                return
            self.define(*target)
            self.deductions.append(target)
            self._process_deductions(rotations)

    def _process_deductions(self, rotations) -> None:
        while self.deductions:
            a, x = self.deductions.popleft()
            if not self.alive(a):
                a = self.find(a)
            for rot in rotations.get(x, ()):
                self.scan(self.find(a), rot, fill=False)
            b = self.table[self.find(a)][x]
            if b is not None:
                for rot in rotations.get(_inv_col(x), ()):
                    self.scan(self.find(b), rot, fill=False)

    # publication ---------------------------------------------------------

    def verify_closed(self) -> None:
        for a in range(len(self.table)):
            if not self.alive(a):
                continue
            for x in range(self.ncols):
                if self.table[a][x] is None or not self.alive(self.table[a][x]):
                    raise WeakcommError("internal error: open or stale table entry")
            for r in self.relators:
                c = a
                for x in r:
                    c = self.table[c][x]
                c = self.find(c)
                if c != a:
                    raise WeakcommError("internal error: relator does not close")
        for w in self.subgens:
            c = 0
            for x in w:
                c = self.table[c][x]
            if self.find(c) != 0:
                raise WeakcommError("internal error: subgroup word moves coset 0")

    def normalize_entries(self) -> None:
        for a in range(len(self.table)):
            if not self.alive(a):
                continue
            for x in range(self.ncols):
                b = self.table[a][x]
                if b is not None and not self.alive(b):
                    self.table[a][x] = self.find(b)

    def publish(self, subgroup_words: Sequence[Word]) -> CosetTable:
        self.normalize_entries()
        self.verify_closed()
        live = [a for a in range(len(self.table)) if self.alive(a)]
        renumber = {a: i for i, a in enumerate(live)}
        action = []
        for g in range(len(self.pres.generators)):
            col = 2 * g
            action.append(Perm([renumber[self.table[a][col]] for a in live]))
        return CosetTable(
            n_cosets=len(live),
            action=action,
            generators=self.pres.generators,
            subgroup_words=tuple(subgroup_words),
        )


def enumerate_cosets(pres: Presentation, subgens: Sequence[Word] = (),
                     max_cosets: int = 10 ** 6,
                     strategy: str = "hlt") -> CosetTable:
    """Enumerate the cosets of <subgens> in the presented group.

    Raises EnumerationOverflow when live cosets exceed the budget.
    """
    for w in subgens:
        _columns(pres, w)  # validate alphabets early
    enum = _Enumeration(pres, subgens, max_cosets)
    if strategy == "hlt":
        enum.run_hlt()
    elif strategy == "felsch":
        enum.run_felsch()
    else:
        raise ArgumentError(f"unknown strategy {strategy!r}")
    return enum.publish(subgens)


def perm_realization(table: CosetTable, guard: int = 100_000) -> PermGroup:
    """The permutation group generated by the coset action.

    For a trivial subgroup this is the regular realization, so the group
    order equals the coset count.
    """
    known = table.n_cosets if not table.subgroup_words else None
    return PermGroup(table.n_cosets, table.action, guard=guard, known_order=known)
