"""Todd-Coxeter coset enumeration.

The default strategy is HLT (scan-and-fill every relator at every live
coset) with a lookahead pass and table compaction when the live-coset count
approaches the budget; a Felsch-style deduction-stack strategy is available
as an alternative.  Felsch defines the first undefined entry, which it finds
with a forward pointer over the rows, as HLT does, and scans a deduction
a -x-> b from a alone: a relator cycle through b -x^-1-> a is one through
a -x-> b read backwards, and scans read words from both ends.  Coincidences
are processed in one loop over a union-find whose smaller root survives.

The table is stored column-major, one list per column: column 2i is
generator i, column 2i+1 its inverse, and -1 marks an undefined entry.
Every column keeps a -1 past its last row, so ``col[-1] == -1`` and a walk
stays at -1 once it meets an undefined entry; columns grow by blocks of
rows.  Compaction (cosets renumbered in discovery order, dead rows dropped)
rewrites the column lists and the union-find list in place, so each
relator, subgroup word and Felsch rotation is bound once to the column
lists it reads forward and backward.  One scan loop indexes those: HLT's
relator and lookahead passes, both strategies' subgroup-word scans and
Felsch's deductions all run through ``_Enumeration._scan``.  Publishing
compacts, cuts the columns to their rows, checks that the table is closed
(each shared relator prefix gathered once) and hands them to ``CosetTable``,
so output is deterministic for a fixed strategy and input order.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from .errors import ArgumentError, EnumerationOverflow, WeakcommError
from .permgroups import Perm, PermGroup, failing_relator
from .presentations import Presentation
from .words import GenSymbol, Word


def signed_letters(p: Presentation, w: Word) -> tuple[int, ...]:
    """Encode a word as signed 1-based generator indices."""
    idx = p.index
    try:
        return tuple([(idx[sym.name, sym.bar] + 1) * sym.sign for sym in w])
    except KeyError:
        sym = next(s for s in w if (s.name, s.bar) not in idx)
        raise ArgumentError(f"word uses undeclared generator {sym}") from None


def _columns(letters: tuple[int, ...]) -> tuple[int, ...]:
    # column 2i is generator i, column 2i+1 its inverse
    return tuple(2 * abs(s) - 2 + (s < 0) for s in letters)


# HLT renumbers the table mid-run once more than this many rows are dead and
# dead rows are more than half of all rows
COMPACT_THRESHOLD = 4096
_BLOCK = [-1] * 4096   # the rows a full column grows by


@dataclass
class CosetTable:
    """A closed coset table, stored as the enumeration left it.

    ``columns[2*i]`` is the permutation of the cosets by generator i and
    ``columns[2*i + 1]`` the one by its inverse; cosets are numbered in
    discovery order and coset 0 is the subgroup.  ``letter_columns``, the
    letter map, sends a letter's (name, bar, sign) to its column; outside the
    enumeration nothing else knows the column layout.
    """

    n_cosets: int
    columns: tuple[tuple[int, ...], ...]
    generators: tuple[GenSymbol, ...]
    subgroup_words: tuple[Word, ...]
    letter_columns: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.letter_columns = {
            (g.name, g.bar, sign): self.columns[2 * i + (sign < 0)]
            for i, g in enumerate(self.generators) for sign in (1, -1)}

    @property
    def action(self) -> list[Perm]:
        """One permutation per generator, forward."""
        return [Perm(col) for col in self.columns[0::2]]

    def trace_word(self, start: int, w: Word) -> int:
        cols = self.letter_columns
        c = start
        for sym in w:
            c = cols[(sym.name, sym.bar, sym.sign)][c]
        return c

    def is_trivial_word(self, w: Word) -> bool:
        """On a regular table (trivial subgroup) the action is free, so a word
        is trivial iff it fixes coset 0.  ArgumentError on a table over a
        nontrivial subgroup, whose action decides only the quotient's word
        problem."""
        if self.subgroup_words:
            raise ArgumentError("triviality is decided on a regular coset table only")
        return self.trace_word(0, w) == 0

    def word_image_unchecked(self, w: Word) -> Perm:
        cols = self.letter_columns
        cur = range(self.n_cosets)
        for sym in w:
            col = cols[(sym.name, sym.bar, sym.sign)]
            cur = [col[c] for c in cur]
        return Perm(cur)

    def word_image(self, p: Presentation, w: Word) -> Perm:
        signed_letters(p, w)  # alphabet validation
        return self.word_image_unchecked(w)

    def coset_words(self) -> list[Word]:
        """One representative word per coset, BFS-shortest, discovery order."""
        letters = [(GenSymbol(*key), col) for key, col in self.letter_columns.items()]
        words: list[Word | None] = [None] * self.n_cosets
        words[0] = Word()
        queue = deque([0])
        while queue:
            c = queue.popleft()
            for sym, col in letters:
                d = col[c]
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
            "action": {str(g): list(col)
                       for g, col in zip(self.generators, self.columns[0::2])},
            "subgroup": [str(w) for w in self.subgroup_words],
        }
        return json.dumps(doc, sort_keys=True, indent=2)


class _Enumeration:
    def __init__(self, pres: Presentation, subgens: Sequence[Word], max_cosets: int):
        self.pres = pres
        self.ncols = 2 * len(pres.generators)
        self.relator_letters = [signed_letters(pres, r) for r in pres.relators]
        self.relators = [_columns(r) for r in self.relator_letters]
        self.subgens = [_columns(signed_letters(pres, w)) for w in subgens]
        self.max_cosets = max_cosets
        # column-major: table[x][a] is the image of coset a under column x,
        # -1 while undefined; the column lists are never replaced, so lists
        # bound to them below stay valid across compactions
        self.table: list[list[int]] = [[-1, -1] for _ in range(self.ncols)]
        t = self.table
        self.pairs = [(t[x], t[x ^ 1], x) for x in range(self.ncols)]
        self.p = [0]                     # union-find; one entry per row
        self.n_dead = 0
        self.track_deductions = False    # only Felsch consumes the stack
        self.deductions: deque[tuple[int, int]] = deque()

    def bind(self, words) -> list:
        """Each word with its forward and backward column lists and its last
        index, the form ``_scan`` reads; the lists are the columns themselves."""
        t = self.table
        return [(w, [t[x] for x in w], [t[x ^ 1] for x in w], len(w) - 1)
                for w in words]

    # union-find ---------------------------------------------------------

    def find(self, a: int) -> int:
        root = a
        while self.p[root] != root:
            root = self.p[root]
        while self.p[a] != root:
            self.p[a], a = root, self.p[a]
        return root

    # table primitives ------------------------------------------------------

    def define(self, a: int, x: int) -> int:
        if len(self.p) - self.n_dead >= self.max_cosets:
            raise EnumerationOverflow(self.max_cosets)
        b = len(self.p)
        self.p.append(b)
        if len(self.table[x]) == b + 1:      # row b took the last -1
            for col in self.table:
                col.extend(_BLOCK)
        self.table[x][a] = b
        self.table[x ^ 1][b] = a
        return b

    def coincidence(self, a: int, b: int) -> None:
        """Identify the live cosets a != b and all that forces: a dead row's
        entries move to its root, and an entry that root has already makes
        the next pair.  A moved entry is a deduction while Felsch tracks."""
        p = self.p
        deductions = self.deductions if self.track_deductions else None
        if a > b:
            a, b = b, a
        p[b] = a
        n_dead = self.n_dead + 1
        queue = deque([b])
        while queue:
            dead = queue.popleft()
            for col, inv, x in self.pairs:
                d = col[dead]
                if d < 0:
                    continue
                inv[d] = -1
                mu = dead
                while p[mu] != mu:
                    mu = p[mu]
                nu = d
                while p[nu] != nu:
                    nu = p[nu]
                if (e := col[mu]) >= 0:
                    mu = nu
                elif (e := inv[nu]) < 0:
                    col[mu] = nu
                    inv[nu] = mu
                    if deductions is not None:
                        deductions.append((mu, x))
                    continue
                # the root mu and the coset e are the next pair
                while p[e] != e:
                    e = p[e]
                if e != mu:
                    if mu > e:
                        mu, e = e, mu
                    p[e] = mu
                    n_dead += 1
                    queue.append(e)
        self.n_dead = n_dead

    # scanning and strategies ------------------------------------------------

    def _scan(self, a: int, bound: list, k: int = 0, fill: bool = False) -> int:
        """Scan the bound words from the k-th on at coset a, each from both
        ends, and return the index of the next word once a dies (len(bound)
        when none is left).  A gap of one closes, queueing the deduction while
        Felsch tracks them; a longer gap is filled only with ``fill``.  HLT
        first walks each word blind, with no test: most close at a, one that
        ends at another coset is a coincidence, and one that meets a gap stays
        at -1 (``col[-1]``) and is scanned from both ends.  Most Felsch scans
        stop at two gaps, so Felsch skips the blind walk."""
        p = self.p
        queue = self.deductions if self.track_deductions else None
        for word, fwd, bwd, j in bound[k:] if k else bound:
            k += 1
            if queue is None:
                f = a
                for col in fwd:
                    f = col[f]
                if f == a:
                    continue
                if f >= 0:
                    self.coincidence(f, a)
                    if p[a] != a:
                        break
                    continue
            f, i, b = a, 0, a
            while True:
                while i <= j and (c := fwd[i][f]) >= 0:
                    f = c
                    i += 1
                if i > j:
                    if f != b:
                        self.coincidence(f, b)
                    break
                while j >= i and (c := bwd[j][b]) >= 0:
                    b = c
                    j -= 1
                if j < i:
                    self.coincidence(f, b)
                    break
                if j == i:
                    fwd[i][f] = b
                    bwd[i][b] = f
                    if queue is not None:
                        queue.append((f, word[i]))
                    break
                if not fill:
                    break
                f = self.define(f, word[i])
                i += 1
            if p[a] != a:
                break
        return k

    def run_hlt(self) -> None:
        self._scan(0, self.bind(self.subgens), fill=True)
        p, define = self.p, self.define
        relators = self.bind(self.relators)
        a = 0
        lookaheads_left = 3
        while a < len(p):
            if p[a] != a:
                a += 1
                continue
            try:
                self._scan(a, relators, fill=True)
                if p[a] == a:
                    for x, col in enumerate(self.table):
                        if col[a] < 0:
                            define(a, x)
            except EnumerationOverflow:
                # lookahead: hunt for coincidences without defining cosets
                if lookaheads_left == 0:
                    raise
                lookaheads_left -= 1
                before = len(p) - self.n_dead
                for b in range(len(p)):
                    if p[b] == b:
                        self._scan(b, relators)
                if len(p) - self.n_dead > 0.95 * before:
                    raise
                a = self.compact(0)
                continue
            a += 1
            if self.n_dead > COMPACT_THRESHOLD and self.n_dead > len(p) // 2:
                a = self.compact(a)

    def compact(self, pointer: int) -> int:
        """Renumber live cosets in order, dropping dead rows and pointing
        every entry at its live coset; returns the new pointer.  The columns
        and the union-find list are rewritten in place."""
        p = self.p
        # a dead row's parent is a smaller row, so its root is renumbered
        # before it; the trailing -1 is what an undefined entry maps to
        renumber: list[int] = []
        live: list[int] = []
        for a, parent in enumerate(p):
            if parent == a:
                renumber.append(len(live))
                live.append(a)
            else:
                renumber.append(renumber[parent])
        renumber.append(-1)
        for col in self.table:
            col[:] = [renumber[col[a]] for a in live]
            col.append(-1)
        p[:] = range(len(live))
        self.n_dead = 0
        return bisect_left(live, pointer)

    def run_felsch(self) -> None:
        self.track_deductions = True
        rotations: list[list[tuple[int, ...]]] = [[] for _ in range(self.ncols)]
        seen = set()
        for r in self.relators:
            for base in (r, tuple(x ^ 1 for x in reversed(r))):
                for k in range(len(base)):
                    rot = base[k:] + base[:k]
                    if rot not in seen:
                        seen.add(rot)
                        rotations[rot[0]].append(rot)
        bound = [self.bind(rots) for rots in rotations]
        self._scan(0, self.bind(self.subgens), fill=True)
        self._process_deductions(bound)
        # coincidences keep a live row full, so every live row behind the
        # pointer stays full and the pointer finds the first undefined entry
        a = 0
        while a < len(self.p):
            row = [col[a] for col in self.table]
            if self.p[a] != a or -1 not in row:
                a += 1
                continue
            x = row.index(-1)
            self.define(a, x)
            self.deductions.append((a, x))
            self._process_deductions(bound)

    def _process_deductions(self, bound) -> None:
        # the bound rotations that start with x, at a only: scanning the
        # cycles through b = a^x again from b, read backwards, would find
        # nothing new (see the module docstring); a scan stops when a dies
        # and resumes at its live coset
        queue = self.deductions
        while queue:
            a, x = queue.popleft()
            rotations = bound[x]
            k = 0
            while k < len(rotations):
                k = self._scan(self.find(a), rotations, k)

    # publication ---------------------------------------------------------

    def publish(self, subgroup_words: Sequence[Word]) -> CosetTable:
        """Compact the table, cut each column to its rows and check that it
        is closed: every entry is defined, inverse columns invert, every
        relator closes at every coset and every subgroup word fixes coset 0."""
        self.compact(0)
        for col in self.table:
            del col[len(self.p):]
        if any(-1 in col for col in self.table):
            raise WeakcommError("open coset table entry")
        # itemgetter of one index returns a scalar; one coset is its own inverse
        identity = tuple(range(len(self.p)))
        if len(identity) > 1 and any(itemgetter(*fwd)(inv) != identity
                                     for fwd, inv in zip(self.table[0::2], self.table[1::2])):
            raise WeakcommError("inverse column does not invert its column")
        if failing_relator(self.table[0::2], self.relator_letters) is not None:
            raise WeakcommError("relator does not close")
        table = CosetTable(n_cosets=len(self.p), columns=tuple(map(tuple, self.table)),
                           generators=self.pres.generators,
                           subgroup_words=tuple(subgroup_words))
        if any(table.trace_word(0, w) for w in subgroup_words):
            raise WeakcommError("subgroup word moves coset 0")
        return table


def enumerate_cosets(pres: Presentation, subgens: Sequence[Word] = (),
                     max_cosets: int = 10 ** 6,
                     strategy: str = "hlt") -> CosetTable:
    """Enumerate the cosets of <subgens> in the presented group.

    Raises EnumerationOverflow when live cosets exceed the budget.
    """
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
