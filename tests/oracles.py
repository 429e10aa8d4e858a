"""Independent brute-force oracles for derived test values.

Nothing here imports the package's own linear algebra or group machinery:
permutations are raw tuples, determinants are Laplace expansions, and group
structure comes from explicit multiplication tables, so the expected values
frozen into the test suite are computed along genuinely different paths.
Two exceptions: ``direct_sum`` builds a ``FinAbGroup``, the type the tensor
laws are stated on, from invariant factors alone; and the last section holds
replaced algorithms kept as they were, so that differential tests can run
the replacement against them.
"""

from __future__ import annotations

import math
import re
from itertools import combinations

import pytest

from weakcomm.decision import WPOracle
from weakcomm.enumerator import CosetTable, _Enumeration
from weakcomm.errors import (ArgumentError, EnumerationOverflow, ParseError,
                             SizeGuardError)
from weakcomm.intlinalg import FinAbGroup, IntMatrix
from weakcomm.isoperimetry import AreaCertificate, _abelian_feasible
from weakcomm.permgroups import GroupHom, Perm, PermGroup, evaluate
from weakcomm.presentations import Presentation
from weakcomm.words import (_TOKEN_RE, Word, _expand_symbol, left_normed, pi_word,
                            reduced_words, rho_word)


# -- raw permutation helpers ------------------------------------------------

def pcompose(p, q):
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def pinverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def closure(gens):
    """All elements generated by the permutation tuples."""
    degree = len(gens[0])
    ident = tuple(range(degree))
    found = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pcompose(x, g)
                if y not in found:
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    return found


def constraint_subgroup(gens):
    """{(g1, g2, g3) : g1 g2^-1 g3 in G'} for G generated by the permutation
    tuples, each triple as one tuple acting blockwise on three copies of the
    points (the second block shifted by the degree, the third by twice it)."""
    elems = closure(gens)
    degree = len(gens[0])
    derived = closure([pcompose(pcompose(pinverse(a), pinverse(b)), pcompose(a, b))
                       for a in elems for b in elems])
    out = set()
    for g1 in elems:
        for g2 in elems:
            h = pcompose(g1, pinverse(g2))
            for g3 in elems:
                if pcompose(h, g3) in derived:
                    out.add(g1 + tuple(degree + x for x in g2)
                            + tuple(2 * degree + x for x in g3))
    return out


def s3_generators():
    """(0 1) and (1 2) acting on three points."""
    return [(1, 0, 2), (0, 2, 1)]


# -- the quaternion group as a multiplication table -------------------------

_Q8_NAMES = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def _q8_mult(a: str, b: str) -> str:
    def split(x):
        return (-1 if x.startswith("-") else 1), x.lstrip("-")

    sa, ua = split(a)
    sb, ub = split(b)
    table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    s, u = table[(ua, ub)]
    s *= sa * sb
    return u if s > 0 else "-" + u


class TableGroup:
    """A finite group given by an explicit multiplication table."""

    def __init__(self, names, mult):
        self.names = list(names)
        self.mult = mult
        self.identity = names[0]

    def inverse(self, a):
        for b in self.names:
            if self.mult(a, b) == self.identity:
                return b
        raise AssertionError("no inverse found")

    def commutator(self, a, b):
        return self.mult(self.mult(self.inverse(a), self.inverse(b)),
                         self.mult(a, b))

    def subgroup_closure(self, gens):
        found = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mult(x, g)
                    if y not in found:
                        found.add(y)
                        nxt.append(y)
            frontier = nxt
        return found

    def normal_closure(self, gens):
        current = set(gens)
        while True:
            conj = {self.mult(self.mult(self.inverse(g), x), g)
                    for x in current for g in self.names}
            new = current | conj
            span = self.subgroup_closure(new)
            if span == self.subgroup_closure(current):
                return span
            current = span

    def center(self):
        return {a for a in self.names
                if all(self.mult(a, b) == self.mult(b, a) for b in self.names)}

    def lower_central_series(self):
        series = [set(self.names)]
        while True:
            prev = series[-1]
            comms = {self.commutator(x, g) for x in prev for g in self.names}
            term = self.normal_closure(comms) if comms - {self.identity} \
                else {self.identity}
            if term == prev:
                break
            series.append(term)
            if term == {self.identity}:
                break
        return series

    def regular_permutations(self, gens):
        """Right-multiplication permutations for chosen generators."""
        index = {a: i for i, a in enumerate(self.names)}
        return [tuple(index[self.mult(a, g)] for a in self.names) for g in gens]


def quaternion_group() -> TableGroup:
    return TableGroup(_Q8_NAMES, _q8_mult)


# -- determinants and minors over Z -----------------------------------------

def det_laplace(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * head * det_laplace(minor)
    return total


def direct_sum(a: FinAbGroup, b: FinAbGroup) -> FinAbGroup:
    return FinAbGroup.from_orders(
        list(a.invariant_factors) + list(b.invariant_factors),
        a.free_rank + b.free_rank)


def minors_gcd(rows, k: int) -> int:
    m, n = len(rows), len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(m), k):
        for ci in combinations(range(n), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = math.gcd(g, det_laplace(sub))
    return g


# -- small abelian structure without Smith forms ------------------------------

def gcd_diagonalize(rows) -> list[int]:
    """Diagonal entries of an integer matrix after gcd elimination (no
    divisibility normalization)."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    t = 0
    diag = []
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        for row in a:
            row[t], row[piv[1]] = row[piv[1]], row[t]
        again = True
        while again:
            again = False
            for i in range(m):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        again = True
            for j in range(n):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        again = True
        diag.append(abs(a[t][t]))
        t += 1
    return diag


def invariant_factors_of_orders(orders) -> tuple[int, ...]:
    """Canonical invariant factors of a direct sum of cyclic groups, via
    prime-power bookkeeping."""
    primes = set()
    for d in orders:
        x, p = d, 2
        while p * p <= x:
            if x % p == 0:
                primes.add(p)
                while x % p == 0:
                    x //= p
            p += 1
        if x > 1:
            primes.add(x)
    columns = {}
    for p in sorted(primes):
        powers = []
        for d in orders:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                powers.append(p ** e)
        columns[p] = sorted(powers, reverse=True)
    width = max((len(v) for v in columns.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for powers in columns.values():
            if i < len(powers):
                f *= powers[i]
        factors.append(f)
    return tuple(sorted(f for f in factors if f > 1))


def abelian_quotient_invariants(relation_rows, n_gens: int) -> tuple[int, ...]:
    """Invariant factors of Z^n modulo the row span, fully independently."""
    rows = [list(r) for r in relation_rows] or [[0] * n_gens]
    diag = gcd_diagonalize(rows)
    torsion = [d for d in diag if d not in (0,)]
    free = n_gens - len([d for d in diag if d != 0])
    inv = invariant_factors_of_orders([d for d in torsion if d > 1])
    return inv, free


def cyclic_tensor_invariants(m: int, n: int) -> tuple[int, ...]:
    """Structure of the tensor product of two cyclic groups by brute-force
    bilinear relations over generators e_{ij}."""
    def idx(i, j):
        return i * n + j

    rows = []
    for i in range(m):
        for j in range(n):
            r = [0] * (m * n)
            r[idx((i + 1) % m, j)] += 1
            r[idx(i, j)] -= 1
            r[idx(1 % m, j)] -= 1
            rows.append(r)
            r = [0] * (m * n)
            r[idx(i, (j + 1) % n)] += 1
            r[idx(i, j)] -= 1
            r[idx(i, 1 % n)] -= 1
            rows.append(r)
    for j in range(n):
        r = [0] * (m * n)
        r[idx(0, j)] = 1
        rows.append(r)
    for i in range(m):
        r = [0] * (m * n)
        r[idx(i, 0)] = 1
        rows.append(r)
    inv, free = abelian_quotient_invariants(rows, m * n)
    assert free == 0
    return inv


# -- replaced algorithms --------------------------------------------------------

def full_smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U m V = D diagonal satisfying d1 | d2 | ...

    U and V are unimodular.  Pivot rule: smallest nonzero absolute value,
    ties broken row-major, which keeps the output deterministic.  This is
    the Smith form as it was before the Hermite pass: it forms V, repairs
    the divisibility chain in a second pass, and lets entries grow.
    """
    a = IntMatrix(m.data, m.rows, m.cols)
    u = IntMatrix.identity(m.rows)
    v = IntMatrix.identity(m.cols)
    rows, cols = m.rows, m.cols

    def swap_rows(i, j):
        if i != j:
            a.data[i], a.data[j] = a.data[j], a.data[i]
            u.data[i], u.data[j] = u.data[j], u.data[i]

    def swap_cols(i, j):
        if i != j:
            for row in a.data:
                row[i], row[j] = row[j], row[i]
            for row in v.data:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row[dst] += c * row[src]
        if c:
            arow, asrc = a.data[dst], a.data[src]
            for j in range(cols):
                arow[j] += c * asrc[j]
            urow, usrc = u.data[dst], u.data[src]
            for j in range(rows):
                urow[j] += c * usrc[j]

    def add_col(src, dst, c):  # col[dst] += c * col[src]
        if c:
            for row in a.data:
                row[dst] += c * row[src]
            for row in v.data:
                row[dst] += c * row[src]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a.data[i][j]
                if x and (best is None or abs(x) < abs(a.data[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        piv = find_pivot(t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(rows):
                if i != t and a.data[i][t]:
                    q = a.data[i][t] // a.data[t][t]
                    add_row(t, i, -q)
                    if a.data[i][t]:
                        swap_rows(t, i)  # remainder is smaller; continue with it
                        dirty = True
            for j in range(cols):
                if j != t and a.data[t][j]:
                    q = a.data[t][j] // a.data[t][t]
                    add_col(t, j, -q)
                    if a.data[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        t += 1

    # positive diagonal
    for i in range(min(rows, cols)):
        if a.data[i][i] < 0:
            for j in range(cols):
                a.data[i][j] = -a.data[i][j]
            for j in range(rows):
                u.data[i][j] = -u.data[i][j]

    # enforce the divisibility chain
    n = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            di, dj = a.data[i][i], a.data[i + 1][i + 1]
            if di and dj % di == 0:
                continue
            if di == 0 and dj != 0:
                swap_rows(i, i + 1)
                swap_cols(i, i + 1)
                changed = True
                continue
            if dj == 0:
                continue
            # standard 2x2 gcd step: put gcd at (i,i), lcm at (i+1,i+1)
            add_col(i + 1, i, 1)            # col i gets dj in row i+1
            # now re-clear the 2x2 block
            while a.data[i + 1][i] or a.data[i][i + 1]:
                if a.data[i][i] == 0 or (a.data[i + 1][i] and
                                         abs(a.data[i + 1][i]) < abs(a.data[i][i])):
                    swap_rows(i, i + 1)
                if a.data[i + 1][i]:
                    q = a.data[i + 1][i] // a.data[i][i]
                    add_row(i, i + 1, -q)
                    continue
                if a.data[i][i + 1]:
                    q = a.data[i][i + 1] // a.data[i][i]
                    add_col(i, i + 1, -q)
            if a.data[i][i] < 0:
                for j in range(cols):
                    a.data[i][j] = -a.data[i][j]
                for j in range(rows):
                    u.data[i][j] = -u.data[i][j]
            if a.data[i + 1][i + 1] < 0:
                for j in range(cols):
                    a.data[i + 1][j] = -a.data[i + 1][j]
                for j in range(rows):
                    u.data[i + 1][j] = -u.data[i + 1][j]
            changed = True
    return u, a, v


class TwoEndFelsch(_Enumeration):
    """Felsch as it was before each deduction was scanned from one end: the
    rotations that start with column x at a, then those that start with the
    inverse column x ^ 1 at b = a^x, each scanned on its own with ``find``
    before every scan."""

    def scan(self, a: int, word: tuple[int, ...]) -> None:
        """Scan one word of columns at coset a from both ends without
        defining a coset: a gap of one closes as a deduction."""
        t = self.table
        f, i = a, 0
        b, j = a, len(word) - 1
        while i <= j and (c := t[word[i]][f]) >= 0:
            f = c
            i += 1
        if i > j:
            if f != b:
                self.coincidence(f, b)
            return
        while j >= i and (c := t[word[j] ^ 1][b]) >= 0:
            b = c
            j -= 1
        if j < i:
            self.coincidence(f, b)
        elif j == i:
            t[word[i]][f] = b
            t[word[i] ^ 1][b] = f
            self.deductions.append((f, word[i]))

    def _process_deductions(self, bound) -> None:
        while self.deductions:
            a, x = self.deductions.popleft()
            for rot, *_ in bound[x]:
                self.scan(self.find(a), rot)
            b = self.table[x][self.find(a)]
            if b >= 0:
                for rot, *_ in bound[x ^ 1]:
                    self.scan(self.find(b), rot)


def two_end_felsch(pres, subgens, max_cosets: int):
    """The coset table of the two-end Felsch above, published as
    ``enumerate_cosets`` publishes it."""
    enum = TwoEndFelsch(pres, subgens, max_cosets)
    enum.run_felsch()
    return enum.publish(subgens)


class CheckedWalkHLT(_Enumeration):
    """HLT as it was before the blind walk and the block-grown columns: each
    scan tests every entry it reads for -1 and every index against the
    word's other end, and a coset is defined by one append per column.  It
    never reads past the last row, so it needs no -1 there."""

    def define(self, a: int, x: int) -> int:
        if len(self.p) - self.n_dead >= self.max_cosets:
            raise EnumerationOverflow(self.max_cosets)
        b = len(self.p)
        for col in self.table:
            col.append(-1)
        self.p.append(b)
        self.table[x][a] = b
        self.table[x ^ 1][b] = a
        return b

    def _scan(self, a: int, bound: list, k: int = 0, fill: bool = False) -> int:
        # HLT tracks no deductions, so a gap of one just closes
        p = self.p
        for word, fwd, bwd, j in bound[k:] if k else bound:
            k += 1
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
                    break
                if not fill:
                    break
                f = self.define(f, word[i])
                i += 1
            if p[a] != a:
                break
        return k


def checked_walk_hlt(pres, subgens, max_cosets: int):
    """The coset table of the checked-walk HLT above, published as
    ``enumerate_cosets`` publishes it."""
    enum = CheckedWalkHLT(pres, subgens, max_cosets)
    enum.run_hlt()
    return enum.publish(subgens)


def signed_word_image(images, w, degree: int):
    """The image of a word of signed 1-based indices, composed letter by
    letter from the identity."""
    image = tuple(range(degree))
    for s in w:
        g = images[abs(s) - 1]
        image = pcompose(image, g if s > 0 else pinverse(g))
    return image


def letterwise_failing_relator(images, relators):
    """The closure check ``permgroups.failing_relator`` replaced: the index
    of the first relator, in the given order, whose letter-by-letter image
    is not the identity, or None."""
    degree = len(images[0]) if images else 0
    return next((i for i, r in enumerate(relators)
                 if signed_word_image(images, r, degree) != tuple(range(degree))), None)


# minimal_area_search as it was before it ran on signed-integer words
def word_minimal_area_search(pres: Presentation, w: Word, max_area: int,
                             max_radius: int) -> int | None:
    """Exact minimal area of w within the given bounds, or None (unknown).

    Exhaustive over all conjugator tuples with radius <= max_radius, realized
    as a meet-in-the-middle search over products of single conjugates.
    Exponential; intended for tiny bounds, where it serves as the independent
    oracle behind area claims.
    """
    if w.is_identity():
        return 0
    if max_area < 1:
        return None
    if not _abelian_feasible(pres, w, max_area):
        return None
    singles: list[Word] = []
    seen: set[Word] = set()
    for theta in reduced_words(pres.generators, max_radius):
        for idx, r in enumerate(pres.relators):
            for rv in (r, r.inverse()):
                f = rv.conjugate(theta)
                if f not in seen:
                    seen.add(f)
                    singles.append(f)
    levels: list[set[Word]] = [{Word()}, set(singles)]

    def level(k: int) -> set[Word]:
        while len(levels) <= k:
            prev = levels[-1]
            nxt = {x * s for x in prev for s in singles}
            levels.append(nxt)
        return levels[k]

    for target in range(1, max_area + 1):
        half = target // 2
        right = level(half)
        if target - half <= half:
            left_iter = iter(level(target - half))
        else:
            left_iter = (x * s for x in level(half) for s in singles)
        for l in left_iter:
            if l.inverse() * w in right:
                return target
    return None


# PermGroup._closure as it was before closure by coset extension
def bfs_closure(group: PermGroup, elems) -> PermGroup:
    """The subgroup generated by elems, enumerated again from the identity
    for every generator kept; its generators are the elements of elems that
    the earlier ones do not generate."""
    closed = PermGroup(group.degree, [], guard=group.guard)
    closed.elements()
    for e in elems:
        if e not in closed:
            closed = PermGroup(group.degree, closed.generators + [e], guard=group.guard)
            closed.elements()
    return closed


# GroupHom.kernel as it was before it read the kernel off the graph group
def word_kernel(hom: GroupHom) -> set[Perm]:
    """The elements of the source that the hom's generator images, evaluated
    on a defining word from a breadth-first search over the source
    generators, send to the identity."""
    source = hom.source
    words = {Perm.identity(source.degree): ()}
    frontier = list(words)
    while frontier:
        nxt = []
        for x in frontier:
            for i, g in enumerate(source.generators):
                y = x * g
                if y not in words:
                    words[y] = words[x] + (i + 1,)
                    nxt.append(y)
        frontier = nxt
    return {p for p, w in words.items()
            if evaluate(hom.images, w, hom.target.degree).is_identity()}


# sidki.build's L and D as they were before pointwise stabilizers
def fixing(group: PermGroup, points) -> list[Perm]:
    """The elements of the group, enumerated in full, that fix every point."""
    elements = PermGroup(group.degree, group.generators, guard=group.guard).elements()
    return [p for p in elements if all(p.img[q] == q for q in points)]


# sidki._w_members as it was before it traced along the breadth-first tree
def rho_word_w_members(table: CosetTable, base_table: CosetTable) -> list[Word]:
    """pi(w)^-1 w for every coset word w of the split copy whose rho_word
    coordinates trace to (pi w, pi w, 1) in the regular base table."""
    members: list[Word] = []
    for w in table.coset_words():
        first, second, third = (base_table.trace_word(0, u) for u in rho_word(w))
        if first == second and third == 0:
            members.append(pi_word(w).inverse() * w)
    return members


# the normal-form branch of decision.ball_sizes as it was before it walked
# normal forms alone
def word_ball_sizes(gens, oracle: WPOracle, radius: int) -> list[int]:
    """|B(n)| for n = 0..radius: a breadth-first search that keeps one word
    per element, keyed by the oracle's normal form."""
    letters: list[Word] = []
    seen_letters: set[Word] = set()
    for g in list(gens) + [g.inverse() for g in gens]:
        if g not in seen_letters:
            seen_letters.add(g)
            letters.append(g)
    sizes = [1]
    known = {oracle.normal_form(Word()): Word()}
    frontier = [Word()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for letter in letters:
                v = w * letter
                key = oracle.normal_form(v)
                if key not in known:
                    known[key] = v
                    nxt.append(v)
        frontier = nxt
        sizes.append(len(known))
    return sizes


# AreaCertificate.product_word as it was before it ran on signed integers
def word_product(cert: AreaCertificate, pres: Presentation) -> Word:
    """The product of the certificate's conjugates, one Word per factor."""
    acc = Word()
    for theta, idx, sign in cert.factors:
        if not 0 <= idx < len(pres.relators):
            raise ArgumentError(f"relator index {idx} out of range")
        r = pres.relators[idx]
        acc = acc * (r if sign > 0 else r.inverse()).conjugate(theta)
    return acc


# words.format_word as it was before it grouped runs with itertools.groupby
def run_format_word(w: Word) -> str:
    """Canonical text form: runs of equal symbols collapsed to powers,
    '*'-separated."""
    if not len(w):
        return "1"
    parts: list[str] = []
    letters = list(w)
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        run = j - i
        base = letters[i].name + ("~" if letters[i].bar else "")
        exp = run * letters[i].sign
        parts.append(base if exp == 1 else f"{base}^{exp}")
        i = j
    return "*".join(parts)


# words.parse_word as it was before it lexed the text once and parsed it in
# one loop: a lazy tokenizer under a recursive descent
class _Tokens:
    """Lazy tokenizer; ``peek`` matches each position once, ``next`` reuses it."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._peeked = (-1, None, 0)  # (pos, token, end) of the last match

    def peek(self):
        at, tok, end = self._peeked
        if at == self.pos:
            return tok, end
        if self.pos >= len(self.text):
            return None, self.pos
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m or m.end() == m.start():
            stripped = self.text[self.pos:].lstrip()
            if not stripped:
                return None, len(self.text)
            raise ParseError(f"unexpected character {stripped[0]!r}", self.pos)
        self._peeked = (self.pos, m.group().strip(), m.end())
        return self._peeked[1:]

    def next(self):
        tok, end = self.peek()
        self.pos = end
        return tok


def _parse_atom(toks: _Tokens, alphabet) -> Word:
    pos = toks.pos
    tok = toks.next()
    if tok is None:
        raise ParseError("unexpected end of word", pos)
    if tok == "(":
        w = _parse_word(toks, alphabet, stop={")"})
        if toks.next() != ")":
            raise ParseError("expected ')'", toks.pos)
        return w
    if tok == "[":
        parts = [_parse_word(toks, alphabet, stop={",", "]"})]
        while True:
            sep = toks.next()
            if sep == "]":
                break
            if sep != ",":
                raise ParseError("expected ',' or ']'", toks.pos)
            parts.append(_parse_word(toks, alphabet, stop={",", "]"}))
        if len(parts) < 2:
            raise ParseError("commutator needs at least two entries", pos)
        return left_normed(parts)
    if tok == "1":
        return Word()
    if re.fullmatch(r"[A-Za-z0-9_]+", tok):
        bar = False
        nxt, end = toks.peek()
        if nxt == "~":
            bar = True
            toks.pos = end
        return Word(_expand_symbol(tok, bar, alphabet, pos))
    raise ParseError(f"unexpected token {tok!r}", pos)


def _parse_word(toks: _Tokens, alphabet, stop: set[str]) -> Word:
    acc = Word()
    while True:
        tok, end = toks.peek()
        if tok is None or tok in stop:
            return acc
        if tok == "*":
            toks.pos = end
            continue
        factor = _parse_atom(toks, alphabet)
        tok, end = toks.peek()
        if tok == "^":
            toks.pos = end
            exp_tok = toks.next()
            if exp_tok is None or not re.fullmatch(r"-?\d+", exp_tok):
                raise ParseError("expected integer exponent after '^'", toks.pos)
            factor = factor ** int(exp_tok)
        acc = acc * factor


def lazy_parse_word(text: str, alphabet=None) -> Word:
    """The word the text names, parsed as ``words.parse_word`` parses it."""
    alpha = None
    if alphabet is not None:
        alpha = {(s.name, s.bar) for s in alphabet}
    toks = _Tokens(text)
    w = _parse_word(toks, alpha, stop=set())
    tok, _ = toks.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", toks.pos)
    return w


# QModule.submodule and subgroup_order_and_exponent as they were before the
# order came from a cokernel, with one raw representative kept per element:
# the old routine took element orders on canonical forms, which are not
# vectors of the module's own coordinates
def enumerated_submodule(module, seeds, guard: int = 100_000) -> tuple[int, int]:
    """Order and exponent of the submodule the seeds generate, by listing it:
    each seed or action image that the span lacks becomes a generator, the
    span is closed additively again, and the generator's images under the
    action are queued; the exponent is the lcm of the representatives'
    orders."""
    zero = tuple([0] * module.n)
    gens: list[tuple[int, ...]] = []
    span = {module.canonical(zero): zero}
    work = [tuple(map(int, s)) for s in seeds]
    while work:
        v = work.pop(0)
        if module.canonical(v) in span:
            continue
        gens.append(v)
        span = {module.canonical(zero): zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = tuple(a + b for a, b in zip(x, g))
                    c = module.canonical(y)
                    if c not in span:
                        if len(span) >= guard:
                            raise SizeGuardError(f"> {guard}", guard, what="submodule")
                        span[c] = y
                        nxt.append(y)
            frontier = nxt
        work.extend(module.act(i, v) for i in range(len(module.action_matrices)))
    exponent = 1
    for v in span.values():
        exponent = math.lcm(exponent, module.element_order(v))
    return len(span), exponent


# PermGroup._engel_scan as it was on numpy image matrices, with the
# conjugacy classes it read, found by composing permutations
def numpy_engel_class(group: PermGroup, cap: int) -> int | None:
    """Least n <= cap making the group n-Engel, or None when the cap is hit:
    per class representative b, the rows c^-1 b over b's class are stepped
    by x -> [x, b] as one int64 matrix, deduplicated on the base columns,
    until every row is the identity there.  Skips the calling test when
    numpy is not installed."""
    np = pytest.importorskip("numpy")
    if group.order() == 1:
        return 1
    seen: set[Perm] = set()
    classes = []
    for x in group.elements():
        if x in seen:
            continue
        seen.add(x)
        orbit = [x]
        for y in orbit:
            for g in group.generators:
                z = g.inverse() * y * g
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        classes.append(orbit)
    rows = np.array([c.img for cls in classes for c in cls], dtype=np.int64)
    base, fixing = [], rows
    for pt in range(rows.shape[1]):
        if fixing.shape[0] == 1:
            break
        fixes = fixing[:, pt] == pt
        if not fixes.all():
            base.append(pt)
            fixing = fixing[fixes]
    identity = np.array(base, dtype=np.int64)
    worst = 1
    for block in np.split(rows, np.cumsum([len(cls) for cls in classes])[:-1]):
        barr = block[0]
        binv = np.argsort(barr)
        gamma = barr[np.argsort(block, axis=1)]
        k = 1
        while True:
            images, keep = np.unique(gamma[:, base], axis=0, return_index=True)
            live = ~(images == identity).all(axis=1)
            gamma = gamma[keep[live]]
            if gamma.shape[0] == 0:
                break
            if k >= cap:
                return None
            # rows x -> [x, b] = x^-1 b^-1 x b, composed left to right
            t = np.take_along_axis(gamma, binv[np.argsort(gamma, axis=1)], axis=1)
            gamma = barr[t]
            k += 1
        worst = max(worst, k)
    return worst


# PermGroup._span as it was before keys: Dimino's method on full image tuples
def full_tuple_span(group: PermGroup, elems) -> tuple[list[Perm], set[Perm]]:
    """The greedy generators and the element set of <elems>: each element of
    elems the span lacks becomes a generator, and the span H grows by its
    right cosets H y, H y s, ..., every member a full product."""
    gens, members = [], {Perm.identity(group.degree)}
    for y in elems:
        if y in members:
            continue
        gens.append(y)
        block = list(members)
        reps = [y]
        for z in reps:
            if z in members:
                continue
            if len(members) + len(block) > group.guard:
                raise SizeGuardError(f"> {group.guard}", group.guard)
            members.update([h * z for h in block])
            reps.extend([z * s for s in gens])
    return gens, members


# PermGroup.elements as it was before keys: breadth-first on full tuples
def full_tuple_elements(group: PermGroup) -> list[Perm]:
    """The elements in breadth-first order over the generators, each one a
    full product."""
    ident = Perm.identity(group.degree)
    found = {ident: None}
    queue = [ident]
    for x in queue:
        for g in group.generators:
            y = x * g
            if y not in found:
                if len(found) >= group.guard:
                    raise SizeGuardError(f"> {group.guard}", group.guard)
                found[y] = None
                queue.append(y)
    return list(found)


# permgroups._base_of_rows, which the Engel scan read its base off before
# groups carried one
def base_of_rows(rows) -> list[int]:
    """A base of the group whose elements are the given image tuples: walks
    the points in order and keeps a point when some element fixing the kept
    points moves it; only the identity fixes the result pointwise."""
    base: list[int] = []
    for pt in range(len(rows[0])):
        if len(rows) == 1:
            break
        fixing = [r for r in rows if r[pt] == pt]
        if len(fixing) < len(rows):
            base.append(pt)
            rows = fixing
    return base


# PermGroup._engel_scan as it was before keys, on the base base_of_rows finds
def rows_engel_class(group: PermGroup, cap: int) -> int | None:
    """Least n <= cap making the group n-Engel, or None when the cap is hit:
    rows kept as their images of a base found by scanning all elements, the
    conjugacy classes and each step [x, b] read off the full elements."""
    elements = [p.img for p in full_tuple_elements(group)]
    if len(elements) == 1:
        return 1
    base = base_of_rows(elements)
    named = {tuple([e[p] for p in base]): e for e in elements}
    identity = tuple(base)
    conjugators = [(g.img, g.inverse().img) for g in group.generators]
    seen, classes = set(), []
    for key, x in named.items():
        if key in seen:
            continue
        seen.add(key)
        orbit = [x]
        for y in orbit:
            for g, g_inv in conjugators:
                z = tuple([g[y[g_inv[p]]] for p in base])
                if z not in seen:
                    seen.add(z)
                    orbit.append(named[z])
        classes.append(orbit)
    worst = 1
    for cls in classes:
        b = cls[0]
        b_inv = Perm(b).inverse().img
        rows = {tuple([b[c.index(p)] for p in base]) for c in cls}
        k = 1
        while True:
            rows.discard(identity)
            if not rows:
                break
            if k >= cap:
                return None
            rows = {tuple([b[x[b_inv[x.index(p)]]] for p in base])
                    for x in map(named.__getitem__, rows)}
            k += 1
        worst = max(worst, k)
    return worst


# PermGroup.normal_closure and lower_central_series as they were before keys
def full_tuple_normal_closure(group: PermGroup, gens) -> tuple[list[Perm], set[Perm]]:
    """The generators and elements of the normal closure of gens: a
    full-tuple span grown by each conjugate of its generators by the
    group's generators that it lacks."""
    span_gens, members = full_tuple_span(group, gens)
    work = list(span_gens)
    while work:
        s = work.pop()
        for g in group.generators:
            t = g.inverse() * s * g
            if t not in members:
                span_gens, members = full_tuple_span(group, span_gens + [t])
                work.append(t)
    return span_gens, members


def full_tuple_lower_central_orders(group: PermGroup) -> list[int]:
    """The orders of the lower central series, each term the full-tuple
    normal closure of the commutators of the last term's generators with
    the group's generators."""
    gens, members = group.generators, full_tuple_elements(group)
    orders = [len(members)]
    while True:
        gens, nxt = full_tuple_normal_closure(group, [
            x.inverse() * g.inverse() * x * g for x in gens for g in group.generators])
        if len(nxt) == orders[-1]:
            return orders
        orders.append(len(nxt))
        if len(nxt) == 1:
            return orders
