"""Finite permutation groups and the algorithms the structure checks need.

Composition is left-to-right: ``(p * q)`` means "apply p, then q", so the
image of a word under a homomorphism is the product of the letter images in
reading order.  Element-based operations (subgroup lattice, series, Engel
checks) enumerate the group and refuse to run past a configurable guard;
order alone falls back to a stabilizer chain, so it also works for groups
well beyond the guard.

Engel verification is a forall-forall property, so it is exhaustive over
ordered pairs (never sampled); the inner loop is vectorized with numpy and
the outer loop runs over conjugacy-class representatives of the second
argument, which is sound because Engel words transform equivariantly under
simultaneous conjugation.  Engel words of group elements are group
elements, and two group elements that agree on a base (points fixed
pointwise only by the identity) are equal, so the scan deduplicates its rows
and tests them for the identity on the base columns alone; a regular
group's base is a single point.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ArgumentError, SizeGuardError

DEFAULT_GUARD = 100_000


class Perm:
    """A permutation of {0..n-1} stored as its image tuple."""

    __slots__ = ("img",)

    def __init__(self, img: Sequence[int]):
        self.img = tuple(img)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.img)

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.img) < 2:  # itemgetter needs two indices to return a tuple
            return Perm(other.img[x] for x in self.img)
        return Perm(operator.itemgetter(*self.img)(other.img))

    def inverse(self) -> "Perm":
        out = [0] * len(self.img)
        for i, x in enumerate(self.img):
            out[x] = i
        return Perm(out)

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        acc = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def conjugate(self, by: "Perm") -> "Perm":
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.img))

    def order(self) -> int:
        n = 1
        for c in self.cycles():
            n = math.lcm(n, len(c))
        return n

    def cycles(self) -> list[tuple[int, ...]]:
        seen, out = set(), []
        for i in range(self.degree):
            if i in seen or self.img[i] == i:
                continue
            cyc = [i]
            j = self.img[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.img[j]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.img == other.img

    def __hash__(self) -> int:
        return hash(self.img)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


def commutator(a: Perm, b: Perm) -> Perm:
    return a.inverse() * b.inverse() * a * b


def evaluate(images: Sequence[Perm], signed_word: Iterable[int], degree: int) -> Perm:
    """Product of generator images along a word of signed 1-based indices."""
    acc = Perm.identity(degree)
    for s in signed_word:
        g = images[abs(s) - 1]
        acc = acc * (g if s > 0 else g.inverse())
    return acc


def block_perm(parts: Sequence[Perm]) -> Perm:
    """Disjoint-union permutation acting blockwise."""
    img: list[int] = []
    offset = 0
    for p in parts:
        img.extend(offset + x for x in p.img)
        offset += p.degree
    return Perm(img)


class PermGroup:
    """Group generated by permutations of a common degree."""

    def __init__(self, degree: int, generators: Sequence[Perm],
                 guard: int = DEFAULT_GUARD, known_order: int | None = None):
        for g in generators:
            if g.degree != degree:
                raise ArgumentError("generator degree mismatch")
        self.degree = degree
        self.generators = list(generators)  # order matters: homs map by index
        self.guard = guard
        self._order = known_order
        self._elements: dict[Perm, tuple[int, ...]] | None = None

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, [], known_order=1)

    # -- element enumeration ------------------------------------------------

    def elements(self, guard: int | None = None) -> dict[Perm, tuple[int, ...]]:
        """All elements, mapped to a defining word (signed 1-based gen indices)."""
        limit = self.guard if guard is None else guard
        if self._elements is not None:
            if len(self._elements) > limit:
                raise SizeGuardError(len(self._elements), limit)
            return self._elements
        ident = Perm.identity(self.degree)
        found: dict[Perm, tuple[int, ...]] = {ident: ()}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                wx = found[x]
                for i, g in enumerate(self.generators):
                    y = x * g
                    if y not in found:
                        if len(found) >= limit:
                            raise SizeGuardError(f"> {limit}", limit)
                        found[y] = wx + (i + 1,)
                        nxt.append(y)
            frontier = nxt
        self._elements = found
        self._order = len(found)
        return found

    def order(self) -> int:
        if self._order is not None:
            return self._order
        try:
            return len(self.elements())
        except SizeGuardError:
            self._order = _chain_order(self.generators, self.degree)
            return self._order

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements()

    def word_for(self, p: Perm) -> tuple[int, ...]:
        return self.elements()[p]

    def random_element(self, rng) -> Perm:
        acc = Perm.identity(self.degree)
        for _ in range(rng.randrange(3, 20)):
            acc = acc * rng.choice(self.generators or [Perm.identity(self.degree)])
        return acc

    # -- subgroup machinery --------------------------------------------------

    def _make(self, gens: Sequence[Perm], known_order: int | None = None) -> "PermGroup":
        return PermGroup(self.degree, gens, guard=self.guard, known_order=known_order)

    def subgroup(self, gens: Sequence[Perm]) -> "PermGroup":
        return self._make(reduce_generators(self.degree, gens, self.guard))

    def from_elements(self, elems: Iterable[Perm]) -> "PermGroup":
        return self._make(reduce_generators(self.degree, sorted(
            (e for e in elems if not e.is_identity()), key=lambda p: p.img), self.guard))

    def normal_closure(self, gens: Sequence[Perm]) -> "PermGroup":
        sub = [g for g in gens if not g.is_identity()]
        closure = self._make(sub)
        elems = set(closure.elements())
        work = list(sub)
        while work:
            s = work.pop()
            for g in self.generators:
                t = s.conjugate(g)
                if t not in elems:
                    sub = sub + [t]
                    closure = self._make(sub)
                    elems = set(closure.elements())
                    work.append(t)
        return self.from_elements(elems)

    def intersection(self, other: "PermGroup") -> "PermGroup":
        if other.degree != self.degree:
            raise ArgumentError("intersection needs subgroups of a common parent")
        mine = set(self.elements())
        theirs = set(other.elements())
        return self.from_elements(mine & theirs)

    def center(self) -> "PermGroup":
        cent = [x for x in self.elements()
                if all(x * g == g * x for g in self.generators)]
        return self.from_elements(cent)

    def centralizes(self, other: "PermGroup") -> bool:
        return all(g * h == h * g for g in self.generators for h in other.generators)

    def derived_subgroup(self) -> "PermGroup":
        gens = [commutator(a, b) for a, b in combinations(self.generators, 2)]
        return self.normal_closure(gens)

    def commutator_subgroup_with(self, other: "PermGroup") -> "PermGroup":
        """Normal closure of [gens(self), gens(other)] -- correct for [A, B]
        when both are normal in the ambient group this is called on."""
        gens = [commutator(a, b) for a in self.generators for b in other.generators]
        return self.normal_closure(gens)

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a, b in combinations(self.generators, 2))

    def is_perfect(self) -> bool:
        return self.derived_subgroup().order() == self.order()

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        theirs = other.elements()
        return all(g in theirs for g in self.generators)

    def lower_central_series(self) -> list["PermGroup"]:
        series = [self]
        while True:
            prev = series[-1]
            nxt = self.normal_closure(
                [commutator(x, g) for x in prev.generators for g in self.generators])
            if nxt.order() == prev.order():
                break
            series.append(nxt)
            if nxt.order() == 1:
                break
        return series

    def nilpotency_class(self) -> int | None:
        """Length of the lower central series, or None when not nilpotent."""
        series = self.lower_central_series()
        if series[-1].order() != 1:
            return None
        return len(series) - 1

    # -- Engel checks ----------------------------------------------------------

    def conjugacy_class_reps(self) -> list[Perm]:
        elems = list(self.elements())
        todo = set(elems)
        reps = []
        for x in elems:
            if x not in todo:
                continue
            reps.append(x)
            orbit = {x}
            work = [x]
            while work:
                y = work.pop()
                for g in self.generators:
                    z = y.conjugate(g)
                    if z not in orbit:
                        orbit.add(z)
                        work.append(z)
            todo -= orbit
        return reps

    def _element_matrix(self) -> np.ndarray:
        elems = self.elements()
        return np.array([p.img for p in elems], dtype=np.int64)

    def is_n_engel(self, n: int, guard: int | None = None) -> bool:
        """True iff the n-th Engel word vanishes for every ordered pair."""
        if n < 1:
            raise ArgumentError("Engel index must be >= 1")
        res = self._engel_scan(cap=n, guard=guard)
        return res is not None and res <= n

    def minimal_engel_class(self, cap: int, guard: int | None = None) -> int | None:
        """Least n <= cap making the group n-Engel; None when the cap is hit."""
        if cap < 1:
            raise ArgumentError("cap must be >= 1")
        return self._engel_scan(cap=cap, guard=guard)

    def _engel_scan(self, cap: int, guard: int | None = None) -> int | None:
        limit = self.guard if guard is None else guard
        if self.order() > limit:
            raise SizeGuardError(self.order(), limit, what="Engel check")
        elem_matrix = self._element_matrix()
        if elem_matrix.shape[0] == 1:
            return 1
        base = _base_of_rows(elem_matrix)
        identity = np.array(base, dtype=np.int64)
        batch = max(1, 10_000_000 // max(1, self.degree))
        worst = 1
        for b in self.conjugacy_class_reps():
            barr = np.array(b.img, dtype=np.int64)
            binv = np.array(b.inverse().img, dtype=np.int64)
            for start in range(0, elem_matrix.shape[0], batch):
                gamma = self._engel_step(elem_matrix[start:start + batch], barr, binv)
                k = 1
                while True:
                    # equal base images mean equal elements, so dedupe and
                    # test for the identity on the base columns alone
                    images, keep = np.unique(gamma[:, base], axis=0, return_index=True)
                    live = ~(images == identity).all(axis=1)
                    gamma = gamma[keep[live]]
                    if gamma.shape[0] == 0:
                        break
                    if k >= cap:
                        return None
                    gamma = self._engel_step(gamma, barr, binv)
                    k += 1
                worst = max(worst, k)
        return worst

    @staticmethod
    def _engel_step(stack: np.ndarray, barr: np.ndarray, binv: np.ndarray) -> np.ndarray:
        # rows x -> [x, b] = x^-1 b^-1 x b, composed left to right
        inv = np.argsort(stack, axis=1)
        t = binv[inv]
        t = np.take_along_axis(stack, t, axis=1)
        return barr[t]


def _base_of_rows(rows: np.ndarray) -> list[int]:
    """A base of the group whose elements are the rows of an image matrix.

    Walks the points in order and keeps a point when some element fixing the
    kept points moves it; only the identity fixes the result pointwise.
    """
    base: list[int] = []
    for pt in range(rows.shape[1]):
        if rows.shape[0] == 1:
            break
        fixes = rows[:, pt] == pt
        if not fixes.all():
            base.append(pt)
            rows = rows[fixes]
    return base


def reduce_generators(degree: int, elems: Sequence[Perm], guard: int) -> list[Perm]:
    """Greedy generating subset of an element collection (order-deterministic)."""
    gens: list[Perm] = []
    have: set[Perm] = {Perm.identity(degree)}
    for e in elems:
        if e in have:
            continue
        gens.append(e)
        have = set(PermGroup(degree, gens, guard=guard).elements())
    return gens


# -- stabilizer chain ---------------------------------------------------------

def _chain_order(gens: Sequence[Perm], degree: int) -> int:
    chain = _stabilizer_chain([g for g in gens if not g.is_identity()], degree)
    n = 1
    for _, transversal in chain:
        n *= len(transversal)
    return n


def _sift(chain, g: Perm) -> Perm:
    for pt, transversal in chain:
        t = transversal.get(g.img[pt])
        if t is None:
            return g
        g = g * t.inverse()
    return g


def _stabilizer_chain(gens: list[Perm], degree: int):
    """Deterministic Schreier-Sims; each accepted Schreier generator strictly
    grows the stabilizer, so only log-many rebuilds happen per level."""
    if not gens:
        return []
    pt = min(i for g in gens for i in range(degree) if g.img[i] != i)
    transversal = {pt: Perm.identity(degree)}
    queue = [pt]
    while queue:
        a = queue.pop(0)
        ta = transversal[a]
        for g in gens:
            b = g.img[a]
            if b not in transversal:
                transversal[b] = ta * g
                queue.append(b)
    stab_gens: list[Perm] = []
    subchain = []
    for a in sorted(transversal):
        ta = transversal[a]
        for g in gens:
            sg = ta * g * transversal[g.img[a]].inverse()
            if sg.is_identity():
                continue
            if not _sift(subchain, sg).is_identity():
                stab_gens.append(sg)
                subchain = _stabilizer_chain(stab_gens, degree)
    return [(pt, transversal)] + subchain


# -- homomorphisms -------------------------------------------------------------

class GroupHom:
    """Homomorphism given by generator images.

    When relator words (signed index tuples over the source generators) are
    supplied, well-definedness is checked at construction.
    """

    def __init__(self, source: PermGroup, target: PermGroup,
                 images: Sequence[Perm],
                 relators: Sequence[Sequence[int]] | None = None):
        if len(images) != len(source.generators):
            raise ArgumentError("need one image per source generator")
        self.source = source
        self.target = target
        self.images = list(images)
        if relators is not None:
            for r in relators:
                if not evaluate(self.images, r, target.degree).is_identity():
                    raise ArgumentError(f"relator {r} does not map to the identity")

    def image_of(self, p: Perm) -> Perm:
        return evaluate(self.images, self.source.word_for(p), self.target.degree)

    def image(self) -> PermGroup:
        return PermGroup(self.target.degree, self.images, guard=self.target.guard)

    def kernel(self) -> PermGroup:
        elems = [p for p in self.source.elements() if self.image_of(p).is_identity()]
        return self.source.from_elements(elems)


def quotient_realization(group: PermGroup, normal: PermGroup
                         ) -> tuple[PermGroup, Callable[[Perm], Perm]]:
    """Regular-style realization of group/normal on the right cosets.

    Returns the quotient as a permutation group of degree [group : normal]
    together with the projection map on elements.
    """
    n_elems = set(normal.elements())
    coset_of: dict[Perm, int] = {}
    reps: list[Perm] = []
    for x in group.elements():
        if x not in coset_of:
            idx = len(reps)
            reps.append(x)
            for h in n_elems:
                coset_of[h * x] = idx
    degree = len(reps)

    def project(p: Perm) -> Perm:
        return Perm(coset_of[reps[i] * p] for i in range(degree))

    q = PermGroup(degree, [project(g) for g in group.generators],
                  guard=group.guard, known_order=degree)
    return q, project


def abelian_invariants(group: PermGroup) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group, by counting p-torsion.

    Independent of Smith-form machinery: for each prime p dividing the order,
    the number of cyclic p-power factors of order >= p^j is
    log_p |{x : x^(p^j) = 1}| - log_p |{x : x^(p^(j-1)) = 1}|.
    """
    if not group.is_abelian():
        raise ArgumentError("abelian_invariants needs an abelian group")
    order = group.order()
    if order > group.guard:
        raise SizeGuardError(order, group.guard)
    elems = list(group.elements())
    by_prime: dict[int, list[int]] = {}
    for p in _prime_factors(order):
        counts = []
        j = 1
        while True:
            kill = sum(1 for x in elems if (x ** (p ** j)).is_identity())
            counts.append(round(math.log(kill, p)))
            if kill == order or (len(counts) > 1 and counts[-1] == counts[-2]):
                break
            j += 1
        ranks = [counts[0]] + [counts[i] - counts[i - 1] for i in range(1, len(counts))]
        powers: list[int] = []
        # number of factors of order exactly p^j = ranks[j-1] - ranks[j]
        ranks.append(0)
        for j in range(len(ranks) - 1):
            powers.extend([p ** (j + 1)] * (ranks[j] - ranks[j + 1]))
        by_prime[p] = sorted(powers, reverse=True)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, powers in by_prime.items():
            if i < len(powers):
                d *= powers[i]
        factors.append(d)
    return tuple(sorted(factors))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
