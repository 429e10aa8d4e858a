"""Finite permutation groups and the algorithms the structure checks need.

Composition is left-to-right: ``(p * q)`` means "apply p, then q", so the
image of a word under a homomorphism is the product of the letter images in
reading order.  Element-based operations (subgroup lattice, series, Engel
checks) enumerate the group and refuse to run past a configurable guard;
order alone falls back to a stabilizer chain, so it also works for groups
well beyond the guard.  Subgroups are closed by coset extension (Dimino's
method): a kept generator y grows the closed set H by its right cosets
H y, H y s, ..., so each element is made once.  ``subgroup``,
``from_elements``, ``normal_closure``, ``pointwise_stabilizer``,
``intersection`` and ``center`` return their group with the member set its
span made, and never enumerate it again; only a group made from generators
alone enumerates its elements, breadth-first.  A pointwise stabilizer is
closed once, from Schreier generators, without enumerating the group, and
gives the group's order by orbit-stabilizer.

Engel verification is a forall-forall property, so it is exhaustive over
ordered pairs (never sampled); the inner loop is vectorized with numpy and
the outer loop runs over conjugacy-class representatives b of the second
argument, which is sound because Engel words transform equivariantly under
simultaneous conjugation.  Since [x, b] = (b^x)^-1 b, the first step for b
is the rows {c^-1 b : c in the class of b}, so it covers each element of
the group once over all classes, not once per class.  Engel words of
group elements are group elements, and two group elements that agree on a
base (points fixed pointwise only by the identity) are equal, so the scan
deduplicates its rows and tests them for the identity on the base columns
alone; a regular group's base is a single point.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations
from typing import Callable, Collection, Iterable, Sequence

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
        self._elements: Collection[Perm] | None = None

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, [], known_order=1)

    # -- element enumeration ------------------------------------------------

    def elements(self, guard: int | None = None) -> Collection[Perm]:
        """All elements: the members of a closed subgroup as its span made
        them, else a breadth-first search over the generators, kept in that
        order."""
        limit = self.guard if guard is None else guard
        if self._elements is not None:
            if len(self._elements) > limit:
                raise SizeGuardError(len(self._elements), limit)
            return self._elements
        ident = Perm.identity(self.degree)
        found = {ident: None}       # a dict, to keep the breadth-first order
        queue = [ident]
        for x in queue:
            for g in self.generators:
                y = x * g
                if y not in found:
                    if len(found) >= limit:
                        raise SizeGuardError(f"> {limit}", limit)
                    found[y] = None
                    queue.append(y)
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

    def random_element(self, rng) -> Perm:
        """A product of 3 to 19 random generators, composed on image tuples."""
        identity = tuple(range(self.degree))
        pool = [g.img for g in self.generators] or [identity]
        img = identity
        for _ in range(rng.randrange(3, 20)):
            g = rng.choice(pool)
            # below degree 2 every permutation is g; itemgetter needs two indices
            img = operator.itemgetter(*img)(g) if len(img) > 1 else g
        return Perm(img)

    # -- subgroup machinery --------------------------------------------------

    def _span(self, elems: Iterable[Perm], gens: list[Perm] | None = None,
              members: set[Perm] | None = None) -> tuple[list[Perm], set[Perm]]:
        """The greedy generators and the element set of <gens, elems>.

        Each element of elems that the span does not contain yet becomes a
        generator (order-deterministic), and the span H grows by its right
        cosets H y, H y s, ... until right multiplication by every generator
        s is closed (Dimino's method), so each element is made once.
        ``members`` is the element set of <gens>; both grow in place.
        SizeGuardError once the span would pass the guard.
        """
        if members is None:
            gens, members = [], {Perm.identity(self.degree)}
        guard = self.guard
        for y in elems:
            if y in members:
                continue
            gens.append(y)
            block = list(members)
            reps = [y]
            for z in reps:          # candidate coset representatives; grows
                if z in members:
                    continue
                if len(members) + len(block) > guard:
                    raise SizeGuardError(f"> {guard}", guard)
                members.update([h * z for h in block])
                reps.extend([z * s for s in gens])
        return gens, members

    def _closure(self, elems: Iterable[Perm]) -> "PermGroup":
        """The subgroup generated by elems, on a greedy subset of elems
        (see ``_span``), returned with the member set the span made."""
        return self._spanned(*self._span(elems))

    def _spanned(self, gens: list[Perm], members: set[Perm]) -> "PermGroup":
        group = PermGroup(self.degree, gens, guard=self.guard,
                          known_order=len(members))
        group._elements = members
        return group

    def subgroup(self, gens: Sequence[Perm]) -> "PermGroup":
        return self._closure(gens)

    def from_elements(self, elems: Iterable[Perm]) -> "PermGroup":
        return self._closure(sorted(
            (e for e in elems if not e.is_identity()), key=lambda p: p.img))

    def normal_closure(self, gens: Sequence[Perm]) -> "PermGroup":
        """One span, grown by each conjugate of its generators that it
        lacks, returned with its generators and members."""
        span_gens, members = self._span(gens)
        conjugators = [(g.inverse(), g) for g in self.generators]
        work = list(span_gens)
        while work:
            s = work.pop()
            for g_inv, g in conjugators:
                t = g_inv * s * g
                if t not in members:
                    self._span([t], span_gens, members)
                    work.append(t)
        return self._spanned(span_gens, members)

    def pointwise_stabilizer(self, points: Sequence[int]) -> "PermGroup":
        """The subgroup fixing every one of the points, without enumerating
        the group: level by level, the span of the Schreier generators of the
        next point's stabilizer in the last level, the last returned with its
        span generators and members.  As a by-product the group's order is
        known by orbit-stabilizer, the product of the orbit lengths along the
        levels times the order of the result."""
        if not points:
            raise ArgumentError("pointwise_stabilizer needs a point")
        gens, order = self.generators, 1
        for pt in points:
            transversal, schreier = _schreier_generators(gens, pt, self.degree)
            gens, members = self._span(schreier)
            order *= len(transversal)
        if self._order is None:
            self._order = order * len(members)
        return self._spanned(gens, members)

    def intersection(self, other: "PermGroup") -> "PermGroup":
        if other.degree != self.degree:
            raise ArgumentError("intersection needs subgroups of a common parent")
        theirs = other.elements()
        return self.from_elements(p for p in self.elements() if p in theirs)

    def center(self) -> "PermGroup":
        cent = [x for x in self.elements()
                if all(x * g == g * x for g in self.generators)]
        return self.from_elements(cent)

    def centralizes(self, other: "PermGroup") -> bool:
        return all(g * h == h * g for g in self.generators for h in other.generators)

    def derived_subgroup(self) -> "PermGroup":
        gens = [commutator(a, b) for a, b in combinations(self.generators, 2)]
        return self.normal_closure(gens)

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a, b in combinations(self.generators, 2))

    def is_perfect(self) -> bool:
        return self.derived_subgroup().order() == self.order()

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

    def conjugacy_classes(self) -> list[list[Perm]]:
        """The conjugacy classes as orbits, each led by its representative."""
        seen: set[Perm] = set()
        classes = []
        conjugators = [(g.inverse(), g) for g in self.generators]
        for x in self.elements():
            if x in seen:
                continue
            seen.add(x)
            orbit = [x]
            for y in orbit:
                for g_inv, g in conjugators:
                    z = g_inv * y * g
                    if z not in seen:
                        seen.add(z)
                        orbit.append(z)
            classes.append(orbit)
        return classes

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
        if self.order() == 1:
            return 1
        classes = self.conjugacy_classes()
        rows = np.array([c.img for cls in classes for c in cls], dtype=np.int64)
        base = _base_of_rows(rows)
        identity = np.array(base, dtype=np.int64)
        worst = 1
        for block in np.split(rows, np.cumsum([len(cls) for cls in classes])[:-1]):
            barr = block[0]             # the class representative b
            binv = np.argsort(barr)
            # [x, b] = (b^x)^-1 b, and b^x runs over b's class as x runs
            # over the group: one first-step row c^-1 b per class member c
            gamma = barr[np.argsort(block, axis=1)]
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


# -- stabilizer chain ---------------------------------------------------------

def _schreier_generators(gens: Sequence[Perm], point: int, degree: int
                         ) -> tuple[dict[int, Perm], list[Perm]]:
    """The transversal of the orbit of point, t_a the breadth-first tree path
    from point to a (keyed in breadth-first order), and the Schreier
    generators t_a g t_(a^g)^-1 of the stabilizer of point, which by
    Schreier's lemma generate it."""
    transversal = {point: Perm.identity(degree)}
    orbit = [point]
    for a in orbit:
        ta = transversal[a]
        for g in gens:
            b = g.img[a]
            if b not in transversal:
                transversal[b] = ta * g
                orbit.append(b)
    inverses = {b: t.inverse() for b, t in transversal.items()}
    return transversal, [ta * g * inverses[g.img[a]]
                         for a, ta in transversal.items() for g in gens]


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
    transversal, schreier = _schreier_generators(gens, pt, degree)
    stab_gens: list[Perm] = []
    subchain = []
    for sg in schreier:
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

    def kernel(self) -> PermGroup:
        """The source block of each element of the graph group
        <block_perm([g, image of g])> whose target block is the identity."""
        n = self.source.degree
        graph = PermGroup(n + self.target.degree,
                          [block_perm([g, h])
                           for g, h in zip(self.source.generators, self.images)],
                          guard=self.source.guard)
        fixed = tuple(range(n, graph.degree))
        return self.source.from_elements(
            Perm(p.img[:n]) for p in graph.elements() if p.img[n:] == fixed)


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
