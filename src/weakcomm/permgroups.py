"""Finite permutation groups and the algorithms the structure checks need.

Composition is left-to-right: ``(p * q)`` means "apply p, then q", so the
image of a word under a homomorphism is the product of the letter images in
reading order.  Element-based operations (subgroup lattice, series, Engel
checks) enumerate the group and refuse to run past a configurable guard.
An order is given when the group is made, read off
``pointwise_stabilizer``, or else counted from the elements, so past the
guard it too raises ``SizeGuardError``.

A group names its elements by keys: their images of its base, points that
only the identity fixes pointwise, so elements with one key are equal.  A
group made with no base keys on the whole image tuple: every point is its
base.  Every subgroup that a group's spans make inherits its base.  Member
sets, membership, spans, intersections, quotients and the breadth-first
enumeration all run on keys: the key of x p is p read at x's key, so the
coset H y is keyed from H's keys and y alone.  Full elements are made only
for generators, kept Schreier generators, Dimino's coset representatives
and callers that need one (``evaluator``, which sifts a key down the
stabilizer chain of the base, its transversals kept as Schreier vectors;
Seress, *Permutation Group Algorithms*, 2003, ch. 4).

Subgroups are closed by coset extension (Dimino's method): a kept generator
y grows the closed set H by its right cosets H y, H y s, ..., so each
element is keyed once.  ``subgroup``, ``from_elements``, ``normal_closure``,
``pointwise_stabilizer``, ``intersection`` and ``center`` return their group
with the member keys its span made, and never enumerate it again; only a
group made from generators alone enumerates its keys, breadth-first.  A
pointwise stabilizer is closed once, from Schreier generators keyed on the
base and made in full only when kept, without enumerating the group, and
gives the group's order by orbit-stabilizer.

Engel verification is a forall-forall property, so it is exhaustive over
ordered pairs (never sampled); the outer loop runs over conjugacy-class
representatives b of the second argument, which is sound because Engel
words transform equivariantly under simultaneous conjugation.  Since
[x, b] = (b^x)^-1 b, the first step for b is the rows {c^-1 b : c in the
class of b}, so it covers each element of the group once over all classes,
not once per class.  Engel words of group elements are group elements, so
the scan keeps each row as its key: it deduplicates rows and tests them for
the identity on those, and reads the next row's key off the element and the
inverse's key that the row's key names, composing no permutation.
Conjugacy classes are found the same way.
"""

from __future__ import annotations

import math
import operator
from functools import partial, reduce
from itertools import combinations, takewhile
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import ArgumentError, SizeGuardError

DEFAULT_GUARD = 100_000

Key = tuple[int, ...]    # an element's images of its group's base points


class Perm:
    """A permutation of {0..n-1} stored as its image tuple, and its inverse
    once that has been asked for."""

    __slots__ = ("img", "_inverse")

    def __init__(self, img: Sequence[int]):
        self.img = tuple(img)
        self._inverse: Perm | None = None

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
        if self._inverse is None:
            out = [0] * len(self.img)
            for i, x in enumerate(self.img):
                out[x] = i
            self._inverse = Perm(out)
        return self._inverse

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


def failing_relator(images: Sequence[Sequence[int]],
                    relators: Sequence[tuple[int, ...]]) -> int | None:
    """The index of the first relator, in the given order, that the forward
    image tuples of the generators do not send to the identity, or None.
    Relators are signed 1-based index words, walked in sorted order with one
    image per depth, so a prefix shared with the word before costs no gather;
    u^-1 v^-1 u v with |u| = |v| holds iff the images of u and v commute."""
    if not images or len(images[0]) < 2:   # one point: every image is trivial
        return None
    identity = tuple(sorted(images[0]))   # range(n) made of the images' own ints
    letters = {s * i: g if s > 0 else operator.itemgetter(*Perm(g).inverse().img)(identity)
               for i, g in enumerate(images, 1) for s in (1, -1)}

    def path_images(words):
        path, last = [identity], ()   # path[k] is the image of last's k-prefix
        for w in words:
            k = 0
            while k < len(last) and k < len(w) and last[k] == w[k]:
                k += 1
            del path[k + 1:]
            g = path[k]
            for s in w[k:]:
                g = operator.itemgetter(*g)(letters[s])
                path.append(g)
            last = w
            yield g

    walks = []   # (u, v, i): relator i is [u, v], or u when v is empty
    for i, r in enumerate(relators):
        q = len(r) // 4
        u, v = r[2 * q:3 * q], r[3 * q:]
        is_commutator = r[:2 * q] == tuple(map(operator.neg, reversed(v + u)))   # (v u)^-1
        walks.append((u, v, i) if is_commutator else (r, (), i))
    walks.sort(key=operator.itemgetter(0))
    # a double's bar keeps the order of words, so its v's come sorted as well
    vs = path_images([v for _, v, _ in walks if v])
    for (_, v, i), a in zip(walks, path_images([u for u, _, _ in walks])):
        b = next(vs) if v else identity   # u holds iff u = 1, [u, v] iff u v = v u
        if operator.itemgetter(*a)(b) != (operator.itemgetter(*b)(a) if v else identity):
            earlier = failing_relator(images, relators[:i])
            return i if earlier is None else earlier
    return None


def block_perm(parts: Sequence[Perm]) -> Perm:
    """Disjoint-union permutation acting blockwise."""
    img: list[int] = []
    offset = 0
    for p in parts:
        img.extend(offset + x for x in p.img)
        offset += p.degree
    return Perm(img)


class PermGroup:
    """Group generated by permutations of a common degree, its elements
    named by their images of its base (every point when none is given)."""

    def __init__(self, degree: int, generators: Sequence[Perm],
                 guard: int = DEFAULT_GUARD, known_order: int | None = None,
                 base: Sequence[int] | None = None):
        for g in generators:
            if g.degree != degree:
                raise ArgumentError("generator degree mismatch")
        self.degree = degree
        self.generators = list(generators)  # order matters: homs map by index
        self.guard = guard
        self.base = None if base is None else tuple(base)
        # the points a key reads, which are also the identity's key
        self._points = tuple(range(degree)) if base is None else self.base
        self._order = known_order
        self._elements: Collection[Key] | None = None   # the member keys
        # the group whose stabilizer chain evaluates keys, when not this one
        self._top: PermGroup | None = None
        self._chain: list[tuple[list[Perm], dict]] | None = None

    # -- keys and elements -----------------------------------------------------

    def key(self, p: Perm) -> Key:
        """p's images of the base points, which name p among the group's
        elements; the image tuple itself when every point is the base."""
        return p.img if self.base is None else _at(p.img, self.base)

    def keys(self, guard: int | None = None) -> Collection[Key]:
        """The member keys: those of a closed subgroup as its span made
        them, else a breadth-first search over the generators, kept in that
        order, in which the key of x g is g read at x's key."""
        limit = self.guard if guard is None else guard
        if self._elements is not None:
            if len(self._elements) > limit:
                raise SizeGuardError(len(self._elements), limit)
            return self._elements
        found = {self._points: None}    # a dict, to keep the breadth-first order
        images = [g.img for g in self.generators]
        queue = [self._points]
        for x in queue:
            for g in images:
                y = _at(g, x)
                if y not in found:
                    if len(found) >= limit:
                        raise SizeGuardError(f"> {limit}", limit)
                    found[y] = None
                    queue.append(y)
        self._elements = found
        self._order = len(found)
        return found

    def evaluator(self) -> "_Evaluator":
        """A function from keys to elements (see ``_Evaluator``)."""
        return _Evaluator(self)

    def elements(self, guard: int | None = None) -> Collection[Perm]:
        """All elements, evaluated from the member keys in their order."""
        return list(map(self.evaluator(), self.keys(guard)))

    def order(self) -> int:
        if self._order is not None:
            return self._order
        return len(self.keys())

    def __contains__(self, p: Perm) -> bool:
        return self.key(p) in self.keys()

    def _transversals(self) -> list[tuple[list[Perm], dict]]:
        """Per base point, the generators of the pointwise stabilizer of the
        points before it and the Schreier vector of the point's orbit under
        them; made on first use by the group that gave the base, and shared
        by every subgroup its spans made."""
        top = self._top or self
        if top._chain is None:
            chain, gens, order = [], top.generators, top._order
            for pt in top.base:
                tree, tkeys = _orbit_tree(gens, pt, top.base)
                chain.append((gens, tree))
                if len(chain) == len(top.base):
                    break
                order = None if order is None else order // len(tree)
                gens, _ = top._stabilizer_span(_schreier_candidates(
                    gens, tree, list(tkeys.items()), top), order)
            top._chain = chain
        return top._chain

    # -- subgroup machinery --------------------------------------------------

    def _span(self, candidates: Iterable[tuple[Key, Perm | Callable[[], Perm]]],
              gens: list[Perm] | None = None, members: set[Key] | None = None
              ) -> tuple[list[Perm], set[Key]]:
        """The greedy generators and the member keys of <gens, candidates>.

        Each candidate is a key and its element, or a function that makes
        the element.  Each candidate the span does not contain yet becomes a
        generator (order-deterministic), and the span H grows by its right
        cosets H y, H y s, ... until right multiplication by every generator
        s is closed (Dimino's method), so each element is keyed once, from
        H's keys and the coset representative alone.  A representative is
        made only once its key is new.  ``members`` is the key set of
        <gens>; both grow in place.  SizeGuardError once the span would pass
        the guard.
        """
        if members is None:
            gens, members = [], {self._points}
        guard = self.guard
        for key, make in candidates:
            if key in members:
                continue
            y = make() if callable(make) else make
            gens.append(y)
            block = list(members)
            reps = [(key, y, None)]     # (key of z s, z, s): candidate representatives
            for zkey, z, s in reps:
                if zkey in members:
                    continue
                if len(members) + len(block) > guard:
                    raise SizeGuardError(f"> {guard}", guard)
                if s is not None:
                    z = z * s
                members.update([_at(z.img, h) for h in block])
                reps.extend([(_at(t.img, zkey), z, t) for t in gens])
        return gens, members

    def _given(self, elems: Iterable[Perm]) -> list[tuple[Key, Perm]]:
        return [(self.key(p), p) for p in elems]

    def _closure(self, candidates) -> "PermGroup":
        """The subgroup generated by the candidates, on a greedy subset of
        them (see ``_span``), returned with the member keys the span made."""
        return self._spanned(*self._span(candidates))

    def _spanned(self, gens: list[Perm], members: set[Key]) -> "PermGroup":
        group = PermGroup(self.degree, gens, guard=self.guard,
                          known_order=len(members), base=self.base)
        group._elements = members
        group._top = self._top or self
        return group

    def subgroup(self, gens: Sequence[Perm]) -> "PermGroup":
        return self._closure(self._given(gens))

    def from_elements(self, elems: Iterable[Perm]) -> "PermGroup":
        return self._closure(sorted(
            (c for c in self._given(elems) if c[0] != self._points),
            key=operator.itemgetter(0)))

    def normal_closure(self, gens: Sequence[Perm]) -> "PermGroup":
        """One span, grown by each conjugate of its generators that it
        lacks, returned with its generators and members.  The key of
        g^-1 s g is g read at s read at the key of g^-1, so a conjugate is
        made only when the span lacks it."""
        span_gens, members = self._span(self._given(gens))
        conjugators = [(self.key(g.inverse()), g.inverse(), g) for g in self.generators]
        work = list(span_gens)
        while work:
            s = work.pop()
            for g_inv_key, g_inv, g in conjugators:
                key = _at(g.img, _at(s.img, g_inv_key))
                if key not in members:
                    t = g_inv * s * g
                    self._span([(key, t)], span_gens, members)
                    work.append(t)
        return self._spanned(span_gens, members)

    def pointwise_stabilizer(self, points: Sequence[int]) -> "PermGroup":
        """The subgroup fixing every one of the points, without enumerating
        the group: level by level, the span of the Schreier generators of the
        next point's stabilizer in the last level, the last returned with its
        span generators and members.  As a by-product the group's order is
        known by orbit-stabilizer, the product of the orbit lengths along the
        levels times the order of the result; when it was known already, each
        span stops once it reaches the order that gives its level."""
        if not points:
            raise ArgumentError("pointwise_stabilizer needs a point")
        gens, order, orbits = self.generators, self._order, 1
        for pt in points:
            transversal, schreier = _schreier_generators(gens, pt, self)
            orbits *= len(transversal)
            gens, members = self._stabilizer_span(
                schreier, None if order is None else order // orbits)
        if self._order is None:
            self._order = orbits * len(members)
        return self._spanned(gens, members)

    def _stabilizer_span(self, schreier: Iterable[tuple[Key, Callable[[], Perm]]],
                         order: int | None) -> tuple[list[Perm], set[Key]]:
        """The span of a stabilizer's Schreier generators, stopped once it
        reaches the stabilizer's order when that is known: the generators
        left are members then, so the span and its generators are the same."""
        gens: list[Perm] = []
        members: set[Key] = {self._points}
        if order is not None:
            schreier = takewhile(lambda _: len(members) < order, schreier)
        return self._span(schreier, gens, members)

    def intersection(self, other: "PermGroup") -> "PermGroup":
        """The span of the common members, in the order of their keys; only
        the members kept as generators are made."""
        if other.degree != self.degree or other.base != self.base:
            raise ArgumentError("intersection needs subgroups of a common parent")
        theirs, element = other.keys(), self.evaluator()
        return self._closure((k, partial(element, k)) for k in sorted(self.keys())
                             if k in theirs and k != self._points)

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

    def _conjugacy_classes(self, named: dict[Key, tuple[tuple[int, ...], Key]]
                           ) -> list[list[Key]]:
        """The conjugacy classes as orbits of keys, each led by its
        representative's.  ``named`` maps each key to its element's image
        tuple (and its inverse's key), so each conjugate g^-1 y g is read off
        y on the base, never composed."""
        base = self._points
        conjugators = [(g.img, g.inverse().img) for g in self.generators]
        seen: set[Key] = set()
        classes = []
        for key in named:
            if key in seen:
                continue
            seen.add(key)
            orbit = [key]
            for y in orbit:
                y = named[y][0]
                for g, g_inv in conjugators:
                    z = tuple([g[y[g_inv[p]]] for p in base])
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
        keys = self.keys(limit)
        # equal keys mean equal elements: a row is kept as its key,
        # deduplicated, and tested for the identity on it alone; each key
        # names its element's image tuple and its inverse's key
        evaluate = self.evaluator().with_inverse_key
        named = {}
        for k in keys:
            x, x_inv = evaluate(k)
            named[k] = x.img, x_inv
        identity = self._points
        worst = 1
        for cls in self._conjugacy_classes(named):
            b = named[cls[0]][0]        # the class representative
            b_inv = Perm(b).inverse().img
            # [x, b] = (b^x)^-1 b, and b^x runs over b's class as x runs
            # over the group: one first-step row c^-1 b per class member c,
            # which sends p to b[c^-1(p)]
            rows = {tuple([b[q] for q in named[c][1]]) for c in cls}
            k = 1
            while True:
                rows.discard(identity)
                if not rows:
                    break
                if k >= cap:
                    return None
                # x -> [x, b] = x^-1 b^-1 x b, composed left to right on
                # the base points alone
                rows = {tuple([b[x[b_inv[q]]] for q in x_inv])
                        for x, x_inv in map(named.__getitem__, rows)}
                k += 1
            worst = max(worst, k)
        return worst


class _Evaluator:
    """Elements from keys.  With every point as the base a key is the
    image tuple itself.  Otherwise the element is the product t_(m-1) ...
    t_0 of the transversal elements that sift its key down the stabilizer
    chain of the base: t_0 takes the first base point where the key says,
    t_0^-1 read at the key gives the key of the rest, which fixes that
    point, and so on.  Each transversal element is made from its Schreier
    vector once, and kept while the evaluator lives."""

    def __init__(self, group: PermGroup):
        self.base = group._points
        self.chain = None if group.base is None else group._transversals()
        if self.chain is not None:
            identity = Perm.identity(group.degree)
            self.made = [{next(iter(tree)): identity} for _, tree in self.chain]

    def _transversal(self, level: int, a: int) -> Perm:
        known = self.made[level]
        if a in known:
            return known[a]
        (gens, tree), path = self.chain[level], []
        while a not in known:
            path.append(a)
            a = tree[a][0]
        t = known[a]
        for b in reversed(path):
            t = known[b] = t * gens[tree[b][1]]
        return t

    def _factors(self, key: Key) -> list[Perm]:
        """t_0, ..., t_(m-1) for the key's element."""
        factors = []
        for level in range(len(self.chain)):
            t = self._transversal(level, key[level])
            factors.append(t)
            if level + 1 < len(self.chain):
                key = _at(t.inverse().img, key)
        return factors

    def __call__(self, key: Key) -> Perm:
        if self.chain is None:
            return Perm(key)
        return reduce(operator.mul, reversed(self._factors(key)))

    def at(self, key: Key, points: Key) -> Key:
        """The key's element read at the points, through t_(m-1), ..., t_0
        in turn, without making the element: the key of y x, when the
        points are y's key."""
        if self.chain is None:
            return _at(key, points)
        for t in reversed(self._factors(key)):
            points = _at(t.img, points)
        return points

    def with_inverse_key(self, key: Key) -> tuple[Perm, Key]:
        """The key's element and the key of its inverse, which is the base
        read through t_0^-1, ..., t_(m-1)^-1 in turn."""
        if self.chain is None:
            x = Perm(key)
            return x, x.inverse().img
        factors, points = self._factors(key), self.base
        for t in factors:
            points = _at(t.inverse().img, points)
        return reduce(operator.mul, reversed(factors)), points


# -- Schreier vectors ----------------------------------------------------------

def _at(img: tuple[int, ...], points: Sequence[int]) -> Key:
    """img read at the points: the key of x p, when x has these points as
    its key and p has the image tuple img."""
    if len(points) == 1:   # itemgetter needs two indices to return a tuple
        return (img[points[0]],)
    return operator.itemgetter(*points)(img)


def _orbit_tree(gens: Sequence[Perm], point: int, points: Key
                ) -> tuple[dict[int, tuple[int, int] | None], dict[int, Key]]:
    """The Schreier vector of the orbit of point, in breadth-first order:
    each orbit point b maps to (a, i) when the tree reaches it as a read by
    gens[i], the point itself to None; and the key of each transversal
    element t_b, the tree path from point to b, on the given points."""
    tree: dict[int, tuple[int, int] | None] = {point: None}
    tkeys = {point: points}
    orbit = [point]
    for a in orbit:
        ka = tkeys[a]
        for i, g in enumerate(gens):
            b = g.img[a]
            if b not in tree:
                tree[b] = (a, i)
                tkeys[b] = _at(g.img, ka)
                orbit.append(b)
    return tree, tkeys


def _back(tree: dict, inverses: Sequence[Perm], a: int, points: Key) -> Key:
    """t_a^-1 read at the points: the tree path to a walked back from a,
    undoing the generator of each edge."""
    while tree[a] is not None:
        a, i = tree[a]
        points = _at(inverses[i].img, points)
    return points


def _schreier_candidates(gens: Sequence[Perm], tree: dict,
                         transversal: Sequence[tuple[int, Key]], group: "PermGroup"):
    """The Schreier generators t_a g t_(a^g)^-1 of the stabilizer of the
    tree's root, which by Schreier's lemma generate it, for the transversal
    in its order and the generators in theirs, as the candidates of a span:
    each keyed by reading t_(a^g)^-1 at g read at the key of t_a, and made
    in full only when the span keeps it.  Tree edges give the identity and
    are left out."""
    inverses = [g.inverse() for g in gens]
    for a, key_a in transversal:
        for i, g in enumerate(gens):
            b = g.img[a]
            if tree[b] == (a, i):
                continue
            key = _back(tree, inverses, b, _at(g.img, key_a))
            if group.base is None:
                yield key, partial(Perm, key)
            else:
                yield key, partial(_schreier_element, gens, inverses, tree, a, i, b)


def _schreier_element(gens: Sequence[Perm], inverses: Sequence[Perm], tree: dict,
                      a: int, i: int, b: int) -> Perm:
    """t_a gens[i] t_b^-1, multiplied out along the tree paths."""
    x = gens[i]
    while tree[a] is not None:
        a, j = tree[a]
        x = gens[j] * x
    while tree[b] is not None:
        b, j = tree[b]
        x = x * inverses[j]
    return x


def _schreier_generators(gens: Sequence[Perm], point: int, group: "PermGroup"
                         ) -> tuple[dict[int, Key], Iterator[tuple[Key, Callable]]]:
    """The transversal of the orbit of point, each t_a named by its key on
    the group's base and listed in breadth-first order, and the Schreier
    generators of the stabilizer of point as span candidates (see
    ``_schreier_candidates``)."""
    tree, tkeys = _orbit_tree(gens, point, group._points)
    return tkeys, _schreier_candidates(gens, tree, list(tkeys.items()), group)


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
        bad = failing_relator([g.img for g in self.images], relators or ())
        if bad is not None:
            raise ArgumentError(f"relator {relators[bad]} does not map to the identity")

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
    together with the projection map on elements.  Both groups key their
    elements on one base: the coset N x is keyed from N's keys and x alone,
    so only the coset representatives are made.
    """
    if normal.base != group.base:
        raise ArgumentError("quotient needs a normal subgroup on the group's base")
    n_keys, element = list(normal.keys()), group.evaluator()
    coset_of: dict[Key, int] = {}
    reps: list[Key] = []
    for key in group.keys():
        if key not in coset_of:
            x = element(key)
            coset_of.update(dict.fromkeys([_at(x.img, h) for h in n_keys], len(reps)))
            reps.append(key)
    degree = len(reps)

    def project(p: Perm) -> Perm:
        return Perm(coset_of[_at(p.img, r)] for r in reps)

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
