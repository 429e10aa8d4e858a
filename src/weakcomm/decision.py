"""Word problem for the double, growth of balls, and growth classification.

``xg_word_problem`` follows a two-stage pipeline.  A word over the doubled
alphabet is first pushed through the triple-coordinate map; any coordinate
that the base-group oracle rejects certifies non-triviality.  Words in the
kernel are handled by a budgeted dovetail between (a) a certificate search
in increasing area/radius and (b) a finite-quotient search (coset
enumerations of the double over trivial and cyclic subgroups, plus seeded
random symmetric-group images validated on the relators).  A complete
enumeration with trivial subgroup realizes the group faithfully and decides
both directions; partial quotients certify non-triviality only.  Verdicts
are always certified; Unknown carries the spent budgets.

Every oracle has a normal form and a right multiplier, and a finite oracle
takes only a regular coset table (trivial subgroup), whose free action makes
one point's image name the element.  Ball counting walks normal forms alone:
each generator becomes a map from the normal form of u to that of u*g, so the
breadth-first search builds no word per step, and its correctness reduces to
the oracle's.  The growth classifier is a finite-data heuristic and says so.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from typing import Sequence

from .enumerator import CosetTable, enumerate_cosets, signed_letters
from .errors import ArgumentError, EnumerationOverflow, WeakcommError
from .isoperimetry import minimal_area_search
from .permgroups import Perm, evaluate
from .presentations import (Presentation, exponent_matrix, require_finite,
                            require_unbarred)
from .words import GenSymbol, Word, commutator, mul_codes, rho_word


# -- oracles ---------------------------------------------------------------------

class WPOracle:
    """Base interface: a sound, total decision procedure for one group, with
    a normal form and a right multiplier."""

    alphabet: tuple[GenSymbol, ...]

    def is_trivial(self, w: Word) -> bool:
        raise NotImplementedError

    def normal_form(self, w: Word):
        """Hashable canonical key: equal exactly for words equal in the group."""
        raise NotImplementedError

    def right_multiplier(self, w: Word):
        """The map normal_form(u) -> normal_form(u * w)."""
        raise NotImplementedError


class FreeGroupOracle(WPOracle):
    def __init__(self, alphabet: Sequence[GenSymbol]):
        self.alphabet = tuple(g.generator for g in alphabet)
        self._codes = {(g.name, g.bar): i + 1 for i, g in enumerate(self.alphabet)}

    def is_trivial(self, w: Word) -> bool:
        return w.is_identity()

    def normal_form(self, w: Word):
        # signed codes, 1-based over the alphabet; a letter outside it gets
        # the next code on first sight
        codes = self._codes
        return tuple([codes.setdefault((s.name, s.bar), len(codes) + 1) * s.sign
                      for s in w])

    def right_multiplier(self, w: Word):
        b = self.normal_form(w)
        return lambda a: mul_codes(a, b)


class FreeAbelianOracle(WPOracle):
    def __init__(self, alphabet: Sequence[GenSymbol]):
        self.alphabet = tuple(g.generator for g in alphabet)

    def is_trivial(self, w: Word) -> bool:
        return all(w.exponent_sum(g) == 0 for g in self.alphabet)

    def normal_form(self, w: Word):
        return tuple(w.exponent_sum(g) for g in self.alphabet)

    def right_multiplier(self, w: Word):
        shift = self.normal_form(w)
        return lambda a: tuple(map(operator.add, a, shift))


class FiniteRealizationOracle(WPOracle):
    """Backed by a closed regular coset table (trivial subgroup), whose action
    is free: the coset a word sends coset 0 to names the element.
    ArgumentError on a table over a nontrivial subgroup, whose action decides
    only the quotient's word problem."""

    def __init__(self, pres: Presentation, table: CosetTable):
        if table.subgroup_words:
            raise ArgumentError("a finite oracle needs a regular coset table")
        self.table = table
        self.alphabet = pres.generators

    def is_trivial(self, w: Word) -> bool:
        return self.table.is_trivial_word(w)

    def normal_form(self, w: Word):
        return self.table.trace_word(0, w)

    def right_multiplier(self, w: Word):
        return self.table.word_image_unchecked(w).img.__getitem__


def _is_commutator_of(r: Word, x: GenSymbol, y: GenSymbol) -> bool:
    """Whether r is a cyclic rotation of [x, y] or of its inverse."""
    target = commutator(Word([x]), Word([y]))
    return any(r.letters == c[k:] + c[:k] for k in range(4)
               for c in (target.letters, target.inverse().letters))


def oracle_for_presentation(pres: Presentation, max_cosets: int = 10 ** 6
                            ) -> tuple[WPOracle, str]:
    """Pick a sound oracle: free, free-abelian (literal commutator relators
    with zero exponent sums), or a finite realization by enumeration.
    SizeGuardError from ``require_finite``, before enumerating, when the
    free rank is positive."""
    if not pres.relators:
        return FreeGroupOracle(pres.generators), "free"
    gens = pres.generators
    if not any(map(any, exponent_matrix(pres).data)):
        pairs_needed = [(gens[i], gens[j]) for i in range(len(gens))
                        for j in range(i + 1, len(gens))]
        covered = all(any(_is_commutator_of(r, x, y) for r in pres.relators)
                      for x, y in pairs_needed)
        if covered and pairs_needed:
            return FreeAbelianOracle(gens), "free-abelian"
    require_finite(pres, max_cosets)
    table = enumerate_cosets(pres, [], max_cosets=max_cosets)
    return FiniteRealizationOracle(pres, table), "finite"


# -- verdicts and the solver -----------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    value: str                      # "trivial" | "nontrivial" | "unknown"
    reason: str
    witness: object = None
    budget_spent: dict = field(default_factory=dict)

    def is_trivial(self) -> bool:
        if self.value == "unknown":
            raise WeakcommError("verdict is unknown; increase the budget")
        return self.value == "trivial"


@dataclass
class WPSetup:
    """Solver state for one double; quotient discoveries are cached across calls."""

    base: Presentation
    oracle: WPOracle
    double: Presentation
    faithful: CosetTable | None = None
    partial_quotients: list[tuple[str, Presentation, CosetTable]] = field(default_factory=list)
    random_quotients: list[tuple[int, list[Perm]]] = field(default_factory=list)
    failed_full_budget: int = 0
    quotients_built: bool = False

    def __post_init__(self):
        require_unbarred(self.base)
        base = self.base.index
        if base.keys() | {(n, True) for n, _ in base} != self.double.index.keys():
            raise ArgumentError("double alphabet must be the doubled base alphabet")


def _try_full_enumeration(setup: WPSetup, budget: int) -> CosetTable | None:
    if budget <= setup.failed_full_budget:
        return None
    try:
        setup.faithful = enumerate_cosets(setup.double, [], max_cosets=budget)
        return setup.faithful
    except EnumerationOverflow:
        setup.failed_full_budget = budget
        return None


def _build_partial_quotients(setup: WPSetup, budget: int) -> None:
    if setup.quotients_built:
        return
    setup.quotients_built = True
    for g in setup.double.generators:
        try:
            table = enumerate_cosets(setup.double, [Word([g])], max_cosets=budget)
            setup.partial_quotients.append((f"cosets-of-<{g}>", setup.double, table))
        except EnumerationOverflow:
            continue
    rng = random.Random(20240901)
    rel_letters = [signed_letters(setup.double, r) for r in setup.double.relators]
    k = len(setup.double.generators)
    for degree in (4, 5, 6, 7):
        for _ in range(200):
            images = [Perm(rng.sample(range(degree), degree)) for _ in range(k)]
            if all(evaluate(images, r, degree).is_identity() for r in rel_letters):
                if any(not p.is_identity() for p in images):
                    setup.random_quotients.append((degree, images))
        if len(setup.random_quotients) >= 8:
            break


def _faithful_verdict(table: CosetTable, w: Word, spent: dict) -> Verdict:
    """A regular table's verdict; on its free action a word's order is its cycle length at 0."""
    witness = {"n_cosets": table.n_cosets}
    if table.is_trivial_word(w):
        return Verdict("trivial", "faithful enumeration of the double", witness, spent)
    order, c = 1, table.trace_word(0, w)
    while c:
        order, c = order + 1, table.trace_word(c, w)
    witness["image_order"] = order
    return Verdict("nontrivial", "faithful enumeration of the double", witness, spent)


def xg_word_problem(setup: WPSetup, w: Word, budget: int = 200_000) -> Verdict:
    """Decide triviality of a word over the doubled alphabet.

    Trivial and Nontrivial verdicts are always correct; completeness under a
    bounded budget is guaranteed only when some enumeration of the double
    closes (in particular whenever the base group is finite).
    """
    index = setup.double.index
    for sym in w:
        if (sym.name, sym.bar) not in index:
            raise ArgumentError(f"letter {sym} outside the double's alphabet")

    # stage 1: the triple-coordinate image; any bad coordinate certifies
    coords = rho_word(w)
    for k, cw in enumerate(coords):
        if not setup.oracle.is_trivial(cw):
            return Verdict("nontrivial", "rho coordinate nontrivial",
                           {"coordinate": k, "word": str(cw)})

    # stage 2: the word lies in the kernel; dovetail searches
    spent = {"area_laps": 0, "enum_budget": 0}
    if setup.faithful is not None:
        return _faithful_verdict(setup.faithful, w, spent)
    max_laps = max(1, budget.bit_length() // 2)
    for lap in range(max_laps):
        # (a) certificate search, small and strictly bounded
        bound = lap + 1
        singles = (2 * len(setup.double.generators)) ** bound * \
            len(setup.double.relators) * 2
        if bound <= 3 and singles ** max(1, (bound + 1) // 2) <= 4_000_000:
            spent["area_laps"] = bound
            area = minimal_area_search(setup.double, w, bound, bound)
            if area is not None:
                return Verdict("trivial", "explicit area certificate",
                               {"area": area, "radius_bound": bound}, spent)
        # (b) quotient search
        enum_budget = min(budget, 64 * (4 ** lap))
        spent["enum_budget"] = enum_budget
        table = _try_full_enumeration(setup, enum_budget)
        if table is not None:
            return _faithful_verdict(table, w, spent)
        if lap >= 2:
            _build_partial_quotients(setup, min(budget, enum_budget))
            for name, pres, table in setup.partial_quotients:
                if not table.word_image(pres, w).is_identity():
                    return Verdict("nontrivial", "nontrivial in a coset quotient",
                                   {"quotient": name, "index": table.n_cosets}, spent)
            for degree, images in setup.random_quotients:
                img = evaluate(images, signed_letters(setup.double, w), degree)
                if not img.is_identity():
                    return Verdict("nontrivial", "nontrivial in a symmetric-group image",
                                   {"degree": degree}, spent)
        if 64 * (4 ** lap) >= budget and spent["area_laps"] >= 3:
            break
    return Verdict("unknown", "budgets exhausted", None, spent)


# -- growth ----------------------------------------------------------------------

def ball_sizes(gens: Sequence[Word], oracle: WPOracle, radius: int) -> list[int]:
    """|B(n)| for n = 0..radius in the word metric of the given generators.

    The generating set is closed under formal inverses.  The search runs on
    the oracle's normal forms alone, one right multiplier per generator.  An
    oracle failure surfaces as an exception (growth needs decisions).
    """
    if radius < 0:
        raise ArgumentError("radius must be >= 0")
    letters = list(dict.fromkeys([*gens, *(g.inverse() for g in gens)]))
    start = oracle.normal_form(Word())
    steps = [oracle.right_multiplier(g) for g in letters]
    known = {start}
    frontier = [start]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for key in frontier:
            for step in steps:
                v = step(key)
                if v not in known:
                    known.add(v)
                    nxt.append(v)
        frontier = nxt
        sizes.append(len(known))
    return sizes


@dataclass(frozen=True)
class GrowthClass:
    kind: str                    # "polynomial" | "exponential" | "inconclusive"
    degree: int | None = None
    rate: float | None = None
    residual: float = 0.0
    heuristic: bool = True       # always: finite data cannot settle growth type

    def label(self) -> str:
        if self.kind == "polynomial":
            return f"PolynomialDegree({self.degree})"
        if self.kind == "exponential":
            return f"ExponentialRate({self.rate:.2f})"
        return "Inconclusive"


def _least_squares(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, my, 0.0
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    rms = math.sqrt(sum((y - (slope * x + intercept)) ** 2
                        for x, y in zip(xs, ys)) / n)
    return slope, intercept, rms


def growth_classifier(sizes: Sequence[int]) -> GrowthClass:
    """Heuristic growth type from ball sizes (index = radius).

    Log-log least squares on the upper half of the radii gives a polynomial
    degree when the residual is small; a log-linear fit with rate above 1.1
    and smaller residual gives an exponential rate.  Anything else is
    inconclusive.  Finite data cannot prove a growth type, so every answer
    carries the heuristic flag.
    """
    if len(sizes) < 4:
        raise ArgumentError("need at least 4 ball sizes")
    if any(s <= 0 for s in sizes) or any(b < a for a, b in zip(sizes, sizes[1:])):
        raise ArgumentError("ball sizes must be positive and nondecreasing")
    radii = list(range(1, len(sizes)))
    half = radii[len(radii) // 2 - 1:] if len(radii) >= 4 else radii
    ys = [math.log(sizes[n]) for n in half]
    poly_slope, _, poly_rms = _least_squares([math.log(n) for n in half], ys)
    exp_slope, _, exp_rms = _least_squares([float(n) for n in half], ys)
    rate = math.exp(exp_slope)
    tol = 0.08
    if rate > 1.1 and exp_rms < poly_rms and exp_rms <= tol:
        return GrowthClass("exponential", rate=rate, residual=exp_rms)
    degree = round(poly_slope)
    if poly_rms <= tol and abs(poly_slope - degree) <= 0.35:
        return GrowthClass("polynomial", degree=max(0, degree), residual=poly_rms)
    return GrowthClass("inconclusive", residual=min(poly_rms, exp_rms))
