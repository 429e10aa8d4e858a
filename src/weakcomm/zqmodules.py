"""Modules over group rings of abelianizations.

A ``QModule`` is a relation lattice plus action matrices: the finitely
generated abelian group Z^n / (relation lattice), on n chosen generators,
with one integer n x n matrix per acting generator for a right action that
factors through an abelian group.  The constructor cuts the given relations
down to a Hermite basis of their lattice, at most n vectors, which it keeps
as ``relations``, and takes the Smith form of that basis once: equality,
membership and element orders are read in its coordinates, and the
invariant factors are its diagonal.  The order of a submodule comes from
one cokernel, of the basis beside the orbit of its generators, so no
submodule is ever enumerated.

Builders:

* ``aug_mod_I2``: the augmentation ideal of the integral group ring of a
  finite group, modulo the ideal generated by all squared differences
  (g-1)^2.  Basis {g-1 : g != 1}, right multiplication action.  This is the
  coordinate model of L/L' for the weak-commutativity double.
* ``module_from_abelian_quotient``: an abelian section num/den of a
  permutation group, with a conjugation action; used for L/L', G'/G'' and W.
* ``module_M``: the coinvariant tensor square of G'/G'' that controls the
  structure of W.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ArgumentError, SizeGuardError, WeakcommError
from .intlinalg import FinAbGroup, IntMatrix, cokernel, hermite_basis, smith_normal_form
from .permgroups import Perm, PermGroup, abelian_invariants, quotient_realization

Vector = tuple[int, ...]


def _vec_sub(a: Sequence[int], b: Sequence[int]) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def _vec_add(a: Sequence[int], b: Sequence[int]) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _unit(n: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(n))


class QModule:
    """F.g. abelian group on n generators with a commuting right action."""

    def __init__(self, n: int, relations: Sequence[Vector],
                 action_matrices: Sequence[IntMatrix]):
        self.n = n
        if any(len(r) != n for r in relations):
            raise ArgumentError("relation length mismatch")
        self.relations = [tuple(b) for b in hermite_basis(relations, n)]
        self.action_matrices = list(action_matrices)
        # U R V = diag(d) for the relation matrix R: coordinate i of v is
        # (U v)_i mod d_i, and the rows with d_i = 1 are dropped, as always 0
        u, d = smith_normal_form(IntMatrix.from_columns(self.relations, n))
        self._coords = [(row, di) for row, di in zip(u.data, d) if di != 1]
        for a in self.action_matrices:
            if a.rows != self.n or a.cols != self.n:
                raise ArgumentError("action matrix shape mismatch")
            for r in self.relations:
                if not self.is_zero(a.apply(list(r))):
                    raise ArgumentError("action does not preserve the relation lattice")
        if self.n:
            for i in range(len(self.action_matrices)):
                for j in range(i + 1, len(self.action_matrices)):
                    ab = self.action_matrices[i] @ self.action_matrices[j]
                    ba = self.action_matrices[j] @ self.action_matrices[i]
                    for col in range(self.n):
                        if not self.is_zero(_vec_sub(ab.column(col), ba.column(col))):
                            raise ArgumentError(
                                "action generators do not commute on the module; "
                                "the action must factor through an abelian group")

    # -- canonical coordinates ----------------------------------------------

    def canonical(self, v: Sequence[int]) -> Vector:
        if len(v) != self.n:
            raise ArgumentError("vector length mismatch")
        xs = (sum(map(operator.mul, row, v)) for row, _ in self._coords)
        return tuple(x % d if d else x for x, (_, d) in zip(xs, self._coords))

    def is_zero(self, v: Sequence[int]) -> bool:
        return not any(self.canonical(v))

    def structure(self) -> FinAbGroup:
        """The invariant factors are the Smith diagonal, a divisibility chain."""
        return FinAbGroup(tuple(d for _, d in self._coords if d),
                          sum(1 for _, d in self._coords if not d))

    def basis_vectors(self) -> list[Vector]:
        return [_unit(self.n, i) for i in range(self.n)]

    def element_order(self, v: Sequence[int]) -> int:
        """Order of the element in the quotient; infinite orders are errors."""
        n = 1
        for x, (_, d) in zip(self.canonical(v), self._coords):
            if x:
                if not d:
                    raise SizeGuardError("infinite", 0, what="element order")
                n = math.lcm(n, d // math.gcd(d, x))
        return n

    # -- action ----------------------------------------------------------------

    def act(self, gen_index: int, v: Sequence[int]) -> Vector:
        return tuple(self.action_matrices[gen_index].apply(list(v)))

    def aug_step(self, vectors: Sequence[Vector]) -> list[Vector]:
        """One multiplication by the augmentation ideal: all v*(q-1)."""
        out: list[Vector] = []
        seen: set[Vector] = set()
        for v in vectors:
            for i in range(len(self.action_matrices)):
                w = _vec_sub(self.act(i, v), v)
                c = self.canonical(w)
                if any(c) and c not in seen:
                    seen.add(c)
                    out.append(w)
        return out

    def aug_levels(self, depth: int) -> list[list[Vector]]:
        """Level t holds generators of V * Aug^t, for t = 0..depth."""
        levels = [self.basis_vectors()]
        for _ in range(depth):
            levels.append(self.aug_step(levels[-1]))
        return levels

    def action_nilpotency_class(self, cap: int) -> int | None:
        """Least s with V * Aug^s = 0, or None if s would exceed cap."""
        level = [v for v in self.basis_vectors() if not self.is_zero(v)]
        if not level:
            return 0
        for s in range(1, cap + 1):
            level = self.aug_step(level)
            if not level:
                return s
        return None

    # -- submodules -------------------------------------------------------------

    def submodule_order_and_exponent(self, seeds: Sequence[Vector]) -> tuple[int, int]:
        """Order and exponent of the submodule N generated by the seeds.

        The orbit of the seeds under the action matrices, one vector per
        canonical form, spans N additively, so |N| = |V| / |V / N| with V / N
        the cokernel of the relations and the orbit side by side, and exp N
        is the lcm of the orbit's element orders.  N is never enumerated.
        SizeGuardError when V is infinite.
        """
        order = self.structure().order()
        if order is None:
            raise SizeGuardError("infinite", 0, what="submodule")
        orbit: dict[Vector, Vector] = {}
        work = [tuple(map(int, s)) for s in seeds]
        while work:
            v = work.pop()
            c = self.canonical(v)
            if c not in orbit:
                orbit[c] = v
                work.extend(self.act(i, v) for i in range(len(self.action_matrices)))
        quotient = cokernel(IntMatrix.from_columns(self.relations + list(orbit.values()),
                                                   self.n))
        exponent = 1
        for v in orbit.values():
            exponent = math.lcm(exponent, self.element_order(v))
        return order // quotient.order(), exponent


# -- builders -------------------------------------------------------------------

def aug_mod_I2(group: PermGroup, guard: int | None = None) -> QModule:
    """Augmentation ideal mod squared differences, as a right module.

    Basis: (g - 1) for the non-identity elements g, in enumeration order.
    Relations: the expansions of (g - 1)^2 * h over all g, h.  The right
    multiplication action by the group generators factors through the
    abelianization, which the constructor verifies.
    """
    limit = group.guard if guard is None else guard
    elems = list(group.elements(limit))
    ident = Perm.identity(group.degree)
    basis = [e for e in elems if e != ident]
    index = {e: i for i, e in enumerate(basis)}
    n = len(basis)
    relations: list[Vector] = []
    seen: set[Vector] = set()
    for g in basis:  # (1-1)^2 h = 0 adds nothing, so g runs over the basis
        gg = g * g
        for h in elems:
            acc: dict[int, int] = {}
            for x, c in ((gg * h, 1), (g * h, -2), (h, 1)):
                if x != ident:
                    i = index[x]
                    acc[i] = acc.get(i, 0) + c
            vec = tuple(acc.get(i, 0) for i in range(n))
            if any(vec) and vec not in seen:
                seen.add(vec)
                relations.append(vec)

    matrices = []
    for p in group.generators:
        m = IntMatrix.zero(n, n)
        for i, x in enumerate(basis):
            xp = x * p
            if xp != ident:
                m.data[index[xp]][i] += 1
            if p != ident:
                m.data[index[p]][i] -= 1
        matrices.append(m)
    return QModule(n, relations, matrices)


@dataclass
class AbelianSection:
    """An abelian quotient num/den realized with coordinates, plus its
    conjugation action builder and the quotient group it was read from."""

    module: QModule
    matrix_of: Callable[[Perm], IntMatrix]
    quotient: PermGroup


def module_from_abelian_quotient(num: PermGroup, den: PermGroup,
                                 gen_elems: Sequence[Perm],
                                 acting_elems: Sequence[Perm],
                                 guard: int | None = None) -> AbelianSection:
    """Coordinate model of the abelian section num/den with conjugation action.

    The acting elements must normalize both groups; conjugation of the chosen
    generator elements must stay inside num.
    """
    limit = num.guard if guard is None else guard
    quot, project = quotient_realization(num, den)
    if not quot.is_abelian():
        raise ArgumentError("section is not abelian")
    if quot.order() > limit:
        raise SizeGuardError(quot.order(), limit, what="abelian section")
    pgens = [project(g) for g in gen_elems]
    k = len(pgens)
    ident = Perm.identity(quot.degree)
    coords: dict[Perm, Vector] = {ident: tuple([0] * k)}
    relations: list[Vector] = []
    seen_rel: set[Vector] = set()
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            we = coords[e]
            for i, pg in enumerate(pgens):
                f = e * pg
                cand = _vec_add(we, _unit(k, i))
                if f not in coords:
                    coords[f] = cand
                    nxt.append(f)
                else:
                    rel = _vec_sub(cand, coords[f])
                    if any(rel) and rel not in seen_rel:
                        seen_rel.add(rel)
                        relations.append(rel)
        frontier = nxt
    if len(coords) != quot.order():
        raise ArgumentError("chosen generators do not generate the section")

    def matrix_of(t: Perm) -> IntMatrix:
        m = IntMatrix.zero(k, k)
        for i, g in enumerate(gen_elems):
            img = project(g.conjugate(t))
            for r, c in enumerate(coords[img]):
                m.data[r][i] = c
        return m

    module = QModule(k, relations, [matrix_of(t) for t in acting_elems])
    return AbelianSection(module, matrix_of, quot)


def _kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    out = IntMatrix.zero(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            if a.data[i][j]:
                for r in range(b.rows):
                    for c in range(b.cols):
                        out.data[i * b.rows + r][j * b.cols + c] = \
                            a.data[i][j] * b.data[r][c]
    return out


def module_M(group: PermGroup, guard: int | None = None) -> QModule:
    """Coinvariant tensor square of the derived section.

    With A the maximal abelian quotient of the derived subgroup, this is
    (A (x) A) modulo the antidiagonal conjugation action of the
    abelianization, with the residual action through the first factor.
    On generators e_{i,j} at i*k + j, as ``_kron`` lays them out, A's
    relations Lambda give the columns of Lambda (x) I and I (x) Lambda.
    """
    limit = group.guard if guard is None else guard
    derived = group.derived_subgroup()
    second = derived.derived_subgroup()
    section = module_from_abelian_quotient(
        derived, second, derived.generators, group.generators, guard=limit)
    k = section.module.n
    lattice = IntMatrix.from_columns(section.module.relations, k)
    identity_k = IntMatrix.identity(k)
    relations: list[Vector] = [tuple(m.column(j)) for m in (
        _kron(lattice, identity_k), _kron(identity_k, lattice)) for j in range(m.cols)]
    # antidiagonal coinvariants: quotient by x*(q, q^-1) - x per acting generator
    for t in group.generators:
        cq = section.matrix_of(t)
        cq_inv = section.matrix_of(t.inverse())
        tq = _kron(cq, cq_inv)
        for j in range(k * k):
            col = tq.column(j)
            col[j] -= 1
            if any(col):
                relations.append(tuple(col))
    action = [_kron(section.matrix_of(t), identity_k) for t in group.generators]
    return QModule(k * k, relations, action)


def ell_section_module(x, guard: int | None = None) -> AbelianSection:
    """L/L' of a built realization, with the conjugation action of the split
    copy's generators.

    Generators are the letter differences of the non-identity base elements
    in enumeration order, deliberately matching the basis order of
    ``aug_mod_I2`` so the two models can be compared generator-for-generator.
    """
    ident = Perm.identity(x.G.degree)
    base_order = [g for g in x.G.elements() if g != ident]
    gen_elems = [x.ell_images[g] for g in base_order]
    return module_from_abelian_quotient(
        x.L, x.L.derived_subgroup(), gen_elems, x.x_images, guard=guard)


def ell_module_consistency(x, guard: int | None = None) -> dict:
    """Compare the augmentation-quotient model with the realization's L/L'.

    Returns invariant factors from three routes: the relation-lattice model,
    the realization section, and a torsion-counting pass on the abelian
    quotient group the section was read from.
    """
    v1 = x.aug_module(guard)
    section = ell_section_module(x, guard=guard)
    v2 = section.module
    return {
        "aug_model_invariants": v1.structure().invariant_factors,
        "realization_invariants": v2.structure().invariant_factors,
        "torsion_count_invariants": abelian_invariants(section.quotient),
        "matched_generator_agreement": modules_agree_on_matched_generators(v1, v2),
    }


def nil_equation_checks(v: QModule) -> dict:
    """The two vanishing laws of the augmentation action on V = L/L':
    2 V Aug^2 = 0, and V Aug^(k+3) = 0 where k = |V / 2V|."""
    order = v.structure().order()
    if order is None:
        raise SizeGuardError("infinite", 0, what="nil equation check")
    level2 = v.aug_levels(2)[2]
    doubled_ok = all(v.is_zero(tuple(2 * c for c in vec)) for vec in level2)
    k = 1
    for d in v.structure().invariant_factors:
        k *= math.gcd(d, 2)
    depth_ok = v.action_nilpotency_class(cap=k + 3) is not None
    return {"two_v_aug2_zero": doubled_ok, "k": k, "v_aug_k3_zero": depth_ok}


def w_structure_checks(x, guard: int = 100_000) -> dict:
    """Falsifiable consequences of the module structure of W.

    Computes N = W * Aug^(3+s) and checks the necessary conditions for
    "N sits inside a subquotient of M": the order of N divides the order of
    M and its exponent divides the exponent of M.  The order and exponent of
    N come from ``QModule.submodule_order_and_exponent``, without
    enumerating N.  When the derived subgroup of the base is perfect the
    whole action on W must be nilpotent, and when M vanishes the action
    class is forced to be at most 3 + s.
    """
    G = x.G
    v = x.aug_module(guard)
    s = v.action_nilpotency_class(cap=(v.structure().order() or 0) + 3)
    if s is None:
        raise WeakcommError("action on L/L' did not nilpotize below |V|+3")
    w_gens = [g for g in x.W.generators if not g.is_identity()]
    w_section = module_from_abelian_quotient(
        x.W, x.W.subgroup([]), w_gens, x.x_images, guard=guard)
    wmod = w_section.module
    m = module_M(G, guard=guard)
    m_order = m.structure().order()
    m_exponent = m.structure().exponent()
    n_order, n_exponent = wmod.submodule_order_and_exponent(
        wmod.aug_levels(3 + s)[-1])
    w_class = wmod.action_nilpotency_class(
        cap=(wmod.structure().order() or 0) + 3 + s)
    result = {
        "s": s,
        "W_invariants": wmod.structure().invariant_factors,
        "M_invariants": m.structure().invariant_factors,
        "M_order": m_order,
        "M_exponent": m_exponent,
        "N_order": n_order,
        "N_exponent": n_exponent,
        "N_order_divides_M_order": m_order % n_order == 0 if n_order else False,
        "N_exponent_divides_M_exponent": m_exponent % n_exponent == 0,
        "W_action_class": w_class,
        "W1_order": x.W.intersection(x.L.derived_subgroup()).order(),
    }
    derived = G.derived_subgroup()
    if derived.is_perfect():
        result["perfect_derived"] = True
        result["W_action_nilpotent"] = w_class is not None
    if m_order == 1:
        result["class_bounded_by_3_plus_s"] = w_class is not None and w_class <= 3 + s
    return result


def modules_agree_on_matched_generators(v1: QModule, v2: QModule) -> bool:
    """Same generator count, mutually contained relation lattices, and equal
    action matrices modulo the lattice."""
    if v1.n != v2.n or len(v1.action_matrices) != len(v2.action_matrices):
        return False
    for r in v1.relations:
        if not v2.is_zero(r):
            return False
    for r in v2.relations:
        if not v1.is_zero(r):
            return False
    for a1, a2 in zip(v1.action_matrices, v2.action_matrices):
        for j in range(v1.n):
            if not v1.is_zero(_vec_sub(a1.column(j), a2.column(j))):
                return False
    return True
