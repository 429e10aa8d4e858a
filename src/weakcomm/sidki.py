"""End-to-end construction and verification of the weak-commutativity double.

``build`` enumerates a finite base group G regularly and its double X over
the split copy of G, realizes X faithfully on those cosets times the triple
map rho: g -> (g, g, 1), barg -> (1, g, g), extracts the structural subgroups

    D = kernel of X -> G x barG        (the commutator subgroup [G, barG])
    L = kernel of X -> G               (generated by the letter differences)
    W = D n L = kernel of rho          (abelian, central in DL)

and machine-checks every structural identity the construction promises.  pi
is rho's second coordinate and pi x pibar its first and third, and G acts
regularly on each rho block, so L and D are the stabilizers of one point per
block, closed once from Schreier generators; DL is generated by the
generators of D and L and has order |D| |L| / |W| because D is normal, so
it is never spanned; X itself is enumerated only by an element-wise check,
the Engel scan.  X and every subgroup of it key their elements on X's
two-point base, and im rho on the first point of each block.  The span of
the letter differences is made once, and its normality read off its
generators.  pi and rho are not kept: ``build``
checks that the double's relators map to the identity under rho, whose
middle coordinate is pi, and reads their kernels off the blocks.
W has one more routine, ``_w_members``, shared with ``perfect_base_report``:
it reads the members of ker rho off the coset words.  A failing check aborts
with a witness: it would indicate an implementation bug, not a mathematical
surprise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .enumerator import CosetTable, enumerate_cosets, perm_realization, signed_letters
from .errors import ArgumentError, CheckFailure, SizeGuardError
from .intlinalg import FinAbGroup
from .permgroups import (Perm, PermGroup, block_perm, commutator, evaluate,
                         failing_relator, quotient_realization)
from .presentations import (AllElements, Presentation, abelianization,
                            double_and_base_table, require_finite)
from .words import GenSymbol, Word, bar_word, pi_word
from . import zqmodules


@dataclass
class XRealization:
    presentation: Presentation
    double: Presentation
    G: PermGroup
    X: PermGroup
    x_images: list[Perm]
    G_elements: list[Perm]
    G_words: list[Word]
    ell_images: dict[Perm, Perm]
    D: PermGroup
    L: PermGroup
    W: PermGroup
    DL: PermGroup
    im_rho: PermGroup
    Q: FinAbGroup
    checks: list[dict] = field(default_factory=list)
    _aug: zqmodules.QModule | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def check(self, name: str, ok: bool, witness=None) -> None:
        self.checks.append({"name": name, "pass": bool(ok),
                            **({"witness": str(witness)} if witness is not None and not ok else {})})

    def element(self, w: Word) -> Perm:
        """The element of X named by a word over the double's alphabet."""
        return evaluate(self.X.generators, signed_letters(self.double, w),
                        self.X.degree)

    def aug_module(self, guard: int | None = None) -> zqmodules.QModule:
        """``zqmodules.aug_mod_I2(G, guard)``, built on the first call and kept;
        each later call checks the guard on G's elements as that one would."""
        if self._aug is None:
            self._aug = zqmodules.aug_mod_I2(self.G, guard=guard)
        else:
            self.G.elements(guard)
        return self._aug

    def failed_checks(self) -> list[dict]:
        return [c for c in self.checks if not c["pass"]]

    def orders(self) -> dict[str, int]:
        return {
            "G": self.G.order(), "X": self.X.order(), "D": self.D.order(),
            "L": self.L.order(), "W": self.W.order(), "DL": self.DL.order(),
            "im_rho": self.im_rho.order(),
        }


def _im_rho(G: PermGroup) -> PermGroup:
    """The image of rho, on the images of the double's generators in order:
    g -> (g, g, 1), barg -> (1, g, g).  G acts regularly on each block, so
    the first point of each block is a base of it.  Its order is read off
    the stabilizer of the first points of blocks 0 and 1 (orbit-stabilizer),
    not counted; its guard is |G|^3, the largest order it can have."""
    one = Perm.identity(G.degree)
    im_rho = PermGroup(3 * G.degree,
                       [block_perm([p, p, one]) for p in G.generators] +
                       [block_perm([one, p, p]) for p in G.generators],
                       guard=G.order() ** 3, base=range(0, 3 * G.degree, G.degree))
    im_rho.pointwise_stabilizer([0, G.degree])
    return im_rho


def _split_copy(pres: Presentation, max_cosets: int, guard: int
                ) -> tuple[FinAbGroup, CosetTable, PermGroup, Presentation, CosetTable]:
    """Q, the regular base table, G, the double and the table of the cosets
    of the split copy <x : x in X> in the double, which biject with the
    letter-difference kernel L.  ``double_and_base_table`` enumerates the
    base once and reads the double's witnesses off its table; it refuses a
    barred base, then one of positive free rank, before any enumeration."""
    double, base_table = double_and_base_table(pres, AllElements(), max_cosets)
    G = perm_realization(base_table, guard=guard)
    table = enumerate_cosets(double, [Word([g]) for g in pres.generators],
                             max_cosets=max_cosets)
    return abelianization(pres), base_table, G, double, table


def build(pres: Presentation, max_cosets: int = 10 ** 6, guard: int = 100_000,
          rng_seed: int = 7, raise_on_failure: bool = True) -> XRealization:
    """Build and verify the double of a finite presented group.

    X is generated by the coset action on the split copy times rho, which is
    faithful because the split copy meets the kernel of rho trivially; its
    degree is [X : split copy] + 3 |G|.  Its base is coset 0, which only the
    split copy fixes, and the first point of rho block 0, on which the split
    copy acts as G does, regularly: every subgroup below keys its members on
    those two points, and an element is made in full only where a check
    needs one.  SizeGuardError, before any span, when [X : split copy] |G|
    passes the guard.  L and D are the pointwise stabilizers of the first
    point of rho block 1, and of blocks 0 and 2, kept as
    ``pointwise_stabilizer`` closes them, without enumerating X; |X| is the
    length of the block-1 orbit times |L| (orbit-stabilizer), and
    CheckFailure when that is not [X : split copy] |G|.  DL takes the
    generators of D and L and the order |D| |L| / |W|.  W is checked against
    ``_w_members``; normality, centrality and image checks run on
    generators, and the random D x L check on member keys, each product
    read off the other factor's key.  SizeGuardError, before any enumeration, when the base has
    positive free rank.
    """
    Q, base_table, G, double, table = _split_copy(pres, max_cosets, guard)
    G_words = base_table.coset_words()
    G_elements = [base_table.word_image(pres, w) for w in G_words]
    index = table.n_cosets
    gdeg = G.degree
    if index * G.order() > guard:
        raise SizeGuardError(f"> {guard}", guard)
    im_rho = _im_rho(G)
    X = PermGroup(index + 3 * gdeg,
                  [block_perm([c, r])
                   for c, r in zip(table.action, im_rho.generators)],
                  guard=guard, base=(0, index))
    # G is regular, so x is trivial in rho-coordinate k iff x fixes the
    # first point of that block: pi is coordinate 1, pi x pibar are 0 and 2.
    # The stabilizer of the block-1 point also gives |X| by orbit-stabilizer
    L = X.pointwise_stabilizer([index + gdeg])
    if X.order() != index * G.order():
        raise CheckFailure("faithful_realization", (X.order(), index * G.order()))
    D = X.pointwise_stabilizer([index, index + 2 * gdeg])

    ngens = len(pres.generators)
    x_images = list(X.generators[:ngens])
    xbar_images = list(X.generators[ngens:])

    # rho sends g -> (g, g, 1) and barg -> (1, g, g), and pi is its middle
    # block: both are well defined iff every relator maps to 1 under rho
    bad = failing_relator([g.img for g in im_rho.generators],
                          [signed_letters(double, r) for r in double.relators])
    if bad is not None:
        raise CheckFailure("rho_well_defined", double.relators[bad])

    D_nc = X.normal_closure([commutator(a, b) for a in x_images for b in xbar_images])

    W = D.intersection(L)
    # D is normal and W = D n L, so |DL| = |D| |L| / |W| with no span
    DL = PermGroup(X.degree, D.generators + L.generators, guard=guard,
                   known_order=D.order() * L.order() // W.order(), base=X.base)
    G_split = X.subgroup(x_images)

    x = XRealization(
        presentation=pres, double=double, G=G, X=X, x_images=x_images,
        G_elements=G_elements, G_words=G_words, ell_images={},
        D=D, L=L, W=W, DL=DL, im_rho=im_rho, Q=Q,
    )
    # letter differences, indexed by the base-group element
    for g_elem, w in zip(G_elements, G_words):
        x.ell_images[g_elem] = x.element(w).inverse() * x.element(bar_word(w))

    # --- structural checks -------------------------------------------------
    L_sub = X.subgroup(list(x.ell_images.values()))
    x.check("L_generated_by_letter_differences",
            L_sub.order() == L.order() and all(g in L for g in L_sub.generators))
    # <l> is its normal closure iff X's generators conjugate its generators into it
    x.check("L_subgroup_equals_normal_closure",
            all(g.inverse() * s * g in L_sub
                for s in L_sub.generators for g in X.generators))
    x.check("D_normal_closure_equals_kernel",
            D_nc.order() == D.order() and
            all(g in D for g in D_nc.generators))

    x.check("D_commutes_with_L", D.centralizes(L))
    rng = Random(rng_seed)
    d_keys, l_keys, element = list(D.keys()), list(L.keys()), X.evaluator()
    bad_pair = None
    for _ in range(32):
        d, l = rng.choice(d_keys), rng.choice(l_keys)
        # d l and l d are equal iff they agree on the base; d l reads l at d's key
        if element.at(l, d) != element.at(d, l):
            bad_pair = (element(d), element(l))
            break
    x.check("D_commutes_with_L_random_elements", bad_pair is None, bad_pair)

    # W once more, independently of the block filters: traced coset words
    w_members = {x.element(m) for m in _w_members(table, base_table)}
    x.check("W_equals_kernel_of_rho",
            len(w_members) == W.order() and all(m in W for m in w_members))
    x.check("W_is_abelian", W.is_abelian())
    x.check("W_central_in_DL", W.centralizes(DL))

    x.check("splitting_intersection_trivial",
            L.intersection(G_split).order() == 1)
    x.check("splitting_orders", L.order() * G_split.order() == X.order())
    x.check("split_copy_isomorphic_order", G_split.order() == G.order())

    # image of rho is the fiber product over the abelianization: the
    # subgroup {(g1, g2, g3) : g1 g2^-1 g3 in G'} of order |G|^2 |G'|
    derived = G.derived_subgroup()
    constraint_order = G.order() ** 2 * derived.order()
    x.check("im_rho_equals_constraint_subgroup",
            all(g1 * g2.inverse() * g3 in derived
                for g1, g2, g3 in (_coordinates(r, gdeg) for r in im_rho.generators))
            and im_rho.order() == constraint_order,
            witness=f"|im_rho|={im_rho.order()}, |constraint|={constraint_order}")
    q_order = Q.order()
    x.check("index_of_im_rho_is_Q",
            q_order is not None and G.order() ** 3 == im_rho.order() * q_order)
    x.check("order_product", X.order() == W.order() * im_rho.order())

    ell_ok, ell_witness = _ell_identity(x)
    x.check("letter_difference_identity", ell_ok, ell_witness)

    if derived.order() == G.order():
        x.check("W_central_for_perfect_base", W.centralizes(X))

    if raise_on_failure:
        failed = x.failed_checks()
        if failed:
            raise CheckFailure(failed[0]["name"], failed[0].get("witness"))
    return x


def _coordinates(p: Perm, degree: int) -> list[Perm]:
    """The blocks of a block permutation whose blocks all have this degree."""
    return [Perm(i - k for i in p.img[k:k + degree])
            for k in range(0, p.degree, degree)]


def _w_members(table: CosetTable, base_table: CosetTable) -> list[Word]:
    """Words for the members of W = ker rho, one per member.

    Each coset w of the split copy holds one element of L, pi(w)^-1 w, and it
    lies in W iff rho_word(w) = (pi w, pi w, 1); the middle coordinate of
    rho_word(w) is pi w letter for letter, so that is first == second and a
    trivial third.  The base table is regular, so words are equal in G iff
    they reach one coset from coset 0.  The coordinates are traced along the
    breadth-first tree of ``coset_words``, one base-column step each per
    coset, and words are spelled out for the members alone.  Both tables'
    columns come from their ``letter_columns``.
    """
    base_columns = base_table.letter_columns
    letters = [(GenSymbol(*key), col, base_columns[key[0], False, key[2]])
               for key, col in table.letter_columns.items()]
    n = table.n_cosets
    coords: list[tuple[int, int, int] | None] = [None] * n
    parent = [0] * n
    via: list[GenSymbol | None] = [None] * n
    coords[0] = (0, 0, 0)
    queue = [0]
    for c in queue:
        first, second, third = coords[c]
        for sym, col, base_col in letters:
            d = col[c]
            if coords[d] is None:
                coords[d] = ((first, base_col[second], base_col[third]) if sym.bar
                             else (base_col[first], base_col[second], third))
                parent[d], via[d] = c, sym
                queue.append(d)
    members: list[Word] = []
    for c, (first, second, third) in enumerate(coords):
        if first == second and third == 0:
            path = []
            while c:                    # back up the tree to coset 0
                path.append(via[c])
                c = parent[c]
            w = Word(reversed(path))
            members.append(pi_word(w).inverse() * w)
    return members


def _ell_identity(x: XRealization) -> tuple[bool, tuple | None]:
    """Both conjugation identities for letter differences, on all |G|^2 pairs:
    l_u^x = l_{ux} l_x^-1   and   l_u^{bar x} = l_x^-1 l_{ux}.

    They are recast without conjugation, l_u x l_x = x l_{ux} and
    l_u bar x = bar x l_x^-1 l_{ux}, and each side is compared on X's base
    (see ``build``), not multiplied out.
    """
    base = x.X.base
    # per element x of G, its images x and bar x in X and the products
    # x l_x and bar x l_x^-1; the inverse of l_x is taken once
    images = []
    for w, g in zip(x.G_words, x.G_elements):
        img_x = x.element(w)
        img_xbar = x.element(bar_word(w))
        lx = x.ell_images[g]
        images.append((img_x.img, (img_x * lx).img, img_xbar.img,
                       (img_xbar * lx.inverse()).img))
    for u, wu in zip(x.G_elements, x.G_words):
        lu = x.ell_images[u].img
        for xg, wx, (img_x, x_lx, img_xbar, xbar_lx_inv) in \
                zip(x.G_elements, x.G_words, images):
            lux = x.ell_images[u * xg].img
            for b in base:
                if x_lx[lu[b]] != lux[img_x[b]]:
                    return False, ("unbarred", str(wu), str(wx))
                if img_xbar[lu[b]] != lux[xbar_lx_inv[b]]:
                    return False, ("barred", str(wu), str(wx))
    return True, None


def nilpotence_report(x: XRealization, raise_on_failure: bool = True) -> dict:
    """Nilpotency classes of the base group and the double.

    Finite nilpotent bases must give nilpotent doubles; that implication is
    asserted.  Nothing is asserted for non-nilpotent bases.
    """
    class_g = x.G.nilpotency_class()
    class_x = x.X.nilpotency_class()
    report = {"class_G": class_g, "class_X": class_x}
    if class_g is not None and class_x is None and raise_on_failure:
        raise CheckFailure("nilpotence_preserved", report)
    return report


def engel_certificate(x: XRealization, guard: int | None = None,
                      raise_on_failure: bool = True) -> dict:
    """Engel data (n, d, s) and the verified bound m = n + d + s + 3.

    n: minimal Engel class of the base group (must exist: the base must be
       nilpotent).
    d: nilpotency class of the metabelianization G/G''.
    s: nilpotency class of the action on the letter-difference section,
       computed on the augmentation-quotient model.
    One exhaustive Engel scan of the double, capped at m, gives its minimal
    Engel class; the verdict is "that class exists and is at most m", which
    is exactly the m-Engel property.
    """
    G, X = x.G, x.X
    class_g = G.nilpotency_class()
    if class_g is None:
        raise ArgumentError("base group is not nilpotent, so not an Engel group")
    n = G.minimal_engel_class(cap=max(1, class_g), guard=guard)
    if n is None:
        raise ArgumentError("base group is not Engel within its nilpotency class")
    second_derived = G.derived_subgroup().derived_subgroup()
    metab, _ = quotient_realization(G, second_derived)
    d = metab.nilpotency_class()
    if d is None:
        raise CheckFailure("metabelianization_nilpotent", "G/G'' not nilpotent")
    v = x.aug_module()
    v_order = v.structure().order()
    s = v.action_nilpotency_class(cap=(v_order or 0) + 3)
    if s is None:
        raise CheckFailure("action_nilpotency_terminates",
                           "no s within |V|+3: implementation error")
    m = n + d + s + 3
    minimal_x = X.minimal_engel_class(cap=m, guard=guard)
    verdict = minimal_x is not None
    report = {"n": n, "d": d, "s": s, "m": m, "verdict": verdict,
              "minimal_engel_class_of_double": minimal_x,
              "bound_gap": None if minimal_x is None else m - minimal_x}
    if raise_on_failure and not verdict:
        raise CheckFailure("engel_bound", report)
    return report


def perfect_base_report(pres: Presentation) -> dict:
    """Large-instance checks for a perfect base group (ArgumentError if the
    base is not perfect, SizeGuardError before enumerating if it is infinite).

    As in ``build``, the double is enumerated over the split copy of the
    base: the cosets biject with the letter-difference kernel L, so the
    index stays manageable.  The product of the coset action with the triple
    map rho is faithful (the core of the split copy meets the kernel of rho
    trivially), which lets the centrality of W be verified honestly without
    enumerating X, which is beyond the element guard here:

    * the order of the image of rho (|G|^3 when rho is onto) gives |W|;
    * the members of W = ker rho come from ``_w_members``, the routine
      ``build`` checks W with;
    * every member of W commutes with all generators.

    The base is enumerated once, by ``_split_copy`` as in ``build``.  A
    finite group is perfect iff its abelianization is trivial, so that is
    checked first.
    """
    if require_finite(pres, 2_000_000).order() != 1:
        raise ArgumentError("base group is not perfect")
    _, base_table, G, _, table = _split_copy(pres, 2_000_000, guard=10 ** 7)
    index = table.n_cosets                      # = |L|
    x_order = index * G.order()

    im_rho_order = _im_rho(G).order()
    im_rho_full = im_rho_order == G.order() ** 3
    w_order, rem = divmod(x_order, im_rho_order)
    if rem:
        raise CheckFailure("order_product", (x_order, im_rho_order))

    w_members = _w_members(table, base_table)
    if len(w_members) != w_order:
        raise CheckFailure("W_member_count", (len(w_members), w_order))

    central = all(lp * gp == gp * lp
                  for lp in map(table.word_image_unchecked, w_members)
                  for gp in table.action)
    return {
        "group_order": G.order(),
        "index_of_split_copy": index,
        "X_order": x_order,
        "im_rho_order": im_rho_order,
        "im_rho_is_full_triple_product": im_rho_full,
        "W_order": w_order,
        "W_central": central,
    }


def verification_report(x: XRealization, include_engel: bool = False) -> dict:
    report = {
        "group": str(x.presentation),
        "double": str(x.double),
        "orders": x.orders(),
        "abelianization": str(x.Q),
        "checks": x.checks,
        "classes": nilpotence_report(x, raise_on_failure=False),
    }
    if include_engel:
        try:
            report["engel"] = engel_certificate(x, raise_on_failure=False)
        except ArgumentError as exc:
            report["engel"] = {"error": str(exc)}
    return report
