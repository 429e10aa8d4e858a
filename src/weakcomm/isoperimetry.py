"""Area certificates and small-scale isoperimetry experiments.

An ``AreaCertificate`` is an explicit witness that a word lies in the normal
closure of the relators: a list of (conjugator, relator index, sign) factors
whose product of conjugates freely reduces to the word.  Its area is the
number of factors and its radius the longest conjugator.  The checker is the
authority: every constructor here feeds its output back through
``check_certificate``.

Also here: the quadratic grid filling of [a^n, b^n] over the rank-2 free
abelian presentation, an exhaustive (meet-in-the-middle) minimal-area
search usable as a brute-force oracle at tiny scale, a certificate transform
along central extensions with an explicit cost bound, and the 6n-letter
element family with quadratic subgroup distortion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Sequence

from .errors import ArgumentError, ParseError
from .presentations import Presentation, parse_presentation
from .words import (GenSymbol, Word, commutator, format_word, parse_word,
                    reduced_words, rho_word)


@dataclass(frozen=True)
class AreaCertificate:
    """word = prod_i conj(theta_i, relator_i ^ sign_i), as a free-group identity."""

    word: Word
    factors: tuple[tuple[Word, int, int], ...]

    @property
    def area(self) -> int:
        return len(self.factors)

    @property
    def radius(self) -> int:
        return max((len(t) for t, _, _ in self.factors), default=0)

    def product_word(self, pres: Presentation) -> Word:
        acc = Word()
        for theta, idx, sign in self.factors:
            if not 0 <= idx < len(pres.relators):
                raise ArgumentError(f"relator index {idx} out of range")
            r = pres.relators[idx]
            acc = acc * (r if sign > 0 else r.inverse()).conjugate(theta)
        return acc

    def to_json(self) -> str:
        doc = {
            "schema_version": 1,
            "word": format_word(self.word),
            "factors": [{"theta": format_word(t), "relator": i, "sign": s}
                        for t, i, s in self.factors],
            "area": self.area,
            "radius": self.radius,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str, pres: Presentation) -> "AreaCertificate":
        """Inverse of ``to_json``; ParseError on bad JSON, a missing key or a
        value of the wrong type."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"certificate is not valid JSON: {exc.msg}",
                             exc.pos) from exc
        word = parse_word(_json_field(doc, "word", str), pres.generators)
        factors = tuple(
            (parse_word(_json_field(f, "theta", str), pres.generators),
             _json_field(f, "relator", int), _json_field(f, "sign", int))
            for f in _json_field(doc, "factors", list))
        return cls(word, factors)


def _json_field(doc, key: str, kind: type):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"certificate entry without {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"certificate {key!r} has the wrong type: {value!r}")
    return value


def check_certificate(pres: Presentation, cert: AreaCertificate) -> bool:
    """True iff the factors multiply out to the word in the free group."""
    for _, idx, sign in cert.factors:
        if not 0 <= idx < len(pres.relators):
            raise ArgumentError(f"relator index {idx} out of range")
        if sign not in (1, -1):
            raise ArgumentError("factor sign must be +1 or -1")
    return cert.product_word(pres) == cert.word


GRID_PRESENTATION = parse_presentation("< a, b | [a, b] >")


def grid_certificate(n: int) -> AreaCertificate:
    """[a^n, b^n] as exactly n^2 conjugates of [a, b], row by row.

    Free-group identity: [a^n, b^n] = prod_{i=n-1..0} prod_{j=0..n-1}
    [a,b]^(b^j a^i); conjugators have length at most 2(n-1).
    """
    if n < 1:
        raise ArgumentError("grid size must be >= 1")
    a, b = (Word([g]) for g in GRID_PRESENTATION.generators)
    word = commutator(a ** n, b ** n)
    factors = []
    for i in range(n - 1, -1, -1):
        for j in range(n):
            factors.append(((b ** j) * (a ** i), 0, 1))
    cert = AreaCertificate(word, tuple(factors))
    if not check_certificate(GRID_PRESENTATION, cert):
        raise ArgumentError("internal error: grid certificate failed its checker")
    return cert


# -- exhaustive minimal-area search ---------------------------------------------

def _abelian_feasible(pres: Presentation, w: Word, max_area: int) -> bool:
    """Can signed relator multiplicities with total count <= max_area match the
    exponent sums of w?  A necessary condition for any certificate."""
    gens = pres.generators
    target = tuple(w.exponent_sum(g) for g in gens)
    vecs = [tuple(r.exponent_sum(g) for g in gens) for r in pres.relators]

    def dfs(i: int, remaining: int, acc: tuple[int, ...]) -> bool:
        if i == len(vecs):
            return acc == target
        for m in range(-remaining, remaining + 1):
            cand = tuple(a + m * v for a, v in zip(acc, vecs[i]))
            if dfs(i + 1, remaining - abs(m), cand):
                return True
        return False

    return dfs(0, max_area, tuple([0] * len(gens)))


def minimal_area_search(pres: Presentation, w: Word, max_area: int,
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


# -- central extension transform ---------------------------------------------

@dataclass
class CentralLifting:
    """A central extension presentation assembled from lifting data.

    base: the quotient presentation < b | r_1..r_s >.
    central_gens: names of the central generators.
    sigmas: per-relator correction words over the central generators, so the
        lifted relator is r_i * sigma_i.
    total: the assembled presentation, relator layout: lifted relators first
        (index-aligned with the base), then central-central commutators, then
        central-base commutators.
    """

    base: Presentation
    central_gens: tuple[str, ...]
    sigmas: tuple[Word, ...]
    total: Presentation
    comm_index: dict[tuple[str, str], int]
    validated: bool


def central_extension_presentation(
        base: Presentation, central_gens: Sequence[str], sigmas: Sequence[Word],
        triviality_oracle: Callable[[Word], bool] | None = None) -> CentralLifting:
    """Assemble the central extension presentation and validate lifting data.

    With an oracle for the word problem of the total group, each lifted
    relator (and each commutation relator) is checked to be trivial;
    otherwise the lifting data is taken on trust and flagged as assumed.
    """
    if len(sigmas) != len(base.relators):
        raise ArgumentError("need one correction word per base relator")
    central_syms = [GenSymbol(c) for c in central_gens]
    central_names = {c.name for c in central_syms}
    if central_names & {g.name for g in base.generators}:
        raise ArgumentError("central generator names clash with the base")
    for s in sigmas:
        for sym in s:
            if sym.name not in central_names:
                raise ArgumentError("correction words must use central generators only")
    gens = list(base.generators) + central_syms
    relators = [r * s for r, s in zip(base.relators, sigmas)]
    comm_index: dict[tuple[str, str], int] = {}
    for i, c in enumerate(central_syms):
        for d in central_syms[i + 1:]:
            comm_index[(c.name, d.name)] = len(relators)
            relators.append(commutator(Word([c]), Word([d])))
    for c in central_syms:
        for bgen in base.generators:
            comm_index[(c.name, bgen.name)] = len(relators)
            relators.append(commutator(Word([c]), Word([bgen])))
    total = Presentation(gens, relators)
    validated = False
    if triviality_oracle is not None:
        for r in total.relators:
            if not triviality_oracle(r):
                raise ArgumentError(f"lifting data invalid: relator {r} not trivial")
        validated = True
    return CentralLifting(base, tuple(c.name for c in central_syms),
                          tuple(sigmas), total, comm_index, validated)


def lifting_to_json(lifting: CentralLifting) -> str:
    """Embed the lifting data in the base presentation's JSON document."""
    from .presentations import presentation_to_json
    meta = {"central_gens": list(lifting.central_gens),
            "sigma": [format_word(s) for s in lifting.sigmas]}
    return presentation_to_json(lifting.base, meta)


def lifting_from_json(text: str,
                      triviality_oracle: Callable[[Word], bool] | None = None
                      ) -> CentralLifting:
    from .presentations import presentation_from_json
    base, meta = presentation_from_json(text)
    central = meta["central_gens"]
    syms = [GenSymbol(c) for c in central]
    sigmas = [parse_word(s, syms) for s in meta["sigma"]]
    return central_extension_presentation(base, central, sigmas,
                                          triviality_oracle=triviality_oracle)


def _letter_commutator_factor(lifting: CentralLifting, central: GenSymbol,
                              other: GenSymbol) -> tuple[Word, int, int]:
    """[other, central] as a signed conjugate of the stored relator
    [central_0, other_0]."""
    idx = lifting.comm_index[(central.name, other.name)]
    c0 = GenSymbol(central.name, central.bar, 1)
    o0 = GenSymbol(other.name, other.bar, 1)
    # the stored relator is [c0, o0]; express [o, c] for the four sign cases
    if other.sign > 0 and central.sign > 0:
        return Word(), idx, -1                       # [o0, c0] = r^-1
    if other.sign > 0 and central.sign < 0:
        return Word([c0.inverse()]), idx, 1          # [o0, c0^-1] = r^(c0^-1)
    if other.sign < 0 and central.sign > 0:
        return Word([o0.inverse()]), idx, 1          # [o0^-1, c0] = r^(o0^-1)
    return Word([c0.inverse(), o0.inverse()]), idx, -1  # [o0^-1, c0^-1] = r^-1 ^ (c0^-1 o0^-1)


def _commutation_factors(lifting: CentralLifting, u: Word, v: Word
                         ) -> list[tuple[Word, int, int]]:
    """Certificate factors for [u, v], where every letter of v is central and
    every letter of u commutes with it by a stored relator.

    Recursion on free-group identities [u'x, v] = [u', v]^x [x, v] and
    [x, v'y] = [x, y] [x, v']^y.
    """
    letters_u = list(u)
    if not letters_u or v.is_identity():
        return []
    if len(letters_u) > 1:
        head, x = Word(letters_u[:-1]), letters_u[-1]
        out = [(theta * Word([x]), idx, sign)
               for theta, idx, sign in _commutation_factors(lifting, head, v)]
        out.extend(_commutation_factors(lifting, Word([x]), v))
        return out
    x = letters_u[0]
    *rest, y = v
    # [x, v'y] = [x,y] * [x,v']^y
    out = [_letter_commutator_factor(lifting, central=y, other=x)]
    out.extend((theta * Word([y]), idx, sign) for theta, idx, sign in
               _commutation_factors(lifting, Word([x]), Word(rest)))
    return out


def central_transform(lifting: CentralLifting, cert: AreaCertificate
                      ) -> tuple[AreaCertificate, dict]:
    """Lift a certificate over the quotient to one over the central extension.

    The output certifies word * correction, where the correction is the
    tracked central word (the product of the inverted per-relator correction
    words, in factor order).  The reported cost is checked against the
    closed-form bound n^2 + mu*d^2 + d + (n + mu*d)^2 with d = max(area,
    radius) and mu the longest correction word.
    """
    base, total = lifting.base, lifting.total
    if not check_certificate(base, cert):
        raise ArgumentError("input certificate is not valid over the base")

    # Item stream whose free product equals the input word, with every
    # residual central contribution isolated as a plain word:
    #   +1: theta^-1 r theta
    #       = [theta^-1 (r sigma) theta] * [theta, sigma] * sigma^-1
    #   -1: theta^-1 r^-1 theta
    #       = [theta, sigma^-1] * sigma * [theta^-1 (r sigma)^-1 theta]
    Item = tuple  # ("F", theta, idx, sign) | ("W", word)
    items: list[Item] = []
    for theta, idx, sign in cert.factors:
        sigma = lifting.sigmas[idx]
        if sign > 0:
            items.append(("F", theta, idx, 1))
            items.extend(("F", t, i, s)
                         for t, i, s in _commutation_factors(lifting, theta, sigma))
            items.append(("W", sigma.inverse()))
        else:
            items.extend(("F", t, i, s) for t, i, s in
                         _commutation_factors(lifting, theta, sigma.inverse()))
            items.append(("W", sigma))
            items.append(("F", theta, idx, -1))

    # Slide every factor left across the central words accumulated so far
    # (free: u * f = f^(u^-1) * u), leaving the correction at the far right.
    out_factors: list[tuple[Word, int, int]] = []
    pending = Word()
    for item in items:
        if item[0] == "W":
            pending = pending * item[1]
        else:
            _, theta, idx, sign = item
            out_factors.append((theta * pending.inverse(), idx, sign))
    # product of emitted factors = word * pending^-1
    correction = pending.inverse()
    out_word = cert.word * correction
    out = AreaCertificate(out_word, tuple(out_factors))
    if not check_certificate(total, out):
        raise ArgumentError("internal error: transformed certificate failed its checker")
    mu = max((len(s) for s in lifting.sigmas), default=0)
    n = len(cert.word)
    d = max(cert.area, cert.radius)
    bound = n * n + mu * d * d + d + (n + mu * d) ** 2
    report = {
        "input_area": cert.area, "input_radius": cert.radius,
        "output_area": out.area, "output_radius": out.radius,
        "central_correction": format_word(correction),
        "mu": mu, "cost_bound": bound,
        "within_bound": out.area <= bound,
        "lifting_validated": lifting.validated,
    }
    return out, report


# -- the quadratically distorted element family --------------------------------

CN_ALPHABET = (GenSymbol("a"), GenSymbol("b"), GenSymbol("l_a"), GenSymbol("l_b"))
ELL_ALPHABET = (GenSymbol("l_a"), GenSymbol("l_b"), GenSymbol("lam"))


def c_n_letters(n: int) -> tuple[GenSymbol, ...]:
    """The canonical 6n-letter spelling of the n-th distortion element over
    {a, b, l_a, l_b}: l_a^n l_b^n (b^-n l_a^n b^n l_b^n)^-1, unreduced.

    Returned as a raw letter sequence because the spelled length (exactly 6n)
    is the quantity of interest; Word(c_n_letters(n)) reduces to 4n letters.
    """
    if n < 1:
        raise ArgumentError("index must be >= 1")
    la, lb = GenSymbol("l_a"), GenSymbol("l_b")
    b = GenSymbol("b")
    seq = [la] * n + [lb] * n \
        + [lb.inverse()] * n + [b.inverse()] * n + [la.inverse()] * n + [b] * n
    return tuple(seq)


def expand_letter_differences(letters: Sequence[GenSymbol]) -> Word:
    """Replace each l_<g> letter by g^-1 g~ and return the reduced word over
    the doubled alphabet."""
    out: list[GenSymbol] = []
    for sym in letters:
        if sym.name.startswith("l_"):
            base = sym.name[2:]
            pair = [GenSymbol(base, False, -1), GenSymbol(base, True, 1)]
            if sym.sign < 0:
                pair = [p.inverse() for p in reversed(pair)]
            out.extend(pair)
        else:
            out.append(sym)
    return Word(out)


def rho_of_spelling(letters: Sequence[GenSymbol]) -> tuple[Word, Word, Word]:
    return rho_word(expand_letter_differences(letters))


def reduce_to_free_area(w: Word) -> tuple[Word, list[tuple[int, Word]]]:
    """Rewrite a word over {l_a, l_b, lam} as V * prod_i lam^(sign_i theta_i).

    V collects the l-letters, each theta_i is the l-suffix after the i-th
    lam occurrence, and the factor count never exceeds |w|.  The identity
    V * prod conj(theta_i, lam^sign_i) = w holds in the free group and is
    re-checked before returning.
    """
    allowed = {("l_a", False), ("l_b", False), ("lam", False)}
    for sym in w:
        if (sym.name, sym.bar) not in allowed:
            raise ArgumentError(f"letter {sym} outside the l_a/l_b/lam alphabet")
    v = Word()
    thetas: list[tuple[int, Word]] = []
    for sym in w:
        if sym.name == "lam":
            thetas.append((sym.sign, Word()))
        else:
            letter = Word([sym])
            v = v * letter
            thetas = [(s, t * letter) for s, t in thetas]
    lam = Word([GenSymbol("lam")])
    acc = v
    for s, t in thetas:
        acc = acc * (lam if s > 0 else lam.inverse()).conjugate(t)
    if acc != w:
        raise ArgumentError("internal error: rewriting did not reproduce the word")
    return v, thetas


def _substitute(w: Word, mapping: dict[str, Word]) -> Word:
    out = Word()
    for sym in w:
        img = mapping[sym.name]
        out = out * (img if sym.sign > 0 else img.inverse())
    return out


def p_image(w: Word) -> Word:
    """Kill the barred copy: l_a -> a^-1, l_b -> b^-1, lam -> [a, b]."""
    a, b = Word([GenSymbol("a")]), Word([GenSymbol("b")])
    return _substitute(w, {"l_a": a.inverse(), "l_b": b.inverse(),
                           "lam": commutator(a, b)})


def pbar_image(w: Word) -> Word:
    """Kill the unbarred copy (writing the result over plain letters):
    l_a -> a, l_b -> b, lam -> 1."""
    return _substitute(w, {"l_a": Word([GenSymbol("a")]),
                           "l_b": Word([GenSymbol("b")]), "lam": Word()})


def free_commutator_instance(w: Word) -> AreaCertificate:
    """Project a {l_a, l_b, lam}-word to a product-of-conjugates instance for
    the free commutator: a certificate over < a, b | [a,b] > whose word is
    p(V)^-1 p(w)."""
    v, thetas = reduce_to_free_area(w)
    factors = tuple((p_image(t), 0, s) for s, t in thetas)
    word = p_image(v).inverse() * p_image(w)
    cert = AreaCertificate(word, factors)
    if not check_certificate(GRID_PRESENTATION, cert):
        raise ArgumentError("internal error: projected instance failed its checker")
    return cert


def distortion_bracket(n: int) -> dict:
    """Bracketed estimates for the intrinsic length of the n-th distortion
    element: the quadratic lower bound from the free-area reduction, and the
    length of the natural grid-shaped expression (whose equality with the
    element is verified only through the triple-product image, so it is
    reported as a candidate, not asserted sharp)."""
    if n < 1:
        raise ArgumentError("index must be >= 1")
    candidate_length = sum(2 * (i + j) + 1 for i in range(n) for j in range(n))
    return {
        "n": n,
        "extrinsic_length": 6 * n,
        "lower_bound": n * n,
        "candidate_upper_length": candidate_length,
        "candidate_rho_verified_only": True,
    }


def c_n_candidate_l_word(n: int) -> Word:
    """The grid-shaped expression prod_{i=n-1..0} prod_{j=0..n-1}
    lam^(l_b^-j l_a^-i) over {l_a, l_b, lam}."""
    la, lb, lam = (Word([g]) for g in ELL_ALPHABET)
    acc = Word()
    for i in range(n - 1, -1, -1):
        for j in range(n):
            acc = acc * lam.conjugate((lb ** (-j)) * (la ** (-i)))
    return acc
