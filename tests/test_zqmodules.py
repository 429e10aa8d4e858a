import pytest
from hypothesis import assume, given, settings, strategies as st

from weakcomm import intlinalg, sidki, zqmodules
from weakcomm.enumerator import enumerate_cosets, perm_realization
from weakcomm.errors import ArgumentError, SizeGuardError
from weakcomm.intlinalg import FinAbGroup, IntMatrix
from weakcomm.presentations import parse_presentation
from weakcomm.zqmodules import (QModule, aug_mod_I2, ell_module_consistency,
                                ell_section_module, module_M,
                                modules_agree_on_matched_generators,
                                nil_equation_checks, w_structure_checks)

from . import oracles


def realization_of(text):
    return perm_realization(enumerate_cosets(parse_presentation(text), []))


def test_aug_quotient_trivial_group():
    g = realization_of("< a | a >")
    v = aug_mod_I2(g)
    assert v.n == 0
    assert v.structure().is_trivial()
    assert v.action_nilpotency_class(cap=3) == 0


def test_aug_quotient_c2_by_direct_expansion():
    """Hand expansion over the single basis vector (a-1):
    (a-1)^2 = -2(a-1) and (a-1)^2 a = 2(a-1), so the lattice is 2Z; right
    multiplication by a sends (a-1) to -(a-1), the identity map mod 2."""
    g = realization_of("< a | a^2 >")
    v = aug_mod_I2(g)
    assert v.structure() == FinAbGroup((2,))
    lattice = {v.canonical(r) for r in v.relations}
    assert lattice == {v.canonical((2,))} | {v.canonical((0,))} - {v.canonical((0,))} \
        or all(v.is_zero(r) or v.canonical(r) == v.canonical((2,)) for r in v.relations)
    e = v.basis_vectors()[0]
    assert v.canonical(v.act(0, e)) == v.canonical(e)   # trivial action mod 2
    assert v.action_nilpotency_class(cap=5) == 1


def test_aug_quotient_c3_cross_checked(realizations):
    v1 = aug_mod_I2(realizations["C3"].G)
    assert v1.structure() == FinAbGroup((3,))
    report = ell_module_consistency(realizations["C3"])
    assert report["matched_generator_agreement"]
    assert report["aug_model_invariants"] == (3,)
    assert report["realization_invariants"] == (3,)
    assert report["torsion_count_invariants"] == (3,)


def test_module_consistency_whole_suite(realizations):
    for name, x in realizations.items():
        report = ell_module_consistency(x)
        assert report["matched_generator_agreement"], name
        assert report["aug_model_invariants"] == \
            report["realization_invariants"] == \
            report["torsion_count_invariants"], name


def test_action_nilpotency_basics():
    # trivial action on a nonzero module
    v = QModule(1, [(2,)], [IntMatrix([[1]])])
    assert v.action_nilpotency_class(cap=3) == 1
    # action that never nilpotizes within the cap
    w = QModule(1, [(5,)], [IntMatrix([[2]])])
    assert w.action_nilpotency_class(cap=10) is None


def test_nil_equations_whole_suite(realizations):
    for name, x in realizations.items():
        v = aug_mod_I2(x.G)
        rep = nil_equation_checks(v)
        assert rep["two_v_aug2_zero"], name
        assert rep["v_aug_k3_zero"], name
        order = v.structure().order()
        k = rep["k"]
        assert order % k == 0 or k == 1   # |V/2V| divides |V|


def test_module_m_examples(realizations):
    assert module_M(realizations["C4"].G).structure().is_trivial()
    m = module_M(realizations["S3"].G)
    assert m.structure() == FinAbGroup((3,))
    e = m.basis_vectors()[0] if m.n else None
    nontrivial = [e0 for e0 in m.basis_vectors() if not m.is_zero(e0)]
    assert nontrivial
    e = nontrivial[0]
    for i in range(len(m.action_matrices)):
        # the abelianization acts by inversion on the cyclic factor
        img = m.act(i, e)
        assert m.canonical(img) == m.canonical(tuple(-c for c in e))


def test_w_structure_whole_suite(realizations):
    for name, x in realizations.items():
        rep = w_structure_checks(x)
        assert rep["N_order_divides_M_order"], name
        assert rep["N_exponent_divides_M_exponent"], name
    # the symmetric group instance carries the interesting module
    rep = w_structure_checks(realizations["S3"])
    assert rep["M_order"] == 3
    assert rep["M_order"] % rep["N_order"] == 0
    # abelian bases: everything nilpotent with class at most 3 + s
    for name in ("C2", "C3", "C2xC2", "C4"):
        rep = w_structure_checks(realizations[name])
        assert rep["class_bounded_by_3_plus_s"], name
        assert rep["W_action_class"] <= 3 + rep["s"], name


def test_w_structure_c2_vacuous(realizations):
    rep = w_structure_checks(realizations["C2"])
    assert rep["W_invariants"] == ()
    assert rep["N_order"] == 1


def test_module_reports_share_one_augmentation_module(suite, monkeypatch):
    built = []
    real = zqmodules.aug_mod_I2

    def counting(group, guard=None):
        built.append(guard)
        return real(group, guard)

    monkeypatch.setattr(zqmodules, "aug_mod_I2", counting)
    x = sidki.build(suite["C2xC2"])
    ell_module_consistency(x)
    w_structure_checks(x)
    sidki.engel_certificate(x)
    assert built == [None]
    assert x.aug_module(4) is x.aug_module()
    # the guard still applies on every call, as it did when each one built
    for report in (ell_module_consistency, w_structure_checks):
        with pytest.raises(SizeGuardError):
            report(x, guard=3)
    assert len(built) == 1


def test_reports_read_the_one_smith_form_and_the_one_section(realizations, monkeypatch):
    x = realizations["S3"]
    v = x.aug_module()
    sections = []
    real = zqmodules.quotient_realization

    def recording(num, den):
        sections.append(num)
        return real(num, den)

    monkeypatch.setattr(zqmodules, "quotient_realization", recording)
    report = ell_module_consistency(x)
    assert sections == [x.L]

    def refused(m):
        raise AssertionError("a second Smith form")

    monkeypatch.setattr(intlinalg, "smith_normal_form", refused)
    assert v.structure().invariant_factors == report["aug_model_invariants"]


def test_action_class_monotone_under_quotients(realizations):
    v = aug_mod_I2(realizations["Q8"].G)
    s = v.action_nilpotency_class(cap=20)
    doubled = [tuple(2 * c for c in e) for e in v.basis_vectors()]
    quotient = QModule(v.n, list(v.relations) + doubled, v.action_matrices)
    sq = quotient.action_nilpotency_class(cap=20)
    assert sq is not None and s is not None and sq <= s


def test_matched_generator_comparison_detects_mismatch(realizations):
    v1 = aug_mod_I2(realizations["C3"].G)
    sec = ell_section_module(realizations["C3"])
    assert modules_agree_on_matched_generators(v1, sec.module)
    # perturb the action: C3's module is Z/3, doubling is not the identity
    bad = QModule(v1.n, v1.relations,
                  [IntMatrix([[2 * x for x in row] for row in m.data])
                   for m in v1.action_matrices])
    assert not modules_agree_on_matched_generators(v1, bad)


def test_submodule_closure():
    # Z/4 x Z/2 with a shear action that genuinely mixes the factors
    v = QModule(2, [(4, 0), (0, 2)], [IntMatrix([[1, 0], [1, 1]])])
    # 2*e0 is fixed by the shear
    assert v.submodule_order_and_exponent([(2, 0)]) == (2, 2)
    # e0 -> e0 + e1 drags in the second factor
    assert v.submodule_order_and_exponent([(1, 0)]) == (8, 4)


def test_submodule_orders_are_read_in_the_modules_own_coordinates():
    # Z^2 / <(2, 0), (0, 3)> is Z/6; its Smith coordinates are not e0, e1
    v = QModule(2, [(2, 0), (0, 3)], [IntMatrix.identity(2)])
    assert v.submodule_order_and_exponent([(1, 0)]) == (2, 2)
    assert v.submodule_order_and_exponent([(1, 1)]) == (6, 6)


def test_submodules_of_an_infinite_module_are_refused():
    v = QModule(2, [(2, 0)], [IntMatrix.identity(2)])
    with pytest.raises(SizeGuardError):
        v.submodule_order_and_exponent([(1, 0)])


@st.composite
def small_modules(draw):
    """A module sum Z/d_i, d_1 | ... | d_n, in coordinates mixed by a
    unimodular P, with an endomorphism M of it and a polynomial in M as the
    action, and sometimes one more random relation, which the action need
    not preserve."""
    n = draw(st.integers(1, 3))
    chain = [draw(st.integers(1, 6))]
    for _ in range(n - 1):
        chain.append(chain[-1] * draw(st.integers(1, 2)))
    # (i, j) with i > j must be a multiple of d_i / d_j for M to be well defined
    m = IntMatrix([[draw(st.integers(-3, 3)) * (chain[i] // chain[j] if i > j else 1)
                    for j in range(n)] for i in range(n)])
    p, p_inv = IntMatrix.identity(n), IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        if i != j:
            e, e_inv = IntMatrix.identity(n), IntMatrix.identity(n)
            e.data[i][j], e_inv.data[i][j] = c, -c
            p, p_inv = p @ e, e_inv @ p_inv
    relations = [tuple(p.apply([chain[j] if k == j else 0 for k in range(n)]))
                 for j in range(n)]
    combination = [draw(st.integers(-2, 2)) for _ in range(n)]
    relations.append(tuple(sum(c * r[i] for c, r in zip(combination, relations))
                           for i in range(n)))
    relations += draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), max_size=1))
    a = p @ m @ p_inv
    coeffs = [draw(st.integers(-2, 2)) for _ in range(3)]
    b = IntMatrix([[coeffs[0] * (i == j) + coeffs[1] * a.data[i][j] + coeffs[2] * aa
                    for j, aa in enumerate(row)] for i, row in enumerate((a @ a).data)])
    actions = [a, b][:draw(st.integers(0, 2))]
    try:
        v = QModule(n, relations, actions)
    except ArgumentError:
        assume(False)
    seeds = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * n), min_size=1, max_size=3))
    return v, seeds


@settings(max_examples=300, deadline=None)
@given(small_modules())
def test_submodule_order_and_exponent_match_the_enumeration(module_and_seeds):
    v, seeds = module_and_seeds
    assert v.submodule_order_and_exponent(seeds) == \
        oracles.enumerated_submodule(v, seeds)


def test_commuting_action_enforced():
    # matrices that do not commute on the quotient are rejected
    a = IntMatrix([[0, 1], [1, 0]])
    b = IntMatrix([[1, 1], [0, 1]])
    with pytest.raises(ArgumentError):
        QModule(2, [(5, 0), (0, 5)], [a, b])
