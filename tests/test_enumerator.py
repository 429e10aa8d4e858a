import hashlib
import itertools
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from weakcomm import enumerator
from weakcomm.enumerator import (_Enumeration, enumerate_cosets, perm_realization,
                                 signed_letters)
from weakcomm.errors import ArgumentError, EnumerationOverflow, WeakcommError
from weakcomm.presentations import (AllElements, Presentation,
                                    parse_presentation, sidki_double)
from weakcomm.words import GenSymbol, Word, commutator, parse_word

from .oracles import checked_walk_hlt, closure, s3_generators, two_end_felsch

S3 = parse_presentation("< a, b | a^2, b^2, (a*b)^3 >")
C3 = parse_presentation("< a | a^3 >")
XC2 = sidki_double(parse_presentation("< a | a^2 >"), AllElements())
COLLAPSE = parse_presentation("< a, b | a^3, b^3, (a*b)^4, (a*b^-1)^5, a*b*a^-2*b*a >")


def test_cyclic_three_cosets():
    assert enumerate_cosets(C3, []).n_cosets == 3


def test_s3_against_multiplication_table_oracle():
    assert len(closure(s3_generators())) == 6
    assert enumerate_cosets(S3, []).n_cosets == 6


def test_double_of_c2_four_cosets():
    assert enumerate_cosets(XC2, []).n_cosets == 4


def test_subgroup_indices():
    a = parse_word("a", S3.generators)
    b = parse_word("b", S3.generators)
    assert enumerate_cosets(S3, [a]).n_cosets == 3
    assert enumerate_cosets(S3, [b]).n_cosets == 3
    assert enumerate_cosets(S3, [a, b]).n_cosets == 1


def test_word_images():
    t = enumerate_cosets(C3, [])
    assert t.word_image(C3, parse_word("a^3", C3.generators)).is_identity()
    t = enumerate_cosets(XC2, [])
    rel = parse_word("[a, a~]", XC2.generators)
    assert t.word_image(XC2, rel).is_identity()
    mixed = parse_word("a * a~", XC2.generators)
    img = t.word_image(XC2, mixed)
    assert not img.is_identity()
    assert img.order() == 2


def test_relators_fix_every_coset():
    for pres in (S3, C3, XC2):
        t = enumerate_cosets(pres, [])
        for r in pres.relators:
            for c in range(t.n_cosets):
                assert t.trace_word(c, r) == c


def test_relator_order_irrelevant_for_coset_count():
    base = enumerate_cosets(S3, []).n_cosets
    for perm in itertools.permutations(S3.relators):
        p = Presentation(S3.generators, list(perm))
        assert enumerate_cosets(p, []).n_cosets == base


def test_strategies_agree_and_are_deterministic():
    for pres in (S3, C3, XC2):
        hlt1 = enumerate_cosets(pres, [], strategy="hlt")
        hlt2 = enumerate_cosets(pres, [], strategy="hlt")
        felsch = enumerate_cosets(pres, [], strategy="felsch")
        assert hlt1.n_cosets == felsch.n_cosets
        assert [p.img for p in hlt1.action] == [p.img for p in hlt2.action]
    with pytest.raises(ArgumentError):
        enumerate_cosets(S3, [], strategy="nope")


def test_budget_overflow():
    free = parse_presentation("< a, b | >")
    with pytest.raises(EnumerationOverflow) as exc:
        enumerate_cosets(free, [], max_cosets=100)
    assert exc.value.budget == 100


def test_coset_words_reach_their_cosets():
    t = enumerate_cosets(S3, [])
    words = t.coset_words()
    assert len(words) == t.n_cosets
    assert words[0].is_identity()
    for c, w in enumerate(words):
        assert t.trace_word(0, w) == c


def test_regular_realization_order_and_faithfulness():
    t = enumerate_cosets(S3, [])
    g = perm_realization(t)
    assert g.order() == 6
    # free regular action: only the identity fixes coset 0
    words = t.coset_words()
    assert sum(1 for w in words if t.is_trivial_word(w)) == 1


def test_signed_letters_validation():
    with pytest.raises(ArgumentError):
        signed_letters(S3, Word([GenSymbol("z")]))


def test_table_json_export():
    t = enumerate_cosets(C3, [])
    doc = json.loads(t.to_json())
    assert doc["n_cosets"] == 3
    assert doc["action"]["a"] in ([1, 2, 0], [2, 0, 1])


def test_lookahead_and_compaction_path():
    # collapses massively after wandering: exercises coincidence storms
    t = enumerate_cosets(COLLAPSE, [], max_cosets=200_000)
    assert t.n_cosets >= 1
    felsch = enumerate_cosets(COLLAPSE, [], strategy="felsch", max_cosets=200_000)
    assert felsch.n_cosets == t.n_cosets


def test_lookahead_rescues_tight_budget():
    # HLT wants to allocate 6 cosets for the longer power before the shorter
    # one collapses them; with a budget of 3 only a lookahead pass saves it
    p = parse_presentation("< a | a^4, a^2 >")
    t = enumerate_cosets(p, [], max_cosets=3)
    assert t.n_cosets == 2
    with pytest.raises(EnumerationOverflow):
        enumerate_cosets(p, [], max_cosets=1)


def test_midrun_compaction(monkeypatch):
    from weakcomm import enumerator
    monkeypatch.setattr(enumerator, "COMPACT_THRESHOLD", 1)
    reference = enumerate_cosets(S3, []).n_cosets
    assert enumerate_cosets(S3, []).n_cosets == reference
    t = enumerate_cosets(COLLAPSE, [], max_cosets=200_000)
    assert t.n_cosets == enumerate_cosets(COLLAPSE, [], strategy="felsch").n_cosets


def test_felsch_with_subgroup():
    a = parse_word("a", S3.generators)
    assert enumerate_cosets(S3, [a], strategy="felsch").n_cosets == 3


def _pinned_input(name: str):
    """Presentation and subgroup words of a table whose bytes are pinned:
    'collapse' is the table of the two tests above, and a 'compacting' one is
    enumerated with COMPACT_THRESHOLD 1."""
    if name.startswith("collapse"):
        return COLLAPSE, []
    if name == "S3 compacting":
        return S3, []
    base = parse_presentation(PINNED_BASES[name.split(" ")[0][2:-1]])
    double = sidki_double(base, AllElements())
    if name.endswith("split"):
        return double, [Word([g]) for g in base.generators]
    return double, []


PINNED_BASES = {
    "S3": "< a, b | a^2, b^2, (a*b)^3 >",
    "D4": "< r, s | r^4, s^2, (r*s)^2 >",
    "A4": "< a, b | a^2, b^3, (a*b)^3 >",
    "D8": "< r, s | r^8, s^2, (r*s)^2 >",
    "SL(2,3)": "< a, b | a^3*b^-3, a^3*(a*b)^-2 >",
    "A5": "< a, b | a^2, b^3, (a*b)^5 >",
}


# sha256 of to_json(): discovery order is part of the output, so a change to
# the enumerator must leave these bytes as they are
PINNED_DIGESTS = {
    ("X(S3)", "hlt"):
        "49a8430c5b974eb4dd0cfd2f63be4d965ad22aa1b3ca45553f60b386a9d9b680",
    ("X(S3)", "felsch"):
        "c86072c4667663057de8d658ee4eba1f01dee6e2b08dfee5cee2ac9324d902f2",
    ("X(D4)", "hlt"):
        "e7e2f4f87d584e585eb5ef9c5ae367eb118c4b73831bfa6847144328bbc53d1a",
    ("X(D4)", "felsch"):
        "71ffc2524d0f2fd0c1c0ec3550109aa94b63698b43f056afc043b7bbe6e87e56",
    ("X(A4)", "hlt"):
        "ed393a1f340eae9a439dd7f933b7ef6a186dde4561e5e45f99ba3139b8eb4cff",
    ("X(A4)", "felsch"):
        "265b88e670344325e9a3a28e4f9ce7df195dae65a44c076c8731fb87d06b095f",
    ("X(A4) split", "hlt"):
        "3fe6dc8e1ef345695d54b486415dddc1cde9821e56311e9f65515bf894ee2d04",
    ("X(A4) split", "felsch"):
        "96a32b90777ce90256841881f11c50b2f9d17ca2813c8b932111f8512282b155",
    ("collapse", "hlt"):
        "589e399b57842a90b57ce95108f747cf53a558a59ea4ecf485304d951f56b2a8",
    ("collapse", "felsch"):
        "589e399b57842a90b57ce95108f747cf53a558a59ea4ecf485304d951f56b2a8",
    ("collapse compacting", "hlt"):
        "589e399b57842a90b57ce95108f747cf53a558a59ea4ecf485304d951f56b2a8",
    ("collapse compacting", "felsch"):
        "589e399b57842a90b57ce95108f747cf53a558a59ea4ecf485304d951f56b2a8",
    ("S3 compacting", "hlt"):
        "8e7d1adaa8b4e88e4709e0731949b4d23b6f70e7f574ee9c8f388852f572eff3",
    ("S3 compacting", "felsch"):
        "10b038da759cb0c4b7833b9d963ac9c4db5bdc4f8d2ce39972a5806d2fc8d20e",
    ("X(A4) compacting", "hlt"):
        "ed393a1f340eae9a439dd7f933b7ef6a186dde4561e5e45f99ba3139b8eb4cff",
    ("X(A4) compacting", "felsch"):
        "265b88e670344325e9a3a28e4f9ce7df195dae65a44c076c8731fb87d06b095f",
    ("X(D8)", "hlt"):
        "a783052486275ad63a2f8df42411e3d916ec633e7cc6a31df5f7cddaa576cb43",
    ("X(D8)", "felsch"):
        "89d4959bf47268c2d670022488f280181957501c3dbb610ee77e2b46589df364",
    ("X(SL(2,3))", "hlt"):
        "45af3e4ba4e15abf65e5044047f87a899347219501fb5669b4936232ee37ca95",
    ("X(SL(2,3))", "felsch"):
        "45afc911ff00abccef5c92d57ff881c7e5dfeb36ae0c074194f805eb948c7462",
    ("X(SL(2,3)) split", "hlt"):
        "246185f23bcc97f29f3b88552785c785ec2f9b5601f4de21daaf0fd34d8fd6d6",
    ("X(SL(2,3)) split", "felsch"):
        "6fe6ed47e1b7bc7a1060ad3ea5c7443b6b28d3d77f545cb76ab3763cd4b4b73e",
    ("X(A5) split", "hlt"):
        "79641f7a1c3aee1dca9bf431f7b22f0aca42fe2665b38735409f63ec59cc5a83",
    # the tables above, enumerated at the tightest budget that closes
    ("X(S3) lookahead", "hlt"):
        "49a8430c5b974eb4dd0cfd2f63be4d965ad22aa1b3ca45553f60b386a9d9b680",
    ("X(A4) lookahead", "hlt"):
        "ed393a1f340eae9a439dd7f933b7ef6a186dde4561e5e45f99ba3139b8eb4cff",
    ("X(D4) lookahead", "hlt"):
        "e7e2f4f87d584e585eb5ef9c5ae367eb118c4b73831bfa6847144328bbc53d1a",
}

# HLT overflows at one coset less, and closes here only after lookahead passes
LOOKAHEAD_BUDGETS = {"X(S3) lookahead": 112, "X(A4) lookahead": 1200,
                     "X(D4) lookahead": 263}


@pytest.mark.parametrize("name, strategy", list(PINNED_DIGESTS))
def test_table_bytes_are_pinned(monkeypatch, name, strategy):
    from weakcomm import enumerator
    if name.endswith("compacting"):
        monkeypatch.setattr(enumerator, "COMPACT_THRESHOLD", 1)
    compactions = []
    compact = enumerator._Enumeration.compact

    def recording(self, pointer):
        compactions.append(pointer)
        return compact(self, pointer)

    monkeypatch.setattr(enumerator._Enumeration, "compact", recording)
    pres, subgens = _pinned_input(name)
    t = enumerate_cosets(pres, subgens, max_cosets=LOOKAHEAD_BUDGETS.get(name, 200_000),
                         strategy=strategy)
    digest = hashlib.sha256(t.to_json().encode("utf-8")).hexdigest()
    assert digest == PINNED_DIGESTS[name, strategy]
    # published columns hold their rows and nothing past them
    assert all(len(col) == t.n_cosets for col in t.columns)
    if name.endswith("lookahead"):
        # publish compacts once, and each lookahead pass once before it
        assert len(compactions) > 1


def _lifo_process_deductions(self, bound, depths):
    # _Enumeration._process_deductions with the queue read last in, first out
    queue = self.deductions
    while queue:
        depths.append(len(queue))
        a, x = queue.pop()
        rotations = bound[x]
        k = 0
        while k < len(rotations):
            k = self._scan(self.find(a), rotations, k)


@pytest.mark.parametrize("name", ["X(S3)", "X(A4)", "X(D8)"])
def test_felsch_tables_do_not_depend_on_the_deduction_order(monkeypatch, name):
    """Felsch empties the deduction queue before it defines the next entry;
    read last in, first out, the queue leads to the pinned tables as well."""
    depths = []
    monkeypatch.setattr(enumerator._Enumeration, "_process_deductions",
                        lambda self, bound: _lifo_process_deductions(self, bound, depths))
    pres, subgens = _pinned_input(name)
    t = enumerate_cosets(pres, subgens, max_cosets=200_000, strategy="felsch")
    assert max(depths) > 1     # the order differed from first in, first out
    digest = hashlib.sha256(t.to_json().encode("utf-8")).hexdigest()
    assert digest == PINNED_DIGESTS[name, "felsch"]


# -- Felsch against the two-end Felsch it replaced ---------------------------------

DIFFERENTIAL_BUDGET = 2000


def _letters(n_gens: int):
    return [GenSymbol(name, sign=sign) for name in "abc"[:n_gens] for sign in (1, -1)]


def _words(n_gens: int, max_len: int):
    return st.lists(st.sampled_from(_letters(n_gens)), min_size=1,
                    max_size=max_len).map(Word)


def _relators(n_gens: int):
    # powers of short words give finite groups, where tables fill and collapse
    powers = st.tuples(_words(n_gens, 3), st.integers(2, 6)).map(
        lambda wk: Word(list(wk[0]) * wk[1]))
    return st.one_of(_words(n_gens, 8), powers)


def _presentations(n_gens: int):
    # a power of every generator makes most of these finite; the relators
    # drawn beside them make many of them collapse
    gens = [GenSymbol(name) for name in "abc"[:n_gens]]
    orders = st.lists(st.integers(2, 6), min_size=n_gens, max_size=n_gens)
    return st.tuples(
        st.tuples(orders, st.lists(_relators(n_gens), min_size=1, max_size=4)).map(
            lambda ok: Presentation(gens, [Word([g] * k) for g, k in zip(gens, ok[0])]
                                    + ok[1])),
        st.lists(_words(n_gens, 4), max_size=2))


def _table_or_overflow(run):
    try:
        return run().to_json()
    except EnumerationOverflow:
        return None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(_presentations))
@example((COLLAPSE, []))
@example((COLLAPSE, [parse_word("a*b", COLLAPSE.generators)]))
@example((S3, [parse_word("a", S3.generators)]))
@example((XC2, []))
def test_felsch_matches_the_two_end_felsch(case):
    pres, subgens = case
    expected = _table_or_overflow(
        lambda: two_end_felsch(pres, subgens, DIFFERENTIAL_BUDGET))
    felsch = _table_or_overflow(lambda: enumerate_cosets(
        pres, subgens, max_cosets=DIFFERENTIAL_BUDGET, strategy="felsch"))
    assert felsch == expected
    if felsch is None:
        # infinite, or too large for the small budget: both overflowed, and
        # there is no count to compare with HLT
        return
    hlt = _table_or_overflow(lambda: enumerate_cosets(
        pres, subgens, max_cosets=DIFFERENTIAL_BUDGET, strategy="hlt"))
    if hlt is not None:   # HLT may need more live cosets than Felsch
        assert json.loads(hlt)["n_cosets"] == json.loads(felsch)["n_cosets"]


# -- the blind walk against the checked walk it replaced -----------------------------

def _lookahead_case(name: str):
    pres, subgens = _pinned_input(name)
    return pres, subgens, LOOKAHEAD_BUDGETS[name]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(_presentations).map(
    lambda case: (*case, DIFFERENTIAL_BUDGET)))
@example((COLLAPSE, [], 200_000))
@example(_lookahead_case("X(S3) lookahead"))
@example(_lookahead_case("X(A4) lookahead"))
@example(_lookahead_case("X(D4) lookahead"))
def test_hlt_matches_the_checked_walk_hlt(case):
    pres, subgens, budget = case
    for threshold in (enumerator.COMPACT_THRESHOLD, 1):
        with mock.patch.object(enumerator, "COMPACT_THRESHOLD", threshold):
            expected = _table_or_overflow(lambda: checked_walk_hlt(pres, subgens, budget))
            hlt = _table_or_overflow(lambda: enumerate_cosets(
                pres, subgens, max_cosets=budget, strategy="hlt"))
        assert hlt == expected


# -- in-place compaction -----------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(_presentations))
@example((COLLAPSE, []))
@example((S3, [parse_word("a", S3.generators)]))
def test_compacting_after_every_row_leaves_the_table_as_it_is(case):
    pres, subgens = case

    def hlt():
        return _table_or_overflow(lambda: enumerate_cosets(
            pres, subgens, max_cosets=DIFFERENTIAL_BUDGET, strategy="hlt"))

    expected = hlt()
    with mock.patch.object(enumerator, "COMPACT_THRESHOLD", 1):
        assert hlt() == expected


def test_compaction_keeps_the_column_and_union_find_lists(monkeypatch):
    monkeypatch.setattr(enumerator, "COMPACT_THRESHOLD", 1)
    enum = _Enumeration(COLLAPSE, [], 200_000)
    columns, p = list(enum.table), enum.p
    pointers = []
    compact = enum.compact

    def sentinels_kept():
        # every column runs past the last row and ends in -1, which holds a
        # blind walk at -1 once it meets an undefined entry
        return all(len(col) > len(p) and col[-1] == -1 for col in columns)

    def recording(pointer):
        pointers.append(pointer)
        assert sentinels_kept()
        new_pointer = compact(pointer)
        assert sentinels_kept()
        return new_pointer

    enum.compact = recording
    enum.run_hlt()
    assert pointers          # compacted mid-run
    assert sentinels_kept()
    published = enum.publish([])
    assert all(col is kept for col, kept in zip(enum.table, columns, strict=True))
    assert enum.p is p and p == list(range(published.n_cosets))
    assert published.columns == tuple(map(tuple, columns))


# -- the closure checks of publish -----------------------------------------------

def _full_enumeration(pres, subgens=()):
    enum = _Enumeration(pres, list(subgens), 100)
    enum.run_hlt()
    return enum


def test_publish_refuses_an_open_entry():
    enum = _full_enumeration(C3)
    enum.table[0][1] = -1
    with pytest.raises(WeakcommError, match="open coset table entry"):
        enum.publish([])


def test_publish_refuses_a_relator_that_does_not_close():
    enum = _full_enumeration(C3)
    # a transposition for a: every entry is defined, but a^3 moves cosets
    enum.table[0] = [1, 0, 2]
    enum.table[1] = [1, 0, 2]
    with pytest.raises(WeakcommError, match="relator does not close"):
        enum.publish([])


def _published(pres, columns):
    """Publish a hand-made table, given as its columns: each generator, then
    its inverse."""
    enum = _Enumeration(pres, [], 100)
    enum.p = list(range(len(columns[0])))
    for col, rows in zip(enum.table, columns, strict=True):
        col[:] = [*rows, -1]
    return enum.publish([])


def test_publish_refuses_a_commutator_that_does_not_close():
    """X(C2) on three cosets: a = (0 1) and a~ = (1 2) close a^2 and a~^2
    but do not commute, so [a, a~] fails; commuting involutions publish."""
    a, abar = [1, 0, 2], [0, 2, 1]
    with pytest.raises(WeakcommError, match="relator does not close"):
        _published(XC2, [a, a, abar, abar])
    assert _published(XC2, [a, a, a, a]).n_cosets == 3


def test_publish_refuses_an_inverse_column_that_does_not_invert_its_column():
    # a = (0 1 2) closes a^3, but its inverse column holds a again
    a = [1, 2, 0]
    with pytest.raises(WeakcommError, match="inverse column does not invert its column"):
        _published(C3, [a, a])
    assert _published(C3, [a, [2, 0, 1]]).n_cosets == 3


def test_a_one_coset_table_publishes():
    # itemgetter of one index returns a scalar; a single coset closes everything
    subgroup = [Word([g]) for g in XC2.generators]
    assert enumerate_cosets(XC2, subgroup).columns == ((0,),) * 4
    assert _published(XC2, [[0]] * 4).n_cosets == 1


def test_publish_refuses_a_subgroup_word_that_moves_coset_0():
    a = parse_word("a", C3.generators)
    enum = _full_enumeration(C3, [a])
    assert enum.publish([a]).n_cosets == 1
    # a table of the trivial subgroup, checked against the subgroup <a>
    enum = _full_enumeration(C3)
    enum.subgens = [(0,)]
    with pytest.raises(WeakcommError, match="subgroup word moves coset 0"):
        enum.publish([a])
