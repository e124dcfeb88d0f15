"""srar-ra2: pointwise conditions, deciders, and the verified statements."""

from collections import Counter
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loopkit.conditions as conditions
from loopkit import (
    IdentityId,
    ImplicationCheck,
    LoopTable,
    NotBol,
    NotSrar,
    abc_conditions,
    check_identity,
    cor_odd_verify,
    enumerate_loops,
    is_ra2,
    is_srar,
    lemma_allthree,
    lemma_key_mfg,
    lemma_lip_equiv,
    oracle_equiv_ra2,
    oracle_equiv_srar,
    quad_conditions,
    quad_profile,
    quad_values,
    thm_main_verify,
    triple_conditions,
    triple_coverage,
    triple_profile,
    validate_table,
)
from loopkit.conditions import (
    PROFILE_KEYS,
    LoopFacts,
    abc_gaps,
    first_abc_gap,
    first_quad_gap,
    first_triple_gap,
    subset_key,
)
from loopkit.core import Witness
from loopkit.fixtures import bol16, cyclic_group, moufang12
from loopkit.identities import Products

from conftest import CORPUS5, chein_a4, direct_product, octonion_units, relabelled

# machine-verified ground truth for the order-12 Moufang fixture: the
# printed table yields products (11,12,11,12) at (2,5,9), the F' pattern
T2_SINGLETON_TRIPLES = {(2, 3, 8): {"D"}, (2, 5, 9): {"F"}, (2, 4, 10): {"F"}}

# first E'-only triple of the order-12 fixture, frozen from an
# independent scan; its products are (12,11,11,12)
T2_FIRST_E_ONLY = (4, 2, 7)

# triple-profile counts of the order-12 fixture (independent scan)
T2_TRIPLE_PROFILE = {"none": 0, "D": 324, "E": 324, "F": 432,
                     "DE": 0, "DF": 0, "EF": 0, "DEF": 648}


def _idx(*one_indexed):
    return tuple(v - 1 for v in one_indexed)


def test_quad_values_bol16(t1):
    q = quad_values(t1, *_idx(2, 2, 3, 9))
    assert (q.s + 1, q.t + 1, q.u + 1, q.v + 1) == (11, 9, 13, 16)
    assert quad_conditions(t1, *_idx(2, 2, 3, 9)) == frozenset()


def test_quad_values_moufang12(t2):
    q = quad_values(t2, *_idx(2, 3, 8, 1))
    assert q.s == q.t == 8 - 1
    assert q.u == q.v == 7 - 1
    assert quad_conditions(t2, *_idx(2, 3, 8, 1)) == frozenset({"D"})


@given(st.sampled_from(CORPUS5), st.data())
def test_quad_values_with_identity_slots(L, data):
    x = data.draw(st.integers(0, L.order - 1))
    e = L.identity
    q = quad_values(L, x, e, e, e)
    assert q.s == q.t == q.u == q.v == x
    assert quad_conditions(L, x, e, e, e) == frozenset({"D", "E", "F"})


@given(st.sampled_from(CORPUS5), st.data())
def test_quad_conditions_match_value_comparisons(L, data):
    n = L.order
    x, y, z, w = (data.draw(st.integers(0, n - 1)) for _ in range(4))
    q = quad_values(L, x, y, z, w)
    conds = quad_conditions(L, x, y, z, w)
    assert ("D" in conds) == (q.s == q.t and q.u == q.v)
    assert ("E" in conds) == (q.s == q.v and q.t == q.u)
    assert ("F" in conds) == (q.s == q.u and q.t == q.v)


def test_triple_conditions_moufang12_singletons(t2):
    for (x, y, z), expect in T2_SINGLETON_TRIPLES.items():
        assert triple_conditions(t2, *_idx(x, y, z)) == frozenset(expect)
    # ... and the matching w=1 quadruples give the unprimed singletons
    for (x, y, z), expect in T2_SINGLETON_TRIPLES.items():
        assert quad_conditions(t2, *_idx(x, y, z, 1)) == frozenset(expect)


def test_first_e_only_triple_moufang12(t2):
    x, y, z = _idx(*T2_FIRST_E_ONLY)
    assert triple_conditions(t2, x, y, z) == frozenset({"E"})
    m = t2.mul
    assert (m(m(x, y), z), m(x, m(y, z)), m(m(x, z), y), m(x, m(z, y))) == _idx(
        12, 11, 11, 12
    )
    # nothing earlier in scan order is an E'-only triple
    n = t2.order
    for xx in range(n):
        for yy in range(n):
            for zz in range(n):
                if (xx, yy, zz) == (x, y, z):
                    return
                assert triple_conditions(t2, xx, yy, zz) != frozenset({"E"})


@given(st.sampled_from(CORPUS5), st.data())
def test_setting_w_to_identity_gives_primed_conditions(L, data):
    n = L.order
    x, y, z = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    assert quad_conditions(L, x, y, z, L.identity) == triple_conditions(L, x, y, z)


def test_setting_w_to_identity_exhaustive_moufang12(t2):
    n = t2.order
    e = t2.identity
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert quad_conditions(t2, x, y, z, e) == triple_conditions(t2, x, y, z)


def test_abc_conditions_examples(t2):
    plain, starred = abc_conditions(t2, *_idx(2, 3, 8))
    assert starred == frozenset({"A"})  # identifies with the {D'} singleton
    z6 = cyclic_group(6)
    for x in range(6):
        for y in range(6):
            for z in range(6):
                plain, starred = abc_conditions(z6, x, y, z)
                assert plain == frozenset({"A", "B", "C"})
                assert starred == frozenset({"A", "B", "C"})


@given(st.sampled_from(CORPUS5), st.data())
def test_abc_starred_equals_triple_conditions(L, data):
    n = L.order
    x, y, z = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    _, starred = abc_conditions(L, x, y, z)
    mapped = frozenset({"A": "D", "B": "E", "C": "F"}[c] for c in starred)
    assert mapped == triple_conditions(L, x, y, z)


def test_abc_starred_equals_triple_conditions_bol16_sample(t1):
    _, starred = abc_conditions(t1, *_idx(2, 2, 3))
    mapped = frozenset({"A": "D", "B": "E", "C": "F"}[c] for c in starred)
    assert mapped == triple_conditions(t1, *_idx(2, 2, 3))


def test_is_srar_fixtures(t1, t2, z5):
    ok, w = is_srar(t1)
    assert not ok
    assert w.identity_id == "def_coverage"
    assert w.one_indexed() == (2, 2, 3, 9)
    assert is_srar(t2) == (True, None)
    assert is_srar(z5) == (True, None)


def test_is_srar_bol_failure_comes_first(non_bol5):
    ok, w = is_srar(non_bol5)
    assert not ok and w.identity_id == "right_bol"


def test_is_ra2_fixtures(t1, t2, z4):
    ok, w = is_ra2(t1)
    assert not ok and w.identity_id == "right_moufang"
    assert is_ra2(t2) == (True, None)
    assert is_ra2(z4) == (True, None)


def test_triple_coverage_fixtures(t1, t2, z6):
    cov1 = triple_coverage(t1)
    assert cov1.def_everywhere
    cov2 = triple_coverage(t2)
    assert cov2.def_everywhere
    assert not cov2.de_everywhere
    assert not cov2.df_everywhere
    assert not cov2.ef_everywhere
    cov6 = triple_coverage(z6)
    assert cov6 == conditions.TripleCoverage(True, True, True, True)


def test_triple_profile_moufang12(t2):
    prof = triple_profile(t2)
    assert prof.counts == T2_TRIPLE_PROFILE
    assert prof.total == 12**3 == sum(prof.counts.values())
    assert list(prof.counts) == list(PROFILE_KEYS)


def test_triple_profile_sums(t1):
    prof = triple_profile(t1)
    assert sum(prof.counts.values()) == prof.total == 16**3
    assert prof.counts["none"] == 0  # D'/E'/F' covers every triple


def test_quad_profile_consistency(t2, z4):
    prof = quad_profile(z4)
    assert prof.counts["DEF"] == 4**4 and prof.total == 4**4
    prof2 = quad_profile(t2)
    assert sum(prof2.counts.values()) == 12**4
    assert prof2.counts["none"] == 0  # SRAR
    # all-three-or-one: no subsets of size 2
    assert prof2.counts["DE"] == prof2.counts["DF"] == prof2.counts["EF"] == 0


def _symmetric3() -> LoopTable:
    """S3, composition of the permutations of (0, 1, 2)."""
    perms = sorted(permutations(range(3)))
    return validate_table(
        [[perms.index(tuple(p[q[i]] for i in range(3))) + 1 for q in perms] for p in perms]
    )


# every loop of orders 2..5, both fixtures and seeded relabellings of them,
# S3 (the smallest nonabelian group: D'/F' coverage without E'/F') and the
# octonion units (extra, nonassociative: D'/E' coverage without D'/F')
_FIXTURES = {"bol16": bol16(), "moufang12": moufang12()}
KERNEL_CORPUS = {
    **{f"order{L.order}-{i}": L for i, L in enumerate(CORPUS5)},
    **_FIXTURES,
    **{
        f"{name}-relabelled{seed}": relabelled(L, seed)
        for name, L in _FIXTURES.items() for seed in (1, 2)
    },
    "s3": _symmetric3(),
    "octonions": octonion_units(),
}


def _ref_witness(identity_id, elements, values):
    """Witness at `elements`: lhs, rhs are the first unequal pair of `values`."""
    lhs, rhs = next((a, b) for a, b in combinations(values, 2) if a != b)
    return Witness(identity_id, elements, lhs, rhs)


def _reference_scans(L: LoopTable) -> dict:
    """Every kernel consumer's result, from the per-tuple functions alone."""
    quad_gap = allthree_gap = None
    quad_counts = Counter()
    for q in product(range(L.order), repeat=4):
        conds = quad_conditions(L, *q)
        quad_counts[subset_key(conds)] += 1
        v = quad_values(L, *q)
        if not conds and quad_gap is None:
            quad_gap = _ref_witness("def_coverage", q, (v.s, v.t, v.u, v.v))
        if len(conds) in (0, 2) and allthree_gap is None:
            allthree_gap = _ref_witness("quad_all_three_or_one", q, (v.s, v.t, v.u, v.v))
    return {
        "first_quad_gap": quad_gap,
        "lemma_allthree": allthree_gap,
        "quad_profile": {k: quad_counts[k] for k in PROFILE_KEYS},
        **_reference_triple_scans(L),
    }


def _reference_triple_scans(L: LoopTable) -> dict:
    """The triple half of _reference_scans: every triple consumer's result."""
    n, e, m = L.order, L.identity, L.mul
    triple_gap = abc_gap = None
    triple_counts = Counter()
    triple_sets = {}
    for x, y, z in product(range(n), repeat=3):
        conds = triple_sets[x, y, z] = triple_conditions(L, x, y, z)
        triple_counts[subset_key(conds)] += 1
        if not conds and triple_gap is None:
            v = quad_values(L, x, y, z, e)  # w = e gives (xy)z, x(yz), (xz)y, x(zy)
            triple_gap = _ref_witness("def_prime_coverage", (x, y, z), (v.s, v.t, v.u, v.v))
        if not abc_conditions(L, x, y, z)[0] and abc_gap is None:
            p = (m(m(x, y), z), m(m(y, x), z), m(x, m(y, z)), m(y, m(x, z)))
            abc_gap = _ref_witness("abc_coverage", (x, y, z), p)
    sets = triple_sets.values()
    return {
        "first_triple_gap": triple_gap,
        "first_abc_gap": abc_gap,
        "triple_coverage": conditions.TripleCoverage(
            all(sets), all(c & {"D", "E"} for c in sets),
            all(c & {"D", "F"} for c in sets), all(c & {"E", "F"} for c in sets),
        ),
        "triple_profile": {k: triple_counts[k] for k in PROFILE_KEYS},
    }


@pytest.mark.parametrize("name", KERNEL_CORPUS)
def test_kernel_matches_per_tuple_reference(name):
    L = KERNEL_CORPUS[name]
    ref = _reference_scans(L)
    assert first_quad_gap(L) == ref["first_quad_gap"]
    assert first_triple_gap(L) == ref["first_triple_gap"]
    assert first_abc_gap(L) == ref["first_abc_gap"]
    assert triple_coverage(L) == ref["triple_coverage"]
    assert triple_profile(L).counts == ref["triple_profile"]
    assert quad_profile(L).counts == ref["quad_profile"]
    if is_srar(L)[0]:
        assert lemma_allthree(L) == ref["lemma_allthree"]
    else:
        with pytest.raises(NotSrar):
            lemma_allthree(L)


def _value_patterns(labels=(0, 1, 2, 3)):
    """Each of the 4^4 value patterns (s, t, u, v) on a mirrored pair of cells.

    s, t sit at (i, j) of a, b and u, v at (j, i), so the transposed
    arrays give u, v there.  Returns {pattern: (i, j)}, a and b, which
    hold labels[s], labels[t], ... in place of s, t, ... .
    """
    cells = dict(zip(product(range(4), repeat=4), combinations(range(24), 2)))
    a, b = np.zeros((2, 24, 24), dtype=np.intp)
    for (s, t, u, v), (i, j) in cells.items():
        a[i, j], b[i, j], a[j, i], b[j, i] = (labels[k] for k in (s, t, u, v))
    return cells, a, b


def test_no_condition_set_has_size_two():
    # any two of D, E, F force S=T=U=V, which is the third, so the
    # all-three-or-one lemma can only ever flag the empty set; each
    # pattern's code is checked against the definitions
    cells, a, b = _value_patterns()
    code = conditions._code(a, b, (1, 0))
    for (s, t, u, v), (i, j) in cells.items():
        want = (s == t and u == v) | (s == v and t == u) << 1 | (s == u and t == v) << 2
        assert code[i, j] == want, (s, t, u, v)
    assert len(cells) == 256 and {int(code[ij]) for ij in cells.values()} == {0, 1, 2, 4, 7}


@pytest.mark.parametrize("labels, dtype",
                         [((0, 1, 2, 3), np.uint8), ((0, 255, 256, 300), np.uint32)])
def test_triple_counts_read_the_condition_code_off_the_parity(labels, dtype):
    # each value pattern alone, at the mirrored cells of a 2 x 2 array
    # whose diagonal holds one value (code DEF), from the values and from
    # their Sidon codes: it counts twice under its definitional code
    C = conditions._sidon_codes(labels[-1] + 1)
    cells, a, b = _value_patterns(labels)
    for (s, t, u, v), (i, j) in cells.items():
        a2, b2 = (x[np.ix_((i, j), (i, j))] for x in (a, b))
        g = C[a2] ^ C[b2]
        gaps = conditions._parity_gaps(g, (1, 0))
        want = (s == t and u == v) | (s == v and t == u) << 1 | (s == u and t == v) << 2
        expected = [0] * 8
        expected[want] += 2
        expected[7] += 2
        for values in (a2, C[a2]):
            assert conditions._triple_code_counts(g, gaps, values, (1, 0)) == tuple(expected)
    assert C.dtype == dtype and len(cells) == 256


@pytest.mark.parametrize("labels", [(0, 1, 2, 3), (0, 255, 256, 300)])
@pytest.mark.parametrize("axes", [conditions._QUAD_AXES, conditions._ABC_AXES,
                                  conditions._TRIPLE_AXES])
def test_parity_gaps_flag_exactly_the_empty_condition_sets(axes, labels):
    # every value pattern, on the two axes that `axes` swaps; the second
    # labelling puts two values past 255, so its codes need uint32
    cells, a, b = _value_patterns(labels)
    kept = tuple(k for k, ax in enumerate(axes) if ax == k)
    a, b = np.expand_dims(a, kept), np.expand_dims(b, kept)
    C = conditions._sidon_codes(labels[-1] + 1)
    gaps = conditions._parity_gaps(C[a] ^ C[b], axes).reshape(24, 24)
    assert np.array_equal(gaps, (conditions._code(a, b, axes) == 0).reshape(24, 24))
    for pattern, (i, j) in cells.items():
        odd = any(pattern.count(value) % 2 for value in pattern)
        assert gaps[i, j] == gaps[j, i] == odd, pattern
    # 256 patterns less the 4 constant ones and the 6 * 6 with two values
    # twice (6 pairs of values, 6 ways to place them)
    assert gaps.sum() == 2 * (256 - 4 - 36)


def _gf2_remainder(p: int, q: int) -> int:
    """p mod q as polynomials over GF(2), bit i the coefficient of x^i."""
    while p.bit_length() >= q.bit_length():
        p ^= q << p.bit_length() - q.bit_length()
    return p


def test_sidon_code_table():
    # the Sidon property, exhaustively for m = 4 and 8: C[a] ^ C[b] is
    # nonzero and tells the pair {a, b}, so four codes XOR to 0 only
    # when the four values pair up
    for n in (16, 256):
        C = conditions._sidon_codes(n).astype(np.int64)
        sums = (C[:, None] ^ C)[np.triu_indices(n, 1)]
        assert sums.all() and len(np.unique(sums)) == len(sums) == n * (n - 1) // 2
    # each modulus has degree m and no factor of degree 1 to m/2
    for m, modulus, _ in conditions._SIDON_FIELDS:
        assert modulus.bit_length() == m + 1
        assert all(_gf2_remainder(modulus, q) for q in range(2, 1 << m // 2 + 1))
    # uint8 up to order 16, uint16 up to 256, uint32 above
    assert [conditions._sidon_codes(n).dtype for n in (1, 16, 17, 256, 257, 300)] == [
        np.uint8, np.uint8, np.uint16, np.uint16, np.uint32, np.uint32]


def _first_empty_abc(L: LoopTable) -> Witness | None:
    """The first triple with no A, B or C, from the per-tuple functions."""
    m = L.mul
    for x, y, z in product(range(L.order), repeat=3):
        if not abc_conditions(L, x, y, z)[0]:
            p = (m(m(x, y), z), m(m(y, x), z), m(x, m(y, z)), m(y, m(x, z)))
            return _ref_witness("abc_coverage", (x, y, z), p)
    return None


def test_uint16_codes_give_the_first_gaps():
    # order 80 needs uint16 codes; Bol 16.7.2.1 relabelled with seed 0
    # has its first gaps near the start, and Z5 keeps them there
    B, Z = relabelled(bol16(), 0), cyclic_group(5)
    L = validate_table([
        [B.table[i // 5][j // 5] * 5 + Z.table[i % 5][j % 5] + 1 for j in range(80)]
        for i in range(80)
    ])
    assert conditions._sidon_codes(80).dtype == np.uint16
    assert first_quad_gap(L) == _first_empty_quad(L) is not None
    assert first_abc_gap(L) == _first_empty_abc(L) is not None


def test_gaps_are_decided_without_the_condition_code(monkeypatch):
    expected = {}
    for L in (bol16(), moufang12()):
        f = LoopFacts(L)
        expected[L.order] = (first_quad_gap(L), abc_gaps(L), f.srar, f.ra2, f.coverage,
                             triple_profile(L))

    def forbidden(*args):
        raise AssertionError("a coverage gap read the D/E/F code")

    monkeypatch.setattr(conditions, "_code", forbidden)
    # fresh tables and facts, so that no cache built before the patch answers
    for L in (bol16(), moufang12()):
        f = LoopFacts(L)
        quad, abc, srar, ra2, coverage, profile = expected[L.order]
        assert first_quad_gap(L) == quad and np.array_equal(abc_gaps(L), abc)
        assert (f.srar, f.ra2) == (srar, ra2)
        assert f.coverage == coverage and triple_profile(f) == profile
    assert {n: e[2:4] for n, e in expected.items()} == {16: (False, False), 12: (True, True)}


# S3 x Z3, a group, and M(A4, 2), Moufang but not RA2, need uint16 codes
@pytest.mark.parametrize("build", [lambda: direct_product(_symmetric3(), cyclic_group(3)),
                                   chein_a4], ids=["s3xz3", "chein_a4"])
def test_uint16_codes_give_the_triple_counts(build):
    L = relabelled(build(), 5)
    ref = _reference_triple_scans(L)
    assert 17 <= L.order <= 24 and conditions._sidon_codes(L.order).dtype == np.uint16
    assert triple_profile(L).counts == ref["triple_profile"]
    assert LoopFacts(L).coverage == triple_coverage(L) == ref["triple_coverage"]
    assert first_triple_gap(L) == ref["first_triple_gap"]
    assert first_abc_gap(L) == ref["first_abc_gap"]


# order5-6 is the first order-5 loop that is not right Bol
@pytest.mark.parametrize("name", ["bol16", "moufang12", "s3", "octonions", "order5-6"])
def test_verifiers_read_the_same_facts_from_a_table_or_loop_facts(name):
    L = KERNEL_CORPUS[name]
    f = LoopFacts(L)
    for fn in (is_srar, is_ra2, triple_coverage, triple_profile, first_triple_gap,
               first_abc_gap):
        assert fn(f) == fn(L), fn.__name__
    for fn in (lemma_allthree, lemma_lip_equiv, lemma_key_mfg, thm_main_verify):
        try:
            expected = fn(L)
        except (NotBol, NotSrar) as exc:
            with pytest.raises(type(exc)):
                fn(f)
        else:
            assert fn(f) == expected, fn.__name__
    if L.order <= 6:
        assert oracle_equiv_srar(f) == oracle_equiv_srar(L)
        assert oracle_equiv_ra2(f) == oracle_equiv_ra2(L)


def test_subset_key_canonical():
    assert subset_key(frozenset()) == "none"
    assert subset_key(frozenset({"F", "D"})) == "DF"
    assert subset_key(frozenset({"D", "E", "F"})) == "DEF"


def test_lemma_allthree(t2, z4, t1):
    assert lemma_allthree(t2) is None
    assert lemma_allthree(z4) is None
    with pytest.raises(NotSrar):
        lemma_allthree(t1)


def test_lemma_lip_equiv(t1, t2, non_bol5):
    assert lemma_lip_equiv(t1) is None
    assert lemma_lip_equiv(t2) is None
    with pytest.raises(NotBol):
        lemma_lip_equiv(non_bol5)


def test_lemma_key_mfg(t1, t2, z6, non_bol5):
    assert lemma_key_mfg(z6) is True
    assert lemma_key_mfg(t2) is True  # Moufang, so LIP holds pairwise
    assert lemma_key_mfg(t1) is False  # non-Moufang Bol: hypothesis must fail
    with pytest.raises(NotBol):
        lemma_key_mfg(non_bol5)


def test_thm_main_verify(t1, t2, z6, non_bol5):
    rep = thm_main_verify(z6)
    for check in (rep.de_implies_ra2_extra, rep.df_implies_group, rep.ef_implies_abelian):
        assert check.hypothesis and check.conclusion and check.implication_ok
    rep2 = thm_main_verify(t2)
    assert not rep2.de_implies_ra2_extra.hypothesis
    assert not rep2.df_implies_group.hypothesis
    assert not rep2.ef_implies_abelian.hypothesis
    assert rep2.all_ok()
    assert thm_main_verify(t1).all_ok()
    with pytest.raises(NotBol):
        thm_main_verify(non_bol5)


def test_cor_odd_verify(t2, z5):
    c = cor_odd_verify(z5)
    assert c.hypothesis and c.conclusion and c.implication_ok
    c2 = cor_odd_verify(t2)
    assert not c2.hypothesis and c2.implication_ok
    c3 = cor_odd_verify(cyclic_group(7))
    assert c3.hypothesis and c3.implication_ok


@given(st.sampled_from(CORPUS5))
def test_ra2_implies_srar_small_corpus(L):
    if is_ra2(L)[0]:
        assert is_srar(L)[0]


@given(st.sampled_from(CORPUS5))
def test_srar_triples_all_three_or_one(L):
    if not is_srar(L)[0]:
        return
    n = L.order
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert len(triple_conditions(L, x, y, z)) in (1, 3)


def test_first_quad_gap_none_on_srar(t2):
    assert first_quad_gap(t2) is None


def _first_empty_quad(L: LoopTable) -> Witness | None:
    """The first quadruple with no D, E or F, from the per-tuple functions."""
    for q in product(range(L.order), repeat=4):
        if not quad_conditions(L, *q):
            v = quad_values(L, *q)
            return _ref_witness("def_coverage", q, (v.s, v.t, v.u, v.v))
    return None


# seeded relabellings of Bol 16.7.2.1 whose first quadruple gap is at
# x = 0, 1, 2, 3 and 4: the first four x-blocks, x = 2 and 3 sharing one
@pytest.mark.parametrize("seed, x", [(0, 0), (1, 1), (13, 2), (151, 3), (454, 4)])
def test_quad_gap_witness_in_each_block(seed, x):
    L = relabelled(bol16(), seed)
    w = first_quad_gap(L)
    assert w.elements[0] == x
    assert w == _first_empty_quad(L)


def test_srar_loop_has_no_gap_in_any_block(t2):
    for L in (t2, relabelled(t2, 3)):
        assert first_quad_gap(L) is None is _first_empty_quad(L)
        assert lemma_allthree(L) is None


# The first block takes the x rows that fit in 2^12 quadruples, at least
# one, so up to order 8 one block holds all of n^4; then blocks double.
@pytest.mark.parametrize("n, blocks", [
    (2, [(0, 2)]),
    # 2^12 // 12^3 = 2 first elements, then 2, 4 and the last 4
    (12, [(0, 2), (2, 2), (4, 4), (8, 4)]),
    (16, [(0, 1), (1, 1), (2, 2), (4, 4), (8, 8)]),
    # 24^3 = 13 824, so at most 4 first elements fit in 2^16 quadruples
    (24, [(0, 1), (1, 1), (2, 2), (4, 4), (8, 4), (12, 4), (16, 4), (20, 4)]),
    # one slab of 41^3 is already over 2^16: one first element per block
    (41, [(x, 1) for x in range(41)]),
    (6, [(0, 6)]),
    (8, [(0, 8)]),
])
def test_quad_blocks_double_up_to_the_cap(n, blocks):
    L = relabelled(cyclic_group(n), n)
    got = []
    for x0, s, t in conditions._quad_blocks(Products(L), L.array):
        got.append((x0, len(s)))
        assert s.shape == t.shape == (len(s), n, n, n)
        for i, y, z, w in product((0, len(s) - 1), (0, n - 1), (1,), (0, n - 2)):
            q = quad_values(L, x0 + i, y, z, w)
            assert (s[i, y, z, w], t[i, y, z, w]) == (q.s, q.t)
    assert got == blocks


def _central_extension(base: LoopTable, m: int, f) -> LoopTable:
    """(g, a)(h, b) = (gh, a + b + f[g][h] mod m), element g + |base| a."""
    k = base.order
    return validate_table([
        [base.table[i % k][j % k] + k * ((i // k + j // k + f[i % k][j % k]) % m) + 1
         for j in range(k * m)]
        for i in range(k * m)
    ])


# Extensions of Z4 with nonassociative cocycles, so each has a quadruple
# gap, and seeds of `relabelled` that put its first gap at x.  Order 8
# is one block, whose rows the old schedule split at x = 1, 2 and 4;
# order 12's blocks start at x = 0, 2, 4 and 8, so x = 1 and 3 end one
# and x = 2 and 4 start the next.
_GAP_EXTENSIONS = {
    8: (2, ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1))),
    12: (3, ((0, 0, 0, 0), (0, 0, 2, 0), (0, 2, 2, 2), (0, 0, 0, 0))),
}


@pytest.mark.parametrize("n, seed, x", [
    (8, 0, 1), (8, 3, 2), (8, 36, 4),
    (12, 1, 1), (12, 9, 2), (12, 11, 3), (12, 38, 4),
])
def test_quad_gap_witness_at_orders_8_and_12(n, seed, x):
    m, f = _GAP_EXTENSIONS[n]
    L = relabelled(_central_extension(cyclic_group(4), m, f), seed)
    w = first_quad_gap(L)
    assert L.order == n and w.elements[0] == x
    assert w == _first_empty_quad(L)


@given(st.permutations(list(range(12))))
def test_classification_is_relabeling_invariant(perm):
    # conjugating the table by any permutation preserves every flag and
    # the triple profile; exercises identity detection off position 1 too
    from loopkit import validate_table
    from loopkit.catalog import classify_loop
    from loopkit.fixtures import moufang12

    base = moufang12()
    inv = [0] * 12
    for i, p in enumerate(perm):
        inv[p] = i
    raw = [
        [perm[base.table[inv[i]][inv[j]]] + 1 for j in range(12)]
        for i in range(12)
    ]
    relabeled = validate_table(raw)
    got = classify_loop("x", relabeled)
    ref = classify_loop("x", base)
    assert got == ref


def test_cor_odd_verify_returns_one_shared_check_per_outcome(z5):
    loops = [z5]
    enumerate_loops(5, loops.append)
    enumerate_loops(6, loops.append)
    enumerate_loops(7, loops.append, part_index=150, part_count=309)
    seen = {}
    for L in loops:
        h = (
            L.order % 2 == 1
            and check_identity(L, IdentityId.RIGHT_BOL) is None
            and first_quad_gap(L) is None
        )
        c = check_identity(L, IdentityId.ASSOCIATIVE) is None
        got = cor_odd_verify(L)
        assert got == ImplicationCheck(h, c, not h or c)
        assert seen.setdefault((h, c), got) is got
    # (True, False) would be a counterexample to the corollary
    assert set(seen) == {(False, False), (False, True), (True, True)}


def test_extra_flag_and_witness_share_one_scan(scan_counts):
    # the flag tests the failure that witness(EXTRA) explains, so reading
    # both costs one extra scan per loop
    for L in (moufang12(), bol16(), relabelled(cyclic_group(8), 0)):
        f = LoopFacts(L)
        assert f.extra is (f.witness(IdentityId.EXTRA) is None)
    assert scan_counts["extra"] == 3


def test_condition_flags_read_first_share_the_identity_scans(scan_counts):
    # srar and ra2 read their identity half off the cached scan, so reading
    # them before the base flag and the witnesses still scans right Bol and
    # right Moufang once per loop, and gives the flags of a base-first read
    loops = [moufang12(), bol16()]
    enumerate_loops(5, loops.append)
    base_first = []
    for L in loops:
        f = LoopFacts(L)
        base_first.append((f.right_bol, f.srar, f.moufang, f.ra2))
    scan_counts.clear()
    for L, (right_bol, srar, moufang, ra2) in zip(loops, base_first):
        f = LoopFacts(L)
        assert f.srar is srar and f.right_bol is right_bol
        assert (f.witness(IdentityId.RIGHT_BOL) is None) is right_bol
        assert (f.srar_witness is None) is srar
        assert f.ra2 is ra2 and f.moufang is moufang
        assert (f.ra2_witness is None) is ra2
    assert scan_counts["right_bol"] == scan_counts["right_moufang"] == len(loops)
    # M(S3,2) is RA2; Bol 16.7.2.1 is right Bol with a quadruple gap
    assert base_first[:2] == [(True, True, True, True), (True, False, False, False)]


def test_shared_product_arrays_are_built_once_per_loop(scan_counts, monkeypatch):
    # on M(S3,2) both right Bol and right Moufang hold, so both numpy tails
    # run to their end and read ((xy)z)y; srar, ra2 and the triple profile
    # all read C[(xy)z], the quadruple scan's S side and the triple masks'
    # first term
    builds = Counter()
    for owner, attr in ((Products, "xy_z_y"), (LoopFacts, "code_xy_z")):
        cached = getattr(owner, attr)

        def counted(p, build=cached.fn, attr=attr):
            builds[attr] += 1
            return build(p)
        monkeypatch.setattr(cached, "fn", counted)
    f = LoopFacts(moufang12())
    assert f.right_bol and f.moufang
    assert scan_counts["numpy_scans"] == 2 and builds == {"xy_z_y": 1}
    builds.clear()
    f = LoopFacts(moufang12())
    assert f.srar and f.ra2 and sum(triple_profile(f).counts.values()) == 12**3
    assert builds == {"xy_z_y": 1, "code_xy_z": 1}


def test_ra2_oracle_and_verdict_share_one_abc_gap_build(scan_counts):
    # on a Moufang loop oracle_equiv_ra2 reads the A/B/C parity gaps and
    # is_ra2 reads them again for its coverage gap, RA2 or not (M(A4, 2)
    # is Moufang but not RA2): one build per LoopFacts
    loops = ((moufang12(), True), (chein_a4(), False), (cyclic_group(6), True))
    for built, (L, ra2) in enumerate(loops, 1):
        f = LoopFacts(L)
        assert oracle_equiv_ra2(f)
        assert scan_counts["abc_gaps"] == built
        assert is_ra2(f)[0] is ra2
        assert scan_counts["abc_gaps"] == built


def test_cor_odd_verify_scans_associativity_only_on_right_bol_loops(scan_counts):
    # every group is right Bol, so a loop failing right Bol is decided
    # (False, False) by its one scan; the 92 right Bol loops of orders
    # 2-6 (1 + 1 + 4 + 6 + 80) scan associativity, and the 7 of odd
    # order scan quadruples first, each from a product cache of its own
    loops = []
    for n in range(2, 7):
        enumerate_loops(n, loops.append)
    for L in loops:
        cor_odd_verify(L)
    assert len(loops) == 9470
    assert scan_counts == {"right_bol": 9470, "associative": 92, "quad_scans": 7, "products": 7}
