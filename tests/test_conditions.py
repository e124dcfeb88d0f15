"""srar-ra2: pointwise conditions, deciders, and the verified statements."""

import random
from collections import Counter
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import loopkit.conditions as conditions
from loopkit import (
    LoopTable,
    NotBol,
    NotSrar,
    abc_conditions,
    cor_odd_verify,
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
    first_abc_gap,
    first_quad_gap,
    first_triple_gap,
    subset_key,
)
from loopkit.core import Witness
from loopkit.fixtures import bol16, cyclic_group, moufang12

from conftest import CORPUS5

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


def _relabelled(L: LoopTable, seed: int) -> LoopTable:
    """L conjugated by a seeded permutation of all labels, identity included."""
    sigma = list(range(L.order))
    random.Random(seed).shuffle(sigma)
    raw = [[0] * L.order for _ in range(L.order)]
    for i, j in product(range(L.order), repeat=2):
        raw[sigma[i]][sigma[j]] = sigma[L.table[i][j]] + 1
    return validate_table(raw)


def _symmetric3() -> LoopTable:
    """S3, composition of the permutations of (0, 1, 2)."""
    perms = sorted(permutations(range(3)))
    return validate_table(
        [[perms.index(tuple(p[q[i]] for i in range(3))) + 1 for q in perms] for p in perms]
    )


def _octonion_units() -> LoopTable:
    """The 16 units +-e_i of the octonions, by Cayley-Dickson doubling."""

    def unit(i, j, m):
        # e_i e_j among m units as (sign, index); (a,b)(c,d) = (ac - d*b, da + bc*)
        if m == 1:
            return 1, 0
        h = m // 2
        (bi, i0), (bj, j0) = divmod(i, h), divmod(j, h)
        bar = -1 if j0 else 1  # conjugation negates every unit except e_0
        if not bi and not bj:  # (a,0)(c,0) = (ac, 0)
            return unit(i0, j0, h)
        if not bi:  # (a,0)(0,d) = (0, da)
            s, r = unit(j0, i0, h)
            return s, r + h
        if not bj:  # (0,b)(c,0) = (0, bc*)
            s, r = unit(i0, j0, h)
            return bar * s, r + h
        s, r = unit(j0, i0, h)  # (0,b)(0,d) = (-d*b, 0)
        return -bar * s, r

    raw = []
    for x in range(16):
        row = []
        for y in range(16):
            s, r = unit(x % 8, y % 8, 8)
            negative = (s < 0) ^ (x >= 8) ^ (y >= 8)
            row.append(r + 8 * negative + 1)
        raw.append(row)
    return validate_table(raw)


# every loop of orders 2..5, both fixtures and seeded relabellings of them,
# S3 (the smallest nonabelian group: D'/F' coverage without E'/F') and the
# octonion units (extra, nonassociative: D'/E' coverage without D'/F')
_FIXTURES = {"bol16": bol16(), "moufang12": moufang12()}
KERNEL_CORPUS = {
    **{f"order{L.order}-{i}": L for i, L in enumerate(CORPUS5)},
    **_FIXTURES,
    **{
        f"{name}-relabelled{seed}": _relabelled(L, seed)
        for name, L in _FIXTURES.items() for seed in (1, 2)
    },
    "s3": _symmetric3(),
    "octonions": _octonion_units(),
}


def _ref_witness(identity_id, elements, values):
    """Witness at `elements`: lhs, rhs are the first unequal pair of `values`."""
    lhs, rhs = next((a, b) for a, b in combinations(values, 2) if a != b)
    return Witness(identity_id, elements, lhs, rhs)


def _reference_scans(L: LoopTable) -> dict:
    """Every kernel consumer's result, from the per-tuple functions alone."""
    n, e, m = L.order, L.identity, L.mul
    quad_gap = allthree_gap = triple_gap = abc_gap = None
    quad_counts, triple_counts = Counter(), Counter()
    for q in product(range(n), repeat=4):
        conds = quad_conditions(L, *q)
        quad_counts[subset_key(conds)] += 1
        v = quad_values(L, *q)
        if not conds and quad_gap is None:
            quad_gap = _ref_witness("def_coverage", q, (v.s, v.t, v.u, v.v))
        if len(conds) in (0, 2) and allthree_gap is None:
            allthree_gap = _ref_witness("quad_all_three_or_one", q, (v.s, v.t, v.u, v.v))
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
        "first_quad_gap": quad_gap,
        "first_triple_gap": triple_gap,
        "first_abc_gap": abc_gap,
        "lemma_allthree": allthree_gap,
        "triple_coverage": conditions.TripleCoverage(
            all(sets), all(c & {"D", "E"} for c in sets),
            all(c & {"D", "F"} for c in sets), all(c & {"E", "F"} for c in sets),
        ),
        "triple_profile": {k: triple_counts[k] for k in PROFILE_KEYS},
        "quad_profile": {k: quad_counts[k] for k in PROFILE_KEYS},
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


def test_no_condition_set_has_size_two():
    # any two of D, E, F force S=T=U=V, which is the third, so the
    # all-three-or-one lemma can only ever flag the empty set
    s, t, u, v = np.array(list(product(range(4), repeat=4)), dtype=np.uint8).T
    codes = set(conditions._code(s, t, u, v).tolist())
    assert len(s) == 256 and codes == {0, 1, 2, 4, 7}


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
