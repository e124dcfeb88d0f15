"""gf2-loop-ring: mask algebra, product table, and both ring-identity oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopkit import (
    Gf2Elem,
    LengthMismatch,
    OrderExceedsCap,
    RingIdentityId,
    basis,
    enumerate_loops,
    low_weight_ring_check,
    oracle_equiv_ra2,
    oracle_equiv_srar,
    product_table,
    ring_identity_check,
    ring_one,
    rmul,
    validate_table,
    zero,
)
from loopkit import core, gf2ring, identities
from loopkit.conditions import LoopFacts, abc_gaps, first_quad_gap
from loopkit.core import x_blocks
from loopkit.fixtures import bol16, cyclic_group, moufang12
from loopkit.identities import IdentityId, check_identity

from conftest import CORPUS5, NON_BOL_5_RAW, direct_product, relabelled

THREE_VARIABLE = (
    IdentityId.RIGHT_BOL, IdentityId.RIGHT_MOUFANG, IdentityId.EXTRA, IdentityId.ASSOCIATIVE,
)

masks6 = st.integers(0, 63)


def test_gf2elem_basics():
    a = Gf2Elem(6, 0b101001)
    assert a.support() == (1, 4, 6)
    assert a.describe() == "1+4+6"
    assert zero(6).describe() == "0"
    assert (a + a).bits == 0
    with pytest.raises(LengthMismatch):
        a + Gf2Elem(5, 1)
    with pytest.raises(LengthMismatch):
        Gf2Elem(3, 0b1000)


def test_rmul_table_entries(t2):
    # basis products follow the Cayley table: 2*3 = 1 in the order-12 fixture
    assert rmul(t2, basis(12, 1), basis(12, 2)) == basis(12, 0)
    # (2 + 3) * 8 = 2*8 + 3*8 = 9 + 7 by distributivity
    a = basis(12, 1) + basis(12, 2)
    assert rmul(t2, a, basis(12, 7)) == basis(12, 8) + basis(12, 6)


def test_rmul_length_mismatch(t2, z6):
    with pytest.raises(LengthMismatch):
        rmul(t2, basis(6, 0), basis(12, 0))
    with pytest.raises(LengthMismatch):
        rmul(z6, basis(6, 0), basis(12, 0))


@given(masks6, masks6, masks6)
def test_rmul_distributes_over_xor(a, b, c):
    z6 = cyclic_group(6)
    ea, eb, ec = Gf2Elem(6, a), Gf2Elem(6, b), Gf2Elem(6, c)
    assert rmul(z6, ea + eb, ec) == rmul(z6, ea, ec) + rmul(z6, eb, ec)
    assert rmul(z6, ec, ea + eb) == rmul(z6, ec, ea) + rmul(z6, ec, eb)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_table_matches_rmul_exhaustively(n):
    for L in [Lp for Lp in CORPUS5 if Lp.order == n]:
        P = product_table(L)
        N = 1 << n
        for a in range(N):
            for b in range(N):
                assert int(P[a, b]) == rmul(L, Gf2Elem(n, a), Gf2Elem(n, b)).bits


@given(masks6, masks6)
def test_product_table_matches_rmul_sampled_order6(a, b):
    z6 = cyclic_group(6)
    P = product_table(z6)
    assert int(P[a, b]) == rmul(z6, Gf2Elem(6, a), Gf2Elem(6, b)).bits


def test_rmul_distributivity_exhaustive_order_up_to_4():
    for L in [Lp for Lp in CORPUS5 if Lp.order <= 4]:
        n = L.order
        N = 1 << n
        elems = [Gf2Elem(n, m) for m in range(N)]
        for a in elems:
            for b in elems:
                ab = a + b
                for c in elems:
                    assert rmul(L, ab, c) == rmul(L, a, c) + rmul(L, b, c)
                    assert rmul(L, c, ab) == rmul(L, c, a) + rmul(L, c, b)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_group_ring_associative_sampled_order8(a, b, c):
    z8 = cyclic_group(8)
    ea, eb, ec = Gf2Elem(8, a), Gf2Elem(8, b), Gf2Elem(8, c)
    assert rmul(z8, rmul(z8, ea, eb), ec) == rmul(z8, ea, rmul(z8, eb, ec))


def test_ring_one_is_two_sided_identity():
    z8 = cyclic_group(8)
    P = product_table(z8)
    e = ring_one(z8).bits
    N = 1 << 8
    assert np.array_equal(P[e], np.arange(N))
    assert np.array_equal(P[:, e], np.arange(N))


def test_group_ring_is_associative_exhaustive_order4():
    z4 = cyclic_group(4)
    P = product_table(z4)
    N = 16
    for a in range(N):
        for b in range(N):
            ab = int(P[a, b])
            for c in range(N):
                assert int(P[ab, c]) == int(P[a, int(P[b, c])])


@given(masks6, masks6, masks6)
def test_group_ring_associative_sampled_order6(a, b, c):
    z6 = cyclic_group(6)
    ea, eb, ec = Gf2Elem(6, a), Gf2Elem(6, b), Gf2Elem(6, c)
    assert rmul(z6, rmul(z6, ea, eb), ec) == rmul(z6, ea, rmul(z6, eb, ec))


def test_ring_right_bol_holds_on_group(z4):
    assert ring_identity_check(z4, RingIdentityId.RIGHT_BOL) is None


def test_ring_right_bol_fails_on_non_bol_loop(non_bol5):
    w = ring_identity_check(non_bol5, RingIdentityId.RIGHT_BOL)
    assert w is not None
    x, y, z = w.elements
    # recompute both sides definitionally through rmul
    lhs = rmul(non_bol5, rmul(non_bol5, rmul(non_bol5, x, y), z), y)
    rhs = rmul(non_bol5, x, rmul(non_bol5, rmul(non_bol5, y, z), y))
    assert lhs == w.lhs and rhs == w.rhs and lhs != rhs


def test_ring_witness_recompute_all_identities(non_bol5):
    L = non_bol5

    def mul2(a, b):
        return rmul(L, a, b)

    for ident, expr in [
        (RingIdentityId.RIGHT_BOL,
         lambda x, y, z: (mul2(mul2(mul2(x, y), z), y), mul2(x, mul2(mul2(y, z), y)))),
        (RingIdentityId.RIGHT_ALTERNATIVE,
         lambda x, y: (mul2(mul2(x, y), y), mul2(x, mul2(y, y)))),
        (RingIdentityId.LEFT_ALTERNATIVE,
         lambda x, y: (mul2(mul2(x, x), y), mul2(x, mul2(x, y)))),
        (RingIdentityId.RIGHT_MOUFANG,
         lambda x, y, z: (mul2(mul2(mul2(x, y), z), y), mul2(x, mul2(y, mul2(z, y))))),
    ]:
        w = ring_identity_check(L, ident)
        if w is None:
            continue
        lhs, rhs = expr(*w.elements)
        assert lhs == w.lhs and rhs == w.rhs and lhs != rhs


def _ring_definitions(L):
    """Each ring identity's (lhs, rhs), written with the definitional rmul."""
    def m(a, b):
        return rmul(L, a, b)

    return {
        RingIdentityId.RIGHT_ALTERNATIVE: lambda x, y: (m(m(x, y), y), m(x, m(y, y))),
        RingIdentityId.LEFT_ALTERNATIVE: lambda x, y: (m(m(x, x), y), m(x, m(x, y))),
        RingIdentityId.RIGHT_BOL:
            lambda x, y, z: (m(m(m(x, y), z), y), m(x, m(m(y, z), y))),
        RingIdentityId.RIGHT_MOUFANG:
            lambda x, y, z: (m(m(m(x, y), z), y), m(x, m(y, m(z, y)))),
    }


def _first_ring_failure(L, sides):
    elems = [Gf2Elem(L.order, bits) for bits in range(1 << L.order)]
    for tup in itertools.product(elems, repeat=sides.__code__.co_argcount):
        lhs, rhs = sides(*tup)
        if lhs != rhs:
            return tup, lhs, rhs
    return None


RING_REFERENCE_CORPUS = tuple(L for L in CORPUS5 if L.order <= 4) + (
    validate_table(NON_BOL_5_RAW),
)


@pytest.mark.parametrize("ident", list(RingIdentityId), ids=lambda i: i.value)
def test_ring_witnesses_match_definitional_scan(ident):
    for L in RING_REFERENCE_CORPUS:
        w = ring_identity_check(L, ident)
        got = None if w is None else (w.elements, w.lhs, w.rhs)
        assert got == _first_ring_failure(L, _ring_definitions(L)[ident]), L.raw_rows()


def test_caps_enforced(t2):
    with pytest.raises(OrderExceedsCap):
        ring_identity_check(t2, RingIdentityId.RIGHT_BOL)
    with pytest.raises(OrderExceedsCap):
        ring_identity_check(t2, RingIdentityId.RIGHT_ALTERNATIVE)
    z7 = cyclic_group(7)
    with pytest.raises(OrderExceedsCap):
        ring_identity_check(z7, RingIdentityId.RIGHT_BOL)
    # refused before the 4^15-entry table is allocated
    with pytest.raises(OrderExceedsCap, match=r"order 15 would need 4\^15 entries"):
        product_table(cyclic_group(15))


def test_oracle_equiv_srar_spot_checks(z5, non_bol5):
    assert oracle_equiv_srar(cyclic_group(3))
    assert oracle_equiv_srar(z5)
    assert oracle_equiv_srar(non_bol5)  # both sides false


def test_oracle_equiv_ra2_spot_checks(z4, non_bol5):
    assert oracle_equiv_ra2(cyclic_group(2))
    assert oracle_equiv_ra2(z4)
    assert oracle_equiv_ra2(non_bol5)


def test_ring_oracles_on_the_order_1_loop():
    one = validate_table([[1]])
    for ident in RingIdentityId:
        _, cands, _ = gf2ring._low_weight_plan(1, ident)
        assert min(c.shape[1] for c in cands) == 0  # no element of weight 2
        assert low_weight_ring_check(one, ident) is None
        assert ring_identity_check(one, ident) is None
    assert oracle_equiv_srar(one)
    assert oracle_equiv_ra2(one)


def test_comparators_ask_for_their_ring_laws(monkeypatch, t2):
    # every shipped loop has ring right Bol and right Moufang both or
    # neither, so only the request itself pins which law is decided
    asked = []
    real = gf2ring._low_weight_failure

    def spy(L, ident):
        asked.append(ident)
        return real(L, ident)

    monkeypatch.setattr(gf2ring, "_low_weight_failure", spy)
    assert oracle_equiv_srar(t2)
    assert asked == [RingIdentityId.RIGHT_BOL]
    asked.clear()
    assert oracle_equiv_ra2(t2)  # M(S3,2) is RA2, so both halves run
    assert asked == [RingIdentityId.LEFT_ALTERNATIVE, RingIdentityId.RIGHT_ALTERNATIVE]


def test_comparators_read_no_enum_member_per_call(monkeypatch, t1, t2):
    # the ring tier binds its laws once at import; with both enums swapped
    # for stand-ins whose every attribute read raises, the comparators
    # still decide each loop.  A group per order first fills
    # _low_weight_plan for every law whose weight-2 stage can run.
    loops = (*CORPUS5, t1, t2)
    for n in sorted({L.order for L in loops}):
        assert oracle_equiv_srar(cyclic_group(n)) and oracle_equiv_ra2(cyclic_group(n))
    want = [(oracle_equiv_srar(L), oracle_equiv_ra2(L)) for L in loops]

    class NoMembers:
        def __getattr__(self, name):
            raise AssertionError(f"member {name} read per call")

    monkeypatch.setattr(gf2ring, "RingIdentityId", NoMembers())
    monkeypatch.setattr(gf2ring, "IdentityId", NoMembers())
    assert [(oracle_equiv_srar(L), oracle_equiv_ra2(L)) for L in loops] == want


def test_oracles_decide_orders_past_the_brute_cap(t1, t2):
    # the comparators use the low-weight oracle, which has no 2^n table
    # and so no brute-force cap: orders 7, 9, 12 and 16 are decided
    for L in (cyclic_group(7), cyclic_group(9), t1, t2):
        assert oracle_equiv_srar(L)
        assert oracle_equiv_ra2(L)


def test_ring_witness_scan_order_is_lexicographic(non_bol5):
    w = ring_identity_check(non_bol5, RingIdentityId.RIGHT_BOL)
    x = w.elements[0].bits
    # no violation in any earlier x-slice: all tuples with smaller first
    # mask satisfy the identity (checked definitionally for x' < x)
    P = product_table(non_bol5)
    N = 1 << 5
    Y = np.arange(N, dtype=np.intp)
    q = P[P, Y[:, None]]
    for xp in range(x):
        b = P[P[xp]]
        lhs = P[b, Y[:, None]]
        rhs = P[xp][q]
        assert np.array_equal(lhs, rhs)


# The low-weight test set in its documented scan order, written with
# Gf2Elem and the definitional rmul: weight-1 values of the squared
# variable first, then weight 2; C order over the variables within each
# stage, every variable's candidates in ascending mask order.
_SQUARED_VARIABLE = {
    RingIdentityId.RIGHT_ALTERNATIVE: 1,
    RingIdentityId.LEFT_ALTERNATIVE: 0,
    RingIdentityId.RIGHT_BOL: 1,
    RingIdentityId.RIGHT_MOUFANG: 1,
}


def _first_low_weight_failure(L, ident):
    n = L.order
    sides = _ring_definitions(L)[ident]
    masks = {
        1: [1 << i for i in range(n)],
        2: sorted(1 << i | 1 << j for i in range(n) for j in range(i)),
    }
    for weight in (1, 2):
        cands = [
            masks[weight if j == _SQUARED_VARIABLE[ident] else 1]
            for j in range(sides.__code__.co_argcount)
        ]
        for bits in itertools.product(*cands):
            tup = tuple(Gf2Elem(n, b) for b in bits)
            lhs, rhs = sides(*tup)
            if lhs != rhs:
                return tup, lhs, rhs
    return None


@pytest.mark.parametrize("ident", list(RingIdentityId), ids=lambda i: i.value)
def test_low_weight_oracle_matches_brute_force_orders_2_to_5(ident):
    # same verdict as the full scan, and the witness is the first failure
    # of the definitional low-weight scan
    for L in CORPUS5:
        w = low_weight_ring_check(L, ident)
        assert (w is None) == (ring_identity_check(L, ident) is None), L.raw_rows()
        got = None if w is None else (w.elements, w.lhs, w.rhs)
        assert got == _first_low_weight_failure(L, ident), L.raw_rows()


# Order-6 loops that are left (resp. right) alternative but whose rings
# are not: the ring law first fails with the squared variable at weight 2.
LEFT_ALT_ONLY_AT_BASIS_6 = (
    (1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 6, 5), (3, 5, 1, 6, 2, 4),
    (4, 6, 5, 1, 3, 2), (5, 4, 6, 2, 1, 3), (6, 3, 2, 5, 4, 1),
)
RIGHT_ALT_ONLY_AT_BASIS_6 = (
    (1, 2, 3, 4, 5, 6), (2, 1, 4, 5, 6, 3), (3, 5, 1, 6, 4, 2),
    (4, 6, 2, 1, 3, 5), (5, 3, 6, 2, 1, 4), (6, 4, 5, 3, 2, 1),
)


@pytest.mark.parametrize("ident", list(RingIdentityId), ids=lambda i: i.value)
def test_low_weight_witnesses_at_weight_two(ident):
    # loops where some ring law holds on basis elements and fails at
    # weight 2, so the second stage and its pair order decide the witness
    corpus = {
        "bol16": bol16(), "moufang12": moufang12(),
        "left6": validate_table(LEFT_ALT_ONLY_AT_BASIS_6),
        "right6": validate_table(RIGHT_ALT_ONLY_AT_BASIS_6),
    }
    at_weight_two = set()
    for name, L in corpus.items():
        w = low_weight_ring_check(L, ident)
        got = None if w is None else (w.elements, w.lhs, w.rhs)
        assert got == _first_low_weight_failure(L, ident), name
        if w is not None and any(bin(e.bits).count("1") == 2 for e in w.elements):
            at_weight_two.add(name)
    assert at_weight_two == {
        RingIdentityId.RIGHT_ALTERNATIVE: {"right6"},
        RingIdentityId.LEFT_ALTERNATIVE: {"left6"},
        RingIdentityId.RIGHT_BOL: {"bol16"},
        RingIdentityId.RIGHT_MOUFANG: set(),
    }[ident]


@pytest.mark.parametrize("ident", list(RingIdentityId), ids=lambda i: i.value)
def test_low_weight_witnesses_on_relabelled_loops(ident):
    # enumerated loops all have identity 0; relabelled, the basis scan must
    # skip the identity element, not element 0, where the unit law decides
    # the tuple, and visit every other element in index order
    corpus = [relabelled(L, seed) for L in CORPUS5 for seed in (1, 2, 3)]
    corpus += [relabelled(L, seed) for L in (bol16(), moufang12()) for seed in (4, 5)]
    assert all(L.identity != 0 for L in corpus[-4:])
    for L in corpus:
        w = low_weight_ring_check(L, ident)
        got = None if w is None else (w.elements, w.lhs, w.rhs)
        assert got == _first_low_weight_failure(L, ident), L.raw_rows()


# Per variable of each ring law, whether the basis stage leaves out the
# tuples with the identity element there (the unit lemma in
# low_weight_ring_check's docstring), and how many basis tuples of an
# order-n loop that leaves.
_UNIT_SKIPS = {
    RingIdentityId.RIGHT_ALTERNATIVE: ((True, True), lambda n: (n - 1) ** 2),
    RingIdentityId.LEFT_ALTERNATIVE: ((True, True), lambda n: (n - 1) ** 2),
    RingIdentityId.RIGHT_BOL: ((True, True, False), lambda n: (n - 1) ** 2 * n),
    RingIdentityId.RIGHT_MOUFANG: ((False, True, False), lambda n: n * (n - 1) * n),
}


@pytest.mark.parametrize("ident", list(RingIdentityId), ids=lambda i: i.value)
def test_basis_stage_skips_exactly_the_unit_law_tuples(monkeypatch, ident):
    # every law holds in a group ring, so the basis scan runs to its end;
    # record each tuple it visits through its per-variable domains
    skips, count = _UNIT_SKIPS[ident]
    real = gf2ring.scan_domains
    visited, current = [], [None] * len(skips)

    class Recorded:
        def __init__(self, j, domain):
            self.j, self.domain = j, domain

        def __iter__(self):
            for v in self.domain:
                current[self.j] = v
                if self.j == len(skips) - 1:
                    visited.append(tuple(current))
                yield v

    monkeypatch.setattr(
        gf2ring, "scan_domains",
        lambda n, e, s: tuple(Recorded(j, d) for j, d in enumerate(real(n, e, s))),
    )
    for n, seed in ((4, 1), (5, 1), (6, 2), (7, 4)):
        L = relabelled(cyclic_group(n), seed)
        e = L.identity
        assert e != 0
        visited.clear()
        assert low_weight_ring_check(L, ident) is None
        assert visited == [
            tup for tup in itertools.product(range(n), repeat=len(skips))
            if not any(skip and v == e for skip, v in zip(skips, tup))
        ]
        assert len(visited) == count(n)


def test_low_weight_witness_does_not_depend_on_the_slab_size(monkeypatch):
    # every numpy scan cuts its first variable by core.x_blocks.  The
    # benchmark's orders scan in one block: the three-variable tails at
    # orders 8-16 and ring stage 2 at orders 2-8 (relabelled groups, on
    # which every scan runs to its end)
    layouts = []

    def recorded(n, per_x):
        layouts.append(list(x_blocks(n, per_x)))
        return iter(layouts[-1])

    monkeypatch.setattr(identities, "x_blocks", recorded)
    monkeypatch.setattr(gf2ring, "x_blocks", recorded)
    for n in range(8, 17):
        for ident in THREE_VARIABLE:
            assert check_identity(relabelled(cyclic_group(n), n), ident) is None
    assert len(layouts) == 9 * 4
    for n in range(2, 9):
        for ident in RingIdentityId:
            assert low_weight_ring_check(relabelled(cyclic_group(n), n), ident) is None
    assert len(layouts) == 9 * 4 + 7 * 4
    assert all(len(blocks) == 1 for blocks in layouts)
    monkeypatch.undo()

    # one x per block: the block offsets must give back the witnesses of
    # the default schedule, in every scan that cuts blocks
    tails = [direct_product(A, cyclic_group(m)) for A, m in ((CORPUS5[8], 16), (bol16(), 2))]
    gaps = [relabelled(bol16(), seed) for seed in (0, 1, 13, 151, 454)]
    corpus = (*CORPUS5, bol16(), moufang12())

    def witnesses():
        return (
            [check_identity(L, ident) for L in tails for ident in THREE_VARIABLE],
            [first_quad_gap(L) for L in gaps],
            [low_weight_ring_check(L, ident) for L in corpus for ident in RingIdentityId],
        )

    whole = witnesses()
    monkeypatch.setattr(core, "FIRST_BLOCK", 1)
    monkeypatch.setattr(core, "BLOCK", 1)
    assert [(s.start, s.stop) for s in x_blocks(3, 5)] == [(0, 1), (1, 2), (2, 3)]
    assert witnesses() == whole
    assert all(whole[0][:4]) and all(whole[1])  # the order-80 tails and the gaps fail


@pytest.mark.parametrize("ident", list(RingIdentityId), ids=lambda i: i.value)
def test_low_weight_plan_scans_weight_two_in_ascending_mask_order(ident):
    # the weight-2 stage must visit its pairs by ascending mask, the order
    # the brute-force scan would meet them in; no fixture pins this alone
    for n in (2, 3, 5, 8):
        _, cands, _ = gf2ring._low_weight_plan(n, ident)
        pairs = [c for c in cands if len(c) == 2]
        assert len(pairs) == 1  # the squared variable; every other is basis
        for b, a in pairs:
            masks = [(1 << int(u)) | (1 << int(v)) for u, v in zip(b, a)]
            assert all(bin(m).count("1") == 2 for m in masks)
            assert len(masks) == n * (n - 1) // 2
            assert masks == sorted(set(masks))


@pytest.mark.parametrize("ident", list(RingIdentityId), ids=lambda i: i.value)
def test_low_weight_plan_arrays_are_read_only(ident):
    # the plan is cached per order: a caller writing into it would
    # corrupt every later oracle call at that order
    one, cands, grid = gf2ring._low_weight_plan(5, ident)
    arrays = [one, *cands, *grid]
    assert len(arrays) > 1
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1


def test_low_weight_oracle_is_independent_of_the_pointwise_scans(monkeypatch):
    import loopkit.conditions as conditions
    import loopkit.identities as identities

    def forbidden(*args):
        raise AssertionError("the ring oracle called a pointwise scan")

    monkeypatch.setattr(conditions, "_code", forbidden)
    monkeypatch.setattr(conditions, "_parity_gaps", forbidden)
    monkeypatch.setattr(conditions, "_sidon_codes", forbidden)
    for ident in identities._CHECKS:
        monkeypatch.setitem(identities._CHECKS, ident, forbidden)
    for attr in ("_right_bol", "_right_product_law", "_pair_law"):
        monkeypatch.setattr(identities, attr, forbidden)
    # fresh tables, so no cache built before the patch can answer
    verdicts = {}
    for L in (bol16(), moufang12(), validate_table(NON_BOL_5_RAW)):
        for ident in RingIdentityId:
            w = low_weight_ring_check(L, ident)
            verdicts[L.order, ident] = w is None
            if w is not None:
                lhs, rhs = _ring_definitions(L)[ident](*w.elements)
                assert lhs == w.lhs and rhs == w.rhs and lhs != rhs
                if L.order == 5:  # every law fails in the basis stage
                    assert all(len(e.support()) == 1 for e in w.elements)
    # M(S3,2) is Moufang and RA2: all four ring laws hold.  Bol 16.7.2.1
    # is right alternative but neither SRAR nor left alternative.  The
    # order-5 loop satisfies none of the four laws, even on basis elements.
    assert verdicts == {
        **{(12, ident): True for ident in RingIdentityId},
        **{(5, ident): False for ident in RingIdentityId},
        (16, RingIdentityId.RIGHT_ALTERNATIVE): True,
        (16, RingIdentityId.LEFT_ALTERNATIVE): False,
        (16, RingIdentityId.RIGHT_BOL): False,
        (16, RingIdentityId.RIGHT_MOUFANG): False,
    }


def test_low_weight_oracle_order_cap():
    # ring elements are uint64 masks
    with pytest.raises(OrderExceedsCap, match="64-bit masks"):
        low_weight_ring_check(cyclic_group(65), RingIdentityId.RIGHT_ALTERNATIVE)
    assert low_weight_ring_check(cyclic_group(64), RingIdentityId.RIGHT_ALTERNATIVE) is None


def test_alternative_ring_comparator_is_exact_up_to_order_6():
    # each ring alternative law is its pointwise law plus coverage: on 60
    # loops of order 6 the A/B/C coverage holds and left alternativity
    # fails, on 60 others D'/E'/F' coverage holds and right alternativity
    # fails, and the ring oracle rejects all 120
    loops = []
    for n in range(2, 7):
        enumerate_loops(n, loops.append)
    facts = [LoopFacts(L) for L in loops]
    assert len(facts) == 9470
    assert all(oracle_equiv_ra2(f) for f in facts)
    left = [f for f in facts if not abc_gaps(f).any() and not f.holds(IdentityId.LEFT_ALTERNATIVE)]
    right = [
        f for f in facts
        if f.coverage.def_everywhere and not f.holds(IdentityId.RIGHT_ALTERNATIVE)
    ]
    assert len(left) == len(right) == 60
    assert {f.loop.order for f in left + right} == {6}


def test_right_but_not_left_alternative_rings_up_to_order_6():
    # none below order 6; 60 of the 9 408 loops of order 6, among them
    # the loop whose second row is 2 6 5 3 4 1
    def right_not_left(L):
        return (
            low_weight_ring_check(L, RingIdentityId.RIGHT_ALTERNATIVE) is None
            and low_weight_ring_check(L, RingIdentityId.LEFT_ALTERNATIVE) is not None
        )

    assert not any(right_not_left(L) for L in CORPUS5)
    hits = []
    assert enumerate_loops(6, lambda L: hits.append(L) if right_not_left(L) else None) == 9408
    assert len(hits) == 60
    assert (2, 6, 5, 3, 4, 1) in {L.raw_rows()[1] for L in hits}
