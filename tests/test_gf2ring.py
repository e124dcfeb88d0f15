"""gf2-loop-ring: mask algebra, product table, and ring-identity scans."""

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
    oracle_equiv_ra2,
    oracle_equiv_srar,
    product_table,
    ring_identity_check,
    ring_one,
    rmul,
    validate_table,
    zero,
)
from loopkit.conditions import LoopFacts
from loopkit.fixtures import cyclic_group

from conftest import CORPUS5, NON_BOL_5_RAW

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


def test_caps_enforced_and_overridable(t2):
    with pytest.raises(OrderExceedsCap):
        ring_identity_check(t2, RingIdentityId.RIGHT_BOL)
    with pytest.raises(OrderExceedsCap):
        ring_identity_check(t2, RingIdentityId.RIGHT_ALTERNATIVE)
    z7 = cyclic_group(7)
    with pytest.raises(OrderExceedsCap):
        ring_identity_check(z7, RingIdentityId.RIGHT_BOL)
    # explicit cap override runs the order-7 three-variable scan
    assert ring_identity_check(z7, RingIdentityId.RIGHT_BOL, cap=7) is None


def test_oracle_equiv_srar_spot_checks(z5, non_bol5):
    assert oracle_equiv_srar(cyclic_group(3))
    assert oracle_equiv_srar(z5)
    assert oracle_equiv_srar(non_bol5)  # both sides false
    with pytest.raises(OrderExceedsCap):
        oracle_equiv_srar(cyclic_group(7))


def test_oracle_equiv_ra2_spot_checks(z4, non_bol5):
    assert oracle_equiv_ra2(cyclic_group(2))
    assert oracle_equiv_ra2(z4)
    assert oracle_equiv_ra2(non_bol5)
    with pytest.raises(OrderExceedsCap):
        oracle_equiv_ra2(cyclic_group(9))


def test_oracles_check_the_cap_before_any_pointwise_scan(scan_counts):
    for oracle, n in ((oracle_equiv_srar, 7), (oracle_equiv_ra2, 9)):
        with pytest.raises(OrderExceedsCap):
            oracle(LoopFacts(cyclic_group(n)))
    assert scan_counts == {}


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
