"""identity-checks: the ten named identities and their interplay."""

import itertools
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopkit import (
    CHECKS,
    IdentityId,
    LoopTable,
    SweepSpec,
    Witness,
    check_identity,
    classify_loop,
    cor_odd_verify,
    enumerate_loops,
    holds,
    is_extra,
    is_moufang,
    run_sweep,
    squares_in_nucleus,
    validate_table,
)
from loopkit import core, identities
from loopkit.conditions import LoopFacts
from loopkit.fixtures import bol16, cyclic_group, moufang12

from conftest import CORPUS5, direct_product, relabelled


def s3_table():
    """Cayley table of the symmetric group on 3 letters."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    raw = [
        [index[tuple(p[q[i]] for i in range(3))] + 1 for q in perms]
        for p in perms
    ]
    return validate_table(raw)


def test_bol16_identity_battery(t1):
    assert holds(t1, IdentityId.RIGHT_BOL)
    assert holds(t1, IdentityId.RIGHT_ALTERNATIVE)
    assert holds(t1, IdentityId.RIP)
    assert not is_moufang(t1)
    assert not holds(t1, IdentityId.ASSOCIATIVE)
    assert not is_extra(t1)


def test_bol16_moufang_witness(t1):
    # frozen from an independent scan: first failure at (1,2,9) with
    # [(1*2)*9]*2 = 9 and 1*[2*(9*2)] = 11
    w = check_identity(t1, IdentityId.RIGHT_MOUFANG)
    assert w.one_indexed() == (1, 2, 9)
    assert (w.lhs + 1, w.rhs + 1) == (9, 11)


def test_moufang12_identity_battery(t2):
    for ident in (
        IdentityId.RIGHT_BOL,
        IdentityId.RIGHT_MOUFANG,
        IdentityId.FLEXIBLE,
        IdentityId.RIGHT_ALTERNATIVE,
        IdentityId.LEFT_ALTERNATIVE,
        IdentityId.RIP,
        IdentityId.LIP,
    ):
        assert holds(t2, ident), ident
    assert not holds(t2, IdentityId.ASSOCIATIVE)
    assert not holds(t2, IdentityId.COMMUTATIVE)
    assert is_moufang(t2)


def test_groups_satisfy_everything_but_commutativity():
    z4 = cyclic_group(4)
    for ident in IdentityId:
        assert holds(z4, ident), ident
    s3 = s3_table()
    for ident in IdentityId:
        if ident is IdentityId.COMMUTATIVE:
            assert not holds(s3, ident)
        else:
            assert holds(s3, ident), ident


def test_witnesses_recompute_and_are_minimal_format(t1, non_bol5):
    w = check_identity(non_bol5, IdentityId.RIGHT_BOL)
    assert w is not None and w.lhs != w.rhs
    x, y, z = w.elements
    m = non_bol5.mul
    assert m(m(m(x, y), z), y) == w.lhs
    assert m(x, m(m(y, z), y)) == w.rhs
    w2 = check_identity(t1, IdentityId.RIGHT_MOUFANG)
    x, y, z = w2.elements
    m = t1.mul
    assert m(m(m(x, y), z), y) == w2.lhs
    assert m(x, m(y, m(z, y))) == w2.rhs


@given(st.sampled_from(CORPUS5), st.sampled_from(list(IdentityId)))
def test_check_identity_is_deterministic(L, ident):
    assert check_identity(L, ident) == check_identity(L, ident)


@given(st.sampled_from(CORPUS5))
def test_implication_chain_small_corpus(L):
    bol = holds(L, IdentityId.RIGHT_BOL)
    if is_moufang(L):
        assert bol
    if bol:
        assert holds(L, IdentityId.RIGHT_ALTERNATIVE)
        assert holds(L, IdentityId.RIP)
        if holds(L, IdentityId.LIP):
            assert is_moufang(L)
    if holds(L, IdentityId.ASSOCIATIVE):
        for ident in IdentityId:
            if ident is not IdentityId.COMMUTATIVE:
                assert holds(L, ident)


@given(st.sampled_from(CORPUS5))
def test_extra_matches_characterization(L):
    # is_extra is the bare scan; the characterization is checked here and
    # by the extra_iff_moufang_squares_nucleus sweep check
    ext = is_extra(L)
    assert ext == (is_moufang(L) and squares_in_nucleus(L))


def test_extra_fixtures(t1, t2):
    assert not is_extra(t1)  # not even Moufang
    ext = is_extra(t2)
    assert ext == (is_moufang(t2) and squares_in_nucleus(t2))


def test_lip_falls_back_to_left_inverse_without_rip(non_bol5):
    # on a loop without RIP the lip scan must still be total and agree
    # with the literal equation using the left inverse
    if check_identity(non_bol5, IdentityId.RIP) is None:
        pytest.skip("fixture unexpectedly has RIP")
    w = check_identity(non_bol5, IdentityId.LIP)
    m = non_bol5.mul
    inv = non_bol5.linv
    first = None
    for x in range(non_bol5.order):
        for y in range(non_bol5.order):
            if m(inv[x], m(x, y)) != y:
                first = (x, y)
                break
        if first:
            break
    assert (w.elements if w else None) == first


def test_abelian_group_is_extra():
    assert is_extra(cyclic_group(6))


def test_flexible_witness_variable_order(t1):
    w = check_identity(t1, IdentityId.FLEXIBLE)
    assert w is not None and len(w.elements) == 2
    y, z = w.elements
    m = t1.mul
    assert m(m(y, z), y) == w.lhs and m(y, m(z, y)) == w.rhs
    # nothing earlier in (y, z) scan order fails
    for yy in range(y + 1):
        for zz in range(t1.order if yy < y else z):
            assert m(m(yy, zz), yy) == m(yy, m(zz, yy))


def _definitions(L):
    """Each identity's (lhs, rhs), written from its defining equation with L.mul."""
    m = L.mul
    n = L.order
    rip = all(m(m(x, y), L.rinv[y]) == x for x, y in itertools.product(range(n), repeat=2))
    inv = L.rinv if rip else L.linv  # x' in LIP: two-sided when RIP holds
    return {
        IdentityId.RIGHT_BOL: lambda x, y, z: (m(m(m(x, y), z), y), m(x, m(m(y, z), y))),
        IdentityId.RIGHT_MOUFANG: lambda x, y, z: (m(m(m(x, y), z), y), m(x, m(y, m(z, y)))),
        IdentityId.FLEXIBLE: lambda y, z: (m(m(y, z), y), m(y, m(z, y))),
        IdentityId.RIGHT_ALTERNATIVE: lambda x, y: (m(m(x, y), y), m(x, m(y, y))),
        IdentityId.LEFT_ALTERNATIVE: lambda x, y: (m(m(x, x), y), m(x, m(x, y))),
        IdentityId.RIP: lambda x, y: (m(m(x, y), L.rinv[y]), x),
        IdentityId.LIP: lambda x, y: (m(inv[x], m(x, y)), y),
        IdentityId.EXTRA: lambda x, y, z: (m(m(m(x, y), z), x), m(x, m(y, m(z, x)))),
        IdentityId.COMMUTATIVE: lambda x, y: (m(x, y), m(y, x)),
        IdentityId.ASSOCIATIVE: lambda x, y, z: (m(m(x, y), z), m(x, m(y, z))),
    }


def _first_failure(L, sides):
    arity = sides.__code__.co_argcount
    for tup in itertools.product(range(L.order), repeat=arity):
        lhs, rhs = sides(*tup)
        if lhs != rhs:
            return tup, lhs, rhs
    return None


def _identity_moved(L: LoopTable, seed: int) -> LoopTable:
    """The first seeded relabelling of L, from `seed` on, that moves the identity off 0."""
    return next(M for s in itertools.count(seed) if (M := relabelled(L, s)).identity != 0)


REFERENCE_CORPUS = CORPUS5 + (bol16(), moufang12(), s3_table())

# the same loops with the identity at a nonzero label, plus more seeds of
# both fixtures: a scan that skips element 0 instead of the identity
# returns a wrong witness on some of these
MOVED_CORPUS = tuple(
    _identity_moved(L, seed) for seed, L in enumerate(REFERENCE_CORPUS)
) + tuple(_identity_moved(L, seed) for L in (bol16(), moufang12()) for seed in range(100, 104))


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda i: i.value)
def test_witnesses_match_definitional_scan(ident):
    for L in REFERENCE_CORPUS + MOVED_CORPUS:
        w = check_identity(L, ident)
        got = None if w is None else (w.elements, w.lhs, w.rhs)
        assert got == _first_failure(L, _definitions(L)[ident]), L.raw_rows()


def test_deciding_builds_no_witness(monkeypatch):
    # the scans return plain tuples and the deciders only test them for
    # None; check_identity is the one identity route that builds a Witness
    built = []
    real_init = Witness.__init__

    def counted_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(Witness, "__init__", counted_init)
    loops = []
    enumerate_loops(5, loops.append)
    for L in loops:
        cor_odd_verify(L)
    run_sweep(SweepSpec((5,), tuple(CHECKS)))
    assert built == []
    failures = 0
    for L in loops:
        for ident in IdentityId:
            w = check_identity(L, ident)
            got = None if w is None else (w.elements, w.lhs, w.rhs)
            assert got == _first_failure(L, _definitions(L)[ident]), L.raw_rows()
            failures += w is not None
    assert len(built) == failures > 0


def _domains(L: LoopTable, ident: IdentityId):
    """Per variable, the elements ident's scan visits on L."""
    return core.scan_domains(L.order, L.identity, identities._SKIPS_E.get(ident, (True, True)))


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda i: i.value)
def test_skipped_tuples_hold_by_definition(ident):
    # every tuple a scan leaves out must satisfy the defining equation on
    # every loop; a wrong skip (say z = e for right Bol, where the
    # equation is right alternativity) fails here even if no witness moves
    skipped_any = False
    for L in MOVED_CORPUS:
        assert L.identity != 0
        definition = _definitions(L)[ident]
        scanned = set(itertools.product(*_domains(L, ident)))
        for tup in itertools.product(range(L.order), repeat=definition.__code__.co_argcount):
            if tup not in scanned:
                skipped_any = True
                lhs, rhs = definition(*tup)
                assert lhs == rhs, (L.raw_rows(), tup)
    assert skipped_any


THREE_VARIABLE = (
    IdentityId.RIGHT_BOL, IdentityId.RIGHT_MOUFANG, IdentityId.EXTRA, IdentityId.ASSOCIATIVE,
)


# products of the first five order-5 loops with Z2 and Z3 (orders 10 and
# 15), and relabellings of them: on these each three-variable identity
# first fails in the first y row of its scan on some loops and in a
# later x row on others
TAIL_CORPUS = tuple(
    L
    for A in CORPUS5[6:11]
    for Z in (cyclic_group(2), cyclic_group(3))
    for P in (direct_product(A, Z), direct_product(Z, A))
    for L in (P, relabelled(P, 0), relabelled(P, 1))
)

# an order-6 loop on which, times Z2, every three-variable identity first
# fails in the first x row of its scan but past its first y row
_FIRST_ROW_FAILS = validate_table([
    (1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 6, 5), (3, 5, 1, 6, 2, 4),
    (4, 6, 5, 1, 3, 2), (5, 3, 6, 2, 4, 1), (6, 4, 2, 5, 1, 3),
])

# the hand-off corpus adds relabellings of that product and of both
# fixtures, each with the identity moved off 0 (associativity fails past
# the first y row on the Moufang ones)
HANDOFF_CORPUS = TAIL_CORPUS + tuple(
    _identity_moved(L, seed)
    for L in (direct_product(cyclic_group(2), _FIRST_ROW_FAILS), bol16(), moufang12())
    for seed in (1, 2, 3)
)


@pytest.mark.parametrize("ident", THREE_VARIABLE, ids=lambda i: i.value)
def test_tail_witnesses_match_definitional_scan(ident):
    places = Counter()
    for L in HANDOFF_CORPUS:
        want = _first_failure(L, _definitions(L)[ident])
        w = check_identity(L, ident)
        assert (None if w is None else (w.elements, w.lhs, w.rhs)) == want, L.raw_rows()
        w = LoopFacts(L).witness(ident)
        assert (None if w is None else (w.elements, w.lhs, w.rhs)) == want, L.raw_rows()
        if want is not None:
            xs, ys, _ = _domains(L, ident)
            (x, y, _), _, _ = want
            places[0 if (x, y) == (xs[0], ys[0]) else 1 if x == xs[0] else 2] += 1
    # first failures in the first y row (Python), later in the first x
    # row and in a later x row (both numpy)
    assert places[0] and places[1] and places[2], places


# relabelled M(S3,2) x Z2 and Bol 16.7.2.1 x Z2, pinned: their
# classification rows and three-variable witnesses
PINNED_PRODUCTS = {
    "M(S3,2)xZ2": (
        (24, True, True, True, True, False, False, True, False, False, False,
         {"none": 0, "D": 2592, "E": 2592, "F": 3456, "DE": 0, "DF": 0, "EF": 0, "DEF": 5184}),
        (None, None, ((6, 1, 2), 18, 19), ((1, 2, 3), 11, 7)),
    ),
    "Bol16xZ2": (
        (32, True, False, False, False, False, False, True, False, False, False,
         {"none": 0, "D": 6144, "E": 6144, "F": 4608, "DE": 0, "DF": 0, "EF": 0, "DEF": 15872}),
        (None, ((0, 0, 1), 16, 24), ((0, 0, 1), 16, 24), ((0, 0, 1), 1, 28)),
    ),
}


def test_larger_loops_keep_their_rows_and_witnesses():
    for (name, (row, witnesses)), source in zip(PINNED_PRODUCTS.items(), (moufang12(), bol16())):
        L = _identity_moved(direct_product(source, cyclic_group(2)), 0)
        assert astuple(classify_loop(name, L)) == (name, *row)
        got = tuple(
            None if w is None else (w.elements, w.lhs, w.rhs)
            for w in (check_identity(L, ident) for ident in THREE_VARIABLE)
        )
        assert got == witnesses, name


def test_tail_blocks_keep_the_first_witness():
    # at order 80 the numpy blocks hold 1, 1, 2, 4, 8 and then at most 10
    # x rows; on this product every three-variable identity first fails
    # at x = 16, past the first 10 rows
    L = direct_product(CORPUS5[8], cyclic_group(16))
    for ident in THREE_VARIABLE:
        xs, ys, zs = _domains(L, ident)
        w = check_identity(L, ident)
        assert xs.index(w.elements[0]) > core.BLOCK // (len(ys) * len(zs))
        assert (w.elements, w.lhs, w.rhs) == _first_failure(L, _definitions(L)[ident])


def test_numpy_tails_start_at_order_8(scan_counts):
    # relabelled groups hold every identity, so each scan passes its
    # first y row; below order 8 the rest stays in Python as well
    for n in range(2, 8):
        for seed in range(3):
            L = relabelled(cyclic_group(n), seed)
            for ident in THREE_VARIABLE:
                assert check_identity(L, ident) is None
    assert scan_counts["numpy_scans"] == 0
    for ident in THREE_VARIABLE:
        assert check_identity(relabelled(cyclic_group(8), 0), ident) is None
    assert scan_counts["numpy_scans"] == 4
