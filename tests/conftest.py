import itertools
import random
import sys
from collections import Counter
from pathlib import Path

import hypothesis
import pytest

try:
    import loopkit  # noqa: F401
except ImportError:  # running from a checkout without an editable install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from loopkit import enumerate_loops, validate_table
from loopkit.fixtures import bol16, cyclic_group, moufang12

hypothesis.settings.register_profile("suite", deadline=None, max_examples=60)
hypothesis.settings.load_profile("suite")


def _collect_corpus(orders):
    loops = []
    for n in orders:
        enumerate_loops(n, loops.append)
    return tuple(loops)


# every normalized loop of orders 2..5 (1 + 1 + 4 + 56); cheap to build once
CORPUS5 = _collect_corpus((2, 3, 4, 5))

def relabelled(L, seed):
    """L conjugated by a seeded permutation of all labels, identity included."""
    sigma = list(range(L.order))
    random.Random(seed).shuffle(sigma)
    raw = [[0] * L.order for _ in range(L.order)]
    for i, j in itertools.product(range(L.order), repeat=2):
        raw[sigma[i]][sigma[j]] = sigma[L.table[i][j]] + 1
    return validate_table(raw)


def direct_product(A, B):
    """The direct product A x B, with (a, b) labelled a * |B| + b."""
    m = B.order
    return validate_table([
        [A.table[a][c] * m + B.table[b][d] + 1 for c in range(A.order) for d in range(m)]
        for a in range(A.order) for b in range(m)
    ])


def octonion_units():
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


def chein_a4():
    """M(A4, 2), Chein's doubling of A4 (order 24): Moufang, but not SRAR.

    Elements g and gu for g in A4, with gh, g(hu) = (hg)u,
    (gu)h = (gh^-1)u and (gu)(hu) = h^-1 g.
    """
    def mul(p, q):
        return tuple(p[q[i]] for i in range(4))

    group = [(0, 1, 2, 3)]
    for g in group:  # closure of two generators; the list grows as it is read
        for h in ((1, 2, 0, 3), (1, 0, 3, 2)):
            if mul(g, h) not in group:
                group.append(mul(g, h))
    index = {g: i for i, g in enumerate(group)}
    inv = {g: next(h for h in group if mul(g, h) == group[0]) for g in group}
    m = len(group)

    def product(i, j):
        g, h = group[i % m], group[j % m]
        if i < m:
            return index[mul(g, h)] if j < m else m + index[mul(h, g)]
        return m + index[mul(g, inv[h])] if j < m else index[mul(inv[h], g)]

    return validate_table([[product(i, j) + 1 for j in range(2 * m)] for i in range(2 * m)])


def bol_extension16():
    """The central extension of Z2^3 by Z2 with cocycle x0 y1 y2 (order 16).

    Element v + 8a is (v, a), and (x, a)(y, b) = (x + y, a + b + x0 y1 y2)
    over the bits of x and y.  The cocycle satisfies the right Bol law,
    so the loop is right Bol; it is SRAR and not Moufang.
    """
    def product(i, j):
        x, y = i % 8, j % 8
        return (x ^ y) + 8 * (i // 8 ^ j // 8 ^ x & y >> 1 & y >> 2 & 1)

    return validate_table([[product(i, j) + 1 for j in range(16)] for i in range(16)])


# first order-5 loop in enumeration order that is not right Bol
# (frozen from an independent permutation-based enumeration)
NON_BOL_5_RAW = (
    (1, 2, 3, 4, 5),
    (2, 1, 4, 5, 3),
    (3, 4, 5, 1, 2),
    (4, 5, 2, 3, 1),
    (5, 3, 1, 2, 4),
)


@pytest.fixture(scope="session")
def t1():
    return bol16()


@pytest.fixture(scope="session")
def t2():
    return moufang12()


@pytest.fixture(scope="session")
def non_bol5():
    return validate_table(NON_BOL_5_RAW)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def z5():
    return cyclic_group(5)


@pytest.fixture(scope="session")
def z6():
    return cyclic_group(6)


@pytest.fixture
def scan_counts(monkeypatch):
    """A Counter of every identity scan, condition build and ring oracle stage.

    Identity scans are counted per IdentityId value whether they are
    reached through identities._CHECKS or, inside identities.py, by their
    module-level name; the numpy stages of the three-variable scans as
    "numpy_scans" (identities._numpy_scan); product-cache builds as
    "products" (the intp table of an identities.Products, which every
    other cached array is built from); triple-product builds as
    "triple_products" (LoopFacts.triples), quadruple scans as
    "quad_scans" (conditions._first_quad, one per scan whatever its
    number of x-blocks), A/B/C parity-gap builds as "abc_gaps"
    (LoopFacts._abc_gaps), and the ring oracle's basis scans and weight-2
    runs as "ring_basis_scans" and "ring_weight_two_runs"
    (gf2ring._basis_failure and gf2ring._weight_two_failure).
    """
    import loopkit.conditions as conditions
    import loopkit.gf2ring as gf2ring
    import loopkit.identities as identities
    from loopkit import IdentityId

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for ident in IdentityId:
        scan = counted(ident.value, identities._CHECKS[ident])
        monkeypatch.setitem(identities._CHECKS, ident, scan)
        monkeypatch.setattr(identities, f"_{ident.value}", scan)
    for module, attr, name in (
        (identities, "_numpy_scan", "numpy_scans"),
        (identities.Products.intp, "fn", "products"),
        (conditions.LoopFacts.triples, "fn", "triple_products"),
        (conditions.LoopFacts._abc_gaps, "fn", "abc_gaps"),
        (conditions, "_first_quad", "quad_scans"),
        (gf2ring, "_basis_failure", "ring_basis_scans"),
        (gf2ring, "_weight_two_failure", "ring_weight_two_runs"),
    ):
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    return calls
