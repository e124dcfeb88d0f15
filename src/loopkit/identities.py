"""Exhaustive checkers for the named loop identities.

Each identity is decided by scanning the Cartesian power of the element
set, with the variables scanned in the order they appear in the defining
equation:

    right_bol          [(xy)z]y = x[(yz)y]
    right_moufang      [(xy)z]y = x[y(zy)]
    flexible           (yz)y    = y(zy)
    right_alternative  (xy)y    = x(yy)
    left_alternative   (xx)y    = x(xy)
    rip                (xy)y'   = x         (y' the right inverse)
    lip                x'(xy)   = y         (x' two-sided when RIP holds)
    extra              [(xy)z]x = x[y(zx)]
    commutative        xy       = yx
    associative        (xy)z    = x(yz)

A scan skips the tuples that the identity law alone decides (`_SKIPS_E`),
so the first failing tuple in full lexicographic order is still the one
it returns, and results are deterministic across runs and partitions.
Scans decide without explaining: each returns that tuple as a plain
(elements, lhs, rhs) tuple, or None.  check_identity is the one route
that wraps it in a Witness; first_failure hands it on bare, to caches
such as conditions.LoopFacts that explain only on request.  holds,
is_moufang and is_extra only test for None, so deciding a loop builds
no Witness.  A two-variable identity is written once, as a function
giving its (lhs, rhs) at (x, y), and runs through the one early-exit
scan `_pairs`.  The three-variable identities run on every loop of a
sweep, so two hand-unrolled scans decide them: `_right_bol`, and
`_right_product_law` for ((xy)z)u = x(y(zu)), which is right Moufang at
u = y, extra at u = x and associativity at u = e.  On loops of order 8
and up, a three-variable scan whose first x row holds hands its other
rows to `_tail`, which evaluates the identity, written once in `_SIDES`
as an (lhs, rhs) pair over a product, with numpy; the first mismatch in
C order is the witness there too.  So no loop of order 7 or less, where
nearly every scan stops in its first row, ever pays for numpy.  The
comment above the scans has the numbers.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import LoopTable, Witness, nuclei

Failure = tuple[tuple[int, ...], int, int]  # a scan's (elements, lhs, rhs)


class IdentityId(Enum):
    __hash__ = object.__hash__  # C-level; the members are singletons

    RIGHT_BOL = "right_bol"
    RIGHT_MOUFANG = "right_moufang"
    FLEXIBLE = "flexible"
    RIGHT_ALTERNATIVE = "right_alternative"
    LEFT_ALTERNATIVE = "left_alternative"
    RIP = "rip"
    LIP = "lip"
    EXTRA = "extra"
    COMMUTATIVE = "commutative"
    ASSOCIATIVE = "associative"


# Per variable of each three-variable identity: True where the identity law
# alone decides it once that variable is e (right Bol at x = e is (yz)y =
# (yz)y), so the scan skips e there.  Two-variable ones skip e in both.
_SKIPS_E: dict[IdentityId, tuple[bool, ...]] = {
    IdentityId.RIGHT_BOL: (True, True, False),
    IdentityId.RIGHT_MOUFANG: (False, True, False),
    IdentityId.EXTRA: (True, False, False),
    IdentityId.ASSOCIATIVE: (True, True, True),
}


@functools.cache
def _domains(n: int, e: int, ident: IdentityId) -> tuple[Sequence[int], ...]:
    """Per variable of ident, the elements its scan visits on order n with identity e."""
    rest = tuple(v for v in range(n) if v != e)
    return tuple(rest if skip else range(n) for skip in _SKIPS_E.get(ident, (True, True)))


def _pairs(
    L: LoopTable, ident: IdentityId, sides: Callable[[int, int], tuple[int, int]]
) -> Failure | None:
    """First (x, y) in C order where the two sides of a two-variable identity differ."""
    xs, ys = _domains(L.order, L.identity, ident)
    for x in xs:
        for y in ys:
            lhs, rhs = sides(x, y)
            if lhs != rhs:
                return (x, y), lhs, rhs
    return None


def _flexible(L: LoopTable) -> Failure | None:
    t = L.table
    return _pairs(L, IdentityId.FLEXIBLE, lambda y, z: (t[t[y][z]][y], t[y][t[z][y]]))


def _right_alternative(L: LoopTable) -> Failure | None:
    t = L.table
    return _pairs(L, IdentityId.RIGHT_ALTERNATIVE, lambda x, y: (t[t[x][y]][y], t[x][t[y][y]]))


def _left_alternative(L: LoopTable) -> Failure | None:
    t = L.table
    return _pairs(L, IdentityId.LEFT_ALTERNATIVE, lambda x, y: (t[t[x][x]][y], t[x][t[x][y]]))


def _rip(L: LoopTable) -> Failure | None:
    t, rinv = L.table, L.rinv
    return _pairs(L, IdentityId.RIP, lambda x, y: (t[t[x][y]][rinv[y]], x))


def _lip(L: LoopTable) -> Failure | None:
    # x' means the right inverse when RIP holds (then inverses are
    # two-sided); otherwise the equation is read literally with the left
    # inverse, so the check is total on arbitrary loops.
    inv = L.rinv if _rip(L) is None else L.linv
    t = L.table
    return _pairs(L, IdentityId.LIP, lambda x, y: (t[inv[x]][t[x][y]], y))


def _commutative(L: LoopTable) -> Failure | None:
    t = L.table
    return _pairs(L, IdentityId.COMMUTATIVE, lambda x, y: (t[x][y], t[y][x]))


# Two unrolled scans, with the row lookups hoisted out of the inner loop,
# decide the four three-variable identities.  Right Bol's inner bracket
# (yz)y is not of the form y(zu), so it keeps its own scan; the other
# three share one, and _U picks their u from (x, y, e) once per (x, y)
# pair.  Its entry points bind their IdentityId once (_at): reading an
# enum member costs about 0.2 µs on Python 3.11, a fifth of a short scan.
# Right Bol takes 1.0-1.9 µs per order-6 loop.  Measured dead ends (2-CPU
# Xeon): one per-tuple lambda scan for all four laws adds 0.7-0.9 µs per
# loop per identity, about +15% on the benchmark's sweep-default pass and
# +20% on order7-slice; a row-at-a-time map scan is 3-5x slower; a
# generic scan over per-(x, y) rows and columns is 1.3-1.5x slower, plus
# 1-2 µs per loop to build the column tuples.
#
# From _TAIL_ORDER on, a scan whose first row holds hands the other rows
# to _tail.  On relabelled cyclic groups, where every scan runs to the
# end, the numpy tail pays from order 7 for right Bol and right Moufang
# and from order 8 for all four (µs per loop in the benchmark's reference
# units, Python against tail: order 7 right Bol 33.7 against 29.1,
# associative 19.7 against 23.6; order 8 right Bol 45.0 against 35.2,
# associative 28.4 against 25.8; order 12 right Bol 144 against 65).  A
# scan that fails early in its second row pays about 15 µs more in numpy
# than in Python, and 96% of the order-6 loops (all of a sampled order-7
# enumeration part) fail right Bol and associativity in their first row,
# so below order 8 the Python scan stays the whole scan.  The tail takes
# all its rows in one block up to _BLOCK tuples: on seeded relabellings
# of both fixtures, blocks of 1, 2, 4, ... rows cost more on the scans
# that hold (right Bol 11.4 against 6.8 ms per 80 loops) than they saved
# on those that fail in row 2 (extra 3.3 against 3.6 ms).

_TAIL_ORDER = 8
_BLOCK = 1 << 16  # tuples per numpy block, at most

# (lhs, rhs) of each three-variable identity over a product m, for _tail;
# the unrolled scans below evaluate the same equations
_SIDES = {
    IdentityId.RIGHT_BOL: lambda m, x, y, z: (m(m(m(x, y), z), y), m(x, m(m(y, z), y))),
    IdentityId.RIGHT_MOUFANG: lambda m, x, y, z: (m(m(m(x, y), z), y), m(x, m(y, m(z, y)))),
    IdentityId.EXTRA: lambda m, x, y, z: (m(m(m(x, y), z), x), m(x, m(y, m(z, x)))),
    IdentityId.ASSOCIATIVE: lambda m, x, y, z: (m(m(x, y), z), m(x, m(y, z))),
}


@functools.cache
def _grid(n: int, e: int, ident: IdentityId) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The domains of ident as arrays shaped to broadcast over [x, y, z]."""
    xs, ys, zs = (np.array(d, dtype=np.intp) for d in _domains(n, e, ident))
    for a in (xs, ys, zs):
        a.flags.writeable = False  # shared by every caller through the cache
    return xs[:, None, None], ys[:, None], zs


def _tail(L: LoopTable, ident: IdentityId) -> Failure | None:
    """The first failing tuple of ident past the first x of its domain.

    The rows go to numpy in blocks of at most _BLOCK tuples, which at
    order 16 is all of them at once.  The first mismatch in C order is
    the witness, as in the Python scans.
    """
    xs, y, z = _grid(L.order, L.identity, ident)
    T = L.array.astype(np.intp)  # numpy casts any other index array first
    sides = _SIDES[ident]
    rows = max(1, _BLOCK // (y.size * z.size))
    for start in range(1, len(xs), rows):
        x = xs[start:start + rows]
        lhs, rhs = sides(lambda a, b: T[a, b], x, y, z)
        bad = lhs != rhs
        k = int(bad.argmax())
        if bad.flat[k]:
            i, j, l = np.unravel_index(k, bad.shape)
            return ((int(x[i, 0, 0]), int(y[j, 0]), int(z[l])),
                    int(lhs[i, j, l]), int(rhs[i, j, l]))
    return None


def _right_bol(L: LoopTable) -> Failure | None:
    t = L.table
    xs, ys, zs = _domains(L.order, L.identity, IdentityId.RIGHT_BOL)
    for x in xs:
        tx = t[x]
        for y in ys:
            ty = t[y]
            txy = t[tx[y]]
            for z in zs:
                lhs = t[txy[z]][y]
                rhs = tx[t[ty[z]][y]]
                if lhs != rhs:
                    return (x, y, z), lhs, rhs
        if L.order >= _TAIL_ORDER:
            return _tail(L, IdentityId.RIGHT_BOL)
    return None


# u of ((xy)z)u = x(y(zu)), as an index into (x, y, e)
_U = {IdentityId.EXTRA: 0, IdentityId.RIGHT_MOUFANG: 1, IdentityId.ASSOCIATIVE: 2}


def _right_product_law(L: LoopTable, ident: IdentityId) -> Failure | None:
    t, e, k = L.table, L.identity, _U[ident]
    xs, ys, zs = _domains(L.order, e, ident)
    for x in xs:
        tx = t[x]
        for y in ys:
            ty = t[y]
            txy = t[tx[y]]
            u = (x, y, e)[k]
            for z in zs:
                lhs = t[txy[z]][u]
                rhs = tx[ty[t[z][u]]]
                if lhs != rhs:
                    return (x, y, z), lhs, rhs
        if L.order >= _TAIL_ORDER:
            return _tail(L, ident)
    return None


def _at(ident: IdentityId) -> Callable[[LoopTable], Failure | None]:
    """_right_product_law with ident bound once, not read off IdentityId per call."""
    return lambda L: _right_product_law(L, ident)


_right_moufang = _at(IdentityId.RIGHT_MOUFANG)
_extra = _at(IdentityId.EXTRA)
_associative = _at(IdentityId.ASSOCIATIVE)


_CHECKS: dict[IdentityId, Callable[[LoopTable], Failure | None]] = {
    IdentityId.RIGHT_BOL: _right_bol,
    IdentityId.RIGHT_MOUFANG: _right_moufang,
    IdentityId.FLEXIBLE: _flexible,
    IdentityId.RIGHT_ALTERNATIVE: _right_alternative,
    IdentityId.LEFT_ALTERNATIVE: _left_alternative,
    IdentityId.RIP: _rip,
    IdentityId.LIP: _lip,
    IdentityId.EXTRA: _extra,
    IdentityId.COMMUTATIVE: _commutative,
    IdentityId.ASSOCIATIVE: _associative,
}


def check_identity(L: LoopTable, ident: IdentityId) -> Witness | None:
    """Return None when the identity holds, else the first counterexample."""
    found = _CHECKS[ident](L)
    return None if found is None else Witness(ident.value, *found)


def first_failure(L: LoopTable, ident: IdentityId) -> Failure | None:
    """check_identity's counterexample as a plain (elements, lhs, rhs) tuple."""
    return _CHECKS[ident](L)


def holds(L: LoopTable, ident: IdentityId) -> bool:
    return _CHECKS[ident](L) is None


def is_moufang(L: LoopTable) -> bool:
    return _right_moufang(L) is None


def squares_in_nucleus(L: LoopTable) -> bool:
    nuc = nuclei(L).nucleus
    return all(L.table[x][x] in nuc for x in range(L.order))


def is_extra(L: LoopTable) -> bool:
    """Decide the extra identity by scan.

    The extra <=> Moufang + squares-in-nucleus characterization is checked
    once, by the extra_iff_moufang_squares_nucleus sweep check.
    """
    return _extra(L) is None
