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
returned as a Witness, and results are deterministic across runs and
partitions.  A two-variable identity is written once, as a function
giving its (lhs, rhs) at (x, y), and runs through the one early-exit
scan `_pairs`.  The four three-variable scans (right Bol, right Moufang,
extra, associative) are hand-unrolled instead, because they run on every
loop of a sweep and unrolling measured about twice as fast as a generic
scan; the comment above them has the numbers.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Callable, Sequence

from .core import LoopTable, Witness, nuclei


class IdentityId(Enum):
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
) -> Witness | None:
    """First (x, y) in C order where the two sides of a two-variable identity differ."""
    xs, ys = _domains(L.order, L.identity, ident)
    for x in xs:
        for y in ys:
            lhs, rhs = sides(x, y)
            if lhs != rhs:
                return Witness(ident.value, (x, y), lhs, rhs)
    return None


def _flexible(L: LoopTable) -> Witness | None:
    t = L.table
    return _pairs(L, IdentityId.FLEXIBLE, lambda y, z: (t[t[y][z]][y], t[y][t[z][y]]))


def _right_alternative(L: LoopTable) -> Witness | None:
    t = L.table
    return _pairs(L, IdentityId.RIGHT_ALTERNATIVE, lambda x, y: (t[t[x][y]][y], t[x][t[y][y]]))


def _left_alternative(L: LoopTable) -> Witness | None:
    t = L.table
    return _pairs(L, IdentityId.LEFT_ALTERNATIVE, lambda x, y: (t[t[x][x]][y], t[x][t[x][y]]))


def _rip(L: LoopTable) -> Witness | None:
    t, rinv = L.table, L.rinv
    return _pairs(L, IdentityId.RIP, lambda x, y: (t[t[x][y]][rinv[y]], x))


def _lip(L: LoopTable) -> Witness | None:
    # x' means the right inverse when RIP holds (then inverses are
    # two-sided); otherwise the equation is read literally with the left
    # inverse, so the check is total on arbitrary loops.
    inv = L.rinv if _rip(L) is None else L.linv
    t = L.table
    return _pairs(L, IdentityId.LIP, lambda x, y: (t[inv[x]][t[x][y]], y))


def _commutative(L: LoopTable) -> Witness | None:
    t = L.table
    return _pairs(L, IdentityId.COMMUTATIVE, lambda x, y: (t[x][y], t[y][x]))


# The three-variable scans stay unrolled, with the row lookups hoisted
# out of the inner loop: they run on every loop of a sweep, while the
# two-variable scans above only run on right Bol loops.  Over all 9 408
# order-6 loops (best of 3, µs per loop on a 2-CPU Xeon) right Bol took
# 10.3 unrolled, 18.3 as a per-tuple lambda scan and 23.1 as one numpy
# tensor; associative took 5.9 unrolled and 12.7 as a lambda scan, all
# over every tuple.  In paired runs the _SKIPS_E skips took the unrolled
# scans from 7.1-9.2 to 2.8-3.7 (right Bol) and 5.9-7.7 to 2.2-3.3.


def _right_bol(L: LoopTable) -> Witness | None:
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
                    return Witness("right_bol", (x, y, z), lhs, rhs)
    return None


def _right_moufang(L: LoopTable) -> Witness | None:
    t = L.table
    xs, ys, zs = _domains(L.order, L.identity, IdentityId.RIGHT_MOUFANG)
    for x in xs:
        tx = t[x]
        for y in ys:
            ty = t[y]
            txy = t[tx[y]]
            for z in zs:
                lhs = t[txy[z]][y]
                rhs = tx[ty[t[z][y]]]
                if lhs != rhs:
                    return Witness("right_moufang", (x, y, z), lhs, rhs)
    return None


def _extra(L: LoopTable) -> Witness | None:
    t = L.table
    xs, ys, zs = _domains(L.order, L.identity, IdentityId.EXTRA)
    for x in xs:
        tx = t[x]
        for y in ys:
            ty = t[y]
            txy = t[tx[y]]
            for z in zs:
                lhs = t[txy[z]][x]
                rhs = tx[ty[t[z][x]]]
                if lhs != rhs:
                    return Witness("extra", (x, y, z), lhs, rhs)
    return None


def _associative(L: LoopTable) -> Witness | None:
    t = L.table
    xs, ys, zs = _domains(L.order, L.identity, IdentityId.ASSOCIATIVE)
    for x in xs:
        tx = t[x]
        for y in ys:
            ty = t[y]
            txy = t[tx[y]]
            for z in zs:
                lhs = txy[z]
                rhs = tx[ty[z]]
                if lhs != rhs:
                    return Witness("associative", (x, y, z), lhs, rhs)
    return None


_CHECKS: dict[IdentityId, Callable[[LoopTable], Witness | None]] = {
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
