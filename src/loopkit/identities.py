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
    lip                x'(xy)   = y         (x' the left inverse; two-sided under RIP)
    extra              [(xy)z]x = x[y(zx)]
    commutative        xy       = yx
    associative        (xy)z    = x(yz)

A scan skips the tuples that the identity law alone decides (`_SKIPS_E`),
so the first failing tuple in full lexicographic order is still the one
it returns, and results are deterministic across runs and partitions.
Scans decide without explaining: each returns that tuple as a plain
(elements, lhs, rhs) tuple, or None.  check_identity is the one route
that wraps it in a Witness; caches such as conditions.LoopFacts call the
_CHECKS entries directly and explain only on request.  holds,
is_moufang and is_extra only test for None, so deciding a loop builds
no Witness.  Each _CHECKS entry is one of three scans, bound to its
identity by a functools.partial where it serves more than one.  The
two-variable identities are each one `_PAIR_SIDES` entry, giving its
(lhs, rhs) at (x, y), which `_pair_law` scans with an early exit.  The
three-variable identities run on every loop of a sweep, so two
hand-unrolled scans decide them: `_right_bol`, and `_right_product_law`
for ((xy)z)u = x(y(zu)), which is right Moufang at u = y, extra at
u = x and associativity at u = e.  From order 8, such a scan runs in
Python only over the first y row of its first x; if that holds,
`_numpy_scan` evaluates the identity, written once in `_SIDES`, over
the whole domain from the loop's `Products` arrays, in core.x_blocks.
The first mismatch in C order is the witness there too, since a skipped
tuple never fails.  No loop of order 7 or less ever pays for numpy.
The comment above the scans has the numbers.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import LoopTable, Witness, first_set, memo, nuclei, scan_domains, x_blocks

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


class Products:
    """One loop's arrays for the numpy stages, each built on first read.

    intp is the table as intp indices (numpy casts any other index array
    first); xy_z is (xy)z and x_yz is x(yz), indexed [x, y, z].
    conditions.LoopFacts is a Products, so the stages it calls share them.
    """

    def __init__(self, loop: LoopTable):
        self.loop = loop

    intp = memo(lambda self: self.loop.array.astype(np.intp))
    xy_z = memo(lambda self: self.intp[self.intp])
    x_yz = memo(lambda self: self.intp.take(self.intp, axis=1))
    # ((xy)z)y, the left side of right Bol and of right Moufang (see _SIDES)
    xy_z_y = memo(lambda self: _mul(self, self.xy_z, np.arange(self.loop.order)[:, None]))


Scan = Callable[[LoopTable, Products | None], Failure | None]

_LIP = IdentityId.LIP  # bound once, as _RIGHT_BOL is below

# (lhs, rhs) of each two-variable identity at (x, y), from the table t and
# an inverse map i: in LIP x' is the left inverse, elsewhere i is the
# right one, which RIP reads and the other four ignore.
_PAIR_SIDES = {
    IdentityId.FLEXIBLE: lambda t, i, y, z: (t[t[y][z]][y], t[y][t[z][y]]),
    IdentityId.RIGHT_ALTERNATIVE: lambda t, i, x, y: (t[t[x][y]][y], t[x][t[y][y]]),
    IdentityId.LEFT_ALTERNATIVE: lambda t, i, x, y: (t[t[x][x]][y], t[x][t[x][y]]),
    IdentityId.RIP: lambda t, i, x, y: (t[t[x][y]][i[y]], x),
    IdentityId.LIP: lambda t, i, x, y: (t[i[x]][t[x][y]], y),
    IdentityId.COMMUTATIVE: lambda t, i, x, y: (t[x][y], t[y][x]),
}


def _pair_law(ident: IdentityId, L: LoopTable, products: Products | None = None) -> Failure | None:
    """The first (x, y) in C order where ident's two sides differ on L."""
    sides, t = _PAIR_SIDES[ident], L.table
    i = L.linv if ident is _LIP else L.rinv
    xs, ys = scan_domains(L.order, L.identity, (True, True))
    for x in xs:
        for y in ys:
            lhs, rhs = sides(t, i, x, y)
            if lhs != rhs:
                return (x, y), lhs, rhs
    return None


# Two unrolled scans, with the row lookups hoisted out of the inner loop,
# decide the four three-variable identities.  Right Bol's inner bracket
# (yz)y is not of the form y(zu), so it keeps its own scan; the other
# three share one, and _U picks their u from (x, y, e) once per (x, y)
# pair.  A functools.partial binds each entry point's IdentityId once, in
# C: an enum member read costs about 0.2 µs on Python 3.11.
# Right Bol takes 1.0-1.9 µs per order-6 loop.  Measured dead ends (2-CPU
# Xeon): one per-tuple lambda scan for all four laws adds 0.7-0.9 µs per
# loop per identity, about +15% on the benchmark's sweep-default pass and
# +20% on order7-slice; a row-at-a-time map scan is 3-5x slower; a
# generic scan over per-(x, y) rows and columns is 1.3-1.5x slower, plus
# 1-2 µs per loop to build the column tuples.
#
# From _TAIL_ORDER on, the Python scan stops after the first y row of the
# first x (_python_domains), so no order <= 7 scan tests anything per row
# (a per-row order test cost the order-6 right Bol scan 2-4%).  On
# relabelled cyclic groups, where every scan runs to its end, µs per scan
# on a 2-CPU Xeon, Python against numpy from built Products: order 8
# right Bol 32 against 13, associative 27 against 5; order 16 right Bol
# 251 against 26.  A scan failing in its first x row past its first y
# pays more (on 40 relabellings of each fixture, medians of 2 µs against
# 9 for associativity, 27-33 for right Moufang and extra), but the
# benchmark's survey-relabelled pass went from 0.334 to 0.280 s (medians
# of 20 alternating pairs).  Below order 8, 96% of the loops fail right
# Bol and associativity in their first row, so numpy would not pay.  The
# x rows go to numpy in core.x_blocks, whose first block holds all of n^3
# up to order 16: blocks of 1, 2, 4, ... rows cost more on the fixtures'
# scans that hold (right Bol 11.4 against 6.8 ms per 80 loops) than they
# saved on those failing in row 2 (extra 3.3 against 3.6 ms).

_TAIL_ORDER = 8


def _mul(p: Products, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab for index arrays a and b, by one flat gather: a quarter faster than intp[a, b]."""
    return p.intp.take(a * p.loop.order + b)


def _x_y_zx(p: Products, xs: slice, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x(y(zx)) over the x rows xs: x_yz at [x, y, zx], as one flat gather."""
    n = p.loop.order
    return p.x_yz.take((x * n + y) * n + p.intp.T[xs, None])


# (lhs, rhs) of each three-variable identity over the x rows xs of a
# Products p, indexed [x, y, z] with x = arange(n)[xs, None, None] and y =
# arange(n)[:, None]; x times an [y, z] array w is intp[xs].take(w, axis=1).
# Right Bol and right Moufang share ((xy)z)y, which a Products builds
# over all x at once, so a loop that runs both tails builds it once.  The
# unrolled scans below evaluate the same equations.
_SIDES = {
    IdentityId.RIGHT_BOL: lambda p, xs, x, y: (
        p.xy_z_y[xs], p.intp[xs].take(_mul(p, p.intp, y), axis=1)),
    IdentityId.RIGHT_MOUFANG: lambda p, xs, x, y: (
        p.xy_z_y[xs], p.intp[xs].take(_mul(p, y, p.intp.T), axis=1)),
    IdentityId.EXTRA: lambda p, xs, x, y: (_mul(p, p.xy_z[xs], x), _x_y_zx(p, xs, x, y)),
    IdentityId.ASSOCIATIVE: lambda p, xs, x, y: (p.xy_z[xs], p.x_yz[xs]),
}


def _numpy_scan(L: LoopTable, products: Products | None, ident: IdentityId) -> Failure | None:
    """The first failing tuple of ident over all of L^3, read from products.

    The x rows go to numpy in core.x_blocks, which up to order 16 is all
    of them at once.  The first mismatch in C order is the scan's
    witness, since no tuple the scan skips ever fails.
    """
    p = Products(L) if products is None else products
    n = L.order
    a = np.arange(n)
    for xs in x_blocks(n, n * n):
        lhs, rhs = _SIDES[ident](p, xs, a[xs, None, None], a[:, None])
        at = first_set(lhs != rhs)
        if at is not None:
            return (xs.start + at[0], *at[1:]), int(lhs[at]), int(rhs[at])
    return None


_RIGHT_BOL = IdentityId.RIGHT_BOL  # bound once, as the _CHECKS partials bind theirs


@functools.cache
def _python_domains(n: int, e: int, ident: IdentityId) -> tuple[Sequence[int], ...]:
    """The part of ident's domain that its unrolled scan visits in Python.

    Below _TAIL_ORDER that is all of it; from there on, the first y row
    of the first x, one row of z, after which _numpy_scan takes over.
    """
    xs, ys, zs = scan_domains(n, e, _SKIPS_E[ident])
    return (xs, ys, zs) if n < _TAIL_ORDER else (xs[:1], ys[:1], zs)


def _right_bol(L: LoopTable, products: Products | None = None) -> Failure | None:
    t = L.table
    xs, ys, zs = _python_domains(L.order, L.identity, _RIGHT_BOL)
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
    return None if L.order < _TAIL_ORDER else _numpy_scan(L, products, _RIGHT_BOL)


# u of ((xy)z)u = x(y(zu)), as an index into (x, y, e)
_U = {IdentityId.EXTRA: 0, IdentityId.RIGHT_MOUFANG: 1, IdentityId.ASSOCIATIVE: 2}


def _right_product_law(
    ident: IdentityId, L: LoopTable, products: Products | None = None
) -> Failure | None:
    t, e, k = L.table, L.identity, _U[ident]
    xs, ys, zs = _python_domains(L.order, e, ident)
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
    return None if L.order < _TAIL_ORDER else _numpy_scan(L, products, ident)


_CHECKS: dict[IdentityId, Scan] = {
    IdentityId.RIGHT_BOL: _right_bol,
    **{ident: functools.partial(_right_product_law, ident) for ident in _U},
    **{ident: functools.partial(_pair_law, ident) for ident in _PAIR_SIDES},
}


def check_identity(L: LoopTable, ident: IdentityId) -> Witness | None:
    """Return None when the identity holds, else the first counterexample."""
    found = _CHECKS[ident](L)
    return None if found is None else Witness(ident.value, *found)


def holds(L: LoopTable, ident: IdentityId) -> bool:
    return _CHECKS[ident](L) is None


def is_moufang(L: LoopTable) -> bool:
    return holds(L, IdentityId.RIGHT_MOUFANG)


def squares_in_nucleus(L: LoopTable) -> bool:
    nuc = nuclei(L).nucleus
    return all(L.table[x][x] in nuc for x in range(L.order))


def is_extra(L: LoopTable) -> bool:
    """Decide the extra identity by scan.

    The extra <=> Moufang + squares-in-nucleus characterization is checked
    once, by the extra_iff_moufang_squares_nucleus sweep check.
    """
    return holds(L, IdentityId.EXTRA)
