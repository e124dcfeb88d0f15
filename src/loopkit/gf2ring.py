"""Brute-force GF(2) loop-algebra oracle.

An element of the loop algebra over the two-element field is a subset of
the n loop elements, encoded as an n-bit mask with loop element i at bit
i.  Addition is XOR; multiplication extends the loop product by the
distributive laws, so the coefficient of g in a*b is the parity of the
number of pairs (i in a, j in b) with i*j = g.

Ring identities are decided by enumerating every tuple of ring elements
(masks scan in ascending integer order), which makes this module an
oracle that is independent of any pointwise criterion on the loop.  All
four identities share one loop over x: each supplies the lhs and rhs
slabs over (y[, z]) for a fixed x, built from the 2^n x 2^n product
table, and the first mismatch in C order is the witness.  The
identities have repeated variables, so no multilinear shortcut is taken.
Default caps keep the 2^(kn) scans at desk scale: order 8 for the
two-variable identities, order 6 for the three-variable ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import LoopError, LoopTable
from .conditions import LoopFacts, first_abc_gap, first_triple_gap

TWO_VAR_CAP = 8
THREE_VAR_CAP = 6


class LengthMismatch(LoopError):
    """Ring elements must match the loop's order."""


class OrderExceedsCap(LoopError):
    """Loop order is over the cap for the requested ring scan."""


class RingIdentityId(Enum):
    RIGHT_ALTERNATIVE = "ring_right_alternative"
    LEFT_ALTERNATIVE = "ring_left_alternative"
    RIGHT_BOL = "ring_right_bol"
    RIGHT_MOUFANG = "ring_right_moufang"


_NVARS = {
    RingIdentityId.RIGHT_ALTERNATIVE: 2,
    RingIdentityId.LEFT_ALTERNATIVE: 2,
    RingIdentityId.RIGHT_BOL: 3,
    RingIdentityId.RIGHT_MOUFANG: 3,
}


@dataclass(frozen=True)
class Gf2Elem:
    """A loop-algebra element over GF(2): a bit mask of basis loop elements."""

    order: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.order):
            raise LengthMismatch(f"mask {self.bits:#x} does not fit order {self.order}")

    def __add__(self, other: "Gf2Elem") -> "Gf2Elem":
        if self.order != other.order:
            raise LengthMismatch(f"orders differ: {self.order} vs {other.order}")
        return Gf2Elem(self.order, self.bits ^ other.bits)

    def support(self) -> tuple[int, ...]:
        """Sorted 1-indexed loop elements with coefficient 1."""
        return tuple(i + 1 for i in range(self.order) if self.bits >> i & 1)

    def describe(self) -> str:
        return "+".join(str(i) for i in self.support()) or "0"


def zero(n: int) -> Gf2Elem:
    return Gf2Elem(n, 0)


def basis(n: int, x: int) -> Gf2Elem:
    """The basis element for loop element x (0-indexed)."""
    return Gf2Elem(n, 1 << x)


def ring_one(L: LoopTable) -> Gf2Elem:
    return basis(L.order, L.identity)


@dataclass(frozen=True)
class RingWitness:
    """First ring-element tuple falsifying a ring identity, with both sides."""

    identity_id: str
    elements: tuple[Gf2Elem, ...]
    lhs: Gf2Elem
    rhs: Gf2Elem

    def describe(self) -> str:
        names = "xyz"
        parts = " ".join(f"{names[i]}={e.describe()}" for i, e in enumerate(self.elements))
        return (
            f"{self.identity_id} fails at {parts}: "
            f"lhs={self.lhs.describe()} rhs={self.rhs.describe()}"
        )


def rmul(L: LoopTable, a: Gf2Elem, b: Gf2Elem) -> Gf2Elem:
    """Definitional ring product: parity over all basis pairs."""
    if a.order != L.order or b.order != L.order:
        raise LengthMismatch(
            f"ring elements of orders {a.order}, {b.order} on a loop of order {L.order}"
        )
    t = L.table
    acc = 0
    abits = a.bits
    while abits:
        low = abits & -abits
        abits ^= low
        row = t[low.bit_length() - 1]
        bbits = b.bits
        while bbits:
            low2 = bbits & -bbits
            bbits ^= low2
            acc ^= 1 << row[low2.bit_length() - 1]
    return Gf2Elem(L.order, acc)


def product_table(L: LoopTable) -> np.ndarray:
    """The full 2^n x 2^n mask product table, built by subset doubling.

    P[a, b] is the mask of the ring product of masks a and b; rows and
    columns are indexed by ascending mask value.  Agrees with rmul by
    bilinearity (and is cross-checked against it in the tests).
    """
    n = L.order
    if n > 14:
        # 2^n x 2^n entries: past order 14 the table alone is gigabytes
        raise OrderExceedsCap(f"product table for order {n} would need 4^{n} entries")
    N = 1 << n
    dtype = np.uint16
    rows = []
    for i in range(n):
        arr = np.zeros(1, dtype=dtype)
        row = L.table[i]
        for j in range(n):
            arr = np.concatenate([arr, arr ^ dtype(1 << row[j])])
        rows.append(arr)
    P = np.zeros((1, N), dtype=dtype)
    for i in range(n):
        P = np.concatenate([P, P ^ rows[i][None, :]], axis=0)
    return P


def default_cap(ident: RingIdentityId) -> int:
    return TWO_VAR_CAP if _NVARS[ident] == 2 else THREE_VAR_CAP


def ring_identity_check(
    L: LoopTable, ident: RingIdentityId, cap: int | None = None
) -> RingWitness | None:
    """Scan all ring-element tuples; None when the identity holds.

    Scans run with x outermost in ascending mask order, then (y[, z]) in
    C order, so the reported witness is the lexicographically first
    violating tuple.  Raises OrderExceedsCap when the loop order is over
    the (default or explicit) cap.
    """
    limit = default_cap(ident) if cap is None else cap
    n = L.order
    if n > limit:
        raise OrderExceedsCap(
            f"order {n} exceeds cap {limit} for {ident.value}; pass an explicit cap to override"
        )
    P = product_table(L)
    N = 1 << n
    Y = np.arange(N, dtype=np.intp)
    # Each branch fixes the x-independent term q, if any, and sides(x),
    # the lhs and rhs slabs over (y[, z]) for one x.
    if ident is RingIdentityId.LEFT_ALTERNATIVE:
        def sides(x: int) -> tuple[np.ndarray, np.ndarray]:
            return P[int(P[x, x])], P[x][P[x]]      # (x*x)*y, x*(x*y)
    elif ident is RingIdentityId.RIGHT_ALTERNATIVE:
        q = P[Y, Y]                                 # y*y
        def sides(x: int) -> tuple[np.ndarray, np.ndarray]:
            return P[P[x], Y], P[x][q]              # (x*y)*y, x*(y*y)
    else:
        if ident is RingIdentityId.RIGHT_BOL:
            q = P[P, Y[:, None]]                    # q[y,z] = (y*z)*y
        else:
            q = P[Y[:, None], P.T]                  # q[y,z] = y*(z*y)
        def sides(x: int) -> tuple[np.ndarray, np.ndarray]:
            return P[P[P[x]], Y[:, None]], P[x][q]  # ((x*y)*z)*y, x*q[y,z]
    for x in range(N):
        lhs, rhs = sides(x)
        if not np.array_equal(lhs, rhs):
            at = np.unravel_index(int((lhs != rhs).argmax()), lhs.shape)
            return RingWitness(
                ident.value,
                tuple(Gf2Elem(n, int(v)) for v in (x, *at)),
                Gf2Elem(n, int(lhs[at])),
                Gf2Elem(n, int(rhs[at])),
            )
    return None


def oracle_equiv_srar(L: LoopFacts | LoopTable) -> bool:
    """Ring right Bol (brute force) agrees with the pointwise SRAR criterion.

    Both sides are computed independently; a False return means a proved
    equivalence failed and should be treated as an implementation bug.
    The ring scan runs first, so an order over its cap raises
    OrderExceedsCap before any pointwise work.
    """
    f = LoopFacts.of(L)
    ring_side = ring_identity_check(f.loop, RingIdentityId.RIGHT_BOL) is None
    return ring_side == f.srar


def oracle_equiv_ra2(L: LoopFacts | LoopTable) -> bool:
    """Do both halves of the alternative-ring equivalence agree?

    Pointwise {A,B,C} coverage of every triple against the ring left
    alternative law, and pointwise starred coverage against the ring
    right alternative law; each side comes from its own scan, ring side
    first, so an order over the cap raises OrderExceedsCap.  Agreement
    is a theorem for Moufang loops and holds empirically for every loop
    of order <= 5; some non-Moufang loops of order 6 have full coverage
    yet fail a pointwise alternative law, hence the ring law, so a False
    return on such input is data, not a bug.
    """
    f = LoopFacts.of(L)
    left_ring = ring_identity_check(f.loop, RingIdentityId.LEFT_ALTERNATIVE) is None
    if left_ring != (first_abc_gap(f) is None):
        return False
    right_ring = ring_identity_check(f.loop, RingIdentityId.RIGHT_ALTERNATIVE) is None
    return right_ring == (first_triple_gap(f) is None)
