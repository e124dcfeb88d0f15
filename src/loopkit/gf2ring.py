"""GF(2) loop-algebra oracles: brute force and low weight.

An element of the loop algebra over the two-element field is a subset of
the n loop elements, encoded as an n-bit mask with loop element i at bit
i.  Addition is XOR; multiplication extends the loop product by the
distributive laws, so the coefficient of g in a*b is the parity of the
number of pairs (i in a, j in b) with i*j = g.

Two oracles decide the four ring identities.  Both compute only ring
products of GF(2) vectors from the Cayley table and share only core's
neutral scan helpers, so they are independent of the pointwise criteria
they cross-check.

- low_weight_ring_check scans the basis tuples the unit law leaves open
  early-exit on the Cayley table, then the weight-2 tuples in numpy
  blocks; the degree and unit lemmas in its docstring show this is
  enough.  With no product table it runs up to order 64; `loopkit
  ring-check`, oracle_equiv_srar and oracle_equiv_ra2 use it.
- ring_identity_check enumerates every tuple of ring elements (masks
  scan in ascending integer order) over the 2^n x 2^n product table.
  All four identities share one loop over x: each supplies the lhs and
  rhs slabs over (y[, z]) for a fixed x, and the first mismatch in C
  order is the witness.  Fixed caps keep the 2^(kn) scans at desk
  scale: order 8 for the two-variable identities, order 6 for the
  three-variable ones.  It is the assumption-free reference the tests
  hold the low-weight oracle to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import LoopError, LoopTable, OrderExceedsCap, read_only
from .core import first_set, scan_domains, x_blocks
from .conditions import LoopFacts, abc_gaps
from .identities import IdentityId

TWO_VAR_CAP = 8
THREE_VAR_CAP = 6
# The low-weight oracle holds ring elements as uint64 masks.
LOW_WEIGHT_CAP = 64


class LengthMismatch(LoopError):
    """Ring elements must match the loop's order."""


class RingIdentityId(Enum):
    __hash__ = object.__hash__  # C-level; the members are singletons

    RIGHT_ALTERNATIVE = "ring_right_alternative"
    LEFT_ALTERNATIVE = "ring_left_alternative"
    RIGHT_BOL = "ring_right_bol"
    RIGHT_MOUFANG = "ring_right_moufang"


@dataclass(frozen=True)
class Gf2Elem:
    """A loop-algebra element over GF(2): a bit mask of basis loop elements."""

    order: int
    bits: int

    def __init__(self, order: int, bits: int):
        if not 0 <= bits < (1 << order):
            raise LengthMismatch(f"mask {bits:#x} does not fit order {order}")
        d = self.__dict__  # as in core.LoopTable
        d["order"], d["bits"] = order, bits

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

    def __init__(
        self, identity_id: str, elements: tuple[Gf2Elem, ...], lhs: Gf2Elem, rhs: Gf2Elem
    ):
        d = self.__dict__  # as in core.LoopTable
        d["identity_id"], d["elements"], d["lhs"], d["rhs"] = identity_id, elements, lhs, rhs

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


def ring_identity_check(L: LoopTable, ident: RingIdentityId) -> RingWitness | None:
    """Scan all ring-element tuples; None when the identity holds.

    Scans run with x outermost in ascending mask order, then (y[, z]) in
    C order, so the reported witness is the lexicographically first
    violating tuple.  Raises OrderExceedsCap, before anything is
    allocated, past TWO_VAR_CAP or THREE_VAR_CAP.
    """
    n = L.order
    cap = TWO_VAR_CAP if len(_BASIS_SKIPS_E[ident]) == 2 else THREE_VAR_CAP
    if n > cap:
        raise OrderExceedsCap(f"order {n} exceeds cap {cap} for {ident.value}")
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
        at = first_set(lhs != rhs)
        if at is not None:
            return RingWitness(
                ident.value,
                tuple(Gf2Elem(n, int(v)) for v in (x, *at)),
                Gf2Elem(n, int(lhs[at])),
                Gf2Elem(n, int(rhs[at])),
            )
    return None


# Each ring identity's (lhs, rhs), written once over the product m.  The
# squared variable, y (x in left alternative), occurs twice on each side,
# every other variable once.
_SIDES = {
    RingIdentityId.RIGHT_ALTERNATIVE: lambda m, x, y: (m(m(x, y), y), m(x, m(y, y))),
    RingIdentityId.LEFT_ALTERNATIVE: lambda m, x, y: (m(m(x, x), y), m(x, m(x, y))),
    RingIdentityId.RIGHT_BOL:
        lambda m, x, y, z: (m(m(m(x, y), z), y), m(x, m(m(y, z), y))),
    RingIdentityId.RIGHT_MOUFANG:
        lambda m, x, y, z: (m(m(m(x, y), z), y), m(x, m(y, m(z, y)))),
}

# Per variable of each ring law, so its length is the law's arity: True
# where stage 1 skips the basis tuples with that variable at the identity
# element e, which the unit law alone decides (the unit lemma in
# low_weight_ring_check's docstring).
_BASIS_SKIPS_E: dict[RingIdentityId, tuple[bool, ...]] = {
    RingIdentityId.RIGHT_ALTERNATIVE: (True, True),
    RingIdentityId.LEFT_ALTERNATIVE: (True, True),
    RingIdentityId.RIGHT_BOL: (True, True, False),
    RingIdentityId.RIGHT_MOUFANG: (False, True, False),
}


def low_weight_ring_check(L: LoopTable, ident: RingIdentityId) -> RingWitness | None:
    """Decide a ring identity on low-weight tuples; None when it holds.

    Degree lemma.  Let f map the subsets of {0..n-1} to an abelian group
    by f(S) = sum of beta(a_1, ..., a_d) over all d-tuples in S^d.  Then
    f vanishes on every S iff it vanishes on every S with |S| <= d.
    Proof: group the d-tuples of S^d by the set U of their entries, so
    f(S) = sum over U ⊆ S with |U| <= d of h(U), where h(U) sums beta
    over the tuples whose entry set is exactly U.  Möbius inversion over
    the subsets of U gives h(U) = sum over V ⊆ U of
    (-1)^|U - V| f(V).  If f vanishes on all sets of size <= d, every
    h(U) with |U| <= d is a sum of zeros, so every f(S) is 0.

    A ring element is the sum of the basis elements in its support, so
    by distributivity each side of an identity, with the other variables
    fixed, has this form in a variable that occurs d times on that side.
    Applying the lemma to one variable at a time, the identity holds iff
    it holds whenever each variable has weight at most its degree.
    Weight 0 gives 0 on both sides, since every side contains every
    variable.  So the test sets are:

    - right Bol, right Moufang: x and z basis, y of weight 1 or 2;
    - right alternative: x basis, y of weight 1 or 2;
    - left alternative: x of weight 1 or 2, y basis.

    That is n^2 * n(n+1)/2 tuples for the three-variable laws, against
    2^(3n).  At weight 1 the identity is the loop identity on basis
    elements; at weight 2, given weight 1, only the cross terms remain,
    which for right Bol at y = e_a + e_b are the four D/E/F products of
    the quadruple (x, a, z, b).  This function still evaluates only ring
    products: a product of basis elements is one Cayley table entry, and
    one with a weight-2 element XORs the one-hot uint64 masks of entries.

    Unit lemma.  The loop's identity element e, as a basis element, is
    the unit of the ring, so a law is a tautology at a tuple where it
    becomes one after putting e for a variable and cancelling
    e * a = a * e = a.  Right Bol ((xy)z)y = x((yz)y) reads (yz)y = (yz)y
    at x = e and xz = xz at y = e, but (xy)y = x(yy) at z = e.  Right
    Moufang ((xy)z)y = x(y(zy)) reads xz = xz at y = e, but
    (yz)y = y(zy) at x = e and (xy)y = x(yy) at z = e.  Right alternative
    (xy)y = x(yy) reads yy = yy at x = e and x = x at y = e; left
    alternative (xx)y = x(xy) reads y = y at x = e and xx = xx at y = e.
    So the basis tuples with e in a position _BASIS_SKIPS_E marks hold in
    every loop ring: x = e or y = e for right Bol and both alternative
    laws, y = e for right Moufang.  The laws left at z = e (and at x = e
    for right Moufang) are laws of their own, so those tuples stay.

    Scan order: first the tuples of basis elements, except the ones the
    unit lemma decides, in one early-exit scan; then those whose squared
    variable has weight 2.  Each stage runs in C order over (x, y[, z]),
    each variable's candidates in ascending mask order.  The witness is
    the first failing tuple in that order; a skipped tuple never fails,
    so it is the first failing low-weight tuple with e included too.
    Raises OrderExceedsCap past order LOW_WEIGHT_CAP.
    """
    found = _low_weight_failure(L, ident)
    if found is None:
        return None
    *at, lhs, rhs = [Gf2Elem(L.order, bits) for bits in found]
    return RingWitness(ident.value, tuple(at), lhs, rhs)


def _low_weight_failure(L: LoopTable, ident: RingIdentityId) -> tuple[int, ...] | None:
    """Masks of the first failing low-weight tuple, then of both sides."""
    if L.order > LOW_WEIGHT_CAP:
        raise OrderExceedsCap(
            f"order {L.order} exceeds the low-weight oracle's {LOW_WEIGHT_CAP}-bit masks"
        )
    return _basis_failure(L, ident) or _weight_two_failure(L, ident)


def _basis_failure(L: LoopTable, ident: RingIdentityId) -> tuple[int, ...] | None:
    """Stage 1: masks of the first failing basis tuple, then of both sides."""
    t, domains = L.table, scan_domains(L.order, L.identity, _BASIS_SKIPS_E[ident])
    if len(domains) == 2:
        (xs, ys), left = domains, ident is RingIdentityId.LEFT_ALTERNATIVE
        for x in xs:
            tx = t[x]
            for y in ys:
                # (x*y)*y against x*(y*y), or (x*x)*y against x*(x*y) for left
                lhs, rhs = (t[tx[x]][y], tx[tx[y]]) if left else (t[tx[y]][y], tx[t[y][y]])
                if lhs != rhs:
                    return 1 << x, 1 << y, 1 << lhs, 1 << rhs
        return None
    xs, ys, zs = domains
    moufang = ident is RingIdentityId.RIGHT_MOUFANG
    for x in xs:
        tx = t[x]
        for y in ys:
            ty, txy = t[y], t[tx[y]]
            for z in zs:
                # ((x*y)*z)*y against x*((y*z)*y), or x*(y*(z*y)) for Moufang
                lhs = t[txy[z]][y]
                rhs = tx[ty[t[z][y]]] if moufang else tx[t[ty[z]][y]]
                if lhs != rhs:
                    return 1 << x, 1 << y, 1 << z, 1 << lhs, 1 << rhs
    return None


def _weight_two_failure(L: LoopTable, ident: RingIdentityId) -> tuple[int, ...] | None:
    """Stage 2: the same with the squared variable at weight 2, in core.x_blocks.

    A ring element is one index array whose axis 0 runs over its terms, so
    a product is one gather over all pairs of terms and a side one XOR.
    """
    if L.order < 2:  # no element of weight 2
        return None
    T = L.array.astype(np.intp)  # its entries index T and the masks again

    def m(u, v):
        uv = T[u[:, None], v[None, :]]
        return uv.reshape(-1, *uv.shape[2:])

    one, cands, (gx, *grid) = _low_weight_plan(L.order, ident)
    for xs in x_blocks(cands[0].shape[1], math.prod(c.shape[1] for c in cands[1:])):
        sides = _SIDES[ident](m, gx[:, xs], *grid)
        lhs, rhs = (np.bitwise_xor.reduce(one[side], axis=0) for side in sides)
        at = first_set(lhs != rhs)
        if at is not None:
            pos = (xs.start + at[0], *at[1:])
            masks_at = (sum(1 << int(t) for t in c[:, p]) for c, p in zip(cands, pos))
            return *masks_at, int(lhs[at]), int(rhs[at])
    return None


@functools.cache
def _low_weight_plan(n: int, ident: RingIdentityId):
    """The one-hot masks, and the stage-2 test set, as (one, cands, grid).

    cands[j] holds variable j's candidates in scan order as one index
    array, [term, candidate]; grid[j] is the same array shaped [term,
    ...] with the candidate on axis 1 + j, so each variable's terms stay
    on axis 0.  Every array is read-only, since the cache shares it.
    Below order 2 the weight-2 candidates are empty.
    """
    one = read_only(np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64)))
    k = len(_BASIS_SKIPS_E[ident])
    weight_two = np.stack(np.tril_indices(n, -1))  # (b, a) with a < b, ascending mask order
    squared = 0 if ident is RingIdentityId.LEFT_ALTERNATIVE else 1
    cands = tuple(read_only(weight_two if j == squared else np.arange(n)[None]) for j in range(k))
    grid = tuple(
        read_only(c.reshape(len(c), *[-1 if i == j else 1 for i in range(k)]))
        for j, c in enumerate(cands)
    )
    return one, cands, grid


def oracle_equiv_srar(L: LoopFacts | LoopTable) -> bool:
    """Ring right Bol (low-weight oracle) agrees with the pointwise SRAR criterion.

    Both sides are computed independently; a False return means a proved
    equivalence failed and should be treated as an implementation bug.
    """
    f = LoopFacts.of(L)
    ring_side = _low_weight_failure(f.loop, RingIdentityId.RIGHT_BOL) is None
    return ring_side == f.srar


def oracle_equiv_ra2(L: LoopFacts | LoopTable) -> bool:
    """Do both halves of the alternative-ring equivalence agree?

    The ring right alternative law against the pointwise law (xy)y =
    x(yy) plus D'/E'/F' coverage of every triple, and the ring left
    alternative law against (xx)y = x(xy) plus {A,B,C} coverage.  Each
    ring side comes from the low-weight oracle, the pointwise sides from
    the identity scans and the triple products' mask parity and D'/E'/F'
    code, tested without building a Witness.

    Both are equivalences on every loop, so a False return means an
    implementation bug.  Proof by polarization: (ab)b + a(bb) is linear
    in a, so take a = e_x; for b the sum of e_y over a set S it is the
    sum over y, z in S of e_(xy)z + e_x(yz).  The terms with y = z give
    e_(xy)y + e_x(yy), and each unordered pair y != z gives e_(xy)z +
    e_x(yz) + e_(xz)y + e_x(zy), which is 0 in characteristic 2 exactly
    when the four products pair up: D', E' or F' at (x, y, z).  By the degree
    lemma (low_weight_ring_check) the law holds iff it holds at |S| <= 2,
    that is iff (xy)y = x(yy) everywhere and every triple with y != z is
    covered.  At y = z, F' holds trivially, so coverage of all triples is
    the same condition and alone misses the pointwise law.  The left law
    is the mirror image: terms with x = y give (xx)z = x(xz), pairs
    x != y give A, B or C at (x, y, z), and C holds trivially at x = y.
    """
    f = LoopFacts.of(L)
    left_ring = _low_weight_failure(f.loop, RingIdentityId.LEFT_ALTERNATIVE) is None
    if left_ring != (f.holds(IdentityId.LEFT_ALTERNATIVE) and not abc_gaps(f).any()):
        return False
    right_ring = _low_weight_failure(f.loop, RingIdentityId.RIGHT_ALTERNATIVE) is None
    return right_ring == (f.holds(IdentityId.RIGHT_ALTERNATIVE) and f.coverage.def_everywhere)
