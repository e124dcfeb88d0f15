"""Pointwise quadruple/triple conditions and the SRAR / RA2 deciders.

For a quadruple (x, y, z, w) the four products

    S = [(xy)z]w   T = x[(yz)w]   U = [(xw)z]y   V = x[(wz)y]

define the conditions D: S=T and U=V, E: S=V and T=U, F: S=U and T=V.
Setting w to the identity yields the primed conditions on triples

    D': (xy)z = x(yz) and (xz)y = x(zy)
    E': (xy)z = x(zy) and (xz)y = x(yz)
    F': (xy)z = (xz)y and x(yz) = x(zy)

and the companion conditions on triples

    A: (xy)z = x(yz) and (yx)z = y(xz)
    B: (xy)z = y(xz) and x(yz) = (yx)z
    C: (xy)z = (yx)z and x(yz) = y(xz)

with starred variants A*, B*, C* identical to D', E', F'.  A loop is SRAR
when it is right Bol and D/E/F covers every quadruple; it is RA2 when it
is Moufang and both the A/B/C and starred sets cover every triple.

Condition sets are frozensets over the letters "D","E","F" (triples use
the same letters for the primed conditions) or "A","B","C".

The per-tuple functions (quad_values, quad_conditions, triple_conditions,
abc_conditions) are the definitional reference.  The whole-loop scans
(gaps, coverage, profiles, the all-three-or-one lemma) evaluate the same
bracketings with one numpy kernel over product arrays built from the
Cayley table: n^3 arrays for triples, and one n^3 slab per first element
x for quadruples, so memory stays O(n^3) and a gap search stops at the
first x that has one.  Every scan reports the lexicographically first
flagged tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import LoopTable, LoopError, TheoremViolation, Witness
from .identities import IdentityId, check_identity, is_extra, is_moufang

COND_LETTERS = ("D", "E", "F")
PROFILE_KEYS = ("none", "D", "E", "F", "DE", "DF", "EF", "DEF")

class NotSrar(LoopError):
    """Operation requires an SRAR loop."""


class NotBol(LoopError):
    """Operation requires a right Bol loop."""


@dataclass(frozen=True)
class QuadValues:
    """The four bracketed products of one quadruple (0-indexed elements)."""

    s: int
    t: int
    u: int
    v: int


@dataclass(frozen=True)
class TripleCoverage:
    """Which condition disjunctions hold at every triple."""

    def_everywhere: bool
    de_everywhere: bool
    df_everywhere: bool
    ef_everywhere: bool


@dataclass(frozen=True)
class TripleProfile:
    """Triple counts per realized subset of {D',E',F'}; total = n^3."""

    counts: dict[str, int]
    total: int


@dataclass(frozen=True)
class QuadProfile:
    """Quadruple counts per realized subset of {D,E,F}; total = n^4."""

    counts: dict[str, int]
    total: int


@dataclass(frozen=True)
class ImplicationCheck:
    hypothesis: bool
    conclusion: bool
    implication_ok: bool


@dataclass(frozen=True)
class MainTheoremReport:
    """The three pair-coverage implications for a right Bol loop."""

    de_implies_ra2_extra: ImplicationCheck
    df_implies_group: ImplicationCheck
    ef_implies_abelian: ImplicationCheck

    def all_ok(self) -> bool:
        return (
            self.de_implies_ra2_extra.implication_ok
            and self.df_implies_group.implication_ok
            and self.ef_implies_abelian.implication_ok
        )


def _implication(hypothesis: bool, conclusion: bool) -> ImplicationCheck:
    return ImplicationCheck(hypothesis, conclusion, (not hypothesis) or conclusion)


def subset_key(conds: frozenset[str]) -> str:
    """Canonical profile key for a condition subset ('none', 'D', ..., 'DEF')."""
    return "".join(c for c in COND_LETTERS if c in conds) or "none"


def quad_values(L: LoopTable, x: int, y: int, z: int, w: int) -> QuadValues:
    t = L.table
    s_ = t[t[t[x][y]][z]][w]
    t_ = t[x][t[t[y][z]][w]]
    u_ = t[t[t[x][w]][z]][y]
    v_ = t[x][t[t[w][z]][y]]
    return QuadValues(s_, t_, u_, v_)


def quad_conditions(L: LoopTable, x: int, y: int, z: int, w: int) -> frozenset[str]:
    q = quad_values(L, x, y, z, w)
    out = []
    if q.s == q.t and q.u == q.v:
        out.append("D")
    if q.s == q.v and q.t == q.u:
        out.append("E")
    if q.s == q.u and q.t == q.v:
        out.append("F")
    return frozenset(out)


def triple_conditions(L: LoopTable, x: int, y: int, z: int) -> frozenset[str]:
    t = L.table
    a = t[t[x][y]][z]
    b = t[x][t[y][z]]
    c = t[t[x][z]][y]
    d = t[x][t[z][y]]
    out = []
    if a == b and c == d:
        out.append("D")
    if a == d and c == b:
        out.append("E")
    if a == c and b == d:
        out.append("F")
    return frozenset(out)


def abc_conditions(
    L: LoopTable, x: int, y: int, z: int
) -> tuple[frozenset[str], frozenset[str]]:
    """The {A,B,C} set and the starred set of one triple.

    The starred set equals triple_conditions under A->D, B->E, C->F.
    """
    t = L.table
    p1 = t[t[x][y]][z]
    p2 = t[t[y][x]][z]
    p3 = t[x][t[y][z]]
    p4 = t[y][t[x][z]]
    plain = []
    if p1 == p3 and p2 == p4:
        plain.append("A")
    if p1 == p4 and p3 == p2:
        plain.append("B")
    if p1 == p2 and p3 == p4:
        plain.append("C")
    c = t[t[x][z]][y]
    d = t[x][t[z][y]]
    starred = []
    if p1 == p3 and c == d:
        starred.append("A")
    if p1 == d and p3 == c:
        starred.append("B")
    if p1 == c and p3 == d:
        starred.append("C")
    return frozenset(plain), frozenset(starred)


def _first_diff(vals: tuple[int, int, int, int]) -> tuple[int, int]:
    """First unequal pair among S,T,U,V in fixed pair order."""
    s, t, u, v = vals
    for a, b in ((s, t), (s, u), (s, v), (t, u), (t, v), (u, v)):
        if a != b:
            return a, b
    raise AssertionError("no differing pair in a non-covered quadruple")


# The evaluation kernel.  Every condition family compares four bracketings
# a, b, c, d elementwise, and each bracketing is a transpose of (xy)z or of
# x(yz), so one code function serves them all: bit 1 = D (a=b and c=d),
# bit 2 = E (a=d and b=c), bit 4 = F (a=c and b=d).  Arrays are indexed by
# the scanned elements in scan order, so the first flagged code in C order
# is the lexicographically first tuple.

_D, _E, _F = 1, 2, 4
_PAIRS = (_D | _E, _D | _F, _E | _F)

# codes flagged by each quadruple scan: the empty set, and sets of size 0 or 2
_EMPTY = np.array([code == 0 for code in range(8)])
_SIZE_0_OR_2 = np.array([code in (0, *_PAIRS) for code in range(8)])


def _code(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The 3-bit D/E/F code of four product arrays."""
    has_d = ((a == b) & (c == d)).view(np.uint8)
    has_e = ((a == d) & (b == c)).view(np.uint8)
    has_f = ((a == c) & (b == d)).view(np.uint8)
    return has_d | has_e << 1 | has_f << 2


def _first_flagged(
    identity_id: str, flagged: np.ndarray, values: tuple[np.ndarray, ...], prefix: tuple = ()
) -> Witness | None:
    """Witness at the first True of `flagged` in C order, or None.

    lhs and rhs are the first unequal pair of `values` there, in the
    order the caller lists them.
    """
    k = int(flagged.argmax())
    if not flagged.flat[k]:
        return None
    at = np.unravel_index(k, flagged.shape)
    lhs, rhs = _first_diff(tuple(int(v[at]) for v in values))
    return Witness(identity_id, prefix + tuple(int(i) for i in at), lhs, rhs)


def _tables(L: LoopTable) -> tuple[np.ndarray, np.ndarray]:
    """The Cayley table T in the smallest fitting dtype, and TT[a,b,c] = (ab)c."""
    T = np.array(L.table, dtype=np.min_scalar_type(L.order - 1))
    return T, T[T]


def _triple_values(L: LoopTable) -> tuple[np.ndarray, ...]:
    """(xy)z, x(yz), (xz)y, x(zy), each indexed [x, y, z]."""
    T, TT = _tables(L)
    a, b = TT, T[:, T]
    return a, b, a.transpose(0, 2, 1), b.transpose(0, 2, 1)


def _quad_slabs(L: LoopTable):
    """Yield x and the products S, T, U, V for that x, each indexed [y, z, w]."""
    T, TT = _tables(L)
    for x in range(L.order):
        s, t = TT[T[x]], T[x][TT]
        yield x, (s, t, s.transpose(2, 1, 0), t.transpose(2, 1, 0))


def _first_quad(L: LoopTable, identity_id: str, flag: np.ndarray) -> Witness | None:
    """First quadruple whose D/E/F code is flagged, in x-slabs of n^3."""
    for x, values in _quad_slabs(L):
        w = _first_flagged(identity_id, flag[_code(*values)], values, (x,))
        if w is not None:
            return w
    return None


def first_quad_gap(L: LoopTable) -> Witness | None:
    """First quadruple whose D/E/F set is empty, scan order (x, y, z, w)."""
    return _first_quad(L, "def_coverage", _EMPTY)


def first_triple_gap(L: LoopTable) -> Witness | None:
    """First triple whose D'/E'/F' set is empty, scan order (x, y, z)."""
    values = _triple_values(L)
    return _first_flagged("def_prime_coverage", _code(*values) == 0, values)


def first_abc_gap(L: LoopTable) -> Witness | None:
    """First triple whose {A,B,C} set is empty."""
    p1, p3 = _triple_values(L)[:2]
    p2, p4 = p1.transpose(1, 0, 2), p3.transpose(1, 0, 2)
    return _first_flagged("abc_coverage", _code(p1, p3, p2, p4) == 0, (p1, p2, p3, p4))


class LoopFacts:
    """Lazily computed classification facts of one loop, each scanned once."""

    def __init__(self, loop: LoopTable):
        self.loop = loop

    @cached_property
    def right_bol(self) -> bool:
        return check_identity(self.loop, IdentityId.RIGHT_BOL) is None

    @cached_property
    def moufang(self) -> bool:
        return is_moufang(self.loop)

    @cached_property
    def srar(self) -> bool:
        return self.right_bol and first_quad_gap(self.loop) is None

    @cached_property
    def ra2(self) -> bool:
        return (
            self.moufang
            and first_abc_gap(self.loop) is None
            and first_triple_gap(self.loop) is None
        )

    @cached_property
    def coverage(self) -> TripleCoverage:
        return triple_coverage(self.loop)

    @cached_property
    def associative(self) -> bool:
        return check_identity(self.loop, IdentityId.ASSOCIATIVE) is None

    @property
    def odd_order(self) -> bool:
        return self.loop.order % 2 == 1


def is_srar(L: LoopTable) -> tuple[bool, Witness | None]:
    """Right Bol plus D/E/F coverage of every quadruple.

    The Bol scan runs first (it is the cheaper one); the witness is the
    first Bol counterexample or, failing that, the first empty quadruple.
    """
    w = check_identity(L, IdentityId.RIGHT_BOL)
    if w is not None:
        return False, w
    gap = first_quad_gap(L)
    if gap is not None:
        return False, gap
    return True, None


def is_ra2(L: LoopTable) -> tuple[bool, Witness | None]:
    """Moufang plus nonempty {A,B,C} and starred sets at every triple."""
    w = check_identity(L, IdentityId.RIGHT_MOUFANG)
    if w is not None:
        return False, w
    gap = first_abc_gap(L)
    if gap is not None:
        return False, gap
    gap = first_triple_gap(L)
    if gap is not None:
        return False, gap
    return True, None


def triple_coverage(L: LoopTable) -> TripleCoverage:
    """The four coverage flags: every triple's code meets D|E|F, D|E, D|F, E|F."""
    code = _code(*_triple_values(L))
    masks = (_D | _E | _F, *_PAIRS)
    return TripleCoverage(*(bool(np.all(code & mask)) for mask in masks))


def triple_profile(L: LoopTable) -> TripleProfile:
    """Count the triples realizing each subset of {D',E',F'}."""
    counts = np.bincount(_code(*_triple_values(L)).ravel(), minlength=8)
    return TripleProfile(_profile_dict(counts.tolist()), L.order**3)


def quad_profile(L: LoopTable) -> QuadProfile:
    """Count the quadruples realizing each subset of {D,E,F}."""
    counts = sum(np.bincount(_code(*values).ravel(), minlength=8) for _, values in _quad_slabs(L))
    return QuadProfile(_profile_dict(counts.tolist()), L.order**4)


def _profile_dict(counts: list[int]) -> dict[str, int]:
    # bit 1 = D, bit 2 = E, bit 4 = F; keys in canonical PROFILE_KEYS order
    by_code = {
        "none": counts[0], "D": counts[1], "E": counts[2], "DE": counts[3],
        "F": counts[4], "DF": counts[5], "EF": counts[6], "DEF": counts[7],
    }
    return {k: by_code[k] for k in PROFILE_KEYS}


def _require_bol(L: LoopTable) -> None:
    w = check_identity(L, IdentityId.RIGHT_BOL)
    if w is not None:
        raise NotBol(w.describe())


def lemma_allthree(L: LoopTable) -> Witness | None:
    """Check the all-three-or-exactly-one pattern on every quadruple.

    Requires an SRAR loop (raises NotSrar otherwise).  Returns None when
    every quadruple's condition set has size 3 or 1, else the first
    quadruple of size 0 or 2.
    """
    ok, w = is_srar(L)
    if not ok:
        raise NotSrar(w.describe() if w is not None else "not an SRAR loop")
    return _first_quad(L, "quad_all_three_or_one", _SIZE_0_OR_2)


def lemma_lip_equiv(L: LoopTable) -> Witness | None:
    """Pairwise equivalence of x'(xy) = y and x(x'y) = y on a Bol loop."""
    _require_bol(L)
    t = L.table
    inv = L.rinv
    n = L.order
    for x in range(n):
        tx = t[x]
        tinv = t[inv[x]]
        for y in range(n):
            a = tinv[tx[y]]
            b = tx[tinv[y]]
            if (a == y) != (b == y):
                return Witness("lip_equiv", (x, y), a, b)
    return None


def lemma_key_mfg(L: LoopTable) -> bool:
    """Does every pair commute or satisfy x'(xy) = y?

    On a Bol loop a true hypothesis forces Moufang; that consequence is
    asserted and a failure raises TheoremViolation (an implementation
    bug, not a data error).
    """
    _require_bol(L)
    t = L.table
    inv = L.rinv
    n = L.order
    hypothesis = True
    for x in range(n):
        tx = t[x]
        tinv = t[inv[x]]
        for y in range(n):
            if tx[y] != t[y][x] and tinv[tx[y]] != y:
                hypothesis = False
                break
        if not hypothesis:
            break
    if hypothesis and not is_moufang(L):
        raise TheoremViolation("commute-or-lip hypothesis holds but the loop is not Moufang")
    return hypothesis


def thm_main_verify(L: LoopTable) -> MainTheoremReport:
    """The three pair-coverage implications on a Bol loop.

    (1) D'/E' coverage implies RA2 and extra; (2) D'/F' coverage implies
    a group; (3) E'/F' coverage implies an abelian group.  Conclusions
    are evaluated unconditionally so the report is complete.
    """
    _require_bol(L)
    cov = triple_coverage(L)
    associative = check_identity(L, IdentityId.ASSOCIATIVE) is None
    commutative = check_identity(L, IdentityId.COMMUTATIVE) is None
    ra2_extra = is_ra2(L)[0] and is_extra(L)
    return MainTheoremReport(
        de_implies_ra2_extra=_implication(cov.de_everywhere, ra2_extra),
        df_implies_group=_implication(cov.df_everywhere, associative),
        ef_implies_abelian=_implication(cov.ef_everywhere, associative and commutative),
    )


def cor_odd_verify(L: LoopTable) -> ImplicationCheck:
    """Odd order and SRAR must imply associativity."""
    hypothesis = L.order % 2 == 1 and is_srar(L)[0]
    conclusion = check_identity(L, IdentityId.ASSOCIATIVE) is None
    return _implication(hypothesis, conclusion)
