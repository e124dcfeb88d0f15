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
evaluate the same bracketings with one numpy kernel over product arrays
built from the Cayley table: n^3 arrays for triples, and one n^3 slab per
first element x for quadruples, so memory stays O(n^3) and a gap search
stops at the first x that has one.  Every scan reports the
lexicographically first flagged tuple.

LoopFacts caches a loop's identity witnesses, SRAR and RA2 witnesses,
extra flag, and triple products with their D'/E'/F' code, which
coverage, the triple profile and both triple gaps reduce.  is_srar,
is_ra2, those triple functions, the lemma_* verifiers, thm_main_verify
and gf2ring's oracle_equiv_* take a LoopFacts or a LoopTable, so a sweep
or a classification passes its one LoopFacts through.  The kernel scans
(check_identity, first_quad_gap, quad_profile) take the bare table: the
cache calls them, and the benchmark's tracer counts their work from it.
So does cor_odd_verify, which the order-7 tier calls once per loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import LoopTable, LoopError, TheoremViolation, Witness
from .identities import IdentityId, check_identity, is_extra

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


def first_triple_gap(L: LoopFacts | LoopTable) -> Witness | None:
    """First triple whose D'/E'/F' set is empty, scan order (x, y, z)."""
    values, code = LoopFacts.of(L).triples
    return _first_flagged("def_prime_coverage", code == 0, values)


def first_abc_gap(L: LoopFacts | LoopTable) -> Witness | None:
    """First triple whose {A,B,C} set is empty."""
    p1, p3 = LoopFacts.of(L).triples[0][:2]
    p2, p4 = p1.transpose(1, 0, 2), p3.transpose(1, 0, 2)
    return _first_flagged("abc_coverage", _code(p1, p3, p2, p4) == 0, (p1, p2, p3, p4))


class LoopFacts:
    """The whole-loop facts of one loop, each computed at most once."""

    def __init__(self, loop: LoopTable):
        self.loop = loop
        self._witnesses: dict[IdentityId, Witness | None] = {}

    @classmethod
    def of(cls, L: LoopFacts | LoopTable) -> LoopFacts:
        """L itself if it is a LoopFacts, else fresh facts of the table L."""
        return L if isinstance(L, LoopFacts) else cls(L)

    def witness(self, ident: IdentityId) -> Witness | None:
        """check_identity on this loop, scanned once per identity."""
        if ident not in self._witnesses:
            self._witnesses[ident] = check_identity(self.loop, ident)
        return self._witnesses[ident]

    @cached_property
    def triples(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The four triple products (see _triple_values) and their D'/E'/F' code."""
        values = _triple_values(self.loop)
        return values, _code(*values)

    @cached_property
    def srar_witness(self) -> Witness | None:
        """The first right Bol counterexample, else the first quadruple with no D/E/F."""
        return self.witness(IdentityId.RIGHT_BOL) or first_quad_gap(self.loop)

    @cached_property
    def ra2_witness(self) -> Witness | None:
        """The first failure of right Moufang, then A/B/C, then D'/E'/F' coverage."""
        w = self.witness(IdentityId.RIGHT_MOUFANG)
        return w or first_abc_gap(self) or first_triple_gap(self)

    # The flags stay cached_property: the sweep reads them on every loop,
    # and plain property reads of the memos measured slower there.
    right_bol = cached_property(lambda self: self.witness(IdentityId.RIGHT_BOL) is None)
    moufang = cached_property(lambda self: self.witness(IdentityId.RIGHT_MOUFANG) is None)
    associative = cached_property(lambda self: self.witness(IdentityId.ASSOCIATIVE) is None)
    srar = cached_property(lambda self: self.srar_witness is None)
    ra2 = cached_property(lambda self: self.ra2_witness is None)
    extra = cached_property(lambda self: is_extra(self.loop))
    coverage = cached_property(lambda self: triple_coverage(self))

    @property
    def odd_order(self) -> bool:
        return self.loop.order % 2 == 1


def is_srar(L: LoopFacts | LoopTable) -> tuple[bool, Witness | None]:
    """Right Bol plus D/E/F coverage of every quadruple.

    The Bol scan runs first (it is the cheaper one); the witness is the
    first Bol counterexample or, failing that, the first empty quadruple.
    """
    w = LoopFacts.of(L).srar_witness
    return w is None, w


def is_ra2(L: LoopFacts | LoopTable) -> tuple[bool, Witness | None]:
    """Moufang plus nonempty {A,B,C} and starred sets at every triple."""
    w = LoopFacts.of(L).ra2_witness
    return w is None, w


def triple_coverage(L: LoopFacts | LoopTable) -> TripleCoverage:
    """The four coverage flags: every triple's code meets D|E|F, D|E, D|F, E|F."""
    code = LoopFacts.of(L).triples[1]
    masks = (_D | _E | _F, *_PAIRS)
    return TripleCoverage(*(bool(np.all(code & mask)) for mask in masks))


def triple_profile(L: LoopFacts | LoopTable) -> TripleProfile:
    """Count the triples realizing each subset of {D',E',F'}."""
    f = LoopFacts.of(L)
    counts = np.bincount(f.triples[1].ravel(), minlength=8)
    return TripleProfile(_profile_dict(counts.tolist()), f.loop.order**3)


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


def _bol_facts(L: LoopFacts | LoopTable) -> LoopFacts:
    """The facts of L, which must be right Bol (raises NotBol otherwise)."""
    f = LoopFacts.of(L)
    w = f.witness(IdentityId.RIGHT_BOL)
    if w is not None:
        raise NotBol(w.describe())
    return f


def lemma_allthree(L: LoopFacts | LoopTable) -> Witness | None:
    """Check the all-three-or-exactly-one pattern on every quadruple.

    Requires an SRAR loop (raises NotSrar otherwise).  Returns the first
    quadruple whose condition set has size 0 or 2, but there is none:
    any two of D, E, F force S=T=U=V, the third, and SRAR rules out size
    0.  The scan stays for the sweep cell.
    """
    f = LoopFacts.of(L)
    if f.srar_witness is not None:
        raise NotSrar(f.srar_witness.describe())
    return _first_quad(f.loop, "quad_all_three_or_one", _SIZE_0_OR_2)


def lemma_lip_equiv(L: LoopFacts | LoopTable) -> Witness | None:
    """Pairwise equivalence of x'(xy) = y and x(x'y) = y on a Bol loop."""
    loop = _bol_facts(L).loop
    t, inv, n = loop.table, loop.rinv, loop.order
    for x in range(n):
        tx = t[x]
        tinv = t[inv[x]]
        for y in range(n):
            a = tinv[tx[y]]
            b = tx[tinv[y]]
            if (a == y) != (b == y):
                return Witness("lip_equiv", (x, y), a, b)
    return None


def lemma_key_mfg(L: LoopFacts | LoopTable) -> bool:
    """Does every pair commute or satisfy x'(xy) = y?

    On a Bol loop a true hypothesis forces Moufang; that consequence is
    asserted and a failure raises TheoremViolation (an implementation
    bug, not a data error).
    """
    f = _bol_facts(L)
    t, inv, n = f.loop.table, f.loop.rinv, f.loop.order
    hypothesis = all(
        t[x][y] == t[y][x] or t[inv[x]][t[x][y]] == y for x in range(n) for y in range(n)
    )
    if hypothesis and not f.moufang:
        raise TheoremViolation("commute-or-lip hypothesis holds but the loop is not Moufang")
    return hypothesis


def thm_main_verify(L: LoopFacts | LoopTable) -> MainTheoremReport:
    """The three pair-coverage implications on a Bol loop.

    (1) D'/E' coverage implies RA2 and extra; (2) D'/F' coverage implies
    a group; (3) E'/F' coverage implies an abelian group.  Conclusions
    are evaluated unconditionally so the report is complete.
    """
    f = _bol_facts(L)
    cov = f.coverage
    commutative = f.witness(IdentityId.COMMUTATIVE) is None
    return MainTheoremReport(
        de_implies_ra2_extra=_implication(cov.de_everywhere, f.ra2 and f.extra),
        df_implies_group=_implication(cov.df_everywhere, f.associative),
        ef_implies_abelian=_implication(cov.ef_everywhere, f.associative and commutative),
    )


def cor_odd_verify(L: LoopTable) -> ImplicationCheck:
    """Odd order and SRAR must imply associativity.

    No LoopFacts: the order-7 tier calls this once per loop, and building
    one made each call about a third slower.
    """
    hypothesis = (
        L.order % 2 == 1
        and check_identity(L, IdentityId.RIGHT_BOL) is None
        and first_quad_gap(L) is None
    )
    conclusion = check_identity(L, IdentityId.ASSOCIATIVE) is None
    return _implication(hypothesis, conclusion)
