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
evaluate the same bracketings with numpy over product arrays built from
the Cayley table: n^3 arrays for triples, and for quadruples the
blocks of first elements x that core.x_blocks cuts, one n^3 slab per
x, so memory stays O(n^3).  Every coverage gap is decided in
characteristic 2: the four bracketings pair up into D, E or F (A, B or
C) exactly when their sum in F_2[L] is 0, which _parity_gaps tests on
one narrow integer per tuple: the XOR of the four values' codes in a
Sidon set (_sidon_codes), which is 0 exactly when the values pair up.
The triple counts read each triple's D'/E'/F' code off the same parity
(_triple_code_counts): off a gap, a = b and a = c tell the code.  The full
D/E/F code (_code) is built only for quad_profile and the
all-three-or-one lemma.  Every scan reports the lexicographically first
flagged tuple.

LoopFacts caches a loop's identity scans as plain failure tuples, its
SRAR and RA2 verdicts, extra flag, and the triple products with their
Sidon code sum, D'/E'/F' and A/B/C gaps and D'/E'/F' code counts, which
coverage, the triple profile and both triple gaps reduce; it builds a
Witness only when one is read.  is_srar, is_ra2, those triple functions,
the lemma_* verifiers, thm_main_verify and gf2ring's oracle_equiv_* take
a LoopFacts or a LoopTable, so a sweep or a classification passes its
one LoopFacts through.  The kernel scans (the identities._CHECKS
entries, first_quad_gap, quad_profile) take the bare table.  LoopFacts
is the Products of its loop and hands itself to the first two, so its
identity scans, triples and quadruple blocks read one intp table, one
(xy)z, x(yz) and ((xy)z)y, and one code image C[xy] and C[(xy)z]; a
call on a bare table builds its own.  cor_odd_verify takes the bare
table too and decides through identities.holds; the benchmark's
order7-slice calls it once per loop, while the order-7 sweep decides
odd_order_associative through LoopFacts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .core import LoopTable, LoopError, TheoremViolation, Witness, memo, read_only
from .core import first_set, x_blocks
from .identities import _CHECKS, _RIGHT_BOL, Failure, IdentityId, Products, holds

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


# all four checks, built once: cor_odd_verify and thm_main_verify return them per loop
_IMPLICATIONS = {
    (h, c): ImplicationCheck(h, c, not h or c) for h in (False, True) for c in (False, True)
}


def _implication(hypothesis: bool, conclusion: bool) -> ImplicationCheck:
    return _IMPLICATIONS[hypothesis, conclusion]


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


def _letters(a: int, b: int, c: int, d: int, letters: str) -> frozenset[str]:
    """The three letters for a=b and c=d, a=d and b=c, a=c and b=d: those that hold."""
    found = (a == b and c == d, a == d and b == c, a == c and b == d)
    return frozenset(letter for letter, ok in zip(letters, found) if ok)


def quad_conditions(L: LoopTable, x: int, y: int, z: int, w: int) -> frozenset[str]:
    q = quad_values(L, x, y, z, w)
    return _letters(q.s, q.t, q.u, q.v, "DEF")


def triple_conditions(L: LoopTable, x: int, y: int, z: int) -> frozenset[str]:
    t = L.table
    return _letters(t[t[x][y]][z], t[x][t[y][z]], t[t[x][z]][y], t[x][t[z][y]], "DEF")


def abc_conditions(
    L: LoopTable, x: int, y: int, z: int
) -> tuple[frozenset[str], frozenset[str]]:
    """The {A,B,C} set and the starred set of one triple.

    The starred set equals triple_conditions under A->D, B->E, C->F.
    """
    t = L.table
    p1 = t[t[x][y]][z]
    p3 = t[x][t[y][z]]
    plain = _letters(p1, p3, t[t[y][x]][z], t[y][t[x][z]], "ABC")
    return plain, _letters(p1, p3, t[t[x][z]][y], t[x][t[z][y]], "ABC")


def _first_diff(vals: tuple[int, int, int, int]) -> tuple[int, int]:
    """First unequal pair among S,T,U,V in fixed pair order."""
    s, t, u, v = vals
    for a, b in ((s, t), (s, u), (s, v), (t, u), (t, v), (u, v)):
        if a != b:
            return a, b
    raise AssertionError("no differing pair in a non-covered quadruple")


# The evaluation kernels.  Every condition family compares four bracketings
# a, b, c, d elementwise, where c and d are a and b under one transposition
# of the scanned elements.  _parity_gaps flags the tuples where
# e_a + e_b + e_c + e_d != 0 in F_2[L], from the Sidon codes g = C[a] ^ C[b].
# _code gives the full set: bit 1 = D (a=b and c=d), bit 2 = E (a=d and
# b=c), bit 4 = F (a=c and b=d).  Since c=d is a=b transposed and b=c is
# a=d transposed, four comparisons give all three bits.  _triple_code_counts
# counts the same sets from the gaps and two comparisons.  Arrays are
# indexed by the scanned elements in scan order, so the first flagged
# entry in C order is the lexicographically first tuple.

_D, _E, _F = 1, 2, 4
_PAIRS = (_D | _E, _D | _F, _E | _F)

# codes flagged by the all-three-or-one scan, as a bit mask over the 8
# codes: sets of size 0 or 2
_SIZE_0_OR_2 = np.uint8(sum(1 << code for code in (0, *_PAIRS)))

# the transpositions giving c, d from a, b: triples [x, y, z] swap y and
# z, A/B/C swaps x and y, quadruple blocks [x, y, z, w] swap y and w
_TRIPLE_AXES = (0, 2, 1)
_ABC_AXES = (1, 0, 2)
_QUAD_AXES = (0, 3, 2, 1)


# per field GF(2^m): m, an irreducible modulus of degree m, and the dtype
# that holds the 2m-bit codes; the first field with 2^m >= n serves order n
_SIDON_FIELDS = ((4, 0x13, np.uint8), (8, 0x11B, np.uint16), (16, 0x1100B, np.uint32))


@functools.cache
def _sidon_codes(n: int) -> np.ndarray:
    """C[v] = v | v^3 << m, the cube taken in GF(2^m), for the n values v < n.

    Four codes XOR to 0 exactly when the four values pair up, that is
    when e_a + e_b + e_c + e_d = 0 in F_2[L].  If they pair up, the codes
    cancel in pairs.  Conversely, say C[a]^C[b]^C[c]^C[d] = 0.  The low
    halves give a + b = c + d =: s in GF(2^m).  If s = 0, then a = b and
    c = d.  Otherwise b = a + s, and in characteristic 2
    a^3 + (a + s)^3 = s(a^2 + sa + s^2), and likewise for c, d = c + s.
    The high halves give a^3 + b^3 = c^3 + d^3, so with s != 0,
    a^2 + sa = c^2 + sc, that is (a + c)(a + c + s) = 0: c = a or c = b,
    and d = c + s is the other.  (x -> x^3 is APN: Gold 1968, Nyberg 1993.)
    So the codes form a Sidon set in GF(2)^2m, the smallest m in 4, 8, 16
    with 2^m >= n: uint8 up to order 16, uint16 up to 256, uint32 above.
    """
    m, modulus, dtype = next(f for f in _SIDON_FIELDS if n <= 1 << f[0])

    def times(a, b):  # a * b in GF(2^m): shift and add, reducing each carry past bit m - 1
        product = np.zeros_like(a)
        for i in range(m):
            product ^= np.where(b >> i & 1, a, 0)
            a = a << 1
            a ^= np.where(a >> m & 1, modulus, 0)
        return product

    v = np.arange(n, dtype=np.int64)
    return read_only((v | times(times(v, v), v) << m).astype(dtype))


def _parity_gaps(g: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Cells where g = C[a] ^ C[b] differs from its transposition C[c] ^ C[d] (see _sidon_codes)."""
    return g != g.transpose(axes)


def _code(a: np.ndarray, b: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The 3-bit D/E/F code of a, b, c = a.transpose(axes), d = b.transpose(axes)."""
    e1 = a == b
    e2 = a == b.transpose(axes)
    has_d = (e1 & e1.transpose(axes)).view(np.uint8)
    has_e = (e2 & e2.transpose(axes)).view(np.uint8)
    has_f = ((a == a.transpose(axes)) & (b == b.transpose(axes))).view(np.uint8)
    return has_d | has_e << 1 | has_f << 2


def _triple_code_counts(
    g: np.ndarray, gaps: np.ndarray, a: np.ndarray, axes: tuple[int, ...]
) -> tuple[int, ...]:
    """How many cells have each D/E/F code 0..7, from g = C[a] ^ C[b] and its gaps.

    gaps is _parity_gaps(g, axes); a may hold the values or their codes,
    and c, d are a, b transposed.  Off a gap the four values pair up (see
    _sidon_codes).  Then if a = b, also c = d, so D holds, and E and F
    hold too iff a = c; if a != b, D fails and exactly one of E (a = d,
    b = c) and F (a = c, b = d) holds, F iff a = c.  So four counts give
    all eight: the pairing cells, those with a = b, those with a = c, and
    those with both (D, E and F).
    """
    pairs = ~gaps
    d = (g == 0) & pairs
    f = (a == a.transpose(axes)) & pairs
    n_pairs, n_d, n_f, n_def = (int(np.count_nonzero(x)) for x in (pairs, d, f, d & f))
    e = n_pairs - n_d - n_f + n_def
    return g.size - n_pairs, n_d - n_def, e, 0, n_f - n_def, 0, 0, n_def


def _first_flagged(
    identity_id: str, flagged: np.ndarray, values_at, x0: int = 0
) -> Witness | None:
    """Witness at the first nonzero entry of `flagged` in C order, or None.

    x0 is added to the first element; lhs and rhs are the first unequal
    pair of values_at(elements), in the order it lists them.
    """
    at = first_set(flagged)
    if at is None:
        return None
    elements = (x0 + at[0], *at[1:])
    return Witness(identity_id, elements, *_first_diff(values_at(elements)))


def _values_at(*values: np.ndarray):
    """values_at for _first_flagged: the entries of `values` at the elements."""
    return lambda at: tuple(int(v[at]) for v in values)


def _quad_blocks(p: Products, V: np.ndarray, VV: np.ndarray | None = None):
    """Yield x0 and the products S, T for x in [x0, x0 + size), indexed [x - x0, y, z, w].

    They are gathered from V, the table's values or their images under a
    map such as _sidon_codes, in the core.x_blocks of n^3 quadruples per x.
    VV is V at (xy)z, indexed [x, y, z], built here unless given.
    """
    T, TT = p.intp, p.xy_z  # (yz)w is TT[y, z, w]
    VV = V.take(T, axis=0) if VV is None else VV
    n = p.loop.order
    for xs in x_blocks(n, n**3):
        yield xs.start, VV[T[xs]], V[xs].take(TT, axis=1)


_QUAD_FIELDS = attrgetter("s", "t", "u", "v")  # a plain tuple of QuadValues' fields


def _first_quad(
    p: Products, identity_id: str, V: np.ndarray, flags, VV: np.ndarray | None = None
) -> Witness | None:
    """First quadruple where flags(S, T) is set, S and T from V and VV (see _quad_blocks)."""
    values_at = lambda q: _QUAD_FIELDS(quad_values(p.loop, *q))  # noqa: E731
    for x0, s, t in _quad_blocks(p, V, VV):
        w = _first_flagged(identity_id, flags(s, t), values_at, x0)
        if w is not None:
            return w
    return None


def first_quad_gap(L: LoopTable, facts: LoopFacts | None = None) -> Witness | None:
    """First quadruple whose D/E/F set is empty, scan order (x, y, z, w), from facts if given."""
    f = LoopFacts(L) if facts is None else facts
    flags = lambda s, t: _parity_gaps(s ^ t, _QUAD_AXES)  # noqa: E731
    return _first_quad(f, "def_coverage", f.code_xy, flags, f.code_xy_z)


def abc_gaps(L: LoopFacts | LoopTable) -> np.ndarray:
    """Flags of the triples whose {A,B,C} set is empty, indexed [x, y, z] (read-only)."""
    return LoopFacts.of(L)._abc_gaps


def first_triple_gap(L: LoopFacts | LoopTable) -> Witness | None:
    """First triple whose D'/E'/F' set is empty, scan order (x, y, z)."""
    f = LoopFacts.of(L)
    a, b = f.triples
    values_at = _values_at(a, b, a.transpose(_TRIPLE_AXES), b.transpose(_TRIPLE_AXES))
    return _first_flagged("def_prime_coverage", f._triple_gaps, values_at)


def first_abc_gap(L: LoopFacts | LoopTable) -> Witness | None:
    """First triple whose {A,B,C} set is empty."""
    f = LoopFacts.of(L)
    p1, p3 = f.triples
    p2, p4 = p1.transpose(_ABC_AXES), p3.transpose(_ABC_AXES)
    return _first_flagged("abc_coverage", abc_gaps(f), _values_at(p1, p2, p3, p4))


# bound once, as identities._RIGHT_BOL is: a sweep reads these flags per loop
_MOUFANG, _EXTRA, _ASSOCIATIVE = IdentityId.RIGHT_MOUFANG, IdentityId.EXTRA, IdentityId.ASSOCIATIVE


class LoopFacts(Products):
    """The whole-loop facts of one loop, each computed at most once.

    The flags only test the scans' failure tuples for None; a Witness is
    built when witness, srar_witness or ra2_witness is read.  As the
    Products of its loop it hands its product arrays to every numpy stage
    it calls, so each is built once per loop, on first need.
    """

    def __init__(self, loop: LoopTable):
        self.loop = loop  # all of Products.__init__, without super() on the sweeps' hot path
        self._failures: dict[IdentityId, Failure | None] = {}

    @classmethod
    def of(cls, L: LoopFacts | LoopTable) -> LoopFacts:
        """L itself if it is a LoopFacts, else fresh facts of the table L."""
        return L if isinstance(L, LoopFacts) else cls(L)

    def _failure(self, ident: IdentityId) -> Failure | None:
        """The _CHECKS scan's failure tuple on this loop, scanned once per identity."""
        if ident not in self._failures:
            self._failures[ident] = _CHECKS[ident](self.loop, self)
        return self._failures[ident]

    def holds(self, ident: IdentityId) -> bool:
        return self._failure(ident) is None

    def witness(self, ident: IdentityId) -> Witness | None:
        """check_identity on this loop, from the one scan per identity."""
        found = self._failure(ident)
        return None if found is None else Witness(ident.value, *found)

    # (xy)z and x(yz), the witnesses' values
    triples = memo(lambda self: (self.xy_z, self.x_yz))

    # C[xy] and C[(xy)z], the Sidon codes of the products (see _sidon_codes):
    # the quadruple scan's V and VV (see _quad_blocks) and the triple masks
    # read them, so one classification builds each once
    code_xy = memo(lambda self: _sidon_codes(self.loop.order)[self.intp])
    code_xy_z = memo(lambda self: self.code_xy.take(self.intp, axis=0))

    @memo
    def triple_masks(self) -> np.ndarray:
        """e_(xy)z + e_x(yz) as C[(xy)z] ^ C[x(yz)] (see _sidon_codes), indexed [x, y, z]."""
        return self.code_xy_z ^ self.code_xy.take(self.intp, axis=1)

    # the D'/E'/F' and A/B/C gaps, each built once: the triple counts and
    # first_triple_gap read the first, oracle_equiv_ra2 and first_abc_gap the second
    _triple_gaps = memo(lambda self: _parity_gaps(self.triple_masks, _TRIPLE_AXES))
    _abc_gaps = memo(lambda self: read_only(_parity_gaps(self.triple_masks, _ABC_AXES)))

    # how many triples have each D'/E'/F' code 0..7: coverage and the profile read it
    triple_counts = memo(lambda self: _triple_code_counts(
        self.triple_masks, self._triple_gaps, self.code_xy_z, _TRIPLE_AXES))

    # The condition halves of SRAR and RA2, read only where the identity
    # half holds, so that the flags and the witnesses share one scan.
    _quad_gap = memo(lambda self: first_quad_gap(self.loop, self))
    _coverage_gap = memo(lambda self: first_abc_gap(self) or first_triple_gap(self))

    @memo
    def srar_witness(self) -> Witness | None:
        """The first right Bol counterexample, else the first quadruple with no D/E/F."""
        return self.witness(IdentityId.RIGHT_BOL) or self._quad_gap

    @memo
    def ra2_witness(self) -> Witness | None:
        """The first failure of right Moufang, then A/B/C, then D'/E'/F' coverage."""
        return self.witness(IdentityId.RIGHT_MOUFANG) or self._coverage_gap

    # The flags are memos too, and call _failure, not holds or each other:
    # the sweep reads them on every loop; as plain properties they made a sweep
    # of the non-ring checks over orders 2-6 about 12% slower (median of
    # 7 alternating runs, 332-343 against 374-384 ms on a 2-CPU Xeon).
    right_bol = memo(lambda self: self._failure(_RIGHT_BOL) is None)
    moufang = memo(lambda self: self._failure(_MOUFANG) is None)
    associative = memo(lambda self: self._failure(_ASSOCIATIVE) is None)
    srar = memo(lambda self: self._failure(_RIGHT_BOL) is None and self._quad_gap is None)
    ra2 = memo(lambda self: self._failure(_MOUFANG) is None and self._coverage_gap is None)
    extra = memo(lambda self: self._failure(_EXTRA) is None)
    lip = memo(lambda self: self._failure(IdentityId.LIP) is None)
    coverage = memo(lambda self: triple_coverage(self))
    odd_order = property(lambda self: self.loop.order % 2 == 1)
    # D'E', D'F' or E'F' coverage of every triple: a thm_main_verify hypothesis
    pair_coverage = memo(lambda self: (self.coverage.de_everywhere or self.coverage.df_everywhere
                                       or self.coverage.ef_everywhere))


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
    """The four coverage flags: every triple's code meets D|E|F, D|E, D|F, E|F.

    A flag holds when no triple has a code that misses its mask.
    """
    counts = LoopFacts.of(L).triple_counts
    masks = (_D | _E | _F, *_PAIRS)
    return TripleCoverage(*(not any(counts[c] for c in range(8) if not c & m) for m in masks))


def triple_profile(L: LoopFacts | LoopTable) -> TripleProfile:
    """Count the triples realizing each subset of {D',E',F'}."""
    f = LoopFacts.of(L)
    return TripleProfile(_profile_dict(f.triple_counts), f.loop.order**3)


def quad_profile(L: LoopTable) -> QuadProfile:
    """Count the quadruples realizing each subset of {D,E,F}."""
    counts = sum(
        np.bincount(_code(s, t, _QUAD_AXES).ravel(), minlength=8)
        for _, s, t in _quad_blocks(Products(L), L.array)
    )
    return QuadProfile(_profile_dict(counts.tolist()), L.order**4)


def _profile_dict(counts: Sequence[int]) -> dict[str, int]:
    # bit 1 = D, bit 2 = E, bit 4 = F; keys in canonical PROFILE_KEYS order
    by_code = {
        "none": counts[0], "D": counts[1], "E": counts[2], "DE": counts[3],
        "F": counts[4], "DF": counts[5], "EF": counts[6], "DEF": counts[7],
    }
    return {k: by_code[k] for k in PROFILE_KEYS}


def _bol_facts(L: LoopFacts | LoopTable) -> LoopFacts:
    """The facts of L, which must be right Bol (raises NotBol otherwise)."""
    f = LoopFacts.of(L)
    if not f.right_bol:
        raise NotBol(f.witness(IdentityId.RIGHT_BOL).describe())
    return f


def lemma_allthree(L: LoopFacts | LoopTable) -> Witness | None:
    """Check the all-three-or-exactly-one pattern on every quadruple.

    Requires an SRAR loop (raises NotSrar otherwise).  Returns the first
    quadruple whose condition set has size 0 or 2, but there is none:
    any two of D, E, F force S=T=U=V, the third, and SRAR rules out size
    0.  The scan stays for the sweep cell.
    """
    f = LoopFacts.of(L)
    if not f.srar:
        raise NotSrar(f.srar_witness.describe())
    flags = lambda s, t: _SIZE_0_OR_2 >> _code(s, t, _QUAD_AXES) & 1  # noqa: E731
    return _first_quad(f, "quad_all_three_or_one", f.loop.array, flags)


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
    commutative = f.holds(IdentityId.COMMUTATIVE)
    return MainTheoremReport(
        de_implies_ra2_extra=_implication(cov.de_everywhere, f.ra2 and f.extra),
        df_implies_group=_implication(cov.df_everywhere, f.associative),
        ef_implies_abelian=_implication(cov.ef_everywhere, f.associative and commutative),
    )


_NOT_BOL = _implication(False, False)  # cor_odd_verify on every non-right-Bol loop


def cor_odd_verify(L: LoopTable) -> ImplicationCheck:
    """Odd order and SRAR must imply associativity.

    Right Bol is scanned first, at every order, in one call.  Every group
    is right Bol, since ((xy)z)y = x((yz)y) follows from associativity
    alone; so a loop that fails right Bol is not a group, and the check
    is the shared (False, False) result without an associativity scan.
    Only right Bol loops pay for more: the quadruple scan at odd order,
    then associativity.

    No LoopFacts: the benchmark's order7-slice calls this once per loop
    (the order-7 sweep reads its LoopFacts instead), and deciding through
    one took 3.8 against 1.5 µs per loop on order-7 enumeration part 45
    (medians of 9 interleaved passes on a 2-CPU Xeon, enumeration excluded).
    """
    # read off _CHECKS per call, so wrappers put there see the scan
    if _CHECKS[_RIGHT_BOL](L) is not None:
        return _NOT_BOL
    hypothesis = L.order % 2 == 1 and first_quad_gap(L) is None
    return _implication(hypothesis, holds(L, IdentityId.ASSOCIATIVE))
