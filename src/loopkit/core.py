"""Cayley-table loops: validation, nuclei, exhaustive enumeration, the
numpy scans' shared helpers, and the process map of sweeps and surveys.

A loop of order n is stored as an n x n table over the element indices
0..n-1 whose rows and columns are permutations (a Latin square) and which
has a two-sided identity element; only the table is stored, and the inverse
maps are derived from it on first read.  Elements are 0-indexed internally;
every error message, witness rendering, and file format uses the
1-indexed labels that printed Cayley tables and catalogs use.

Enumeration builds tables a whole row at a time: row_candidates lists,
once per order, every row a normalized table can hold at each row index,
with a bitmask of the (column, value) pairs it occupies.
"""

from __future__ import annotations

import os
from collections.abc import Sized
from dataclasses import dataclass
from functools import cache
from itertools import chain, permutations
from numbers import Integral
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

ENUMERATION_CAP = 7

T = TypeVar("T")
R = TypeVar("R")


class memo:
    """functools.cached_property as of Python 3.12: computed on first read and
    stored in the instance __dict__, without the RLock that 3.11 takes there."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: an array that a cache shares with every caller."""
    a.flags.writeable = False
    return a


FIRST_BLOCK = 1 << 12  # entries in a scan's first x-block, as x rows allow
BLOCK = 1 << 16  # entries in any later x-block, at most


def x_blocks(n: int, per_x: int) -> Iterator[slice]:
    """The blocks of a numpy scan over n first elements x, per_x entries per x.

    The first takes the x rows that fit in FIRST_BLOCK entries, at least
    one; then blocks double, each of at most BLOCK entries unless one x
    row is larger.  So a failure at the first x costs one small block.
    """
    size, cap = FIRST_BLOCK // per_x or 1, BLOCK // per_x or 1
    x0 = 0
    while x0 < n:
        yield slice(x0, min(x0 + size, n))
        x0 += size
        size = min(x0, cap)  # as large as all blocks before; BLOCK >= FIRST_BLOCK


def first_set(flags: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first set entry of flags in C order, or None: on an
    array indexed by the scanned elements, the first flagged tuple."""
    k = int(flags.argmax())
    if not flags.flat[k]:
        return None
    at = ()
    for size in reversed(flags.shape):  # np.unravel_index took 2 µs more (2-CPU Xeon)
        k, i = divmod(k, size)
        at = (i, *at)
    return at


@cache
def scan_domains(n: int, e: int, skips: tuple[bool, ...]) -> tuple[Sequence[int], ...]:
    """Per variable, the elements a scan visits on order n with identity e:
    all but e where skips marks that the law alone decides it at e."""
    rest = tuple(v for v in range(n) if v != e)
    return tuple(rest if skip else range(n) for skip in skips)


class LoopError(Exception):
    """Base class for everything this package raises on bad loop data."""


class Malformed(LoopError):
    """Input is not a square integer array with entries in 1..n."""


class NotLatin(LoopError):
    """Some row or column of the table repeats an entry."""


class NoIdentity(LoopError):
    """No element acts as a two-sided identity."""


class OrderExceedsCap(LoopError):
    """A requested order is over a cap: ENUMERATION_CAP for enumeration
    and sweeps, a sweep check's max_order, or a ring scan's cap."""


# the same class under its other public name
OrderTooLarge = OrderExceedsCap


class TheoremViolation(LoopError):
    """A proved statement failed on concrete data.

    At the orders this package scans, every statement it cross-checks is
    known to hold, so raising this signals an implementation bug rather
    than interesting input.
    """


@dataclass(frozen=True)
class LoopTable:
    """An order-n loop given by its Cayley table (0-indexed internally).

    Only the table is stored; rinv, linv and array are derived from it on
    first read, with x * rinv[x] = identity and linv[x] * x = identity.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], identity: int):
        # the generated frozen __init__ pays an object.__setattr__ per field
        d = self.__dict__
        d["order"], d["table"], d["identity"] = order, table, identity

    @memo
    def rinv(self) -> tuple[int, ...]:
        return tuple(row.index(self.identity) for row in self.table)

    @memo
    def linv(self) -> tuple[int, ...]:
        return tuple(col.index(self.identity) for col in zip(*self.table))

    @memo
    def array(self) -> np.ndarray:
        """The table as a read-only numpy array in the smallest fitting dtype."""
        return read_only(np.array(self.table, dtype=np.min_scalar_type(self.order - 1)))

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def raw_rows(self) -> tuple[tuple[int, ...], ...]:
        """The table with 1-indexed entries, as printed in catalogs."""
        return tuple(tuple(v + 1 for v in row) for row in self.table)


@dataclass(frozen=True)
class Witness:
    """The first element tuple falsifying an identity or condition.

    `elements` is the lexicographically least failing tuple under the
    producing scan, 0-indexed; lhs and rhs are the two evaluated sides
    (always distinct).
    """

    identity_id: str
    elements: tuple[int, ...]
    lhs: int
    rhs: int

    def one_indexed(self) -> tuple[int, ...]:
        return tuple(x + 1 for x in self.elements)

    def describe(self) -> str:
        tup = ",".join(str(x) for x in self.one_indexed())
        return f"{self.identity_id} fails at ({tup}): lhs={self.lhs + 1} rhs={self.rhs + 1}"


@dataclass(frozen=True)
class Nucleus:
    """Left/middle/right nuclei, their intersection, and the center."""

    left: frozenset[int]
    middle: frozenset[int]
    right: frozenset[int]
    nucleus: frozenset[int]
    center: frozenset[int]


def validate_table(raw: Sequence[Sequence[int]]) -> LoopTable:
    """Check a 1-indexed square array and build a LoopTable from it.

    Raises Malformed, NotLatin, or NoIdentity; diagnostics use 1-indexed
    rows, columns, and entries.  This is the gate for outside input: a
    table of plain ints with n rows of n entries goes on, 0-indexed, to
    the Latin and identity check of _latin_loop; any other input goes
    through _first_fault, which finds and words the first fault cell by
    cell, a row that is not a sequence of entries included.  Integral
    entries of other types, such as those of a numpy integer array, pass
    it and are stored as int; bool and float entries do not.
    """
    try:  # not isinstance(raw, Sized): a 0-d numpy array is Sized but has no len
        n = len(raw)
    except TypeError:
        raise Malformed(f"expected a table as a sequence of rows, got {raw!r}") from None
    if n == 0:
        raise Malformed("empty table")
    rows_ok = all(isinstance(row, Sized) and len(row) == n for row in raw)
    if not rows_ok or set(map(type, chain.from_iterable(raw))) != {int}:
        _first_fault(raw, n)  # returns only on valid tables of integral entries
        raw = [[int(v) for v in row] for row in raw]
    return _latin_loop(tuple(tuple([v - 1 for v in row]) for row in raw))


def _latin_loop(table: tuple[tuple[int, ...], ...]) -> LoopTable:
    """The LoopTable of n rows of n 0-indexed ints, raising like validate_table.

    Every row and column that is the set 0..n-1 passes in one set
    comparison; otherwise _first_fault words the first fault of the
    1-indexed table (an entry out of range or a repeat).  The catalog
    parser, whose rows are ints by construction, calls this directly.
    """
    n = len(table)
    labels = set(range(n))
    if not (
        all(set(row) == labels for row in table)
        and all(set(col) == labels for col in zip(*table))
    ):
        _first_fault([[v + 1 for v in row] for row in table], n)
    try:  # a Latin square has at most one identity row
        ident = table.index(tuple(range(n)))
    except ValueError:
        ident = None
    if ident is None or any(row[ident] != x for x, row in enumerate(table)):
        raise NoIdentity("no element is a two-sided identity")
    return LoopTable(n, table, ident)


def _first_fault(raw: Sequence[Sequence[int]], n: int) -> None:
    """Raise for the first fault of a nonempty table, in validation order.

    Row shapes and entries come first, row by row, then repeats within
    rows, then repeats within columns.
    """
    for i, row in enumerate(raw):
        if not isinstance(row, Sized):
            raise Malformed(f"row {i + 1} is {row!r}, expected a sequence of entries")
        if len(row) != n:
            raise Malformed(f"row {i + 1} has {len(row)} entries, expected {n}")
        for v in row:
            integral = isinstance(v, Integral) and not isinstance(v, bool)
            if not integral or not 1 <= v <= n:  # np.int64(3) is worded as 3
                shown = int(v) if integral else v
                raise Malformed(f"row {i + 1} contains {shown!r}, expected an integer in 1..{n}")
    for i, row in enumerate(raw):
        seen: set[int] = set()
        for v in row:
            if v in seen:
                raise NotLatin(f"row {i + 1} repeats entry {v}")
            seen.add(v)
    for j in range(n):
        seen = set()
        for i in range(n):
            v = raw[i][j]
            if v in seen:
                raise NotLatin(f"column {j + 1} repeats entry {v}")
            seen.add(v)


def normalized(L: LoopTable) -> LoopTable:
    """Relabel so the identity becomes element 1 (a reduced Latin square).

    Swaps the identity's label with label 1 and leaves all other labels
    alone; a no-op on already-normalized tables.
    """
    e = L.identity
    if e == 0:
        return L
    p = list(range(L.order))
    p[0], p[e] = e, 0
    raw = [[p[L.table[p[i]][p[j]]] + 1 for j in range(L.order)] for i in range(L.order)]
    return validate_table(raw)


def nuclei(L: LoopTable) -> Nucleus:
    """Read nuclei and center off one associativity table.

    holds[x, y, z] says (xy)z = x(yz); an element is in the left, middle
    or right nucleus when its slice on axis 0, 1 or 2 holds throughout.
    """
    T = L.array.astype(np.intp)  # intp took nuclei from 42 to 25 µs on order-6 groups
    holds = T[T] == T[:, T]
    left, middle, right = (
        frozenset(np.flatnonzero(holds.all(axis=axes)).tolist())
        for axes in ((1, 2), (0, 2), (0, 1))
    )
    nuc = left & middle & right
    center = nuc & frozenset(np.flatnonzero((T == T.T).all(axis=1)).tolist())
    return Nucleus(left, middle, right, nuc, center)


@cache
def row_candidates(n: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """Every row a normalized order-n table can hold, per row index.

    Entry 0 holds only the identity row.  Entry i >= 1 lists, in
    lexicographic order, the permutations p with p[0] = i and p[j] != j
    for j >= 1; the identity row and column rule out every other
    permutation.  Each row comes with its mask, sum(1 << (j*n + p[j])) over
    j >= 1, one bit per (column, value) pair the row occupies, so two
    rows can share a table iff their masks are disjoint.
    """
    identity = tuple(range(n))
    out: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n)]
    for p in permutations(identity):
        if p == identity or (p[0] and all(p[j] != j for j in range(1, n))):
            out[p[0]].append((p, sum(1 << (j * n + p[j]) for j in range(1, n))))
    return tuple(map(tuple, out))


def second_row_candidates(n: int) -> list[tuple[int, ...]]:
    """The rows a normalized table can hold at row 1, lexicographic.

    Enumeration work-splitting partitions on this list.
    """
    return [row for row, _ in row_candidates(n)[1]]


def enumerate_loops(
    n: int,
    visitor: Callable[[LoopTable], None],
    *,
    part_index: int = 0,
    part_count: int = 1,
) -> int:
    """Visit every normalized loop table of order n exactly once.

    Tables are visited in lexicographic order of row-major content (for
    part_count == 1).  With part_count > 1, only the loops whose row-1
    completion index is congruent to part_index are visited; the parts
    are disjoint, cover everything, and each is internally lexicographic,
    so counts add up and global minima are the min over parts.

    Rows 0..n-3 are picked whole from the row_candidates lists: each
    picked row drops, with one mask test per entry, the candidates of
    the later rows that share a (column, value) pair with it.  Rows n-2
    and n-1 are not searched per loop but read off a memo of completions
    (see _pick), which lives as long as one row-1 pick.  Order 2, where
    only row 0 would be picked, has one loop and is visited here
    directly.  Returns the number of loops visited.
    """
    if n > ENUMERATION_CAP:
        raise OrderExceedsCap(f"order {n} exceeds the enumeration cap {ENUMERATION_CAP}")
    if n < 2:
        raise ValueError("order must be at least 2")
    if part_count < 1 or not 0 <= part_index < part_count:
        raise ValueError(f"invalid partition {part_index}/{part_count}")

    if n == 2:  # row 1 of the one order-2 loop is the computed last row
        if part_index:
            return 0
        visitor(LoopTable(2, ((0, 1), (1, 0)), 0))
        return 1

    table = row_candidates(n)
    row_of = {m: row for cands in table for row, m in cands}
    lists = [[m for _, m in cands] for cands in table[:-1]]  # rows 0..n-2
    lists[1] = lists[1][part_index::part_count]
    every_pair = (1 << n * n) - (1 << n)  # bits j*n + v for columns j >= 1
    return _pick(n, (), every_pair, lists, row_of, visitor, {})


def _pick(
    n: int,
    prefix: tuple[tuple[int, ...], ...],
    left: int,
    lists: list[list[int]],
    row_of: dict[int, tuple[int, ...]],
    visitor: Callable[[LoopTable], None],
    completions: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]],
) -> int:
    """Visit every completion of prefix; returns how many there were.

    lists[k] holds the masks of the candidates for row len(prefix) + k
    that lie within `left`, the (column, value) pairs no row of prefix
    holds; there are at least two lists.  At the last searched level,
    row n-3, what rows n-2 and n-1 can be depends only on left_m = left
    ^ m, the pairs left over once row n-3 takes m: a row n-2 candidate
    within `left` that misses m is exactly a candidate within left_m,
    and row n-1 holds what that candidate leaves, since an (n-1) x n
    Latin rectangle has one completion.  So `completions` maps each
    left_m to its (row n-2, row n-1) pairs, in lexicographic order, and
    each is computed once.  A fresh memo is started at every row-1 pick,
    whose picks of rows 2..n-3 reach about 2.8 k left_m at order 7 (92%
    of the lookups hit; 29% at order 6); one memo for a whole call would
    grow toward 309 times that on a single-part order-7 run.  (Orders 3
    and 4, whose row n-3 is row 0 or 1, share one memo per call.)
    """
    head, rest = lists[0], lists[1:]
    count = 0
    if len(rest) > 1:
        row_1 = len(prefix) == 1  # head lists the row-1 candidates
        for m in head:
            later = [[c for c in cands if not c & m] for cands in rest]
            scope = {} if row_1 else completions
            count += _pick(n, prefix + (row_of[m],), left ^ m, later, row_of, visitor, scope)
        return count
    (last,) = rest
    for m in head:  # row n-3
        rows = prefix + (row_of[m],)
        left_m = left ^ m
        pairs = completions.get(left_m)
        if pairs is None:
            # a plain loop: a comprehension's own frame made order 6, where
            # 71% of the lookups miss, about 8% slower with a no-op visitor
            pairs = completions[left_m] = []
            for m2 in last:
                if not m2 & m:
                    pairs.append((row_of[m2], row_of[left_m ^ m2]))
        for pair in pairs:
            visitor(LoopTable(n, rows + pair, 0))
        count += len(pairs)
    return count


def parallel_map(fn: Callable[[T], R], tasks: Sequence[T], jobs: int) -> list[R]:
    """fn over tasks in input order, in `jobs` worker processes.

    fn must be a picklable module-level function.  No more workers than
    tasks or usable CPUs are started, and each takes one contiguous chunk
    of the tasks; with jobs <= 1, or a single task, the map runs in this
    process.
    """
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here: concurrent.futures.process adds 12-20 ms to the start
    # of every command (python -X importtime), and --jobs 1 never needs it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=-(-len(tasks) // workers)))


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform tells; else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
