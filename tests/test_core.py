"""loop-core: validation, nuclei, enumeration, the worker-process map."""

import concurrent.futures
import dataclasses
import hashlib
import itertools
import os
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopkit import (
    IdentityId,
    LoopTable,
    Malformed,
    NoIdentity,
    NotLatin,
    OrderTooLarge,
    SweepSpec,
    Witness,
    check_identity,
    enumerate_loops,
    normalized,
    nuclei,
    run_sweep,
    second_row_candidates,
    validate_table,
)
from loopkit import cli, core, gf2ring
from loopkit.conditions import LoopFacts
from loopkit.core import memo
from loopkit.fixtures import BOL_16_RAW, MOUFANG_12_RAW, bol16, cyclic_group, moufang12

from conftest import CORPUS5, bol_extension16, chein_a4, octonion_units

# reduced Latin square counts, cross-checked against the independent
# permutation-based oracle below
REDUCED_COUNTS = {2: 1, 3: 1, 4: 4, 5: 56, 6: 9408, 7: 16942080}


def brute_reduced_count(n):
    """Independent oracle: row-by-row filtered permutations."""
    count = 0

    def rec(rows):
        nonlocal count
        i = len(rows)
        if i == n:
            count += 1
            return
        cols = list(zip(*rows))
        for perm in itertools.permutations(range(n)):
            if perm[0] == i and all(perm[j] not in cols[j] for j in range(1, n)):
                rec(rows + [perm])

    rec([tuple(range(n))])
    return count


def test_validate_fixture_tables():
    t1 = validate_table(BOL_16_RAW)
    assert t1.order == 16 and t1.identity == 0
    t2 = validate_table(MOUFANG_12_RAW)
    assert t2.order == 12 and t2.identity == 0


def test_mul_fixture_entries(t1, t2):
    # table row 2 of the order-12 fixture starts 2 3 1, so 2*3 = 1
    assert t2.mul(1, 2) == 0
    assert t1.mul(1, 8) == 9  # 2*9 = 10 in the order-16 fixture
    for x in range(t2.order):
        assert t2.mul(t2.identity, x) == x == t2.mul(x, t2.identity)


def test_malformed_inputs():
    with pytest.raises(Malformed):
        validate_table([])
    with pytest.raises(Malformed, match="row 2"):
        validate_table([[1, 2], [1]])
    with pytest.raises(Malformed, match="row 1"):
        validate_table([[1, 3], [3, 1]])
    with pytest.raises(Malformed):
        validate_table([[1, "2"], [2, 1]])


@pytest.mark.parametrize("raw, message", [
    ([1, 2], "row 1 is 1, expected a sequence of entries"),
    ([[1, 2], 5], "row 2 is 5, expected a sequence of entries"),
    ([None], "row 1 is None, expected a sequence of entries"),
    (None, "expected a table as a sequence of rows, got None"),
])
def test_non_row_input_is_malformed(raw, message):
    # validate_table is the gate for outside input, so no shape of it may
    # get past as a TypeError
    with pytest.raises(Malformed, match=f"^{message}$"):
        validate_table(raw)


def test_booleans_are_not_table_entries():
    # bool is an int subclass, so True would otherwise pass as 1
    with pytest.raises(Malformed, match="True"):
        validate_table([[True, 2], [2, True]])


@pytest.mark.parametrize("raw, error, message", [
    # a length or entry fault in a later row wins over repeats anywhere
    ([[1, 1, 3], [2, 3], [3, 1, 2]], Malformed, "row 2 has 2 entries, expected 3"),
    ([[1, 1], [2, 3]], Malformed, "row 2 contains 3, expected an integer in 1..2"),
    ([[2, 2], [1, 1.0]], Malformed, "row 2 contains 1.0, expected an integer in 1..2"),
    ([[1, 3], ["2", 1]], Malformed, "row 1 contains 3, expected an integer in 1..2"),
    ([[1, [2]], [2, 1]], Malformed, r"row 1 contains \[2\], expected an integer in 1..2"),
    # a repeat within a row wins over repeats within columns
    ([[1, 2, 3], [1, 2, 2], [3, 1, 2]], NotLatin, "row 2 repeats entry 2"),
    ([[1, 2, 3], [1, 3, 2], [2, 3, 1]], NotLatin, "column 1 repeats entry 1"),
    ([[1, 2, 3], [2, 3, 1], [3, 2, 1]], NotLatin, "column 2 repeats entry 2"),
])
def test_first_fault_is_reported(raw, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        validate_table(raw)


def test_entries_are_ints_but_not_bools():
    # True == 1 and 1.0 == 1, so a table of them has the right sets of
    # entries, but only int subclasses other than bool are accepted
    with pytest.raises(Malformed, match="^row 2 contains True"):
        validate_table([[1, 2], [2, True]])
    with pytest.raises(Malformed, match="^row 1 contains 1.0"):
        validate_table([[1.0, 2], [2, 1]])

    class Label(int):
        pass

    raw = [[2, 3, 1], [3, 1, 2], [1, 2, 3]]
    L = validate_table([[Label(v) for v in row] for row in raw])
    assert L == validate_table(raw) and L.identity == 2
    assert all(type(v) is int for row in L.table for v in row)


def test_not_latin_row_and_column():
    with pytest.raises(NotLatin, match="row 2 repeats entry 2"):
        validate_table([[1, 2], [2, 2]])
    # rows are all permutations but column 1 repeats
    with pytest.raises(NotLatin, match="column 1 repeats entry 2"):
        validate_table([[1, 2, 3], [2, 3, 1], [2, 1, 3]])


def test_no_identity():
    # subtraction mod 3: a quasigroup with only a right identity
    with pytest.raises(NoIdentity):
        validate_table([[1, 3, 2], [2, 1, 3], [3, 2, 1]])


def test_identity_detected_off_position():
    # Z3 relabeled so the identity is element 3
    raw = [[2, 3, 1], [3, 1, 2], [1, 2, 3]]
    L = validate_table(raw)
    assert L.identity == 2
    norm = normalized(L)
    assert norm.identity == 0
    assert norm.table == cyclic_group(3).table
    assert normalized(norm) is norm


@given(st.sampled_from(CORPUS5))
def test_inverse_maps_satisfy_defining_equations(L):
    e = L.identity
    for x in range(L.order):
        assert L.mul(x, L.rinv[x]) == e
        assert L.mul(L.linv[x], x) == e


def test_loop_tables_store_only_the_table():
    assert [f.name for f in dataclasses.fields(LoopTable)] == ["order", "table", "identity"]
    # Z3 with its identity at label 3, and the order-16 fixture
    loops = [validate_table([[2, 3, 1], [3, 1, 2], [1, 2, 3]]), validate_table(BOL_16_RAW)]
    enumerate_loops(4, loops.append)
    for L in loops:
        # the inverse maps are derived from the table when first read
        assert "rinv" not in vars(L) and "linv" not in vars(L)
        e = L.identity
        assert all(L.mul(x, L.rinv[x]) == e == L.mul(L.linv[x], x) for x in range(L.order))
        assert "rinv" in vars(L) and "linv" in vars(L)


@given(st.sampled_from(CORPUS5), st.data())
def test_division_is_total_and_unique(L, data):
    a = data.draw(st.integers(0, L.order - 1))
    b = data.draw(st.integers(0, L.order - 1))
    assert sum(1 for x in range(L.order) if L.mul(a, x) == b) == 1
    assert sum(1 for y in range(L.order) if L.mul(y, a) == b) == 1


def test_division_total_on_fixtures(t1, t2):
    for L in (t1, t2):
        n = L.order
        for a in range(n):
            assert sorted(L.table[a]) == list(range(n))
            assert sorted(L.table[x][a] for x in range(n)) == list(range(n))


def test_rip_loops_have_two_sided_inverses(t1, t2):
    from loopkit import IdentityId, check_identity

    for L in (t1, t2) + CORPUS5:
        if check_identity(L, IdentityId.RIP) is None:
            assert L.rinv == L.linv


def test_nuclei_of_group_are_everything(z6):
    nuc = nuclei(z6)
    full = frozenset(range(6))
    assert nuc.left == nuc.middle == nuc.right == nuc.nucleus == nuc.center == full


@pytest.mark.parametrize("loops", [
    pytest.param((bol16(),), id="bol16"),
    pytest.param(CORPUS5, id="corpus5"),
    pytest.param((moufang12(),), id="moufang12"),
    pytest.param((octonion_units(),), id="octonion_units"),
    pytest.param((chein_a4(),), id="chein_a4"),
    pytest.param((bol_extension16(),), id="bol_extension16"),
])
def test_nuclei_brute_force_cross_check(loops):
    # the definitional scans, one generator per nucleus and the center
    for L in loops:
        nuc = nuclei(L)
        n = L.order
        t = L.table
        for a in range(n):
            in_left = all(
                t[t[a][x]][y] == t[a][t[x][y]] for x in range(n) for y in range(n)
            )
            in_mid = all(
                t[t[x][a]][y] == t[x][t[a][y]] for x in range(n) for y in range(n)
            )
            in_right = all(
                t[t[x][y]][a] == t[x][t[y][a]] for x in range(n) for y in range(n)
            )
            commutes = all(t[a][x] == t[x][a] for x in range(n))
            assert (a in nuc.left) == in_left
            assert (a in nuc.middle) == in_mid
            assert (a in nuc.right) == in_right
            assert (a in nuc.nucleus) == (in_left and in_mid and in_right)
            assert (a in nuc.center) == (in_left and in_mid and in_right and commutes)


def test_moufang12_nucleus_is_trivial(t2):
    # M(S3,2) is Moufang but not extra: its nucleus is just the identity
    # while its squares are {1,2,3}, consistent with the extra-loop
    # characterization (extra iff Moufang with squares in the nucleus)
    nuc = nuclei(t2)
    assert nuc.nucleus == frozenset({t2.identity})
    squares = {t2.mul(x, x) for x in range(t2.order)}
    assert not squares <= nuc.nucleus


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumeration_counts_against_independent_oracle(n):
    visited = []
    got = enumerate_loops(n, visited.append)
    assert got == len(visited) == brute_reduced_count(n) == REDUCED_COUNTS[n]


def test_enumeration_is_duplicate_free_and_valid():
    seen = []

    def visit(L):
        seen.append(L.raw_rows())
        assert validate_table(L.raw_rows()) == L
        assert L.identity == 0

    # order 6 is where rows 2-4 branch above the computed last row
    for n in (2, 3, 4, 5, 6):
        seen.clear()
        enumerate_loops(n, visit)
        assert len(seen) == REDUCED_COUNTS[n]
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen)  # lexicographic row-major order

    # an order-7 part: four searched rows below row 1
    part = []
    got = enumerate_loops(7, lambda L: part.append(L.table), part_index=241, part_count=309)
    assert got == len(part) == 54720
    assert len(set(part)) == len(part)
    assert part == sorted(part)


# SHA-256 of the repr(L.table) lines visited, one per loop, recorded with
# the earlier cell-by-cell search: any change of a table or of the visit
# order changes the digest
VISIT_DIGESTS = [
    # orders 2-5 and (5, 1, 3) pin the completion memo at and near the
    # root; part 1 of order 2 is empty, its one loop being in part 0
    (2, 0, 1, 1, "b1f19329288b4c18f0595c798215dad3a252bcc351e4a39569f8463b0b1f2d0b"),
    (2, 1, 2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 0, 1, 1, "986fa282c6065c21a1e9abb9af58af5f1f3e2a63bf10c57007ce76d94c43a9f8"),
    (4, 0, 1, 4, "cd40179c38a6e3efdbe10d733786cc529cc9548b8def97fa16810b83eea1fd34"),
    (5, 0, 1, 56, "51098c63e6133d8cb22b12d382c0e6593990c591422700cec3c6ceeb8a1bd2cd"),
    (5, 1, 3, 20, "407bb9ea63050b13a8e93a6ea07f64799fcbea0ec18e6fe68c6ed7d0d82fee33"),
    (6, 0, 1, 9408, "42bb845789e11394f3342a11a9bf635e6cb4d13972c4283e18e37046f3b3f521"),
    (7, 0, 309, 55296, "a72d512156ed1a53519636c325d9c1a3e3ecdde6404e1da4e7ba53a56b98f963"),
    (7, 150, 309, 55040, "3dd2142803bb80f91399d90b0758dfa9bdd666296c22f3fbf334e7d7ed684d40"),
    (7, 308, 309, 55296, "a3bc53f3c80306a9458dd1958588a697f1b999d9ce2b633468432b3dbbb0c9e8"),
    # the two parts of the order7-slice benchmark at seed 101, recorded with
    # the nested row n-3 / row n-2 loop that the completion memo replaced
    (7, 241, 309, 54720, "57f0e8c1a96b761d7837ad1191bffe5ee30f221a904f58b1bf496781896cb6bb"),
    (7, 278, 309, 54720, "ea57a65327701fb0f8edbd9de4a1ac3fb2ec7b5881fbff5bb5ca731780244cae"),
]


@pytest.mark.parametrize("n, part_index, part_count, count, digest", VISIT_DIGESTS)
def test_enumeration_visit_sequence_is_pinned(n, part_index, part_count, count, digest):
    h = hashlib.sha256()

    def visit(L):
        h.update(repr(L.table).encode())
        h.update(b"\n")

    assert enumerate_loops(n, visit, part_index=part_index, part_count=part_count) == count
    assert h.hexdigest() == digest


def test_completion_memo_lives_for_one_row_1_pick():
    # the memo of rows n-2 and n-1 starts afresh at every row-1 pick, so a
    # whole order costs about what one of its 53 parts does; one memo per
    # call would hold every part's completions (about 9x one part's peak)
    def peak(**part):
        tracemalloc.start()
        try:
            enumerate_loops(6, lambda L: None, **part)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    core.row_candidates(6)  # cached, so neither run pays for building it
    assert len(second_row_candidates(6)) == 53
    assert peak() < 3 * peak(part_index=0, part_count=53)


def test_enumeration_partition_is_exact():
    # order 2's one loop has its row 1 computed, not searched
    for n, part_count in ((2, 2), (5, 3), (6, 4), (6, 53)):
        full = []
        enumerate_loops(n, lambda L: full.append(L.table))
        row1 = second_row_candidates(n)
        merged = []
        total = 0
        for k in range(part_count):
            part = []
            total += enumerate_loops(n, lambda L: part.append(L.table),
                                     part_index=k, part_count=part_count)
            assert part == sorted(part)
            # part k holds the loops whose row 1 has candidate index k mod part_count
            assert {t[1] for t in part} == set(row1[k::part_count])
            merged.extend(part)
        assert total == len(full) == REDUCED_COUNTS[n]
        assert sorted(merged) == full


def test_second_row_candidates_order2():
    assert second_row_candidates(2) == [(1, 0)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_row_candidates_match_their_definition(n):
    table = core.row_candidates(n)
    assert len(table) == n
    assert [row for row, _ in table[0]] == [tuple(range(n))]
    for i, cands in enumerate(table):
        rows = [row for row, _ in cands]
        assert rows == sorted(set(rows))
        if i:
            assert len(rows) == {2: 1, 3: 1, 4: 3, 5: 11, 6: 53, 7: 309}[n]
        for row, mask in cands:
            assert sorted(row) == list(range(n)) and row[0] == i
            assert i == 0 or all(row[j] != j for j in range(1, n))
            assert mask == sum(1 << (j * n + row[j]) for j in range(1, n))
    assert second_row_candidates(n) == [row for row, _ in table[1]]


def test_enumeration_caps_and_bad_args():
    with pytest.raises(OrderTooLarge):
        enumerate_loops(8, lambda L: None)
    with pytest.raises(ValueError):
        enumerate_loops(1, lambda L: None)
    with pytest.raises(ValueError):
        enumerate_loops(4, lambda L: None, part_index=3, part_count=3)


def test_one_class_for_every_cap():
    assert OrderTooLarge is core.OrderExceedsCap is gf2ring.OrderExceedsCap
    with pytest.raises(core.OrderExceedsCap, match="order 8 exceeds the enumeration cap 7"):
        SweepSpec((8,), ("lip_equiv",))


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool parallel_map starts, none of them real."""
    sizes = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records its size, starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # parallel_map imports the pool class from concurrent.futures only
    # when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def _usable_cpus(monkeypatch, count: int) -> None:
    """Make this process see `count` usable CPUs, with or without sched_getaffinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def test_worker_pool_is_bounded_by_the_task_count(monkeypatch, pool_sizes, capsys):
    sizes = pool_sizes
    _usable_cpus(monkeypatch, 64)  # more than any task count below
    assert core.parallel_map(abs, [-1, 2, -3], 5000) == [1, 2, 3]
    assert sizes == [3]

    # order 5 has 11 row-1 candidates, so at most 11 sweep parts
    spec = SweepSpec((2, 5), ("odd_order_associative", "moufang_implies_bol"))
    sizes.clear()
    wide = run_sweep(spec, jobs=5000)
    assert sizes == [11]
    narrow = run_sweep(spec, jobs=1)
    assert [dataclasses.replace(c, wall_time=0) for c in wide.cells] == [
        dataclasses.replace(c, wall_time=0) for c in narrow.cells
    ]

    # the fixture catalog holds two records
    tables = str(Path(__file__).resolve().parent.parent / "fixtures" / "tables.loops")
    sizes.clear()
    assert cli.main(["classify", "--jobs", "5000", tables]) == 0
    assert sizes == [2]
    wide_out = capsys.readouterr().out
    assert cli.main(["classify", tables]) == 0
    assert capsys.readouterr().out == wide_out


def test_worker_pool_is_bounded_by_the_usable_cpus(monkeypatch, pool_sizes):
    # output does not depend on --jobs, so a large value only costs
    # processes: no more are started than the machine can run at once
    _usable_cpus(monkeypatch, 2)
    tasks = list(range(-300, 300))
    assert core.parallel_map(abs, tasks, 1000) == [abs(t) for t in tasks]
    assert pool_sizes == [2]
    assert core.parallel_map(abs, tasks, 1) == [abs(t) for t in tasks]
    assert pool_sizes == [2]  # jobs=1 runs in this process


def _fields(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def test_value_objects_stay_frozen_and_compare_by_their_fields():
    loops = []
    enumerate_loops(5, loops.append)
    witnesses = [w for L in loops for i in IdentityId if (w := check_identity(L, i))]
    assert [f.name for f in dataclasses.fields(LoopTable)] == ["order", "table", "identity"]
    assert [f.name for f in dataclasses.fields(Witness)] == ["identity_id", "elements", "lhs", "rhs"]
    for objs in (loops, witnesses):
        for a in objs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, dataclasses.fields(a)[0].name, 0)
            copy = type(a)(*_fields(a))
            assert copy == a and hash(copy) == hash(a) == hash(_fields(a))
        for a, b in itertools.combinations(objs[:200], 2):
            assert (a == b) == (_fields(a) == _fields(b))
    # a memo read lands in __dict__ but not in the comparison
    L = loops[-1]
    assert L.rinv and L.linv and L.array.size
    assert L == LoopTable(*_fields(L)) and hash(L) == hash(_fields(L))


def test_memo_computes_once_per_instance_on_first_read():
    calls = []

    class Box:
        @memo
        def value(self):
            """The number of computations so far."""
            calls.append(self)
            return len(calls)

    a, b = Box(), Box()
    assert "value" not in vars(a) and calls == []
    assert (a.value, a.value, b.value, a.value, b.value) == (1, 1, 2, 1, 2)
    assert calls == [a, b] and vars(a) == {"value": 1}
    assert isinstance(Box.value, memo) and Box.value.__doc__.startswith("The number")

    L = cyclic_group(5)
    f = LoopFacts(L)
    assert not {"rinv", "linv", "array"} & set(vars(L))
    assert not {"right_bol", "srar", "triples"} & set(vars(f))
    assert L.rinv is L.rinv and f.srar and f.right_bol
    assert "rinv" in vars(L) and {"srar", "right_bol"} <= set(vars(f))
