"""enumerator-sweeps: orchestration, determinism, violation capture."""

import dataclasses
import hashlib
import json
import time
from functools import partial

import numpy as np
import pytest

from conftest import (
    CORPUS5,
    NON_BOL_5_RAW,
    bol_extension16,
    chein_a4,
    glauberman21,
    octonion_units,
    relabelled,
)
from loopkit import (
    CHECKS,
    IdentityId,
    OrderExceedsCap,
    SweepSpec,
    TripleCoverage,
    classify_loop,
    enumerate_loops,
    holds,
    oracle_equiv_ra2,
    render_sweep,
    run_sweep,
    sweep_plan,
    sweeps,
    validate_table,
)
from loopkit.fixtures import bol16, cyclic_group, moufang12
from loopkit.conditions import NotSrar
from loopkit.sweeps import PRECONDITIONS, LoopFacts, SweepCheck, SweepResult, _sweep_part


def cells_key(result):
    return [
        (c.order, c.check, c.loops_scanned, c.violations, c.first_violation)
        for c in result.cells
    ]


def test_order5_odd_order_check():
    res = run_sweep(SweepSpec((5,), ("odd_order_associative",)))
    cell = res.cells[0]
    assert cell.loops_scanned == 56
    assert cell.violations == 0
    assert cell.first_violation is None


def test_odd_order_check_reuses_the_cached_bol_scan(scan_counts):
    run_sweep(SweepSpec((5,), ("pair_coverage_ra2", "odd_order_associative")))
    # one right Bol scan per order-5 loop, shared by both checks
    assert scan_counts["right_bol"] == 56


# the checks the default sweep runs at order 6: all but the two ring
# checks capped below it
ORDER6_CHECKS = tuple(c for c in CHECKS if c not in ("srar_ring_equiv", "alt_ring_equiv"))


def test_sweep_scans_each_fact_once_per_loop(scan_counts):
    run_sweep(SweepSpec((5,), ORDER6_CHECKS))
    # 56 loops, 6 of them right Bol.  Each loop's one LoopFacts scans
    # right Bol, right Moufang and extra once; each Bol loop builds its
    # triple products once and scans quadruples twice (SRAR and the
    # all-three-or-one lemma).  RIP is scanned once per Bol loop, by
    # bol_implies_ralt_rip: the LIP scan reads the left inverse and starts
    # no RIP scan.  The 6 Moufang loops are groups,
    # so alt_ring_equiv_moufang decides both ring alternative laws on
    # each, and each law passes the basis stage into the weight-2 stage;
    # its pointwise sides scan left alternativity there (right
    # alternativity is scanned already), and share one build of the A/B/C
    # parity gaps with the ra2 flag.  No scan of an order-5 loop reaches a
    # numpy identity stage; the product cache is built once per Bol loop,
    # for its triples and quads.
    assert scan_counts["numpy_scans"] == 0
    assert scan_counts == {
        "right_bol": 56, "right_moufang": 56, "extra": 56, "associative": 6,
        "right_alternative": 6, "left_alternative": 6, "rip": 6, "lip": 6,
        "commutative": 6,
        "products": 6, "triple_products": 6, "quad_scans": 12, "abc_gaps": 6,
        "ring_basis_scans": 6 * 2, "ring_weight_two_runs": 6 * 2,
    }


def test_ring_sweep_reaches_weight_two_only_past_the_basis_stage(scan_counts):
    run_sweep(SweepSpec((5,), ("srar_ring_equiv",)))
    # ring right Bol is scanned on basis tuples for all 56 loops; only the
    # 6 right Bol loops, whose rings hold there, run the weight-2 stage.
    # The pointwise side scans right Bol, then quadruples on the Bol
    # loops, each from one product cache.
    assert scan_counts == {
        "ring_basis_scans": 56, "ring_weight_two_runs": 6,
        "right_bol": 56, "quad_scans": 6, "products": 6,
    }


def test_product_cache_is_built_once_per_loop_and_only_on_need(scan_counts):
    # from order 8 every numpy stage of a classification reads the one
    # product cache of its LoopFacts, which never lands on the table
    loops = [relabelled(L, seed) for L in (moufang12(), bol16()) for seed in range(3)]
    for L in loops:
        classify_loop("x", L)
        assert not [k for k, v in vars(L).items() if np.size(v) >= L.order**3], L.raw_rows()
    assert scan_counts["numpy_scans"] > 0
    assert scan_counts["products"] == len(loops)
    # the order-6 sweep checks on non-Bol loops read no product array
    order6 = []
    enumerate_loops(6, order6.append, part_index=0, part_count=64)
    non_bol = [L for L in order6 if not holds(L, IdentityId.RIGHT_BOL)]
    scanned, _ = _sweep_over(non_bol, ORDER6_CHECKS)
    assert scanned == len(non_bol) > 100
    assert scan_counts["products"] == len(loops)


def test_order2_all_checks():
    res = run_sweep(SweepSpec((2,), tuple(CHECKS)))
    assert all(c.loops_scanned == 1 and c.violations == 0 for c in res.cells)
    assert len(res.cells) == len(CHECKS)


def test_order5_ring_equivalence():
    res = run_sweep(SweepSpec((5,), ("srar_ring_equiv",)))
    assert res.cells[0].violations == 0
    assert res.cells[0].loops_scanned == 56


def test_jobs_do_not_change_results():
    spec = SweepSpec((4, 5), ("srar_ring_equiv", "odd_order_associative", "lip_equiv"))
    r1 = run_sweep(spec, jobs=1)
    r3 = run_sweep(spec, jobs=3)
    assert cells_key(r1) == cells_key(r3)


def test_caps():
    with pytest.raises(OrderExceedsCap):
        run_sweep(SweepSpec((7,), ("srar_ring_equiv",)))
    with pytest.raises(OrderExceedsCap):
        run_sweep(SweepSpec((6,), ("alt_ring_equiv",)))
    with pytest.raises(OrderExceedsCap):
        run_sweep(SweepSpec((8,), ("lip_equiv",)))


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec((), ("lip_equiv",))
    with pytest.raises(ValueError):
        SweepSpec((4,), ())
    with pytest.raises(ValueError):
        SweepSpec((4,), ("made_up_check",))
    # a repeated order or check would be scanned twice into one cell
    with pytest.raises(ValueError, match="repeated orders"):
        SweepSpec((4, 5, 4), ("lip_equiv",))
    with pytest.raises(ValueError, match="repeated checks"):
        SweepSpec((4,), ("lip_equiv", "moufang_implies_bol", "lip_equiv"))
    # enumerate_loops starts at order 2; a spec says so before any sweep runs
    for order in (1, 0):
        with pytest.raises(ValueError, match="order must be at least 2"):
            SweepSpec((order,), ("lip_equiv",))


def test_violation_capture_first_loop(monkeypatch):
    # an always-failing synthetic check must count every loop and pin the
    # lexicographically first table
    monkeypatch.setitem(
        CHECKS, "always_fails", SweepCheck(lambda facts: "synthetic", 7)
    )
    first = []
    enumerate_loops(4, lambda L: first.append(L.raw_rows()) if not first else None)
    res = run_sweep(SweepSpec((4,), ("always_fails",)))
    cell = res.cells[0]
    assert cell.violations == 4
    assert cell.first_violation == first[0]
    # identical under work splitting
    res3 = run_sweep(SweepSpec((4,), ("always_fails",)), jobs=3)
    assert cells_key(res3) == cells_key(res)


def test_requires_gates_the_check(monkeypatch):
    # a failing check scoped to odd orders holds vacuously at order 4
    monkeypatch.setitem(
        CHECKS, "odd_fails", SweepCheck(lambda facts: "synthetic", 7, requires=("odd_order",))
    )
    res = run_sweep(SweepSpec((4, 5), ("odd_fails",)))
    assert [(c.order, c.violations) for c in res.cells] == [(4, 0), (5, 56)]


def _admits(requires, L):
    """Whether every flag of requires holds on L (always, for ())."""
    facts = LoopFacts(L)
    return all(getattr(facts, flag) for flag in requires)


def _loops_where(requires, orders):
    """How many loops of the given orders requires admits."""
    return sum(_admits(requires, L) for L in CORPUS5 if L.order in orders)


# no flag, each flag alone, and each two-flag hypothesis of CHECKS
REQUIRES = ((), *((flag,) for flag in sorted(PRECONDITIONS)),
            *sorted({c.requires for c in CHECKS.values() if len(c.requires) == 2}))


def _counting_checks(monkeypatch):
    """A check per REQUIRES entry, named counts_<flags>, that counts its calls."""
    calls = dict.fromkeys(REQUIRES, 0)

    def counting(requires):
        def fn(facts):
            calls[requires] += 1
        return fn

    names = {}
    for requires in REQUIRES:
        names[requires] = "counts_" + "+".join(requires)
        monkeypatch.setitem(CHECKS, names[requires],
                            SweepCheck(counting(requires), 7, requires=requires))
    return calls, names


def test_plan_runs_each_check_exactly_where_its_precondition_holds(monkeypatch):
    # one counting check per hypothesis and a failing one scoped to RA2,
    # requested out of group order so that the plan has to regroup them
    calls, names = _counting_checks(monkeypatch)
    monkeypatch.setitem(
        CHECKS, "ra2_fails", SweepCheck(lambda facts: "synthetic", 7, requires=("moufang", "ra2"))
    )
    checks = (names[("right_bol",)], "ra2_fails", *(names[r] for r in reversed(REQUIRES)))
    checks = tuple(dict.fromkeys(checks))
    res = run_sweep(SweepSpec((4, 5), checks))
    expected = {requires: _loops_where(requires, (4, 5)) for requires in REQUIRES}
    # 4 + 56 loops; the 4 + 6 right Bol ones are all groups, and of the
    # others none has LIP or pair coverage
    assert expected == {**dict.fromkeys(REQUIRES, 10),
                        (): 60, ("odd_order",): 56, ("odd_order", "srar"): 6}
    assert calls == expected
    assert sum(c.violations for c in res.cells if c.check == "ra2_fails") == 10
    # the report keeps request order
    assert [c.check for c in res.cells] == list(checks) * 2


def _flag_loops():
    """Seven nonassociative loops that tell the four Bol-family flags apart.

    At orders 4 and 5 every right Bol loop is a group, so the right_bol,
    moufang, srar and ra2 flags hold on the same loops there.  These
    separate them: Bol 16.7.2.1 is right Bol only, M(S3,2) and the
    octonion units are RA2, a right Bol extension of order 16 (twice, the
    second relabelled) is SRAR but not Moufang, M(A4,2) is Moufang but
    not SRAR, and the order-5 loop is not right Bol.
    """
    ext = bol_extension16()
    return (bol16(), moufang12(), octonion_units(), validate_table(NON_BOL_5_RAW),
            ext, relabelled(ext, 1), chein_a4())


# SHA-256 of each _flag_loops table, row-major, one byte per entry
FLAG_LOOP_DIGESTS = (
    "60bebe4754665b62f34b93c3169e72db788efe07e4afdbf115878afcc00f7590",
    "c94a48a7744156fa99e3f8c4b16864cd20287eab79ae76db56b94a5957fa5a4b",
    "9b95cc96c7b2aa3a32b19b742c759f0b31344278bcc1e60315c5eb8812c68a96",
    "9074a057ec552057753f75a75b38eabc1c83801c6aed136ab2c2f29be923f3d4",
    "f859097fe0e7253b1de50af842be38634f40cde9927b86bfc563dfe9645cb03d",
    "b0178c711e321d6219b7a4e149654829431f401e8e1cbacf51f2e39a33f5592a",
    "8997b856f516c15fe7c6b25957f8af091f271b354c8f49c77c5e6f5855991a8a",
)


def _sweep_over(loops, checks):
    """Sweep one part whose loop source feeds it `loops`: (scanned, stats)."""
    def source(visit):
        for L in loops:
            visit(L)
        return len(loops)

    return _sweep_part((source, checks))


def test_plan_tells_the_bol_moufang_srar_and_ra2_flags_apart(monkeypatch):
    loops = _flag_loops()
    calls, names = _counting_checks(monkeypatch)
    scanned, _ = _sweep_over(loops, tuple(names[r] for r in reversed(REQUIRES)))
    assert scanned == len(loops)
    assert calls == {r: sum(_admits(r, L) for L in loops) for r in REQUIRES}
    assert calls == {
        (): 7, ("right_bol",): 6, ("moufang",): 3, ("srar",): 4, ("ra2",): 2, ("odd_order",): 1,
        ("lip",): 3, ("pair_coverage",): 1, ("right_bol", "srar"): 4, ("moufang", "ra2"): 2,
        ("right_bol", "lip"): 3, ("right_bol", "pair_coverage"): 1, ("odd_order", "srar"): 0,
    }


def test_every_check_is_clean_on_the_nonassociative_loops():
    # the real checks, where their hypotheses hold on nonassociative loops:
    # a check scoped by the wrong flag, or a ring comparator that asks for
    # the wrong ring law (ring right Moufang in oracle_equiv_srar), reports
    # a violation here.  Of these loops odd_order_associative sees only
    # the non-Bol order-5 one; the odd-order Glauberman loop, which tells
    # its srar hypothesis from right_bol, has a test of its own below.
    loops = _flag_loops()
    assert tuple(hashlib.sha256(bytes(v for row in L.table for v in row)).hexdigest()
                 for L in loops) == FLAG_LOOP_DIGESTS
    assert not any(holds(L, IdentityId.ASSOCIATIVE) for L in loops)
    admitted = {flag: sum(getattr(LoopFacts(L), flag) for L in loops) for flag in PRECONDITIONS}
    assert admitted == {"right_bol": 6, "moufang": 3, "srar": 4, "ra2": 2, "odd_order": 1,
                        "lip": 3, "pair_coverage": 1}
    scanned, stats = _sweep_over(loops, tuple(CHECKS))
    assert len(stats) == len(CHECKS) == 14
    assert (scanned, {violations for violations, _, _ in stats.values()}) == (len(loops), {0})


def test_odd_order_associative_reads_srar_not_right_bol(monkeypatch):
    # the order-21 Glauberman loop is right Bol and not associative, and
    # not SRAR: the real check is clean, and the same check requiring
    # right_bol in place of srar fires
    L = glauberman21()
    facts = LoopFacts(L)
    assert (facts.odd_order, facts.right_bol, facts.associative, facts.moufang,
            facts.srar) == (True, True, False, False, False)
    name = "odd_order_associative"
    scanned, stats = _sweep_over((L,), (name,))
    assert (scanned, stats[name][0]) == (1, 0)
    assert CHECKS[name].requires == ("odd_order", "srar")
    monkeypatch.setitem(CHECKS, name,
                        dataclasses.replace(CHECKS[name], requires=("odd_order", "right_bol")))
    scanned, stats = _sweep_over((L,), (name,))
    assert (scanned, stats[name][0]) == (1, 1)


def test_plan_reads_each_precondition_once_per_loop(monkeypatch):
    reads = []
    monkeypatch.setattr(
        LoopFacts, "odd_order", property(lambda f: reads.append(1) or f.loop.order % 2 == 1)
    )
    for name in ("odd_a", "odd_b"):
        monkeypatch.setitem(CHECKS, name,
                            SweepCheck(lambda facts: None, 7, requires=("odd_order",)))
    run_sweep(SweepSpec((5,), ("odd_a", "moufang_implies_bol", "odd_b")))
    # one read per order-5 loop for the group of both checks
    assert len(reads) == 56


def test_checks_declare_their_whole_hypotheses():
    # SRAR is right Bol plus D/E/F coverage and RA2 is Moufang plus A/B/C
    # and D'/E'/F' coverage, so the SRAR and RA2 checks name their base
    # first.  Proved inclusions (Moufang => right Bol, RA2 => SRAR, extra
    # => Moufang) are never added to a hypothesis: checks verify them.
    assert {name: c.requires for name, c in CHECKS.items() if c.requires} == {
        "alt_ring_equiv_moufang": ("moufang",),
        "quad_all_three_or_one": ("right_bol", "srar"),
        "lip_equiv": ("right_bol",),
        "commute_or_lip_moufang": ("right_bol",),
        "pair_coverage_implications": ("right_bol",),
        "pair_coverage_ra2": ("right_bol", "pair_coverage"),
        "odd_order_associative": ("odd_order", "srar"),
        "ra2_implies_srar": ("moufang", "ra2"),
        "moufang_implies_bol": ("moufang",),
        "bol_implies_ralt_rip": ("right_bol",),
        "bol_lip_implies_moufang": ("right_bol", "lip"),
    }
    # every allowed flag is some check's hypothesis
    assert PRECONDITIONS == {flag for c in CHECKS.values() for flag in c.requires}


def test_a_derived_flag_implies_its_base():
    for L in (*CORPUS5, *_flag_loops()):
        facts = LoopFacts(L)
        assert not facts.srar or facts.right_bol
        assert not facts.ra2 or facts.moufang


def test_derived_flags_are_read_only_under_their_base(monkeypatch):
    computed = dict.fromkeys(("right_bol", "moufang", "srar", "ra2", "lip", "pair_coverage"), 0)

    def counted(flag, fn):
        def wrapper(facts):
            computed[flag] += 1
            return fn(facts)
        return wrapper

    for flag in computed:
        monkeypatch.setattr(getattr(LoopFacts, flag), "fn", counted(flag, getattr(LoopFacts, flag).fn))
    # none of these reads a second flag where its first is false
    checks = ("quad_all_three_or_one", "ra2_implies_srar", "lip_equiv", "moufang_implies_bol",
              "bol_lip_implies_moufang", "pair_coverage_ra2")
    res = run_sweep(SweepSpec((4, 5), checks))
    assert res.total_violations() == 0
    # 4 + 56 loops; the second flags only on the 4 + 6 right Bol (and Moufang) groups
    assert computed == {"right_bol": 60, "moufang": 60, "srar": 10, "ra2": 10,
                        "lip": 10, "pair_coverage": 10}


@pytest.mark.parametrize("checks", [
    ("ra2_implies_srar",),
    ("quad_all_three_or_one", "ra2_implies_srar"),
])
def test_a_derived_group_runs_without_its_base_group(monkeypatch, scan_counts, checks):
    # no requested check requires one flag alone, so each node holds only
    # the group of its second flag
    calls = dict.fromkeys(checks, 0)
    for name in checks:
        def fn(facts, name=name, check=CHECKS[name].fn):
            calls[name] += 1
            return check(facts)
        monkeypatch.setitem(CHECKS, name, dataclasses.replace(CHECKS[name], fn=fn))
    loops = _flag_loops()
    scanned, stats = _sweep_over(loops, checks)
    assert scanned == len(loops)
    assert {name: st[:2] for name, st in stats.items()} == dict.fromkeys(checks, [0, None])
    # one right Moufang scan per loop, for the moufang node
    assert scan_counts["right_moufang"] == len(loops)
    ran = {name: sum(_admits(CHECKS[name].requires, L) for L in loops) for name in checks}
    expected = {"ra2_implies_srar": 2, "quad_all_three_or_one": 4}
    assert calls == ran == {name: expected[name] for name in checks}
    # each check runs on some loop, so each is charged time
    assert all(st[2] > 0 for st in stats.values())


def test_a_sweep_with_no_checks_still_counts_its_loops():
    scanned, stats = _sweep_part((partial(enumerate_loops, 5), ()))
    assert (scanned, stats) == (56, {})


def test_sweep_check_validates_its_precondition():
    with pytest.raises(ValueError, match="unknown precondition 'right_bool'"):
        SweepCheck(lambda facts: None, 7, requires=("right_bool",))
    with pytest.raises(ValueError, match="unknown precondition 'lip_equiv'"):
        SweepCheck(lambda facts: None, 7, requires=("right_bol", "lip_equiv"))
    # a bare string would be read as a tuple of one-letter flags
    with pytest.raises(TypeError, match="requires is a tuple of flags, not the string 'srar'"):
        SweepCheck(lambda facts: None, 7, requires="srar")
    with pytest.raises(ValueError, match=r"at most two preconditions, got \('right_bol', 'srar', "
                                         r"'lip'\)"):
        SweepCheck(lambda facts: None, 7, requires=("right_bol", "srar", "lip"))
    assert all(len(c.requires) <= 2 and set(c.requires) <= PRECONDITIONS for c in CHECKS.values())
    # every flag is a LoopFacts attribute, and swapping fn (as a tracer
    # does with dataclasses.replace) keeps a valid precondition
    facts = LoopFacts(CORPUS5[0])
    assert all(isinstance(getattr(facts, flag), bool) for flag in PRECONDITIONS)
    check = dataclasses.replace(CHECKS["lip_equiv"], fn=lambda facts: None)
    assert check.requires == ("right_bol",)


# SHA-256 of render_sweep on the default `loopkit sweep`: orders 2-6,
# with the order-6 ring right Bol tier left to --long
DEFAULT_SWEEP_DIGESTS = {
    "text": "cba7d3145680657baf3139646568202dcbfb89f58ec9fe09f29d4baf0ae2979b",
    "json": "c77da0bcd935796ddfd8c7efdaefae904a146da5434c9324c09efc6f2596dec0",
    "csv": "3a03c2278eebb0b4bca4c94a32a2a877ff2b4f5614cb8b6b7c824eadc721be92",
}


def test_default_sweep_report_is_pinned():
    specs, _ = sweep_plan((2, 3, 4, 5, 6), long=False)
    result = SweepResult(tuple(c for spec in specs for c in run_sweep(spec).cells))
    digests = {fmt: hashlib.sha256(render_sweep(result, fmt)).hexdigest()
               for fmt in DEFAULT_SWEEP_DIGESTS}
    assert digests == DEFAULT_SWEEP_DIGESTS


def _plan_cells(orders, long):
    specs, skipped = sweep_plan(orders, long)
    assert all(len(spec.orders) == 1 for spec in specs)
    return [(spec.orders[0], spec.checks) for spec in specs], list(skipped)


def test_sweep_plan_pins_the_cells_and_skipped_lines():
    # the plan alone, no sweep run: every check in CHECKS order, less the
    # ring checks past their caps and, without --long, the order-6 ring
    # right Bol tier
    every = tuple(CHECKS)
    without_ring = every[2:]
    assert every[:2] == ("srar_ring_equiv", "alt_ring_equiv")
    assert _plan_cells((2, 3, 4, 5, 6), long=False) == (
        [(2, every), (3, every), (4, every), (5, every), (6, without_ring)],
        ["order=6 check=srar_ring_equiv SKIPPED (requires --long)",
         "order=6 check=alt_ring_equiv SKIPPED (capped at order 5)"],
    )
    assert _plan_cells((6,), long=True) == (
        [(6, ("srar_ring_equiv", *without_ring))],
        ["order=6 check=alt_ring_equiv SKIPPED (capped at order 5)"],
    )
    assert _plan_cells((7,), long=True) == (
        [(7, without_ring)],
        ["order=7 check=srar_ring_equiv SKIPPED (capped at order 6)",
         "order=7 check=alt_ring_equiv SKIPPED (capped at order 5)"],
    )
    # --long lifts only the ring right Bol tier, and below order 6 it changes nothing
    assert _plan_cells((7,), long=False) == _plan_cells((7,), long=True)
    assert _plan_cells((2, 5), long=True) == _plan_cells((2, 5), long=False)


def test_wall_time_charges_each_step_once():
    t0 = time.perf_counter()
    res = run_sweep(SweepSpec((5,), tuple(CHECKS)))
    elapsed = time.perf_counter() - t0
    assert all(c.wall_time >= 0 for c in res.cells)
    assert sum(c.wall_time for c in res.cells) <= elapsed
    ran = [c for c in res.cells if _loops_where(CHECKS[c.check].requires, (5,))]
    # every precondition holds on the order-5 groups, so every check ran
    assert len(ran) == len(CHECKS)
    assert all(c.wall_time > 0 for c in ran)


def test_wall_time_charges_each_step_once_under_the_tree():
    # right Bol, SRAR, Moufang and RA2 all differ on these loops, so every
    # kind of step (first flag false, first true and second false, both
    # true) is taken; Z3 is the one odd-order SRAR loop among them
    loops = (*_flag_loops(), cyclic_group(3))
    t0 = time.perf_counter()
    _, stats = _sweep_over(loops, tuple(CHECKS))
    elapsed = time.perf_counter() - t0
    ran = [name for name, check in CHECKS.items() if any(_admits(check.requires, L) for L in loops)]
    assert len(ran) == len(CHECKS)
    assert all(stats[name][2] > 0 for name in ran)
    assert sum(st[2] for st in stats.values()) <= elapsed


def test_wall_time_goes_only_to_checks_that_ran():
    # on the non-right-Bol loops of order 5 only the extra check runs: a
    # false right Bol or Moufang read costs no clock read, and its time
    # goes to the next check that runs on the loop
    loops = [L for L in CORPUS5 if L.order == 5 and not LoopFacts(L).right_bol]
    assert len(loops) == 50
    idle = ("lip_equiv", "quad_all_three_or_one", "moufang_implies_bol")
    t0 = time.perf_counter()
    _, stats = _sweep_over(loops, (*idle, "extra_iff_moufang_squares_nucleus"))
    elapsed = time.perf_counter() - t0
    assert [stats[name][2] for name in idle] == [0.0, 0.0, 0.0]
    assert stats["extra_iff_moufang_squares_nucleus"][2] > 0
    assert sum(st[2] for st in stats.values()) <= elapsed


def test_render_sweep_formats():
    res = run_sweep(SweepSpec((4,), ("lip_equiv", "moufang_implies_bol")))
    as_json = render_sweep(res, "json")
    doc = json.loads(as_json)
    assert doc["aggregates"] == {"violations": 0}
    assert [r["check"] for r in doc["records"]] == ["lip_equiv", "moufang_implies_bol"]
    assert all("wall_time" not in r for r in doc["records"])
    as_csv = render_sweep(res, "csv").decode()
    assert as_csv.splitlines()[0] == "order,check,loops_scanned,violations"
    assert len(as_csv.splitlines()) == 3
    as_text = render_sweep(res, "text").decode()
    assert "order=4 check=lip_equiv loops_scanned=4 violations=0" in as_text
    # repeated rendering is byte-stable even though wall times vary
    res_again = run_sweep(SweepSpec((4,), ("lip_equiv", "moufang_implies_bol")))
    assert render_sweep(res_again, "json") == as_json


def test_loop_facts_caching(t2):
    facts = LoopFacts(t2)
    assert facts.right_bol and facts.moufang and facts.srar and facts.ra2
    assert facts.coverage.def_everywhere
    assert not facts.associative


def test_scanned_counts_match_enumeration():
    res = run_sweep(SweepSpec((3, 4), ("moufang_implies_bol",)))
    by_order = {c.order: c.loops_scanned for c in res.cells}
    assert by_order == {3: 1, 4: 4}


def _facts(loop, failures=None, **flags):
    """LoopFacts of loop with memoised flags, and identity scans, preset."""
    facts = LoopFacts(loop)
    facts.__dict__.update(flags)
    facts._failures.update(failures or {})
    return facts


# per check, facts on which its statement is false, in each check's
# hypothesis where it has one
FALSIFIED = {
    "srar_ring_equiv": lambda: _facts(cyclic_group(2), srar=False),
    # no loop falsifies the exact comparator: a preset pointwise failure of
    # right alternativity, against the ring law that Z4 satisfies
    "alt_ring_equiv": lambda: _facts(
        cyclic_group(4), {IdentityId.RIGHT_ALTERNATIVE: ((1, 1), 2, 0)}
    ),
    "alt_ring_equiv_moufang": lambda: _facts(
        cyclic_group(4), coverage=TripleCoverage(False, False, False, False)
    ),
    "lip_equiv": lambda: _facts(validate_table(NON_BOL_5_RAW), right_bol=True),
    "commute_or_lip_moufang": lambda: _facts(cyclic_group(3), moufang=False),
    "pair_coverage_implications": lambda: _facts(cyclic_group(3), associative=False),
    "pair_coverage_ra2": lambda: _facts(cyclic_group(3), ra2=False),
    "odd_order_associative": lambda: _facts(cyclic_group(3), srar=True, associative=False),
    "ra2_implies_srar": lambda: _facts(cyclic_group(3), srar=False),
    "moufang_implies_bol": lambda: _facts(cyclic_group(3), right_bol=False),
    "bol_implies_ralt_rip": lambda: _facts(
        cyclic_group(3), {IdentityId.RIGHT_ALTERNATIVE: ((1, 1), 2, 0)}
    ),
    "bol_lip_implies_moufang": lambda: _facts(cyclic_group(3), moufang=False),
    "extra_iff_moufang_squares_nucleus": lambda: _facts(
        cyclic_group(3), extra=True, moufang=False
    ),
}


# per disjunct of LoopFacts.pair_coverage, a coverage where only that
# pair holds: with ra2=False each must make pair_coverage_ra2 fire on its own
PAIR_COVERAGE_FALSIFIED = {
    pair: TripleCoverage(False, *(p == pair for p in ("de", "df", "ef")))
    for pair in ("de", "df", "ef")
}


@pytest.mark.parametrize("pair", PAIR_COVERAGE_FALSIFIED)
def test_each_pair_coverage_disjunct_can_fire(pair):
    facts = _facts(cyclic_group(3), coverage=PAIR_COVERAGE_FALSIFIED[pair], ra2=False)
    check = CHECKS["pair_coverage_ra2"]
    assert check.requires == ("right_bol", "pair_coverage")
    assert facts.right_bol and facts.pair_coverage and check.fn(facts)
    # and without any of the three pairs the hypothesis is false
    no_pair = TripleCoverage(True, False, False, False)
    assert not _facts(cyclic_group(3), coverage=no_pair).pair_coverage


def test_the_left_half_of_the_alternative_comparator_can_fire():
    # FALSIFIED["alt_ring_equiv"] reaches the right half; a preset pointwise
    # failure of left alternativity, against the ring law that Z4
    # satisfies, makes the left half disagree while the right half agrees
    assert oracle_equiv_ra2(cyclic_group(4))
    left = {IdentityId.LEFT_ALTERNATIVE: ((1, 1), 2, 0)}
    assert not oracle_equiv_ra2(_facts(cyclic_group(4), left))
    assert CHECKS["alt_ring_equiv"].fn(_facts(cyclic_group(4), left))


# quad_all_three_or_one alone cannot fail (see lemma_allthree)
@pytest.mark.parametrize("name", [c for c in CHECKS if c != "quad_all_three_or_one"])
def test_every_check_can_fire(name):
    facts = FALSIFIED[name]()
    check = CHECKS[name]
    assert all(getattr(facts, flag) for flag in check.requires)
    assert check.fn(facts)


# per two-flag check, what the check does with its second flag dropped on
# the _flag_loops and the Glauberman loop: its verifier's error outside
# the hypothesis, or its violation count
WITHOUT_SECOND_FLAG = {
    "quad_all_three_or_one": NotSrar,
    "pair_coverage_ra2": 5,
    "odd_order_associative": 2,
    "ra2_implies_srar": 1,
    "bol_lip_implies_moufang": 4,
}


@pytest.mark.parametrize("name", [n for n, c in CHECKS.items() if len(c.requires) == 2])
def test_each_second_flag_is_needed(monkeypatch, name):
    # the real check is clean on these loops, and the check fires or
    # raises once its second flag is dropped, so no second flag is idle
    loops = (*_flag_loops(), glauberman21())
    assert _sweep_over(loops, (name,))[1][name][:2] == [0, None]
    check = CHECKS[name]
    monkeypatch.setitem(CHECKS, name, dataclasses.replace(check, requires=check.requires[:1]))
    expected = WITHOUT_SECOND_FLAG[name]
    if isinstance(expected, int):
        assert _sweep_over(loops, (name,))[1][name][0] == expected
    else:
        with pytest.raises(expected):
            _sweep_over(loops, (name,))


# the verifiers bench/tracing.py counts by rebinding them on loopkit.sweeps
SWEEP_VERIFIERS = (
    "oracle_equiv_srar", "oracle_equiv_ra2", "lemma_allthree", "lemma_lip_equiv",
    "lemma_key_mfg", "thm_main_verify", "squares_in_nucleus",
)


def test_sweep_calls_each_verifier_through_the_sweeps_module(monkeypatch):
    calls = dict.fromkeys(SWEEP_VERIFIERS, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in SWEEP_VERIFIERS:
        monkeypatch.setattr(sweeps, name, counted(name, getattr(sweeps, name)))
    res = run_sweep(SweepSpec((5,), tuple(CHECKS)))
    assert res.total_violations() == 0
    # 56 loops, 6 of them right Bol groups
    assert calls == {
        "oracle_equiv_srar": 56, "oracle_equiv_ra2": 56 + 6, "lemma_allthree": 6,
        "lemma_lip_equiv": 6, "lemma_key_mfg": 6, "thm_main_verify": 6,
        "squares_in_nucleus": 6,
    }
