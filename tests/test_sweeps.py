"""enumerator-sweeps: orchestration, determinism, violation capture."""

import dataclasses
import hashlib
import json
import time

import pytest

import loopkit.sweeps as sweeps
from conftest import (
    CORPUS5,
    NON_BOL_5_RAW,
    bol_extension16,
    chein_a4,
    octonion_units,
    relabelled,
)
from loopkit import (
    CHECKS,
    OrderExceedsCap,
    SweepSpec,
    enumerate_loops,
    render_sweep,
    run_sweep,
    validate_table,
)
from loopkit.fixtures import bol16, moufang12
from loopkit.sweeps import REQUIRES_FLAGS, LoopFacts, SweepCheck, SweepResult


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
    # all-three-or-one lemma).  The 6 further RIP scans are LIP's choice
    # of inverse, inside identities.py.  The 6 Moufang loops are groups,
    # so alt_ring_equiv_moufang decides both ring alternative laws on
    # each, and each law passes the basis stage into the weight-2 stage.
    # No scan of an order-5 loop reaches a numpy identity tail.
    assert scan_counts["identity_tails"] == 0
    assert scan_counts == {
        "right_bol": 56, "right_moufang": 56, "extra": 56, "associative": 6,
        "right_alternative": 6, "rip": 6 + 6, "lip": 6, "commutative": 6,
        "triple_products": 6, "quad_scans": 12,
        "ring_basis_scans": 6 * 2, "ring_weight_two_runs": 6 * 2,
    }


def test_ring_sweep_reaches_weight_two_only_past_the_basis_stage(scan_counts):
    run_sweep(SweepSpec((5,), ("srar_ring_equiv",)))
    # ring right Bol is scanned on basis tuples for all 56 loops; only the
    # 6 right Bol loops, whose rings hold there, run the weight-2 stage.
    # The pointwise side scans right Bol, then quadruples on the Bol loops.
    assert scan_counts == {
        "ring_basis_scans": 56, "ring_weight_two_runs": 6,
        "right_bol": 56, "quad_scans": 6,
    }


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
        CHECKS, "odd_fails", SweepCheck(lambda facts: "synthetic", 7, requires="odd_order")
    )
    res = run_sweep(SweepSpec((4, 5), ("odd_fails",)))
    assert [(c.order, c.violations) for c in res.cells] == [(4, 0), (5, 56)]


def _loops_where(flag, orders):
    """How many loops of the given orders have the LoopFacts flag (all, for None)."""
    loops = [L for L in CORPUS5 if L.order in orders]
    return sum(flag is None or getattr(LoopFacts(L), flag) for L in loops)


def test_plan_runs_each_check_exactly_where_its_precondition_holds(monkeypatch):
    # one counting check per precondition and a failing one scoped to RA2,
    # requested out of group order so that the plan has to regroup them
    flags = (None, *REQUIRES_FLAGS)
    calls = dict.fromkeys(flags, 0)

    def counting(flag):
        def fn(facts):
            calls[flag] += 1
        return fn

    for flag in flags:
        monkeypatch.setitem(CHECKS, f"counts_{flag}", SweepCheck(counting(flag), 7, requires=flag))
    monkeypatch.setitem(
        CHECKS, "ra2_fails", SweepCheck(lambda facts: "synthetic", 7, requires="ra2")
    )
    checks = ("counts_right_bol", "ra2_fails", "counts_None", "counts_moufang",
              "counts_srar", "counts_ra2", "counts_odd_order")
    res = run_sweep(SweepSpec((4, 5), checks))
    expected = {flag: _loops_where(flag, (4, 5)) for flag in flags}
    # 4 + 56 loops; the 4 + 6 right Bol ones are all groups
    assert expected == {None: 60, "right_bol": 10, "moufang": 10, "srar": 10,
                        "ra2": 10, "odd_order": 56}
    assert calls == expected
    assert sum(c.violations for c in res.cells if c.check == "ra2_fails") == expected["ra2"]
    # the report keeps request order
    assert [c.check for c in res.cells] == list(checks) * 2


def test_plan_tells_the_bol_moufang_srar_and_ra2_flags_apart(monkeypatch):
    # at orders 4 and 5 every right Bol loop is a group, so those four
    # flags hold on the same loops there.  These loops separate them:
    # Bol 16.7.2.1 is right Bol only, M(S3,2) and the octonion units are
    # RA2, a right Bol extension of order 16 (twice, the second relabelled)
    # is SRAR but not Moufang, M(A4,2) is Moufang but not SRAR, and the
    # order-5 loop is not right Bol.
    ext = bol_extension16()
    loops = (bol16(), moufang12(), octonion_units(), validate_table(NON_BOL_5_RAW),
             ext, relabelled(ext, 1), chein_a4())

    def visit_fixed(order, visit, part_index, part_count):
        for L in loops:
            visit(L)
        return len(loops)

    monkeypatch.setattr(sweeps, "enumerate_loops", visit_fixed)
    flags = (None, *REQUIRES_FLAGS)
    calls = dict.fromkeys(flags, 0)

    def counting(flag):
        def fn(facts):
            calls[flag] += 1
        return fn

    for flag in flags:
        monkeypatch.setitem(CHECKS, f"counts_{flag}", SweepCheck(counting(flag), 7, requires=flag))
    res = run_sweep(SweepSpec((5,), tuple(f"counts_{flag}" for flag in reversed(flags))))
    assert {c.loops_scanned for c in res.cells} == {len(loops)}
    assert calls == {flag: sum(flag is None or getattr(LoopFacts(L), flag) for L in loops)
                     for flag in flags}
    assert calls == {None: 7, "right_bol": 6, "moufang": 3, "srar": 4, "ra2": 2, "odd_order": 1}

def test_plan_reads_each_precondition_once_per_loop(monkeypatch):
    reads = []
    monkeypatch.setattr(
        LoopFacts, "odd_order", property(lambda f: reads.append(1) or f.loop.order % 2 == 1)
    )
    for name in ("odd_a", "odd_b"):
        monkeypatch.setitem(CHECKS, name, SweepCheck(lambda facts: None, 7, requires="odd_order"))
    run_sweep(SweepSpec((5,), ("odd_a", "moufang_implies_bol", "odd_b")))
    # one read per order-5 loop for the group of both checks
    assert len(reads) == 56


def test_sweep_check_validates_its_precondition():
    with pytest.raises(ValueError, match="unknown precondition 'right_bool'"):
        SweepCheck(lambda facts: None, 7, requires="right_bool")
    assert all(c.requires in (None, *REQUIRES_FLAGS) for c in CHECKS.values())
    # every flag is a LoopFacts attribute, and swapping fn (as a tracer
    # does with dataclasses.replace) keeps a valid precondition
    facts = LoopFacts(CORPUS5[0])
    assert all(isinstance(getattr(facts, flag), bool) for flag in REQUIRES_FLAGS)
    check = dataclasses.replace(CHECKS["lip_equiv"], fn=lambda facts: None)
    assert check.requires == "right_bol"


# SHA-256 of render_sweep on the default `loopkit sweep`: orders 2-6,
# with the order-6 ring right Bol tier left to --long
DEFAULT_SWEEP_DIGESTS = {
    "text": "cba7d3145680657baf3139646568202dcbfb89f58ec9fe09f29d4baf0ae2979b",
    "json": "c77da0bcd935796ddfd8c7efdaefae904a146da5434c9324c09efc6f2596dec0",
    "csv": "3a03c2278eebb0b4bca4c94a32a2a877ff2b4f5614cb8b6b7c824eadc721be92",
}


def test_default_sweep_report_is_pinned():
    cells = []
    for order in (2, 3, 4, 5, 6):
        checks = tuple(
            name for name, c in CHECKS.items()
            if order <= c.max_order and not (order == 6 and name == "srar_ring_equiv")
        )
        cells += run_sweep(SweepSpec((order,), checks)).cells
    result = SweepResult(tuple(cells))
    digests = {fmt: hashlib.sha256(render_sweep(result, fmt)).hexdigest()
               for fmt in DEFAULT_SWEEP_DIGESTS}
    assert digests == DEFAULT_SWEEP_DIGESTS


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
