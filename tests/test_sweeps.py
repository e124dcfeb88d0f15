"""enumerator-sweeps: orchestration, determinism, violation capture."""

import json

import pytest

from loopkit import (
    CHECKS,
    OrderExceedsCap,
    SweepSpec,
    enumerate_loops,
    render_sweep,
    run_sweep,
)
from loopkit.sweeps import LoopFacts, SweepCheck


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
    # all-three-or-one lemma).  The 6 further right Moufang scans are
    # is_extra's cross-check, and the 6 further RIP scans are LIP's
    # choice of inverse, both inside identities.py.
    assert scan_counts == {
        "right_bol": 56, "right_moufang": 56 + 6, "extra": 56, "associative": 6,
        "right_alternative": 6, "rip": 6 + 6, "lip": 6, "commutative": 6,
        "triple_products": 6, "quad_scans": 12,
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
