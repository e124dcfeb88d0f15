"""Acceptance criteria, one test per criterion (pytest -v gives the
pass/fail line for each).

Long tiers (the four-identity order-6 oracle agreement, order 7) run
only with LOOPKIT_LONG=1 in the environment and report as skipped
otherwise.  The
order-16 census runs only when fixtures/catalog16.loops is present.

test_criterion_2_triple_2_5_9_as_stated encodes a stated expectation
({E'} at (2,5,9)) that direct evaluation of the order-12 table refutes
(the products are 11,12,11,12, the F' pattern); it is kept as stated and
is expected to fail.  Its true counterpart lives in test_conditions.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from loopkit import (
    IdentityId,
    RingIdentityId,
    check_identity,
    enumerate_loops,
    is_moufang,
    is_ra2,
    is_srar,
    low_weight_ring_check,
    parse_catalog,
    quad_conditions,
    quad_values,
    ring_identity_check,
    run_sweep,
    survey,
    triple_conditions,
    triple_coverage,
    validate_table,
    SweepSpec,
)
from loopkit.fixtures import BOL_16_RAW, MOUFANG_12_RAW

REPO = Path(__file__).resolve().parent.parent
FIXTURES = str(REPO / "fixtures" / "tables.loops")
CENSUS_CATALOG = REPO / "fixtures" / "catalog16.loops"

LONG = os.environ.get("LOOPKIT_LONG") == "1"
long_tier = pytest.mark.skipif(not LONG, reason="long tier; set LOOPKIT_LONG=1")

LEMMA_CHECKS = (
    "quad_all_three_or_one",
    "lip_equiv",
    "commute_or_lip_moufang",
    "pair_coverage_implications",
    "pair_coverage_ra2",
    "ra2_implies_srar",
)

STRUCTURAL_CHECKS = (
    "moufang_implies_bol",
    "bol_implies_ralt_rip",
    "bol_lip_implies_moufang",
    "extra_iff_moufang_squares_nucleus",
)


def _one_indexed(*vals):
    return tuple(v - 1 for v in vals)


def _assert_no_violations(result):
    for cell in result.cells:
        assert cell.violations == 0, (
            f"order={cell.order} check={cell.check}: {cell.violations} violations, "
            f"first={cell.first_violation}"
        )


def test_criterion_1_bol16_fixture_fidelity():
    t0 = time.perf_counter()
    L = validate_table(BOL_16_RAW)
    assert L.order == 16 and L.identity == 0
    assert check_identity(L, IdentityId.RIGHT_BOL) is None
    assert not is_moufang(L)
    cov = triple_coverage(L)
    assert cov.def_everywhere  # D' or E' or F' at all 16^3 triples
    q = quad_values(L, *_one_indexed(2, 2, 3, 9))
    assert (q.s + 1, q.t + 1, q.u + 1, q.v + 1) == (11, 9, 13, 16)
    assert quad_conditions(L, *_one_indexed(2, 2, 3, 9)) == frozenset()
    ok, w = is_srar(L)
    assert not ok
    assert w.one_indexed() == (2, 2, 3, 9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"


def test_criterion_2_moufang12_fixture_fidelity():
    t0 = time.perf_counter()
    L = validate_table(MOUFANG_12_RAW)
    assert L.order == 12 and L.identity == 0
    assert is_moufang(L)
    assert is_ra2(L) == (True, None)
    assert is_srar(L) == (True, None)
    assert triple_conditions(L, *_one_indexed(2, 3, 8)) == frozenset({"D"})
    assert triple_conditions(L, *_one_indexed(2, 4, 10)) == frozenset({"F"})
    assert quad_conditions(L, *_one_indexed(2, 3, 8, 1)) == frozenset({"D"})
    assert quad_conditions(L, *_one_indexed(2, 4, 10, 1)) == frozenset({"F"})
    cov = triple_coverage(L)
    assert not cov.de_everywhere
    assert not cov.df_everywhere
    assert not cov.ef_everywhere
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.3f}s"


def test_criterion_2_triple_2_5_9_as_stated():
    # Stated expectation: {E'} at (2,5,9) and {E} at (2,5,9,1).  Direct
    # evaluation of the printed table gives products 11,12,11,12 at both,
    # i.e. the F' pattern, so this is expected to fail; see the passing
    # ground-truth assertions in test_conditions.py.
    L = validate_table(MOUFANG_12_RAW)
    got_triple = triple_conditions(L, *_one_indexed(2, 5, 9))
    got_quad = quad_conditions(L, *_one_indexed(2, 5, 9, 1))
    assert got_triple == frozenset({"E"}), (
        f"stated {{E'}} but the table evaluates to {set(got_triple)}"
    )
    assert got_quad == frozenset({"E"})


def test_criterion_3_ring_bol_equivalence_orders_2_to_5():
    t0 = time.perf_counter()
    result = run_sweep(SweepSpec((2, 3, 4, 5), ("srar_ring_equiv",)))
    _assert_no_violations(result)
    scanned = {c.order: c.loops_scanned for c in result.cells}
    assert scanned == {2: 1, 3: 1, 4: 4, 5: 56}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_3_ring_bol_equivalence_order_6():
    result = run_sweep(SweepSpec((6,), ("srar_ring_equiv",)), jobs=4)
    _assert_no_violations(result)
    assert result.cells[0].loops_scanned == 9408


def test_criterion_3_4_ring_equivalences_on_the_fixtures():
    # SRAR <=> ring right Bol and RA2 <=> alternative ring, decided by the
    # low-weight oracle at orders 16 and 12, past the brute-force caps
    for raw, srar, ra2 in ((BOL_16_RAW, False, False), (MOUFANG_12_RAW, True, True)):
        L = validate_table(raw)
        ring = {i: low_weight_ring_check(L, i) is None for i in RingIdentityId}
        assert is_srar(L)[0] == ring[RingIdentityId.RIGHT_BOL] == srar
        alternative = (
            ring[RingIdentityId.RIGHT_ALTERNATIVE] and ring[RingIdentityId.LEFT_ALTERNATIVE]
        )
        assert is_ra2(L)[0] == alternative == ra2


def _oracles_agree(order, idents):
    loops = []
    enumerate_loops(order, loops.append)
    for L in loops:
        for ident in idents:
            low = low_weight_ring_check(L, ident) is None
            assert low == (ring_identity_check(L, ident) is None), (ident, L.raw_rows())
    return len(loops)


def test_criterion_3_low_weight_oracle_matches_brute_force_order_6():
    # the comparators' ring oracle against the full 2^(3n) scan
    assert _oracles_agree(6, (RingIdentityId.RIGHT_BOL,)) == 9408


@long_tier
def test_criterion_3_4_low_weight_oracle_matches_brute_force_order_6_long():
    assert _oracles_agree(6, tuple(RingIdentityId)) == 9408


def test_criterion_4_ring_alternative_equivalence_orders_2_to_5():
    t0 = time.perf_counter()
    result = run_sweep(SweepSpec((2, 3, 4, 5), ("alt_ring_equiv",)))
    _assert_no_violations(result)
    # Moufang-scoped form (both halves plus both-iff-alternative); cheap
    # up to order 6 since non-Moufang loops are filtered before ring work
    result2 = run_sweep(SweepSpec((2, 3, 4, 5, 6), ("alt_ring_equiv_moufang",)))
    _assert_no_violations(result2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_lemma_and_theorem_sweeps_orders_2_to_6():
    result = run_sweep(SweepSpec((2, 3, 4, 5, 6), LEMMA_CHECKS))
    _assert_no_violations(result)
    scanned = {c.order for c in result.cells}
    assert scanned == {2, 3, 4, 5, 6}


def test_criterion_5_odd_order_associativity_orders_3_and_5():
    result = run_sweep(SweepSpec((3, 5), ("odd_order_associative",)))
    _assert_no_violations(result)
    assert {c.order: c.loops_scanned for c in result.cells} == {3: 1, 5: 56}


@long_tier
def test_criterion_5_odd_order_associativity_order_7_long():
    result = run_sweep(SweepSpec((7,), ("odd_order_associative",)), jobs=4)
    _assert_no_violations(result)
    assert result.cells[0].loops_scanned == 16942080


def test_criterion_6_structural_identity_sweeps_orders_2_to_6():
    result = run_sweep(SweepSpec((2, 3, 4, 5, 6), STRUCTURAL_CHECKS))
    _assert_no_violations(result)


def test_criterion_7_census_of_order16_bol_catalog():
    if not CENSUS_CATALOG.exists():
        pytest.skip(
            f"external catalog not present at {CENSUS_CATALOG}; see README for the"
            " documented conversion path"
        )
    t0 = time.perf_counter()
    with open(CENSUS_CATALOG, encoding="utf-8") as fh:
        records = parse_catalog(fh)
    report = survey(records, filter_id="non_moufang_bol")
    assert report.non_moufang_bol == 2033
    assert report.srar == 1873
    assert report.non_srar == 160
    assert report.non_srar_with_def == 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_enumeration_counts():
    for n, expect in ((2, 1), (3, 1), (4, 4), (5, 56)):
        assert enumerate_loops(n, lambda L: None) == expect
    t0 = time.perf_counter()
    assert enumerate_loops(6, lambda L: None) == 9408
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"order-6 enumeration took {elapsed:.1f}s"


@long_tier
def test_criterion_8_enumeration_count_order_7_long():
    from functools import partial

    from loopkit.core import parallel_map
    from loopkit.sweeps import _sweep_part

    # a sweep part with no checks only counts the loops its source feeds it
    sources = [partial(enumerate_loops, 7, part_index=k, part_count=4) for k in range(4)]
    parts = parallel_map(_sweep_part, [(source, ()) for source in sources], 4)
    total = sum(scanned for scanned, _ in parts)
    assert total == 16942080


_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = str(REPO / "src") + os.pathsep + _ENV.get("PYTHONPATH", "")


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "loopkit", *args],
        capture_output=True, cwd=REPO, env=_ENV,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_outputs_byte_identical_across_jobs():
    for argv in (
        ("classify", "--format", "csv", FIXTURES),
        ("classify", "--format", "json", FIXTURES),
        ("survey", "--format", "json", FIXTURES),
        ("survey", "--format", "text", FIXTURES),
        ("sweep", "--order", "4", "--order", "5", "--format", "json"),
        ("sweep", "--order", "4", "--order", "5", "--format", "text"),
    ):
        one = _run_cli(*argv, "--jobs", "1")
        four = _run_cli(*argv, "--jobs", "4")
        assert one == four, f"jobs=1 vs jobs=4 differ for {argv}"
        assert one == _run_cli(*argv, "--jobs", "1"), f"rerun differs for {argv}"
