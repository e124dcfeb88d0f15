"""Exhaustive verification sweeps over all small loops.

A sweep enumerates every normalized loop of the requested orders once
and evaluates a battery of checks on each.  Every check verifies a
proved statement, so any violation is build-breaking; the first
violating loop's full table is captured for reproduction without
re-enumeration.

Results are independent of the worker count: parts partition the
enumeration deterministically, counts add, and first violations merge by
lexicographic minimum of the table content.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .core import (
    ENUMERATION_CAP,
    LoopTable,
    TheoremViolation,
    enumerate_loops,
    parallel_map,
    second_row_candidates,
)
from .catalog import UnsupportedFormat, render_json_envelope
from .identities import IdentityId, squares_in_nucleus
from .conditions import (
    LoopFacts,
    lemma_allthree,
    lemma_key_mfg,
    lemma_lip_equiv,
    thm_main_verify,
)
from .gf2ring import OrderExceedsCap, oracle_equiv_ra2, oracle_equiv_srar


CheckFn = Callable[[LoopFacts], str | None]


def _check_srar_ring_equiv(f: LoopFacts) -> str | None:
    if not oracle_equiv_srar(f):
        return "ring right Bol (low-weight oracle) disagrees with the pointwise SRAR criterion"
    return None


def _check_alt_ring_equiv(f: LoopFacts) -> str | None:
    # Both half-equivalences.  On arbitrary loops only an empirical fact,
    # and only up to order 5: at order 6 there are non-Moufang loops with
    # full coverage that fail a pointwise alternative law, which breaks
    # the ring law on a basis element.  On Moufang loops it is a theorem,
    # and agreement of both halves is "alternative ring iff RA2" (RA2 is
    # Moufang plus both coverages), so alt_ring_equiv_moufang reuses it.
    if not oracle_equiv_ra2(f):
        return "ring alternative laws disagree with the pointwise coverage conditions"
    return None


def _check_quad_all_three_or_one(f: LoopFacts) -> str | None:
    w = lemma_allthree(f)
    if w is not None:
        return f"quadruple condition set of size 0 or 2: {w.describe()}"
    return None


def _check_lip_equiv(f: LoopFacts) -> str | None:
    w = lemma_lip_equiv(f)
    if w is not None:
        return w.describe()
    return None


def _check_commute_or_lip_moufang(f: LoopFacts) -> str | None:
    try:
        lemma_key_mfg(f)
    except TheoremViolation as exc:
        return str(exc)
    return None


def _check_pair_coverage_implications(f: LoopFacts) -> str | None:
    report = thm_main_verify(f)
    if not report.all_ok():
        return f"pair-coverage implication failed: {report}"
    return None


def _check_pair_coverage_ra2(f: LoopFacts) -> str | None:
    cov = f.coverage
    if (cov.de_everywhere or cov.df_everywhere or cov.ef_everywhere) and not f.ra2:
        return "pair coverage holds on a Bol loop that is not RA2"
    return None


def _check_odd_order_associative(f: LoopFacts) -> str | None:
    # cor_odd_verify on the cached facts: odd order is the precondition,
    # and associativity is read only on SRAR loops, much as cor_odd_verify
    # scans it only on right Bol loops
    if f.srar and not f.associative:
        return "odd-order SRAR loop is not associative"
    return None


def _check_ra2_implies_srar(f: LoopFacts) -> str | None:
    if f.ra2 and not f.srar:
        return "RA2 loop is not SRAR"
    return None


def _check_moufang_implies_bol(f: LoopFacts) -> str | None:
    if f.moufang and not f.right_bol:
        return "Moufang loop is not right Bol"
    return None


def _check_bol_implies_ralt_rip(f: LoopFacts) -> str | None:
    # witness() builds a Witness only for a law that fails
    w = f.witness(IdentityId.RIGHT_ALTERNATIVE)
    if w is not None:
        return f"right Bol loop fails right alternative: {w.describe()}"
    w = f.witness(IdentityId.RIP)
    if w is not None:
        return f"right Bol loop fails RIP: {w.describe()}"
    return None


def _check_bol_lip_implies_moufang(f: LoopFacts) -> str | None:
    if f.holds(IdentityId.LIP) and not f.moufang:
        return "right Bol loop with LIP is not Moufang"
    return None


def _check_extra_iff_moufang_squares_nucleus(f: LoopFacts) -> str | None:
    ext = f.extra
    rhs = f.moufang and squares_in_nucleus(f.loop)
    if ext != rhs:
        return f"extra={ext} but (Moufang and squares-in-nucleus)={rhs}"
    return None


# the LoopFacts flags a check may require
REQUIRES_FLAGS = ("right_bol", "moufang", "srar", "ra2", "odd_order")


@dataclass(frozen=True)
class SweepCheck:
    fn: CheckFn
    max_order: int
    # a LoopFacts flag (one of REQUIRES_FLAGS) that must hold for fn to
    # run; the check holds vacuously elsewhere
    requires: str | None = None

    def __post_init__(self) -> None:
        if self.requires is not None and self.requires not in REQUIRES_FLAGS:
            raise ValueError(f"unknown precondition {self.requires!r}")


CHECKS: dict[str, SweepCheck] = {
    # the low-weight oracle decides any order; 6 keeps its cost out of the
    # 16.9M-loop order-7 tier.  At order 6 its right Bol decision is about
    # a quarter of the cell's time, enumeration and the pointwise SRAR
    # criterion included: 1.9-3.2 against 7.5-12.2 µs per loop (medians
    # of 7 passes over the 9 408 loops, in three runs on a 2-CPU Xeon
    # whose speed varied from run to run)
    "srar_ring_equiv": SweepCheck(_check_srar_ring_equiv, 6),
    "alt_ring_equiv": SweepCheck(_check_alt_ring_equiv, 5),
    "alt_ring_equiv_moufang": SweepCheck(
        _check_alt_ring_equiv, ENUMERATION_CAP, requires="moufang"
    ),
    # cannot fail: any two of D/E/F force the third and SRAR rules out
    # the empty set (see lemma_allthree).  The triple (x, y, z) is the
    # quadruple (x, y, z, e), so this also covers the triple form.
    "quad_all_three_or_one": SweepCheck(
        _check_quad_all_three_or_one, ENUMERATION_CAP, requires="srar"
    ),
    "lip_equiv": SweepCheck(_check_lip_equiv, ENUMERATION_CAP, requires="right_bol"),
    "commute_or_lip_moufang": SweepCheck(
        _check_commute_or_lip_moufang, ENUMERATION_CAP, requires="right_bol"
    ),
    "pair_coverage_implications": SweepCheck(
        _check_pair_coverage_implications, ENUMERATION_CAP, requires="right_bol"
    ),
    "pair_coverage_ra2": SweepCheck(
        _check_pair_coverage_ra2, ENUMERATION_CAP, requires="right_bol"
    ),
    "odd_order_associative": SweepCheck(
        _check_odd_order_associative, ENUMERATION_CAP, requires="odd_order"
    ),
    "ra2_implies_srar": SweepCheck(_check_ra2_implies_srar, ENUMERATION_CAP, requires="ra2"),
    "moufang_implies_bol": SweepCheck(
        _check_moufang_implies_bol, ENUMERATION_CAP, requires="moufang"
    ),
    "bol_implies_ralt_rip": SweepCheck(
        _check_bol_implies_ralt_rip, ENUMERATION_CAP, requires="right_bol"
    ),
    "bol_lip_implies_moufang": SweepCheck(
        _check_bol_lip_implies_moufang, ENUMERATION_CAP, requires="right_bol"
    ),
    "extra_iff_moufang_squares_nucleus": SweepCheck(
        _check_extra_iff_moufang_squares_nucleus, ENUMERATION_CAP
    ),
}


@dataclass(frozen=True)
class SweepSpec:
    orders: tuple[int, ...]
    checks: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.orders or not self.checks:
            raise ValueError("orders and checks must be nonempty")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}")
        for field, values in (("orders", self.orders), ("checks", self.checks)):
            if len(set(values)) < len(values):
                raise ValueError(f"repeated {field}: {values}")


@dataclass(frozen=True)
class SweepCell:
    """One check's counts at one order.

    wall_time is the seconds charged to the check.  Per loop the clock is
    read once after each check that runs and once after each group of
    checks whose shared precondition is false; the time since the last
    read goes to the check that ran, or to the skipped group's first
    check.  So each group's precondition read is charged to its first
    check.  wall_time is kept out of every report.
    """

    order: int
    check: str
    loops_scanned: int
    violations: int
    first_violation: tuple[tuple[int, ...], ...] | None
    wall_time: float


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]

    def total_violations(self) -> int:
        return sum(c.violations for c in self.cells)


def _sweep_part(args: tuple[int, tuple[str, ...], int, int]):
    """One enumeration part: returns (scanned, {check: [viol, first, time]})."""
    order, checks, part_index, part_count = args
    stats: dict[str, list] = {c: [0, None, 0.0] for c in checks}
    # The plan: the checks grouped by precondition, groups in order of
    # first appearance, request order inside each.  Built from CHECKS now,
    # not at import, so that a CHECKS entry swapped in later is the one run.
    groups: dict[str | None, list] = {}
    for name in checks:
        check = CHECKS[name]
        groups.setdefault(check.requires, []).append((check.fn, stats[name]))
    # a skipped group's time goes to its first check's stats
    plan = tuple((flag, group[0][1], group) for flag, group in groups.items())
    clock = time.perf_counter

    def visit(loop: LoopTable) -> None:
        facts = LoopFacts(loop)
        t0 = clock()
        for flag, first, group in plan:
            if flag is not None and not getattr(facts, flag):
                t1 = clock()
                first[2] += t1 - t0
                t0 = t1
                continue
            for fn, st in group:
                detail = fn(facts)
                t1 = clock()
                st[2] += t1 - t0
                t0 = t1
                if detail is not None:
                    st[0] += 1
                    if st[1] is None:
                        st[1] = loop.raw_rows()

    scanned = enumerate_loops(order, visit, part_index=part_index, part_count=part_count)
    return scanned, stats


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Run every requested check over every loop of every requested order."""
    for order in spec.orders:
        if order > ENUMERATION_CAP:
            raise OrderExceedsCap(f"order {order} exceeds the enumeration cap {ENUMERATION_CAP}")
        for name in spec.checks:
            if order > CHECKS[name].max_order:
                raise OrderExceedsCap(
                    f"check {name} is capped at order {CHECKS[name].max_order}, got {order}"
                )

    cells: list[SweepCell] = []
    for order in spec.orders:
        # parts past the row-1 candidates (1, 1, 3, 11, 53, 309 at orders 2-7) are empty
        parts = min(max(jobs, 1), len(second_row_candidates(order)))
        tasks = [(order, spec.checks, k, parts) for k in range(parts)]
        results = parallel_map(_sweep_part, tasks, jobs)
        scanned = sum(r[0] for r in results)
        for name in spec.checks:
            violations = sum(r[1][name][0] for r in results)
            firsts = [r[1][name][1] for r in results if r[1][name][1] is not None]
            first = min(firsts) if firsts else None
            wall = sum(r[1][name][2] for r in results)
            cells.append(SweepCell(order, name, scanned, violations, first, wall))
    return SweepResult(tuple(cells))


def render_sweep(result: SweepResult, fmt: str) -> bytes:
    """Serialize a sweep like the catalog reports (wall_time excluded)."""
    if fmt == "json":
        records = [
            {
                "order": c.order,
                "check": c.check,
                "loops_scanned": c.loops_scanned,
                "violations": c.violations,
                "first_violation": None if c.first_violation is None
                else [list(row) for row in c.first_violation],
            }
            for c in result.cells
        ]
        return render_json_envelope({"violations": result.total_violations()}, records)
    if fmt == "csv":
        lines = ["order,check,loops_scanned,violations"]
        lines += [
            f"{c.order},{c.check},{c.loops_scanned},{c.violations}" for c in result.cells
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "text":
        lines = []
        for c in result.cells:
            line = (
                f"order={c.order} check={c.check} loops_scanned={c.loops_scanned} "
                f"violations={c.violations}"
            )
            if c.first_violation is not None:
                rows = " / ".join(" ".join(str(v) for v in row) for row in c.first_violation)
                line += f" first_violation=[{rows}]"
            lines.append(line)
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise UnsupportedFormat(f"unknown report format {fmt!r}")
