"""Exhaustive verification sweeps over all small loops.

A sweep runs a battery of checks on each loop of a loop source, a
callable that feeds its loops to a visitor and returns their count;
run_sweep sources each part of an order from enumerate_loops.  Each
check is one CHECKS entry: the LoopFacts flags that are a proved
statement's hypothesis, and a function that returns the loop's violation
of its conclusion, or a falsy value where the loop satisfies it.  Any
violation is build-breaking; the first violating loop's full table is
captured for reproduction without re-enumeration.  sweep_plan alone
decides the cells of `loopkit sweep` and its SKIPPED lines.

Each part runs its checks as a one-level tree: a node per first flag,
and under it a group per second flag, read only where the first holds.
Proved inclusions, such as Moufang => right Bol, never prune the tree:
checks verify them.  A check's wall time is the time from the previous
clock read on the loop to the check's return.

Results are independent of the worker count: parts partition the
enumeration deterministically, counts add, and first violations merge by
lexicographic minimum of the table content.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .core import (
    ENUMERATION_CAP,
    LoopTable,
    OrderExceedsCap,
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
from .gf2ring import oracle_equiv_ra2, oracle_equiv_srar


# the loop's violation of the check's statement, falsy where it holds: the
# verifier's Witness or TheoremViolation where it gives one, else True
CheckFn = Callable[[LoopFacts], object]
LoopSource = Callable[[Callable[[LoopTable], None]], int]


def _commute_or_lip_moufang(f: LoopFacts) -> TheoremViolation | None:
    try:
        lemma_key_mfg(f)
    except TheoremViolation as exc:
        return exc
    return None


# the LoopFacts flags a check may require
PRECONDITIONS = {"right_bol", "moufang", "srar", "ra2", "odd_order", "lip", "pair_coverage"}


@dataclass(frozen=True)
class SweepCheck:
    fn: CheckFn
    # the largest order fn runs at.  Only a check capped below
    # ENUMERATION_CAP states one; SweepSpec rejects orders past that cap.
    max_order: int = ENUMERATION_CAP
    # the check's hypothesis: at most two PRECONDITIONS, read left to
    # right, the second only where the first holds.  fn runs only where
    # all hold and tests only the conclusion; the check holds vacuously
    # elsewhere.
    requires: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.requires, str):
            raise TypeError(f"requires is a tuple of flags, not the string {self.requires!r}")
        for flag in self.requires:
            if flag not in PRECONDITIONS:
                raise ValueError(f"unknown precondition {flag!r}")
        if len(self.requires) > 2:
            raise ValueError(f"at most two preconditions, got {self.requires}")


# Each verifier is looked up in this module's globals when a check runs
# (lambda f: lemma_allthree(f), never the function object itself), so a
# rebound sweeps.<verifier> is the one a sweep calls.
CHECKS: dict[str, SweepCheck] = {
    # the low-weight oracle decides any order; 6 keeps its cost out of the
    # 16.9M-loop order-7 tier
    "srar_ring_equiv": SweepCheck(lambda f: not oracle_equiv_srar(f), max_order=6),
    # Both halves of the alternative-ring equivalence, a theorem on every
    # loop (see oracle_equiv_ra2).  The order-5 cap stays only because
    # bench/workloads.py pins this check's SKIPPED line; raising it
    # changes the benchmark with it.
    "alt_ring_equiv": SweepCheck(lambda f: not oracle_equiv_ra2(f), max_order=5),
    "alt_ring_equiv_moufang": SweepCheck(lambda f: not oracle_equiv_ra2(f), requires=("moufang",)),
    # cannot fail: any two of D/E/F force the third and SRAR rules out
    # the empty set (see lemma_allthree).  The triple (x, y, z) is the
    # quadruple (x, y, z, e), so this also covers the triple form.
    "quad_all_three_or_one": SweepCheck(lambda f: lemma_allthree(f),
                                        requires=("right_bol", "srar")),
    "lip_equiv": SweepCheck(lambda f: lemma_lip_equiv(f), requires=("right_bol",)),
    "commute_or_lip_moufang": SweepCheck(_commute_or_lip_moufang, requires=("right_bol",)),
    "pair_coverage_implications": SweepCheck(
        lambda f: not thm_main_verify(f).all_ok(), requires=("right_bol",)
    ),
    "pair_coverage_ra2": SweepCheck(lambda f: not f.ra2, requires=("right_bol", "pair_coverage")),
    # cor_odd_verify on the cached facts
    "odd_order_associative": SweepCheck(lambda f: not f.associative,
                                        requires=("odd_order", "srar")),
    "ra2_implies_srar": SweepCheck(lambda f: not f.srar, requires=("moufang", "ra2")),
    "moufang_implies_bol": SweepCheck(lambda f: not f.right_bol, requires=("moufang",)),
    "bol_implies_ralt_rip": SweepCheck(
        lambda f: f.witness(IdentityId.RIGHT_ALTERNATIVE) or f.witness(IdentityId.RIP),
        requires=("right_bol",),
    ),
    "bol_lip_implies_moufang": SweepCheck(lambda f: not f.moufang, requires=("right_bol", "lip")),
    "extra_iff_moufang_squares_nucleus": SweepCheck(
        lambda f: f.extra != (f.moufang and squares_in_nucleus(f.loop))
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
        for order in self.orders:
            if order < 2:
                raise ValueError("order must be at least 2")
            if order > ENUMERATION_CAP:
                raise OrderExceedsCap(f"order {order} exceeds the enumeration cap {ENUMERATION_CAP}")
            for name in self.checks:
                cap = CHECKS[name].max_order
                if order > cap:
                    raise OrderExceedsCap(f"check {name} is capped at order {cap}, got {order}")


# the order-6+ ring right Bol tier, which a sweep runs only with --long
_LONG_RING_CHECKS = ("srar_ring_equiv",)


def sweep_plan(orders: Sequence[int], long: bool) -> tuple[tuple[SweepSpec, ...], tuple[str, ...]]:
    """The per-order specs of `loopkit sweep` over orders, and its SKIPPED lines."""
    specs, skipped = [], []
    for order in orders:
        checks = []
        for name, check in CHECKS.items():
            if order > check.max_order:
                skipped.append(f"order={order} check={name} SKIPPED (capped at order {check.max_order})")
            elif order >= 6 and name in _LONG_RING_CHECKS and not long:
                skipped.append(f"order={order} check={name} SKIPPED (requires --long)")
            else:
                checks.append(name)
        specs.append(SweepSpec((order,), tuple(checks)))
    return tuple(specs), tuple(skipped)


@dataclass(frozen=True)
class SweepCell:
    """One check's counts at one order.

    wall_time sums, over the loops the check ran on, the seconds from the
    previous clock read on that loop (its facts built, or the last check
    that ran) to the check's return.  It is kept out of every report.
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


def _sweep_part(args: tuple[LoopSource, tuple[str, ...]]):
    """One source's loops: returns (scanned, {check: [viol, first, time]})."""
    source, checks = args
    stats: dict[str, list] = {c: [0, None, 0.0] for c in checks}
    # The plan: one node per first flag of a requires (None where it is
    # empty), in order of first appearance; in a node the checks with no
    # second flag, then a group per second flag, request order inside
    # each.  Built from CHECKS now, not at import, so that a CHECKS entry
    # swapped in later is the one run.
    nodes: dict[str | None, dict[str | None, list]] = {}
    for name in checks:
        check = CHECKS[name]
        flag, sub = (*check.requires, None, None)[:2]
        groups = nodes.setdefault(flag, {None: []})
        groups.setdefault(sub, []).append((check.fn, stats[name]))
    plan = [(flag, tuple(groups.items())) for flag, groups in nodes.items()]
    clock = time.perf_counter

    def visit(loop: LoopTable) -> None:
        facts = LoopFacts(loop)
        t0 = clock()
        for flag, steps in plan:
            if flag is not None and not getattr(facts, flag):
                continue
            for sub, group in steps:
                if sub is not None and not getattr(facts, sub):
                    continue
                for fn, st in group:
                    violation = fn(facts)
                    t1 = clock()
                    st[2] += t1 - t0
                    t0 = t1
                    if violation:
                        st[0] += 1
                        if st[1] is None:
                            st[1] = loop.raw_rows()

    return source(visit), stats


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Run every requested check over every loop of every requested order."""
    cells: list[SweepCell] = []
    for order in spec.orders:
        # parts past the row-1 candidates (1, 1, 3, 11, 53, 309 at orders 2-7) are empty
        parts = min(max(jobs, 1), len(second_row_candidates(order)))
        # enumerate_loops is looked up per call, so a rebound sweeps.enumerate_loops runs
        tasks = [(partial(enumerate_loops, order, part_index=k, part_count=parts), spec.checks)
                 for k in range(parts)]
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
