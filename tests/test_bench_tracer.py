"""The benchmark rebinds loopkit functions by name and pins order-7 part
counts; keep those names and the enumerator's partition."""

import dataclasses
import json
import sys
from pathlib import Path

import loopkit
from loopkit import enumerate_loops, second_row_candidates, sweeps

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_still_exist(monkeypatch):
    # `bench/run.py --trace 1` rebinds each TRACED name on its loopkit
    # module and wraps each CHECKS entry's fn; a rename breaks it
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing

    missing = [
        f"{short}.{fname}"
        for short, fnames in tracing.TRACED.items()
        for fname in fnames
        if not callable(getattr(getattr(loopkit, short), fname, None))
    ]
    assert missing == []
    for name, check in sweeps.CHECKS.items():
        assert dataclasses.is_dataclass(check), name
        assert "fn" in {field.name for field in dataclasses.fields(check)}, name


def test_order7_part_pins_still_hold():
    # the order7-slice workload checks each part's loop count against
    # order7_parts.json; parts 0 and 45 pin two different counts
    with open(BENCH / "order7_parts.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    parts = len(second_row_candidates(7))
    assert parts == doc["part_count"]
    for p in (0, 45):
        got = enumerate_loops(7, lambda L: None, part_index=p, part_count=parts)
        assert got == doc["counts"][p]


def test_default_plan_matches_the_benchmark(monkeypatch):
    # the sweep-default workload checks the report against its own copy of
    # the default plan; drift between the two fails here, not in a bench run
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    orders = (2, 3, 4, 5, 6)
    specs, skipped = sweeps.sweep_plan(orders, long=False)
    cells, bench_skipped = workloads.sweep_cells(
        orders, workloads.SWEEP_CHECKS, workloads.DEFAULT_SKIPS
    )
    assert [(o, c) for spec in specs for o in spec.orders for c in spec.checks] == cells
    assert list(skipped) == bench_skipped


def test_tiny_workloads_pass_their_checkers(monkeypatch, tmp_path):
    # each workload checks every pass's output; a report change that breaks
    # a checker fails here rather than first in a benchmark run
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        w = workload(1, str(tmp_path), tiny=True)
        try:
            result = w.run_pass()
        finally:
            w.close()
        assert (name, result.failed, result.problems) == (name, 0, [])
        assert result.attempted > 0, name
