"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric in BENCHMARK.json is printed with its unit for
every workload, that the correctness checkers reject a corrupted report,
and that the benchmark refuses to run without the loopkit source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str) -> tuple[list[dict], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--seconds", "1", "--tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    metas = [json.loads(l)["meta"] for l in lines if l.startswith('{"meta"')]
    return metas, json.loads(lines[-1])


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, kind):
    metas, final = _bench("--trace", trace)
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    for w in run.WORKLOAD_NAMES:
        for m in SPEC[kind]:
            got = final["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    assert [m["fail_frac"] for m in metas] == [0.0] * len(run.WORKLOAD_NAMES)
    if trace == "1":
        # per-layer self times never add up to more than the traced pass
        assert all(m["max_self_sum_over_pass"] <= 1.0 for m in metas)


def _sweep_report(orders, checks, skips) -> tuple[str, list, list]:
    cells, skipped = workloads.sweep_cells(orders, checks, skips)
    lines = [
        f"order={o} check={c} loops_scanned={workloads.LOOP_COUNTS[o]} violations=0"
        for o, c in cells
    ]
    return "\n".join(lines + skipped) + "\n", cells, skipped


def test_sweep_checker_accepts_the_real_report_and_rejects_corruptions():
    text, cells, skipped = _sweep_report((2, 3, 4, 5, 6), workloads.SWEEP_CHECKS,
                                         workloads.DEFAULT_SKIPS)
    code, real = workloads.capture_cli(["sweep", "--order", "2", "--order", "3", "--order", "4"])
    real_cells, real_skipped = workloads.sweep_cells((2, 3, 4), workloads.SWEEP_CHECKS, {})
    assert code == 0
    assert workloads.check_sweep_report(real.decode(), real_cells, real_skipped) == (0, [])
    assert workloads.check_sweep_report(text, cells, skipped) == (0, [])

    one_violation = text.replace("check=lip_equiv loops_scanned=9408 violations=0",
                                 "check=lip_equiv loops_scanned=9408 violations=1")
    assert workloads.check_sweep_report(one_violation, cells, skipped)[0] == 1
    short_scan = text.replace("order=5 check=lip_equiv loops_scanned=56",
                              "order=5 check=lip_equiv loops_scanned=55")
    assert workloads.check_sweep_report(short_scan, cells, skipped)[0] == 1
    no_skips = "\n".join(text.splitlines()[: len(cells)]) + "\n"
    assert workloads.check_sweep_report(no_skips, cells, skipped)[0] > 0


def test_survey_checker_accepts_the_real_report_and_rejects_a_flipped_flag(tmp_path):
    text, names = workloads.survey_catalog(7, 1)
    path = tmp_path / "two.loops"
    path.write_text(text, encoding="utf-8")
    code, report = workloads.capture_cli(["survey", "--format", "json", str(path)])
    assert code == 0
    assert workloads.check_survey_report(report, names) == (0, [])

    doc = json.loads(report)
    doc["records"][0]["flags"]["srar"] = not doc["records"][0]["flags"]["srar"]
    failed, problems = workloads.check_survey_report(json.dumps(doc).encode(), names)
    assert failed == 1 and problems

    doc = json.loads(report)
    doc["aggregates"]["srar"] += 1
    assert workloads.check_survey_report(json.dumps(doc).encode(), names)[0] == 1


def test_relabelled_copies_move_the_identity():
    import random

    raw = workloads.SURVEY_SOURCES[workloads.fixtures.BOL_16_NAME]
    tables = [workloads.relabel(raw, random.Random(s)) for s in range(8)]
    identities = {next(i for i, row in enumerate(t) if row == sorted(row)) for t in tables}
    assert len(identities) > 1


def test_order7_counts_cover_every_loop():
    counts = workloads.load_order7_counts()
    assert len(counts) == 309 and sum(counts) == workloads.LOOP_COUNTS[7]
    parts = workloads.pick_order7_parts(counts, 1, workloads.Order7Slice.parts_per_pass)
    assert parts == workloads.pick_order7_parts(counts, 1, workloads.Order7Slice.parts_per_pass)


def test_speed_sampler_leaves_its_own_chunks_out_of_a_pass():
    import time

    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            speed.chunk()
        t1 = time.perf_counter()
    in_wall, in_cpu = sampler.inside(t0, t1)
    # one chunk before the pass, then one per INTERVAL_S inside it
    assert len(sampler.samples) >= 1 + 0.3 / speed.INTERVAL_S - 1
    assert 0 < in_wall < 0.2 * (t1 - t0) and 0 < in_cpu < 0.2 * (t1 - t0)
    assert all(f > 0 for f in sampler.factors())


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
