"""One workload in a fresh interpreter; started by run.py, not by hand.

The worker imports loopkit from the checkout's src/, builds the
workload's inputs, prints `ready` (run.py times set-up up to that line),
then runs timed passes for the given number of seconds and prints one
JSON line of raw measurements, in wall seconds and in reference seconds
(see speed.py).  With --trace 1 it alternates untraced
passes with traced ones and reports per-layer metrics from the traced
passes; the ratio of the two medians is the tracing overhead.  With
--setup-only it stops after `ready`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_work")
MIN_PASSES = 3


def import_loopkit() -> None:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import loopkit

    if not os.path.abspath(loopkit.__file__).startswith(src + os.sep):
        raise ImportError(f"loopkit imported from {loopkit.__file__}, not from {src}")


class Passes:
    """Timed passes of one workload and the outcome of their checks.

    Given a `sampler` class (speed.Sampler), each pass runs under a
    speed sampler and its times are kept in reference seconds as well as
    in wall seconds.
    """

    def __init__(self, sampler=None) -> None:
        self.sampler = sampler
        self.pass_s: list[float] = []
        self.cpu_s: list[float] = []
        self.ref_pass_s: list[float] = []
        self.ref_cpu_s: list[float] = []
        self.slowdown: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, wl) -> None:
        with self.sampler() if self.sampler else contextlib.nullcontext() as sampler:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                r = wl.run_pass()
                a, f, p = r.attempted, r.failed, r.problems
            except Exception:  # a pass that raises fails all its items
                a, f, p = wl.items, wl.items, [traceback.format_exc(limit=5)]
            w1, c1 = time.perf_counter(), time.process_time()
        self.pass_s.append(w1 - w0)
        self.cpu_s.append(c1 - c0)
        if sampler is not None:
            in_wall, in_cpu = sampler.inside(w0, w1)
            f_wall, f_cpu = sampler.factors()
            self.ref_pass_s.append((w1 - w0 - in_wall) / f_wall)
            self.ref_cpu_s.append((c1 - c0 - in_cpu) / f_cpu)
            self.slowdown.append(f_wall)
        self.attempted += a
        self.failed += f
        self.problems += p

    def median(self) -> float:
        return statistics.median(self.pass_s)

    def result(self) -> dict:
        return {"pass_s": self.pass_s, "cpu_s": self.cpu_s, "ref_pass_s": self.ref_pass_s,
                "ref_cpu_s": self.ref_cpu_s, "slowdown": self.slowdown,
                "attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:10]}


def measure(wl, seconds: float) -> dict:
    """Run probed passes until another would overrun `seconds`."""
    import speed  # after set-up, so its numpy import is not timed as set-up

    speed.warm_up()
    passes = Passes(speed.Sampler)
    t_start = time.perf_counter()
    while True:
        passes.run(wl)
        elapsed = time.perf_counter() - t_start
        if len(passes.pass_s) >= MIN_PASSES and elapsed + passes.median() > seconds:
            return passes.result()


def measure_traced(wl, workload: str, seconds: float) -> dict:
    """Alternate untraced and traced passes, so drift in machine speed
    affects both alike; per-layer metrics are medians over traced passes."""
    from tracing import COMPUTED_COUNTS, PER_LAYER, SELF_TIME_METRICS, Tracer

    plain, traced = Passes(), Passes()
    tracer = Tracer()
    per_pass: list[dict] = []
    t_start = time.perf_counter()
    while True:
        plain.run(wl)
        tracer.reset()
        tracer.install()
        try:
            traced.run(wl)
        finally:
            tracer.uninstall()
        per_pass.append(tracer.metrics())
        elapsed = time.perf_counter() - t_start
        if len(per_pass) >= 2 and elapsed + plain.median() + traced.median() > seconds:
            break
    os.makedirs(WORKDIR, exist_ok=True)
    tracer.save(os.path.join(WORKDIR, f"spans-{workload}.npz"))
    values = {n: statistics.median(p[n] for p in per_pass)
              for n, _ in PER_LAYER if n != "trace.overhead_frac"}
    values["trace.overhead_frac"] = traced.median() / plain.median() - 1
    return {
        **plain.result(),
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "problems": (plain.problems + traced.problems)[:10],
        "traced_pass_s": traced.pass_s,
        "self_sum_s": [sum(p[n] for n in SELF_TIME_METRICS) for p in per_pass],
        "layers": {n: {"value": values[n], "unit": u} for n, u in PER_LAYER},
        "computed_counts": list(COMPUTED_COUNTS),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import_loopkit()
    from workloads import WORKLOADS

    os.makedirs(WORKDIR, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, WORKDIR, args.tiny)
    try:
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            out = measure_traced(wl, args.workload, args.seconds)
        else:
            out = measure(wl, args.seconds)
    finally:
        wl.close()
    out["items"] = wl.items
    out["seed_dependent"] = wl.seed_dependent
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
