"""loopkit benchmark: end-to-end and per-layer metrics for one workload.

Run from the repository root:

    python3 bench/run.py --workload sweep-default --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json and defined in bench/workloads.py.
Set-up is timed in fresh interpreters (import loopkit and build the
inputs) several times and reported as the median.  The workload itself
runs in one more fresh interpreter at --jobs 1; every pass's output is
checked.  Times are in reference seconds: wall or CPU time divided by
the host's slowdown at the time, which benchmark-owned probes measure
(see speed.py); the wall times are in the metadata line.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.  `--workload all` runs every workload in turn.

Earlier lines of stdout are a readable summary and a JSON line of run
metadata; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  Exits 2, printing no result, when the
checkout has no loopkit source to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "loopkit")
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("sweep-default", "ring-bol6", "survey-relabelled", "order7-slice")

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 7  # fresh interpreters timed to `ready`, the measuring worker included
READY_TIMEOUT = 60.0
WORKER_GRACE = 120.0  # beyond --seconds: set-up plus one pass that overruns


class BenchError(Exception):
    pass


def _worker_cmd(args, *extra: str) -> list[str]:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    return cmd + list(extra)


def _start(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready` line; returns (process, set-up s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT)
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"worker did not get ready: {line!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def _finish(proc: subprocess.Popen, timeout: float) -> bytes:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ran longer than {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(args) -> tuple[dict, list[float], list[float]]:
    """Time set-up in fresh interpreters, then run the measuring worker.

    Returns the worker's raw result and each set-up's wall seconds and
    reference seconds (speed.py).
    """
    import speed

    setups, ref_setups = [], []

    def start(cmd: list[str]) -> subprocess.Popen:
        slowdown = speed.import_slowdown(sys.executable, ROOT)
        proc, setup = _start(cmd)
        setups.append(setup)
        ref_setups.append(setup / slowdown)
        return proc

    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            _finish(start(_worker_cmd(args, "--setup-only")), READY_TIMEOUT)
    proc = start(_worker_cmd(args))
    out = _finish(proc, args.seconds + WORKER_GRACE)
    return json.loads(out.decode("utf-8").strip().splitlines()[-1]), setups, ref_setups


def end_to_end_metrics(raw: dict, ref_setups: list[float]) -> dict[str, float]:
    """End-to-end metrics: medians, with times in reference seconds (speed.py)."""
    pass_s = statistics.median(raw["ref_pass_s"])
    return {
        "setup_s": statistics.median(ref_setups),
        "pass_s": pass_s,
        "cpu_s": statistics.median(raw["ref_cpu_s"]),
        "items_per_s": raw["items"] / pass_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def _git_commit() -> str | None:
    try:
        # the ceiling stops git from reporting a repository around the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def metadata(args, raw: dict, setups: list[float], load_before, load_after) -> dict:
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "seed_dependent": raw["seed_dependent"],
        "items_per_pass": raw["items"],
        "passes": len(raw["pass_s"]),
        "pass_s_wall_quartiles": _quartiles(raw["pass_s"]),  # untraced passes
        "cpu_s_wall_median": statistics.median(raw["cpu_s"]),
        "setup_s_wall": setups,
        "fail_frac": raw["failed"] / raw["attempted"],
        "problems": raw["problems"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    }
    if not args.trace:  # the reference-second times (speed.py) behind the metrics
        meta["pass_s_quartiles"] = _quartiles(raw["ref_pass_s"])
        meta["slowdown_quartiles"] = _quartiles(raw["slowdown"])
    else:
        meta["computed_counts"] = raw["computed_counts"]
        meta["traced_passes"] = len(raw["traced_pass_s"])
        meta["traced_pass_s_median"] = statistics.median(raw["traced_pass_s"])
        meta["max_self_sum_over_pass"] = max(
            s / p for s, p in zip(raw["self_sum_s"], raw["traced_pass_s"])
        )
    return meta


def bench_one(args) -> dict:
    load_before = os.getloadavg()
    raw, setups, ref_setups = run_workload(args)
    load_after = os.getloadavg()
    if args.trace:
        metrics = raw["layers"]
    else:
        values = end_to_end_metrics(raw, ref_setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    meta = metadata(args, raw, setups, load_before, load_after)
    print(f"{args.workload}  fail_frac = {meta['fail_frac']:.6g} "
          f"({raw['failed']} of {raw['attempted']} items)")
    print(json.dumps({"meta": meta}))
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (smoke test only; numbers are not comparable)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no loopkit source at {SRC}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = bench_one(argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
