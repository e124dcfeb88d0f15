"""Machine-speed probes: times are reported in reference seconds.

The shared host this benchmark was written on changes speed by up to 40%
over seconds to minutes, for wall and CPU time alike, so raw pass times
of the same code differ from run to run by more than any useful bound.
The probe measures that speed while the workload runs: a fixed chunk of
benchmark-owned work (indexing a Latin square, dict and tuple traffic,
small-object calls and 64-element numpy operations, the kinds of work
loopkit does) is timed once before each pass and then every 50 ms from
a SIGALRM handler, which runs it between two bytecodes of the pass.

A pass's reference time is its own time, without the chunks run inside
it, divided by the mean chunk time over CHUNK_NOMINAL_S.  That is what
the pass would take on a machine that runs one chunk in exactly
CHUNK_NOMINAL_S; on the 2-vCPU host the benchmark was written on a chunk
took 0.8 to 1.3 ms.  The chunks cost about 2% of a pass.  The program
under test never runs inside a chunk, so a change to loopkit moves the
reference time as much as the wall time.

Set-up is spent in process start and imports, which drift with the host
on their own, unlike interpreter speed.  Its probe is a fresh interpreter
that imports numpy, timed just before each set-up; a set-up's reference
time is its wall time divided by that probe's time over IMPORT_NOMINAL_S.
"""

from __future__ import annotations

import signal
import subprocess
import time

import numpy as np

CHUNK_NOMINAL_S = 1e-3
INTERVAL_S = 0.05
IMPORT_NOMINAL_S = 0.2

_SQUARE = [[(i + j) % 6 for j in range(6)] for i in range(6)]
_VEC = np.arange(64, dtype=np.uint16)
_REV = np.arange(63, -1, -1, dtype=np.intp)


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y = x, y


def _mix(p: _Pair, q: _Pair) -> _Pair:
    return _Pair(p.x + q.y, p.y ^ q.x)


def chunk() -> int:
    """The fixed reference work; about a millisecond."""
    t = _SQUARE
    bad = 0
    for _ in range(10):
        for a in range(6):
            ta = t[a]
            for b in range(6):
                tab, tb = ta[b], t[b]
                for c in range(6):
                    if t[tab][c] != ta[tb[c]]:
                        bad += 1
    counts: dict[tuple[int, int], int] = {}
    for k in range(700):
        key = (k & 63, k >> 6)
        counts[key] = counts.get(key, 0) + 1
    p, kept = _Pair(1, 2), []
    for k in range(300):
        p = _mix(p, _Pair(k, k + 1))
        if k % 7 == 0:
            kept.append(tuple(sorted((p.x % 13, p.y % 11, k % 5))))
    for k in range(50):
        v = _VEC ^ np.uint16(k & 63)
        if np.array_equal(v, v[_REV]):
            bad += 1
    return bad + len(counts) + len(kept)


def timed_chunk() -> tuple[float, float]:
    """Run one chunk; returns its (wall, CPU) seconds."""
    w0, c0 = time.perf_counter(), time.process_time()
    chunk()
    return time.perf_counter() - w0, time.process_time() - c0


class Sampler:
    """Chunks timed before one pass and every INTERVAL_S during it.

    Use as a context manager around the timed pass.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, wall, CPU)

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self.samples.append((start, *timed_chunk()))

    def __enter__(self) -> "Sampler":
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def inside(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall and CPU seconds of the chunks that started in [t0, t1)."""
        inner = [s for s in self.samples if t0 <= s[0] < t1]
        return sum(s[1] for s in inner), sum(s[2] for s in inner)

    def factors(self) -> tuple[float, float]:
        """Mean chunk (wall, CPU) time over CHUNK_NOMINAL_S: the slowdown."""
        n = len(self.samples)
        return (sum(s[1] for s in self.samples) / n / CHUNK_NOMINAL_S,
                sum(s[2] for s in self.samples) / n / CHUNK_NOMINAL_S)


def import_slowdown(python: str, cwd: str) -> float:
    """Wall time of a fresh `python` importing numpy, over IMPORT_NOMINAL_S."""
    t0 = time.perf_counter()
    subprocess.run([python, "-c", "import numpy"], cwd=cwd, check=True, timeout=60)
    return (time.perf_counter() - t0) / IMPORT_NOMINAL_S


def warm_up() -> None:
    for _ in range(20):
        chunk()
