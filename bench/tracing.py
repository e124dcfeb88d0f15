"""Per-layer tracing of loopkit from outside the package.

The tracer rebinds the traced public functions in every loopkit module
namespace that refers to them, so calls made through `from .x import f`
are caught too.  It also wraps the sweep CHECKS entries and the visitor
handed to enumerate_loops.  Each call records a span (name, start, end,
parent) in memory; a layer's self time is its span minus its child spans.

Work counts (`tuples`, `quads`, `bytes`) are computed from each call's
arguments and result, not counted inside the scans:

  - tuples / quads: the scan-order rank of the returned witness plus one,
    or n^k (2^(n k) for ring scans) when the identity holds;
  - bytes: the product table's nbytes, 4^n times the item size.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from array import array

import numpy as np

import loopkit
from loopkit import sweeps

from workloads import SWEEP_CHECKS

TRACED = {
    "core": ("enumerate_loops", "validate_table", "nuclei"),
    "identities": ("check_identity", "is_moufang", "is_extra", "squares_in_nucleus"),
    "conditions": (
        "first_quad_gap", "first_triple_gap", "first_abc_gap", "triple_coverage",
        "triple_profile", "triple_conditions", "quad_conditions", "is_srar", "is_ra2",
        "lemma_allthree", "lemma_lip_equiv", "lemma_key_mfg", "thm_main_verify",
        "cor_odd_verify",
    ),
    "gf2ring": ("product_table", "ring_identity_check", "oracle_equiv_srar", "oracle_equiv_ra2"),
    "catalog": ("parse_catalog", "classify_loop", "survey", "write_report"),
    "sweeps": ("run_sweep", "render_sweep"),
    "cli": ("main",),
}

# Identity ids that some workload passes to check_identity, with arity.
IDENTITY_ARITY = {
    "right_bol": 3, "right_moufang": 3, "right_alternative": 2, "rip": 2,
    "lip": 2, "commutative": 2, "associative": 3,
}
_ALL_IDENTITY_ARITY = {**IDENTITY_ARITY, "flexible": 2, "left_alternative": 2, "extra": 3}
_RING_ARITY = {
    "ring_right_bol": 3, "ring_right_moufang": 3,
    "ring_right_alternative": 2, "ring_left_alternative": 2,
}

SWEEP_VISIT = "sweeps.visit"
OTHER_VISIT = "visit"


def _metric_units() -> list[tuple[str, str]]:
    out = [
        ("core.enumerate_loops.calls", "count"),
        ("core.enumerate_loops.loops", "count"),
        ("core.enumerate_loops.self_s", "s"),
        ("core.enumerate_loops.us_per_loop", "us"),
    ]
    for fn in ("core.validate_table", "core.nuclei"):
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    out += [
        ("identities.check_identity.calls", "count"),
        ("identities.check_identity.self_s", "s"),
        ("identities.check_identity.tuples", "count"),
    ]
    out += [(f"identities.check_identity.{i}.self_s", "s") for i in IDENTITY_ARITY]
    for fn in TRACED["identities"][1:]:
        out += [(f"identities.{fn}.calls", "count"), (f"identities.{fn}.self_s", "s")]
    for fn in TRACED["conditions"]:
        out += [(f"conditions.{fn}.calls", "count"), (f"conditions.{fn}.self_s", "s")]
    out.append(("conditions.first_quad_gap.quads", "count"))
    out += [
        ("gf2ring.product_table.calls", "count"),
        ("gf2ring.product_table.self_s", "s"),
        ("gf2ring.product_table.bytes", "B"),
        ("gf2ring.ring_identity_check.calls", "count"),
        ("gf2ring.ring_identity_check.self_s", "s"),
        ("gf2ring.ring_identity_check.tuples", "count"),
    ]
    for fn in ("oracle_equiv_srar", "oracle_equiv_ra2"):
        out += [(f"gf2ring.{fn}.calls", "count"), (f"gf2ring.{fn}.self_s", "s")]
    out += [
        ("catalog.parse_catalog.records", "count"),
        ("catalog.parse_catalog.self_s", "s"),
        ("catalog.classify_loop.calls", "count"),
        ("catalog.classify_loop.self_s", "s"),
        ("catalog.classify_loop.ms.p50", "ms"),
        ("catalog.classify_loop.ms.p99", "ms"),
        ("catalog.survey.self_s", "s"),
        ("catalog.write_report.self_s", "s"),
        ("sweeps.run_sweep.calls", "count"),
        ("sweeps.run_sweep.self_s", "s"),
    ]
    out += [(f"sweeps.check.{name}.self_s", "s") for name in SWEEP_CHECKS]
    out += [
        ("sweeps.loop_us.p50", "us"),
        ("sweeps.loop_us.p99", "us"),
        ("sweeps.render_sweep.self_s", "s"),
        ("cli.main.self_s", "s"),
        ("trace.overhead_frac", "frac"),
    ]
    return out


PER_LAYER = _metric_units()

# Metrics that add up self time, each span counted once; their sum per
# pass cannot exceed the traced pass.
SELF_TIME_METRICS = [
    name for name, _ in PER_LAYER
    if name.endswith(".self_s") and not name.startswith("identities.check_identity.")
] + ["identities.check_identity.self_s"]


def _rank(elements, base: int) -> int:
    r = 0
    for e in elements:
        r = r * base + e
    return r


def _identity_tuples(args, result) -> int:
    L, ident = args[0], args[1]
    if result is None:
        return L.order ** _ALL_IDENTITY_ARITY[ident.value]
    return _rank(result.elements, L.order) + 1


def _quads(args, result) -> int:
    L = args[0]
    return L.order ** 4 if result is None else _rank(result.elements, L.order) + 1


def _ring_tuples(args, result) -> int:
    L, ident = args[0], args[1]
    base = 1 << L.order
    if result is None:
        return base ** _RING_ARITY[ident.value]
    return _rank([e.bits for e in result.elements], base) + 1


# Work counts derived from each call's arguments and result (see above).
COMPUTED_COUNTS = (
    "identities.check_identity.tuples",
    "conditions.first_quad_gap.quads",
    "gf2ring.product_table.bytes",
    "gf2ring.ring_identity_check.tuples",
)

COUNTERS = {
    "core.enumerate_loops": ("loops", lambda args, result: result),
    "identities.check_identity": ("tuples", _identity_tuples),
    "conditions.first_quad_gap": ("quads", _quads),
    "gf2ring.product_table": ("bytes", lambda args, result: result.nbytes),
    "gf2ring.ring_identity_check": ("tuples", _ring_tuples),
    "catalog.parse_catalog": ("records", lambda args, result: len(result)),
}


COUNT_METRICS = [f"{fn}.{counter[0]}" for fn, counter in COUNTERS.items()]


class Tracer:
    """Span recorder plus the rebinding that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def open(self, code: int) -> int:
        i = len(self.start)
        self.code.append(code)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def inside(self, code: int) -> bool:
        return any(self.code[i] == code for i in self.stack[1:])

    # -- installation

    def _traced_visitor(self, visitor):
        """Wrap an enumerate_loops visitor; a sweep's visitor is sweeps code."""
        in_sweep = self.inside(self.intern("sweeps.run_sweep"))
        code = self.intern(SWEEP_VISIT if in_sweep else OTHER_VISIT)

        def traced(L):
            i = self.open(code)
            try:
                visitor(L)
            finally:
                self.close(i)
        return traced

    def _wrap(self, qualname: str, fn):
        tracer = self
        code = self.intern(qualname)
        counter = COUNTERS.get(qualname)
        key = counter and f"{qualname}.{counter[0]}"
        wraps_visitor = qualname == "core.enumerate_loops"
        if qualname == "identities.check_identity":
            by_id = {i: self.intern(f"{qualname}.{i}") for i in _ALL_IDENTITY_ARITY}

            def code_of(args):
                return by_id[args[1].value]
        else:
            def code_of(args):
                return code

        def wrapper(*args, **kwargs):
            if wraps_visitor:
                args = (args[0], tracer._traced_visitor(args[1])) + args[2:]
            i = tracer.open(code_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if counter is not None:
                tracer.counts[key] = tracer.counts.get(key, 0) + counter[1](args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every traced function wherever loopkit refers to it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "loopkit" or name.startswith("loopkit."))]
        for short, fnames in TRACED.items():
            mod = getattr(loopkit, short)
            for fname in fnames:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))
        for name, check in list(sweeps.CHECKS.items()):
            fn = check.fn
            code = self.intern(f"sweeps.check.{name}")

            def traced_check(facts, fn=fn, code=code):
                i = self.open(code)
                try:
                    return fn(facts)
                finally:
                    self.close(i)

            sweeps.CHECKS[name] = dataclasses.replace(check, fn=traced_check)
            self._undo.append((sweeps.CHECKS, name, check))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- results

    def spans(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "code": np.frombuffer(self.code, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "parent": parent.copy(),
            "self": dur - child,
            "dur": dur,
        }

    def save(self, path: str) -> None:
        """Write the recorded spans (name table, code, start, end, parent)."""
        s = self.spans()
        np.savez_compressed(path, names=np.array(self.names), code=s["code"],
                            start=s["start"], end=s["end"], parent=s["parent"])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        s = self.spans()
        k = len(self.names)
        calls = np.bincount(s["code"], minlength=k)
        self_s = np.bincount(s["code"], weights=s["self"], minlength=k)
        by_name = {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

        def get(name):
            return by_name.get(name, (0, 0.0))

        def durations(name):
            if name not in self._codes:
                return np.zeros(0)
            return s["dur"][s["code"] == self._codes[name]]

        out: dict[str, float] = {}
        for short, fnames in TRACED.items():
            for fname in fnames:
                c, t = get(f"{short}.{fname}")
                out[f"{short}.{fname}.calls"] = c
                out[f"{short}.{fname}.self_s"] = t
        ids = [get(f"identities.check_identity.{i}") for i in _ALL_IDENTITY_ARITY]
        out["identities.check_identity.calls"] = sum(c for c, _ in ids)
        out["identities.check_identity.self_s"] = sum(t for _, t in ids)
        for i in IDENTITY_ARITY:
            out[f"identities.check_identity.{i}.self_s"] = get(f"identities.check_identity.{i}")[1]
        for name in SWEEP_CHECKS:
            out[f"sweeps.check.{name}.self_s"] = get(f"sweeps.check.{name}")[1]
        # The sweep's own visitor is sweeps code; its self time is the sweep's.
        out["sweeps.run_sweep.self_s"] += get(SWEEP_VISIT)[1]
        out.update({key: 0 for key in COUNT_METRICS})
        out.update(self.counts)
        loops = out["core.enumerate_loops.loops"]
        out["core.enumerate_loops.us_per_loop"] = (
            out["core.enumerate_loops.self_s"] / loops * 1e6 if loops else 0.0
        )
        ms = durations("catalog.classify_loop") * 1e3
        out["catalog.classify_loop.ms.p50"], out["catalog.classify_loop.ms.p99"] = _p50_p99(ms)
        us = durations(SWEEP_VISIT) * 1e6
        out["sweeps.loop_us.p50"], out["sweeps.loop_us.p99"] = _p50_p99(us)
        return out


def _p50_p99(values: np.ndarray) -> tuple[float, float]:
    if len(values) == 0:
        return 0.0, 0.0
    if len(values) == 1:
        return float(values[0]), float(values[0])
    return float(np.median(values)), statistics.quantiles(values.tolist(), n=100)[98]
