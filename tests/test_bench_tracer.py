"""The benchmark's tracer rebinds loopkit functions by name; keep those names."""

import dataclasses
import sys
from pathlib import Path

import loopkit
from loopkit import sweeps

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
