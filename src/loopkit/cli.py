"""Command-line front end.

Subcommands: validate, classify, ring-check, survey, sweep, enumerate.
Exit codes: 0 success, 1 validation/parse error, 2 check failure or
theorem violation, 3 usage error.  Output for a given input and flag set
is byte-identical across runs and across --jobs values.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Sequence

from .core import ENUMERATION_CAP, LoopError, OrderExceedsCap, Witness, _latin_loop, enumerate_loops
from .catalog import (
    CatalogError,
    CatalogRecord,
    _iter_raw_records,
    classify_records,
    emit_record,
    parse_catalog,
    render_json_envelope,
    row_dict,
    rows_csv,
    rows_table,
    survey,
    write_report,
)
from .conditions import LoopFacts, quad_values
from .gf2ring import RingIdentityId, low_weight_ring_check
from .identities import IdentityId
from .sweeps import SweepResult, render_sweep, run_sweep, sweep_plan

RING_IDENTITY_FLAGS = {
    "right-bol": RingIdentityId.RIGHT_BOL,
    "right-alt": RingIdentityId.RIGHT_ALTERNATIVE,
    "left-alt": RingIdentityId.LEFT_ALTERNATIVE,
    "right-moufang": RingIdentityId.RIGHT_MOUFANG,
}

FILTER_FLAGS = {"all": "all", "non-moufang-bol": "non_moufang_bol"}

DEFAULT_SWEEP_ORDERS = (2, 3, 4, 5, 6)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loopkit",
        description="Identity checks, GF(2) loop-ring oracles, and surveys for finite loops.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("json", "csv", "text"), default="text")

    def add_jobs(sp):
        sp.add_argument("--jobs", type=int, default=1, help="worker count (default 1)")

    sp = sub.add_parser("validate", help="validate catalog files record by record")
    sp.add_argument("files", nargs="+")

    sp = sub.add_parser("classify", help="print the full flag row per record")
    add_format(sp)
    add_jobs(sp)
    sp.add_argument("--witnesses", action="store_true",
                    help="append counterexample lines for failing records (text format only)")
    sp.add_argument("files", nargs="+")

    sp = sub.add_parser("ring-check", help="decide a GF(2) ring identity per record")
    sp.add_argument("--identity", choices=sorted(RING_IDENTITY_FLAGS), required=True)
    sp.add_argument("files", nargs="+")

    sp = sub.add_parser("survey", help="classification survey with census counts")
    sp.add_argument("--filter", choices=sorted(FILTER_FLAGS), default="all")
    add_format(sp)
    add_jobs(sp)
    sp.add_argument("files", nargs="+")

    sp = sub.add_parser("sweep", help="verify proved statements over all small loops")
    sp.add_argument("--order", type=int, action="append",
                    choices=range(2, ENUMERATION_CAP + 1),
                    help="order to sweep (repeatable; default 2..6)")
    sp.add_argument("--long", action="store_true",
                    help="enable the order-7 and order-6 ring tiers")
    add_format(sp)
    add_jobs(sp)

    sp = sub.add_parser("enumerate", help="stream all normalized loops of one order")
    sp.add_argument("--order", type=int, required=True, choices=range(2, ENUMERATION_CAP + 1))
    sp.add_argument("--long", action="store_true",
                    help="required for order 7 (16.9M records)")

    return p


def describe_loop_witness(loop, w: Witness) -> str:
    """Render a loop-side witness 1-indexed with its evaluated sides."""
    if w.identity_id != "def_coverage":
        return w.describe()
    tup = ",".join(str(v) for v in w.one_indexed())
    q = quad_values(loop, *w.elements)
    return f"D/E/F empty at ({tup}): S={q.s + 1} T={q.t + 1} U={q.u + 1} V={q.v + 1}"


def _out(data: bytes) -> None:
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _load_records(paths: Sequence[str]) -> list[CatalogRecord]:
    records: list[CatalogRecord] = []
    names: set[str] = set()
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parsed = parse_catalog(fh)
        except (CatalogError, UnicodeDecodeError) as exc:
            raise CatalogError(f"{path}: {exc}") from None
        for rec in parsed:
            if rec.name in names:
                raise CatalogError(f"{path}: duplicate loop name {rec.name!r} across inputs")
            names.add(rec.name)
            records.append(rec)
    return records


def _cmd_validate(args) -> int:
    status = 0
    out = []
    names: set[str] = set()
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for name, _line, table in _iter_raw_records(fh):
                    if name in names:
                        out.append(f"{name}: error: duplicate loop name {name!r}")
                        status = 1
                        continue
                    names.add(name)
                    try:
                        loop = _latin_loop(table)
                        out.append(f"{name}: ok (order {loop.order})")
                    except LoopError as exc:
                        out.append(f"{name}: error: {exc}")
                        status = 1
        except (CatalogError, OSError, UnicodeDecodeError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 1
    if out:
        _out(("\n".join(out) + "\n").encode("utf-8"))
    return status


def _witness_lines(records: Sequence[CatalogRecord]) -> list[str]:
    lines = []
    for rec in records:
        facts = LoopFacts(rec.loop)
        for w in (facts.witness(IdentityId.RIGHT_MOUFANG), facts.srar_witness):
            if w is not None:
                lines.append(f"{rec.name}: {describe_loop_witness(rec.loop, w)}")
    return lines


def _cmd_classify(args) -> int:
    if args.witnesses and args.format != "text":
        print(f"error: --witnesses needs --format text, got {args.format}", file=sys.stderr)
        return 3
    records = _load_records(args.files)
    rows = classify_records(records, jobs=args.jobs)
    if args.format == "csv":
        _out(rows_csv(rows).encode("utf-8"))
    elif args.format == "json":
        _out(render_json_envelope({"total": len(rows)}, [row_dict(r) for r in rows]))
    else:
        text = rows_table(rows)
        if args.witnesses:
            lines = _witness_lines(records)
            if lines:
                text += "\n".join(lines) + "\n"
        _out(text.encode("utf-8"))
    return 0


def _cmd_ring_check(args) -> int:
    ident = RING_IDENTITY_FLAGS[args.identity]
    records = _load_records(args.files)
    status = 0
    skipped = False
    out = []
    for rec in records:
        try:
            w = low_weight_ring_check(rec.loop, ident)
        except OrderExceedsCap as exc:
            out.append(f"{rec.name}: skipped: {exc}")
            skipped = True
            continue
        if w is None:
            out.append(f"{rec.name}: {args.identity} holds")
        else:
            out.append(f"{rec.name}: {w.describe()}")
            status = 2
    if out:
        _out(("\n".join(out) + "\n").encode("utf-8"))
    if status == 0 and skipped:
        status = 1
    return status


def _cmd_survey(args) -> int:
    records = _load_records(args.files)
    report = survey(records, filter_id=FILTER_FLAGS[args.filter], jobs=args.jobs)
    _out(write_report(report, args.format))
    return 0


def _cmd_sweep(args) -> int:
    orders = tuple(sorted(set(args.order))) if args.order else DEFAULT_SWEEP_ORDERS
    if 7 in orders and not args.long:
        print("order 7 requires --long", file=sys.stderr)
        return 3
    specs, skipped = sweep_plan(orders, args.long)
    result = SweepResult(tuple(c for spec in specs for c in run_sweep(spec, args.jobs).cells))
    payload = render_sweep(result, args.format)
    if args.format == "text" and skipped:
        payload += ("\n".join(skipped) + "\n").encode("utf-8")
    _out(payload)
    return 2 if result.total_violations() else 0


def _cmd_enumerate(args) -> int:
    n = args.order
    if n == 7 and not args.long:
        print("order 7 requires --long", file=sys.stderr)
        return 3
    counter = itertools.count(1)
    write = sys.stdout.write

    def emit(loop) -> None:
        i = next(counter)
        if i > 1:
            write("\n")
        write(emit_record(f"{n}.{i}", loop))

    enumerate_loops(n, emit)
    sys.stdout.flush()
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "ring-check": _cmd_ring_check,
    "survey": _cmd_survey,
    "sweep": _cmd_sweep,
    "enumerate": _cmd_enumerate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 3
    try:
        return _COMMANDS[args.command](args)
    except (CatalogError, LoopError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
