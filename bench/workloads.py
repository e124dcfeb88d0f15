"""The benchmark's workloads: inputs built from a seed, one timed pass, and
the correctness checks that every pass's output must meet.

Each workload drives loopkit only through public calls, looked up on the
module at call time so that a traced run sees the calls it rebinds.  A
pass returns how many items it attempted and how many came out wrong; an
item is a loop for the sweeps and the order-7 slice and a record for the
survey.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import sys
from dataclasses import dataclass, field

from loopkit import cli, conditions, core, fixtures, sweeps

HERE = os.path.dirname(os.path.abspath(__file__))

# Normalized loops per order (reduced Latin squares).
LOOP_COUNTS = {2: 1, 3: 1, 4: 4, 5: 56, 6: 9408, 7: 16_942_080}

# Every sweep check in report order.  The default sweep skips the two
# listed in DEFAULT_SKIPS at order 6 and prints a SKIPPED line for each.
SWEEP_CHECKS = (
    "srar_ring_equiv",
    "alt_ring_equiv",
    "alt_ring_equiv_moufang",
    "quad_all_three_or_one",
    "lip_equiv",
    "commute_or_lip_moufang",
    "pair_coverage_implications",
    "pair_coverage_ra2",
    "odd_order_associative",
    "ra2_implies_srar",
    "moufang_implies_bol",
    "bol_implies_ralt_rip",
    "bol_lip_implies_moufang",
    "extra_iff_moufang_squares_nucleus",
)
DEFAULT_SKIPS = {
    (6, "srar_ring_equiv"): "requires --long",
    (6, "alt_ring_equiv"): "capped at order 5",
}

# Classification rows of the two survey sources, pinned from the statements
# about them in the README and the acceptance suite; a relabelled copy must
# reproduce its source's row.
PINNED_ROWS = {
    fixtures.BOL_16_NAME: {
        "order": 16,
        "flags": {
            "right_bol": True, "moufang": False, "srar": False, "ra2": False,
            "extra": False, "group": False, "def_everywhere": True,
            "de": False, "df": False, "ef": False,
        },
        "triple_profile": {
            "none": 0, "D": 768, "E": 768, "F": 576,
            "DE": 0, "DF": 0, "EF": 0, "DEF": 1984,
        },
    },
    fixtures.MOUFANG_12_NAME: {
        "order": 12,
        "flags": {
            "right_bol": True, "moufang": True, "srar": True, "ra2": True,
            "extra": False, "group": False, "def_everywhere": True,
            "de": False, "df": False, "ef": False,
        },
        "triple_profile": {
            "none": 0, "D": 324, "E": 324, "F": 432,
            "DE": 0, "DF": 0, "EF": 0, "DEF": 648,
        },
    },
}
SURVEY_SOURCES = {
    fixtures.BOL_16_NAME: fixtures.BOL_16_RAW,
    fixtures.MOUFANG_12_NAME: fixtures.MOUFANG_12_RAW,
}


@dataclass
class PassResult:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def capture_cli(argv: list[str]) -> tuple[int, bytes]:
    """Run loopkit.cli.main with stdout captured; returns (exit code, bytes)."""
    buf = io.BytesIO()
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(buf, encoding="utf-8")
    try:
        code = cli.main(argv)
        sys.stdout.flush()
        data = buf.getvalue()
    finally:
        sys.stdout = saved
    return code, data


# ---------------------------------------------------------------- sweeps

_CELL = re.compile(r"order=(\d+) check=(\S+) loops_scanned=(\d+) violations=(\d+)(.*)")


def sweep_cells(orders, checks, skips) -> tuple[list[tuple[int, str]], list[str]]:
    """The (order, check) cells a sweep reports, and its SKIPPED lines."""
    cells = [(o, c) for o in orders for c in checks if (o, c) not in skips]
    skipped = [
        f"order={o} check={c} SKIPPED ({skips[o, c]})"
        for o in orders for c in checks if (o, c) in skips
    ]
    return cells, skipped


def check_sweep_report(text: str, cells, skipped) -> tuple[int, list[str]]:
    """Compare a text sweep report with the cells it must hold.

    Every cell must scan all loops of its order with 0 violations, in
    order, followed by exactly the expected SKIPPED lines.  Returns the
    number of loops counted as failed (violations, missing or extra
    loops, one per malformed line) and a description of each problem.
    """
    lines = text.splitlines()
    failed = 0
    problems: list[str] = []
    got = lines[: len(cells)]
    for i, (order, check) in enumerate(cells):
        want = LOOP_COUNTS[order]
        m = _CELL.fullmatch(got[i]) if i < len(got) else None
        if m is None or (int(m[1]), m[2]) != (order, check):
            failed += want
            problems.append(f"cell order={order} check={check}: missing or out of place")
            continue
        scanned, violations = int(m[3]), int(m[4])
        if scanned != want:
            failed += abs(want - scanned)
            problems.append(f"order={order} check={check}: scanned {scanned}, expected {want}")
        if violations or m[5]:  # m[5] holds a first_violation table
            failed += max(violations, 1)
            problems.append(f"order={order} check={check}: {violations} violations{m[5]}")
    rest = lines[len(cells):]
    if rest != skipped:
        failed += max(len(rest), len(skipped))
        problems.append(f"SKIPPED lines {rest!r}, expected {skipped!r}")
    return failed, problems


class SweepDefault:
    """`loopkit sweep` with default settings: every default check, orders 2-6."""

    seed_dependent = False

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.argv = ["sweep", "--order", "5"] if tiny else ["sweep"]
        orders = (5,) if tiny else (2, 3, 4, 5, 6)
        self.cells, self.skipped = sweep_cells(orders, SWEEP_CHECKS, DEFAULT_SKIPS)
        self.items = sum(LOOP_COUNTS[o] for o in orders)

    def run_pass(self) -> PassResult:
        code, out = capture_cli(self.argv)
        failed, problems = check_sweep_report(out.decode("utf-8"), self.cells, self.skipped)
        if code != 0:
            problems.append(f"exit code {code}")
            failed = max(failed, 1)
        return PassResult(self.items, min(failed, self.items), problems)

    def close(self) -> None:
        pass


class RingBol6:
    """The order-6 ring tier: run_sweep over srar_ring_equiv, then render_sweep."""

    seed_dependent = False

    def __init__(self, seed: int, workdir: str, tiny: bool):
        order = 5 if tiny else 6
        self.spec = sweeps.SweepSpec((order,), ("srar_ring_equiv",))
        self.cells, self.skipped = sweep_cells((order,), ("srar_ring_equiv",), {})
        self.items = LOOP_COUNTS[order]

    def run_pass(self) -> PassResult:
        result = sweeps.run_sweep(self.spec)
        text = sweeps.render_sweep(result, "text").decode("utf-8")
        failed, problems = check_sweep_report(text, self.cells, self.skipped)
        return PassResult(self.items, min(failed, self.items), problems)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- survey

def relabel(raw, rng: random.Random) -> list[list[int]]:
    """Conjugate a 1-indexed table by a random permutation of all labels.

    The identity is relabelled like every other element, so it lands at a
    seed-chosen position and every scan's early exits move with the seed.
    """
    n = len(raw)
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma[i]][sigma[j]] = sigma[raw[i][j] - 1] + 1
    return out


def survey_catalog(seed: int, copies: int) -> tuple[str, list[tuple[str, str]]]:
    """Catalog text of `copies` relabellings of each source, in seeded order.

    Returns the text and the (record name, source name) pairs in file order.
    """
    rng = random.Random(seed)
    sources = [s for s in SURVEY_SOURCES for _ in range(copies)]
    rng.shuffle(sources)
    blocks, names = [], []
    for k, source in enumerate(sources):
        table = relabel(SURVEY_SOURCES[source], rng)
        name = f"{source}#{k:04d}"
        width = len(str(len(table)))
        rows = "\n".join(" ".join(str(v).rjust(width) for v in row) for row in table)
        blocks.append(f"loop {name}\norder {len(table)}\n{rows}\n")
        names.append((name, source))
    return "\n".join(blocks), names


def check_survey_report(data: bytes, names: list[tuple[str, str]]) -> tuple[int, list[str]]:
    """Compare a JSON survey report with the pinned rows of its sources.

    Every record must equal its source's pinned row, and the aggregates
    must agree with the rows.  Returns the number of records counted as
    failed (one more when the aggregates disagree) and the problems.
    """
    try:
        doc = json.loads(data)
        records, aggregates = doc["records"], doc["aggregates"]
    except (ValueError, KeyError, TypeError) as exc:
        return len(names), [f"unreadable report: {exc}"]
    failed = 0
    problems: list[str] = []
    if len(records) != len(names):
        failed += abs(len(records) - len(names))
        problems.append(f"{len(records)} records, expected {len(names)}")
    for rec, (name, source) in zip(records, names):
        if rec != {"name": name, **PINNED_ROWS[source]}:
            failed += 1
            problems.append(f"record {rec.get('name')!r} differs from pinned {source} row")
    rows = [PINNED_ROWS[source]["flags"] for _, source in names]
    srar = sum(f["srar"] for f in rows)
    want = {
        "total": len(rows),
        "non_moufang_bol": sum(f["right_bol"] and not f["moufang"] for f in rows),
        "srar": srar,
        "non_srar": len(rows) - srar,
        "non_srar_with_def": sum(not f["srar"] and f["def_everywhere"] for f in rows),
    }
    if aggregates != want:
        failed += 1
        problems.append(f"aggregates {aggregates}, expected {want}")
    return failed, problems


class SurveyRelabelled:
    """`loopkit survey --format json` over seeded relabellings of both fixtures."""

    seed_dependent = True
    copies = 300  # per source; about three seconds per pass on a 2-CPU machine

    def __init__(self, seed: int, workdir: str, tiny: bool):
        text, self.names = survey_catalog(seed, 1 if tiny else self.copies)
        self.path = os.path.join(workdir, f"survey-{seed}-{os.getpid()}.loops")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.items = len(self.names)

    def run_pass(self) -> PassResult:
        code, out = capture_cli(["survey", "--format", "json", self.path])
        failed, problems = check_survey_report(out, self.names)
        if code != 0:
            problems.append(f"exit code {code}")
            failed = max(failed, 1)
        return PassResult(self.items, min(failed, self.items), problems)

    def close(self) -> None:
        os.remove(self.path)


# ---------------------------------------------------------------- order 7

def load_order7_counts() -> list[int]:
    """Pinned loop count of each order-7 part (see pin_order7.py)."""
    with open(os.path.join(HERE, "order7_parts.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    counts = doc["counts"]
    if doc["order"] != 7 or len(counts) != doc["part_count"] or sum(counts) != LOOP_COUNTS[7]:
        raise ValueError("order7_parts.json does not cover the order-7 loops")
    return counts


class Order7Slice:
    """Seeded parts of order 7, each loop checked with cor_odd_verify."""

    seed_dependent = True
    parts_per_pass = 2

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.counts = load_order7_counts()
        self.parts = pick_order7_parts(self.counts, seed, 1 if tiny else self.parts_per_pass)
        self.items = sum(self.counts[p] for p in self.parts)

    def run_pass(self) -> PassResult:
        failed = 0
        problems: list[str] = []
        for p in self.parts:
            bad = 0

            def visit(L) -> None:
                nonlocal bad
                if not conditions.cor_odd_verify(L).implication_ok:
                    bad += 1

            seen = core.enumerate_loops(7, visit, part_index=p, part_count=len(self.counts))
            want = self.counts[p]
            if seen != want:
                problems.append(f"part {p}: {seen} loops, pinned {want}")
            if bad:
                problems.append(f"part {p}: {bad} odd-order implication failures")
            failed += bad + abs(seen - want)
        return PassResult(self.items, min(failed, self.items), problems)

    def close(self) -> None:
        pass


def pick_order7_parts(counts: list[int], seed: int, k: int) -> list[int]:
    """k seed-chosen parts from the middle fifth of parts by loop count.

    Drawing from parts of near-median size keeps a pass's work nearly
    independent of the seed while the seed still chooses the tables.
    """
    by_size = sorted(range(len(counts)), key=lambda p: (counts[p], p))
    fifth = len(by_size) // 5
    middle = by_size[2 * fifth: 3 * fifth]
    return sorted(random.Random(seed).sample(middle, k))


WORKLOADS = {
    "sweep-default": SweepDefault,
    "ring-bol6": RingBol6,
    "survey-relabelled": SurveyRelabelled,
    "order7-slice": Order7Slice,
}
