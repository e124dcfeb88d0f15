"""Loop-catalog parsing, classification surveys, and report writers.

Canonical catalog format (UTF-8 text, LF newlines):

  - lines starting with '#' are comments and may appear anywhere;
  - blank lines separate records;
  - a record is a header line ``loop <name>``, a line ``order <n>``, and
    then exactly n lines of n whitespace-separated integers in 1..n
    (row i, column j holds the product of elements i and j, 1-indexed);
    numbers are plain ASCII digits, at most 18 of them, with no sign.

Reports are deterministic byte-for-byte: fixed key order in JSON, fixed
column order in CSV, and no timestamps.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

from .core import LoopError, LoopTable, parallel_map, validate_table
from .conditions import PROFILE_KEYS, LoopFacts, triple_profile


class CatalogError(Exception):
    """Base class for catalog file problems."""


class ParseError(CatalogError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line


class ValidationError(CatalogError):
    """A syntactically fine record failed loop validation."""


class DuplicateName(CatalogError):
    pass


class UnsupportedFormat(CatalogError):
    pass


@dataclass(frozen=True)
class CatalogRecord:
    name: str
    loop: LoopTable
    source_line: int


CSV_COLUMNS = (
    "name", "order", "right_bol", "moufang", "srar", "ra2", "extra",
    "group", "def_everywhere", "de", "df", "ef",
)

REPORT_FORMATS = ("json", "csv", "text")
FILTERS = ("all", "non_moufang_bol")


@dataclass(frozen=True)
class ClassificationRow:
    """The full flag battery for one catalog record."""

    name: str
    order: int
    right_bol: bool
    moufang: bool
    srar: bool
    ra2: bool
    extra: bool
    group: bool
    def_everywhere: bool
    de: bool
    df: bool
    ef: bool
    triple_profile: dict[str, int]


@dataclass(frozen=True)
class SurveyReport:
    total: int
    non_moufang_bol: int
    srar: int
    non_srar: int
    non_srar_with_def: int
    per_record: tuple[ClassificationRow, ...]


def _as_lines(source: str | IO[str] | Iterable[str]) -> Iterable[str]:
    if isinstance(source, str):
        return source.splitlines()
    return source


# an order or table token; int() alone would also take a sign, "_" and
# non-ASCII digits, and raises ValueError past its digit limit (4300 by
# default), so tokens stop at 18 digits, more than any loop that fits in
# memory needs
_NUMBER = re.compile(r"[0-9]{1,18}")
# a stripped table row: numbers separated by whitespace, which for str
# patterns is what str.split() splits on
_ROW = re.compile(r"[0-9]{1,18}(?:\s+[0-9]{1,18})*")


def _iter_raw_records(lines: Iterable[str]) -> Iterator[tuple[str, int, list[list[int]]]]:
    """Yield (name, header line number, 1-indexed grid) per record."""
    it = iter(enumerate(lines, start=1))
    lineno = 0  # the last line read, by either loop

    def next_content(expect: str) -> tuple[int, str]:
        nonlocal lineno
        for lineno, line in it:
            s = line.strip()
            if s.startswith("#"):
                continue
            if not s:
                raise ParseError(lineno, f"unexpected blank line inside record, expected {expect}")
            return lineno, s
        raise ParseError(lineno, f"unexpected end of file, expected {expect}")

    for lineno, line in it:
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if not s.startswith("loop ") and s != "loop":
            raise ParseError(lineno, f"expected 'loop <name>', got {s!r}")
        name = s[4:].strip()
        if not name:
            raise ParseError(lineno, "empty loop name")
        header_line = lineno

        oline_no, oline = next_content("'order <n>'")
        parts = oline.split()
        if len(parts) != 2 or parts[0] != "order":
            raise ParseError(oline_no, f"expected 'order <n>', got {oline!r}")
        if not _NUMBER.fullmatch(parts[1]):
            raise ParseError(oline_no, f"order is not an integer: {parts[1]!r}")
        n = int(parts[1])
        if n < 1:
            raise ParseError(oline_no, f"order must be positive, got {n}")

        grid: list[list[int]] = []
        for _ in range(n):
            rline_no, rline = next_content(f"a table row of {n} entries")
            cells = rline.split()
            if len(cells) != n:
                raise ParseError(rline_no, f"expected {n} entries, got {len(cells)}")
            if not _ROW.fullmatch(rline):
                raise ParseError(rline_no, f"non-integer table entry in {rline!r}")
            grid.append(list(map(int, cells)))
        yield name, header_line, grid


def parse_catalog(source: str | IO[str] | Iterable[str]) -> list[CatalogRecord]:
    """Parse and validate every record, preserving file order."""
    records: list[CatalogRecord] = []
    names: set[str] = set()
    for name, header_line, grid in _iter_raw_records(_as_lines(source)):
        if name in names:
            raise DuplicateName(f"duplicate loop name {name!r}")
        names.add(name)
        try:
            loop = validate_table(grid)
        except LoopError as exc:
            raise ValidationError(f"loop {name!r}: {exc}") from exc
        records.append(CatalogRecord(name, loop, header_line))
    return records


def emit_record(name: str, loop: LoopTable) -> str:
    width = len(str(loop.order))
    lines = [f"loop {name}", f"order {loop.order}"]
    for row in loop.raw_rows():
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines) + "\n"


def emit_catalog(records: Sequence[CatalogRecord]) -> str:
    """Inverse of parse_catalog on canonical-form catalogs."""
    return "\n".join(emit_record(r.name, r.loop) for r in records)


def classify_loop(name: str, loop: LoopTable) -> ClassificationRow:
    facts = LoopFacts(loop)
    cov = facts.coverage
    return ClassificationRow(
        name=name,
        order=loop.order,
        right_bol=facts.right_bol,
        moufang=facts.moufang,
        srar=facts.srar,
        ra2=facts.ra2,
        extra=facts.extra,
        group=facts.associative,
        def_everywhere=cov.def_everywhere,
        de=cov.de_everywhere,
        df=cov.df_everywhere,
        ef=cov.ef_everywhere,
        triple_profile=triple_profile(facts).counts,
    )


def _classify_record(record: CatalogRecord) -> ClassificationRow:
    """Classify one record (picklable helper for parallel_map)."""
    return classify_loop(record.name, record.loop)


def classify_records(records: Sequence[CatalogRecord], jobs: int = 1) -> list[ClassificationRow]:
    """Classify records, optionally in worker processes; output is in input order."""
    return parallel_map(_classify_record, records, jobs)


def survey(records: Sequence[CatalogRecord], filter_id: str = "all", jobs: int = 1) -> SurveyReport:
    """Run the classification battery and aggregate census counts.

    filter_id 'non_moufang_bol' keeps only right Bol, non-Moufang
    records; 'all' keeps everything.  All counts are over the kept rows.
    """
    if filter_id not in FILTERS:
        raise ValueError(f"unknown filter {filter_id!r}; expected one of {FILTERS}")
    rows = classify_records(records, jobs)
    if filter_id == "non_moufang_bol":
        rows = [r for r in rows if r.right_bol and not r.moufang]
    srar_count = sum(1 for r in rows if r.srar)
    return SurveyReport(
        total=len(rows),
        non_moufang_bol=sum(1 for r in rows if r.right_bol and not r.moufang),
        srar=srar_count,
        non_srar=len(rows) - srar_count,
        non_srar_with_def=sum(1 for r in rows if not r.srar and r.def_everywhere),
        per_record=tuple(rows),
    )


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _csv_cell(s: str) -> str:
    if any(c in s for c in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def row_dict(row: ClassificationRow) -> dict:
    flags = {c: getattr(row, c) for c in CSV_COLUMNS[2:]}
    return {
        "name": row.name,
        "order": row.order,
        "flags": flags,
        "triple_profile": {k: row.triple_profile[k] for k in PROFILE_KEYS},
    }


def render_json_envelope(aggregates: dict, records: list[dict]) -> bytes:
    """The shared JSON report envelope: aggregates plus per-record rows."""
    doc = {"aggregates": aggregates, "records": records}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def rows_csv(rows: Sequence[ClassificationRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        cells = [_csv_cell(r.name), str(r.order)]
        cells += [_bool(getattr(r, c)) for c in CSV_COLUMNS[2:]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_table(rows: Sequence[ClassificationRow]) -> str:
    """Aligned text table with the CSV columns."""
    header = list(CSV_COLUMNS)
    body = [
        [r.name, str(r.order)] + [_bool(getattr(r, c)) for c in CSV_COLUMNS[2:]]
        for r in rows
    ]
    widths = [max(len(header[i]), *(len(b[i]) for b in body)) if body else len(header[i])
              for i in range(len(header))]
    fmt = lambda cells: "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([fmt(header)] + [fmt(b) for b in body]) + "\n"


def write_report(report: SurveyReport, fmt: str) -> bytes:
    """Serialize a survey deterministically as json, csv, or text."""
    if fmt == "json":
        aggregates = {
            "total": report.total,
            "non_moufang_bol": report.non_moufang_bol,
            "srar": report.srar,
            "non_srar": report.non_srar,
            "non_srar_with_def": report.non_srar_with_def,
        }
        return render_json_envelope(aggregates, [row_dict(r) for r in report.per_record])
    if fmt == "csv":
        return rows_csv(report.per_record).encode("utf-8")
    if fmt == "text":
        lines = [
            f"surveyed records: {report.total}",
            f"non-Moufang Bol: {report.non_moufang_bol}  SRAR: {report.srar}  "
            f"non-SRAR: {report.non_srar}  non-SRAR with D'/E'/F' everywhere: "
            f"{report.non_srar_with_def}",
            "",
        ]
        text = "\n".join(lines) + rows_table(report.per_record)
        return text.encode("utf-8")
    raise UnsupportedFormat(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")
