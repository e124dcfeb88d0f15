"""Loop-catalog parsing, classification surveys, and report writers.

Canonical catalog format (UTF-8 text, LF newlines):

  - lines starting with '#' are comments and may appear anywhere;
  - blank lines separate records;
  - a record is a header line ``loop <name>``, a line ``order <n>``, and
    then exactly n lines of n whitespace-separated integers in 1..n
    (row i, column j holds the product of elements i and j, 1-indexed);
    numbers are plain ASCII digits, at most 18 of them, with no sign.

Rows are read through a per-order map from the tokens "1".."n" to the
values 0..n-1 (see _iter_raw_records), and the 0-indexed rows go
straight to core._latin_loop, the Latin and identity check behind
validate_table, without validate_table's type gate, which the parser's
own rows cannot fail.

Reports are deterministic byte-for-byte: fixed key order in JSON, fixed
column order in CSV, and no timestamps.  JSON is the text of
json.dumps(doc, indent=2), laid out by _write_json with strings from the
C encoder.  With both paths and the triple counts of LoopFacts, the
benchmark's survey-relabelled pass (600 records) went from 0.388 to
0.337 s (medians of 10 paired runs, 2-CPU Xeon).
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import IO, Iterable, Iterator, Sequence

from .core import LoopError, LoopTable, _latin_loop, parallel_map
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
    # a str splits into lines as open() splits a file: on \n, \r and \r\n,
    # not on the \f, \v, \x1c-\x1e, \x85, \u2028 and \u2029 that
    # str.splitlines() also splits on
    return io.StringIO(source, newline=None) if isinstance(source, str) else source


# an order or table token; int() alone would also take a sign, "_" and
# non-ASCII digits, and raises ValueError past its digit limit (4300 by
# default), so tokens stop at 18 digits, more than any loop that fits in
# memory needs
_NUMBER = re.compile(r"[0-9]{1,18}")
# a stripped table row: numbers separated by whitespace, which for str
# patterns is what str.split() splits on
_ROW = re.compile(r"[0-9]{1,18}(?:\s+[0-9]{1,18})*")


def _iter_raw_records(
    lines: Iterable[str],
) -> Iterator[tuple[str, int, tuple[tuple[int, ...], ...]]]:
    """Yield (name, header line number, table of 0-indexed rows) per record.

    A row's tokens become values through a {"1": 0, ..., "n": n-1} map,
    built per order the first time a row of n tokens passes the length
    check and kept for this parse only; a token the map lacks goes
    through _ROW and int, which reject it or read it ("01", "0", n+1).
    """
    it = iter(enumerate(lines, start=1))
    lineno = 0  # the last line read, by either loop
    token_maps: dict[int, dict[str, int]] = {}

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

        rows: list[tuple[int, ...]] = []
        for _ in range(n):
            rline_no, rline = next_content(f"a table row of {n} entries")
            cells = rline.split()
            if len(cells) != n:
                raise ParseError(rline_no, f"expected {n} entries, got {len(cells)}")
            tokens = token_maps.get(n)
            if tokens is None:
                tokens = token_maps[n] = {str(v + 1): v for v in range(n)}
            try:
                rows.append(tuple(map(tokens.__getitem__, cells)))
            except KeyError:
                if not _ROW.fullmatch(rline):
                    raise ParseError(rline_no, f"non-integer table entry in {rline!r}") from None
                rows.append(tuple([int(c) - 1 for c in cells]))
        yield name, header_line, tuple(rows)


def parse_catalog(source: str | IO[str] | Iterable[str]) -> list[CatalogRecord]:
    """Parse and validate every record, preserving file order."""
    records: list[CatalogRecord] = []
    names: set[str] = set()
    for name, header_line, table in _iter_raw_records(_as_lines(source)):
        if name in names:
            raise DuplicateName(f"duplicate loop name {name!r}")
        names.add(name)
        try:
            loop = _latin_loop(table)
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
    """The shared JSON report envelope: aggregates plus per-record rows.

    The bytes of (json.dumps(doc, indent=2) + "\n").encode() for the doc
    {"aggregates": ..., "records": ...}.  json.dumps runs its pure-Python
    encoder whenever indent is set, so _write_json lays the indented
    text out itself and leaves only strings to the C encoder.
    """
    out: list[str] = []
    _write_json({"aggregates": aggregates, "records": records}, "\n", out)
    out.append("\n")
    return "".join(out).encode("ascii")


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append json.dumps(value, indent=2) to out, nested after `newline`.

    newline is "\n" plus the indent of the line value starts on.  Takes
    dicts with str keys, lists, str, int, bool and None; raises
    TypeError on anything else, as json.dumps does on types it cannot
    encode.
    """
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _json_str(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
