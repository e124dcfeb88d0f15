"""catalog-io: parsing, round-trips, classification surveys, reports."""

import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from loopkit import (
    CatalogError,
    CatalogRecord,
    DuplicateName,
    IdentityId,
    LoopError,
    ParseError,
    UnsupportedFormat,
    ValidationError,
    check_identity,
    classify_loop,
    emit_catalog,
    is_extra,
    is_moufang,
    is_ra2,
    is_srar,
    parse_catalog,
    survey,
    triple_coverage,
    triple_profile,
    validate_table,
    write_report,
)
from loopkit import catalog, cli
from loopkit.catalog import (
    CSV_COLUMNS,
    classify_records,
    emit_record,
    render_json_envelope,
    rows_csv,
)
from loopkit.fixtures import BOL_16_NAME, MOUFANG_12_NAME, bol16, fixture_records, moufang12

from conftest import CORPUS5, relabelled

FIXTURE_PATH = "fixtures/tables.loops"


def test_parse_shipped_fixture_catalog():
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        records = parse_catalog(fh)
    assert [r.name for r in records] == [BOL_16_NAME, MOUFANG_12_NAME]
    assert [r.loop.order for r in records] == [16, 12]
    ref = fixture_records()
    assert records[0].loop.table == ref[0].loop.table
    assert records[1].loop.table == ref[1].loop.table
    assert records[0].source_line < records[1].source_line


def test_round_trip_emit_parse():
    records = fixture_records()
    text = emit_catalog(records)
    back = parse_catalog(text)
    assert [(r.name, r.loop) for r in back] == [(r.name, r.loop) for r in records]
    # emitting again is byte-stable
    assert emit_catalog(back) == text


def test_comments_and_blank_lines():
    text = (
        "# a catalog\n\n"
        "loop tiny\n"
        "# interleaved comment\n"
        "order 2\n"
        "1 2\n"
        "2 1\n"
        "\n"
        "# trailing comment\n"
    )
    records = parse_catalog(text)
    assert len(records) == 1 and records[0].loop.order == 2
    assert records[0].source_line == 3


def test_parse_error_wrong_column_count():
    text = "loop bad\norder 3\n1 2 3\n2 3\n3 1 2\n"
    with pytest.raises(ParseError, match="line 4"):
        parse_catalog(text)


def test_parse_error_cases():
    with pytest.raises(ParseError, match="expected 'loop"):
        parse_catalog("order 2\n1 2\n2 1\n")
    with pytest.raises(ParseError, match="empty loop name"):
        parse_catalog("loop \norder 2\n1 2\n2 1\n")
    with pytest.raises(ParseError, match="order"):
        parse_catalog("loop x\nsize 2\n1 2\n2 1\n")
    with pytest.raises(ParseError, match="not an integer"):
        parse_catalog("loop x\norder two\n1 2\n2 1\n")
    with pytest.raises(ParseError, match="line 2: order must be positive, got 0"):
        parse_catalog("loop x\norder 0\n")
    with pytest.raises(ParseError, match="end of file"):
        parse_catalog("loop x\norder 3\n1 2 3\n2 3 1\n")
    with pytest.raises(ParseError, match="blank line"):
        parse_catalog("loop x\norder 2\n1 2\n\n2 1\n")
    with pytest.raises(ParseError, match="non-integer"):
        parse_catalog("loop x\norder 2\n1 a\n2 1\n")


def _parse_outcome(source):
    """parse_catalog's tables of source, or its ParseError's line and message."""
    try:
        return [r.loop.table for r in parse_catalog(source)]
    except ParseError as exc:
        return exc.line, str(exc)


@pytest.mark.parametrize("sep", [
    "\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r\n", "\r",
])
def test_text_and_files_split_lines_alike(tmp_path, sep):
    # a str is split into lines as a file opened as the CLI opens it is:
    # on \n, \r and \r\n, and on no other character str.splitlines() takes
    text = f"loop a\norder 2{sep}1 2\n2 1\n"
    path = tmp_path / "sep.loops"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as fh:
        from_file = _parse_outcome(fh)
    assert _parse_outcome(text) == from_file
    if sep in ("\r\n", "\r"):
        assert from_file == [((0, 1), (1, 0))]
    else:
        assert from_file == (2, f"line 2: expected 'order <n>', got {f'order 2{sep}1 2'!r}")


@pytest.mark.parametrize(
    "token", ["+2", "\u0662", "2_0", pytest.param("1" * 5000, id="5000-digits")]
)
def test_number_tokens_must_be_ascii_digits(token):
    # int() alone accepts a sign, non-ASCII digits and digit separators,
    # and raises ValueError past 4300 digits
    with pytest.raises(ParseError, match="line 2: order is not an integer"):
        parse_catalog(f"loop x\norder {token}\n1 2\n2 1\n")
    with pytest.raises(ParseError, match="line 3: non-integer table entry"):
        parse_catalog(f"loop x\norder 2\n1 {token}\n2 1\n")


def _reference_record(rows: list[str]) -> CatalogRecord:
    """Record 'x' of order 3 with these row lines (lines 3-5), read token
    by token as the parser did before its token map: _ROW, int, then
    validate_table."""
    grid = []
    for lineno, line in enumerate(rows, start=3):
        s = line.strip()
        if len(s.split()) != 3:
            raise ParseError(lineno, f"expected 3 entries, got {len(s.split())}")
        if not catalog._ROW.fullmatch(s):
            raise ParseError(lineno, f"non-integer table entry in {s!r}")
        grid.append([int(c) for c in s.split()])
    try:
        return CatalogRecord("x", validate_table(grid), 1)
    except LoopError as exc:
        raise ValidationError(f"loop 'x': {exc}") from exc


def _outcome(read):
    try:
        return read()
    except CatalogError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# tokens the {"1": 0, "2": 1, "3": 2} map lacks; each takes the _ROW + int path
@pytest.mark.parametrize("token", [
    "01", "0", "00", "4", "+2", "\u0662", "2_0", "0" * 17 + "1",
    pytest.param("1" * 18, id="18-digits"), pytest.param("1" * 19, id="19-digits"),
])
@pytest.mark.parametrize("row", [0, 2])
def test_tokens_outside_the_map_read_as_before(token, row):
    rows = ["1 2 3", "2 3 1", "3 1 2"]
    cells = rows[row].split()
    cells[1] = token  # in place of a 2 or a 1
    rows[row] = " ".join(cells)
    text = "loop x\norder 3\n" + "\n".join(rows) + "\n"
    got = _outcome(lambda: parse_catalog(text)[0])
    assert got == _outcome(lambda: _reference_record(rows))
    if token in ("01", "0" * 17 + "1") and row == 2:
        assert got == CatalogRecord("x", validate_table([[1, 2, 3], [2, 3, 1], [3, 1, 2]]), 1)


def test_a_huge_order_allocates_nothing_of_its_size():
    # the length check rejects the two-token row before any per-order
    # token map is built
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="line 3: expected 999999999999 entries, got 2"):
            parse_catalog("loop x\norder 999999999999\n1 2\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# Record b's rows, each sending its block of three lines to the line
# reader; every outcome is pinned from the parser that read each line on
# its own: the records as (name, 1-indexed rows, header line), or the
# error's type, message and line
_A3 = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
_RECORDS = [("a", _A3, 2), ("b", _A3, 8), ("c", ((1, 2), (2, 1)), 15)]
_LINE_READER_CASES = {
    "comment between rows": ("1 2 3\n# note\n2 3 1\n3 1 2\n", _RECORDS),
    "comment after the block": ("1 2 3\n2 3 1\n  # note\n3 1 2\n", _RECORDS),
    "01 token": ("1 2 3\n2 3 01\n3 1 2\n", [*_RECORDS[:2], ("c", _RECORDS[2][1], 14)]),
    "short row": ("1 2 3\n2 3\n3 1 2\n",
                  ("ParseError", "line 11: expected 3 entries, got 2", 11)),
    "long row": ("1 2 3\n2 3 1 1\n3 1 2\n",
                 ("ParseError", "line 11: expected 3 entries, got 4", 11)),
    "blank line inside the rows": ("1 2 3\n\n2 3 1\n3 1 2\n", (
        "ParseError",
        "line 11: unexpected blank line inside record, expected a table row of 3 entries", 11)),
    "0 entry": ("1 2 3\n2 0 1\n3 1 2\n", (
        "ValidationError", "loop 'b': row 2 contains 0, expected an integer in 1..3", None)),
    "non-integer entry": ("1 2 3\n2 x 1\n3 1 2\n",
                          ("ParseError", "line 11: non-integer table entry in '2 x 1'", 11)),
    "end of file": ("1 2 3\n2 3 1\n", (
        "ParseError", "line 11: unexpected end of file, expected a table row of 3 entries", 11)),
}


@pytest.mark.parametrize("case", _LINE_READER_CASES)
def test_blocks_the_line_reader_takes_parse_as_before(case):
    rows, expected = _LINE_READER_CASES[case]
    tail = "" if case == "end of file" else "\nloop c\norder 2\n1 2\n2 1\n"
    text = "# catalog\nloop a\norder 3\n1 2 3\n2 3 1\n3 1 2\n\nloop b\norder 3\n" + rows + tail
    try:
        got = [(r.name, r.loop.raw_rows(), r.source_line) for r in parse_catalog(text)]
    except CatalogError as exc:
        got = type(exc).__name__, str(exc), getattr(exc, "line", None)
    assert got == expected


def test_a_huge_order_reads_no_row_past_its_first():
    # the block of n rows is read only after a first row of n tokens
    read = []

    def lines():
        yield from ("loop x\n", "order 999999999999\n")
        for k in range(1000):
            read.append(k)
            yield "1 2\n"
    with pytest.raises(ParseError, match="line 3: expected 999999999999 entries, got 2"):
        parse_catalog(lines())
    assert read == [0]


# one grid per fault, each found by a different step of the check
_FAULTY_GRIDS = {
    "entry above n": [[1, 2], [2, 3]],
    "entry 0": [[1, 2, 3], [2, 0, 1], [3, 1, 2]],
    "huge entry": [[1, 2], [2, 10**17]],
    "row repeat": [[1, 2], [2, 2]],
    "column repeat": [[1, 2, 3], [2, 3, 1], [2, 1, 3]],
    "no identity": [[1, 3, 2], [2, 1, 3], [3, 2, 1]],
    "left identity only": [[1, 2, 3], [3, 1, 2], [2, 3, 1]],
}


@pytest.mark.parametrize("grid", _FAULTY_GRIDS.values(), ids=_FAULTY_GRIDS)
def test_parser_and_public_gate_word_faults_alike(grid):
    with pytest.raises(LoopError) as gate:
        validate_table(grid)
    text = f"loop g\norder {len(grid)}\n" + "\n".join(" ".join(map(str, r)) for r in grid)
    with pytest.raises(ValidationError) as parsed:
        parse_catalog(text)
    assert type(parsed.value.__cause__) is type(gate.value)
    assert str(parsed.value) == f"loop 'g': {gate.value}"


# arbitrary lines mixed with catalog-shaped ones, so the fuzz reaches
# the order, row, validation and duplicate-name paths as well
_CATALOG_LINES = st.one_of(
    st.text(max_size=12),
    st.sampled_from([
        "", "# note", "loop a", "loop b", "loop", "order 1", "order 2", "order 3",
        "1", "2", "0", "1 2", "2 1", "1 1", "1 2 3", "2 3 1", "3 1 2",
    ]),
)


@given(st.lists(_CATALOG_LINES, max_size=12).map("\n".join))
def test_fuzz_parse_yields_records_or_catalog_error(text):
    try:
        records = parse_catalog(text)
    except CatalogError:
        return
    assert all(isinstance(r, CatalogRecord) for r in records)


# names without whitespace or line breaks survive the header line as is
_NAMES = st.text(st.characters(categories=("L", "N", "P", "S")), min_size=1, max_size=8)
_LOOPS = CORPUS5 + tuple(r.loop for r in fixture_records())


@given(st.lists(st.tuples(_NAMES, st.sampled_from(_LOOPS)), max_size=5, unique_by=lambda p: p[0]))
def test_fuzz_emit_parse_round_trip(pairs):
    # CatalogRecord equality includes source_line, so compare (name, loop)
    text = emit_catalog([CatalogRecord(name, loop, 0) for name, loop in pairs])
    back = parse_catalog(text)
    assert [(r.name, r.loop) for r in back] == pairs
    assert emit_catalog(back) == text


def test_end_of_file_error_names_last_line_read():
    with pytest.raises(ParseError, match="line 4: unexpected end of file") as exc:
        parse_catalog("loop x\norder 3\n1 2 3\n2 3 1\n")
    assert exc.value.line == 4
    # trailing comments are read too
    with pytest.raises(ParseError, match="line 3: unexpected end of file"):
        parse_catalog("loop x\n# no order follows\n# still none\n")


def test_duplicate_name():
    block = "loop same\norder 2\n1 2\n2 1\n"
    with pytest.raises(DuplicateName):
        parse_catalog(block + "\n" + block)


def test_validation_error_names_record():
    text = "loop broken\norder 2\n1 2\n2 2\n"
    with pytest.raises(ValidationError, match="broken"):
        parse_catalog(text)


def test_classification_rows_agree_with_direct_calls():
    for rec in fixture_records():
        row = classify_loop(rec.name, rec.loop)
        L = rec.loop
        cov = triple_coverage(L)
        assert row.right_bol == (check_identity(L, IdentityId.RIGHT_BOL) is None)
        assert row.moufang == is_moufang(L)
        assert row.srar == is_srar(L)[0]
        assert row.ra2 == is_ra2(L)[0]
        assert row.extra == is_extra(L)
        assert row.group == (check_identity(L, IdentityId.ASSOCIATIVE) is None)
        assert row.def_everywhere == cov.def_everywhere
        assert (row.de, row.df, row.ef) == (
            cov.de_everywhere, cov.df_everywhere, cov.ef_everywhere)
        assert row.triple_profile == triple_profile(L).counts


def test_survey_fixture_catalog_all():
    report = survey(fixture_records(), filter_id="all")
    assert report.total == 2
    assert report.non_moufang_bol == 1
    assert report.srar == 1
    assert report.non_srar == 1
    assert report.non_srar_with_def == 1
    assert [r.name for r in report.per_record] == [BOL_16_NAME, MOUFANG_12_NAME]
    by_name = {r.name: r for r in report.per_record}
    assert by_name[BOL_16_NAME].srar is False
    assert by_name[MOUFANG_12_NAME].srar is True


def test_survey_filter_non_moufang_bol():
    report = survey(fixture_records(), filter_id="non_moufang_bol")
    assert report.total == report.non_moufang_bol == 1
    assert report.srar + report.non_srar == report.non_moufang_bol
    assert [r.name for r in report.per_record] == [BOL_16_NAME]


def test_survey_empty_catalog():
    report = survey([], filter_id="all")
    assert (report.total, report.non_moufang_bol, report.srar,
            report.non_srar, report.non_srar_with_def) == (0, 0, 0, 0, 0)
    assert report.per_record == ()
    assert write_report(report, "json")
    assert write_report(report, "csv").decode().count("\n") == 1  # header only


def test_survey_rejects_unknown_filter():
    with pytest.raises(ValueError):
        survey([], filter_id="bogus")


def test_survey_jobs_deterministic():
    records = fixture_records()
    r1 = survey(records, filter_id="all", jobs=1)
    r4 = survey(records, filter_id="all", jobs=4)
    assert r1 == r4
    for fmt in ("json", "csv", "text"):
        assert write_report(r1, fmt) == write_report(r4, fmt)


def test_csv_report_shape():
    report = survey(fixture_records(), filter_id="all")
    data = write_report(report, "csv").decode()
    lines = data.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == ("name,order,right_bol,moufang,srar,ra2,extra,group,"
                        "def_everywhere,de,df,ef")
    assert len(lines) == 3  # header + one row per record
    assert lines[1].startswith("16.7.2.1,16,true,false,false,false,false,false,true")
    # names containing the delimiter are CSV-quoted
    assert lines[2].startswith('"M(S3,2)",12,')
    import csv as _csv
    import io
    parsed = list(_csv.reader(io.StringIO(data)))
    assert all(len(row) == len(CSV_COLUMNS) for row in parsed)
    assert parsed[2][0] == "M(S3,2)"


def test_json_report_shape_and_determinism():
    report = survey(fixture_records(), filter_id="all")
    raw = write_report(report, "json")
    assert raw == write_report(report, "json")
    doc = json.loads(raw)
    assert set(doc) == {"aggregates", "records"}
    assert doc["aggregates"] == {
        "total": 2, "non_moufang_bol": 1, "srar": 1, "non_srar": 1,
        "non_srar_with_def": 1,
    }
    rec = doc["records"][0]
    assert rec["name"] == BOL_16_NAME and rec["order"] == 16
    assert rec["flags"]["right_bol"] is True and rec["flags"]["moufang"] is False
    assert sum(rec["triple_profile"].values()) == 16**3
    assert list(rec["triple_profile"]) == ["none", "D", "E", "F", "DE", "DF", "EF", "DEF"]


# strings that json escapes: quotes, backslashes, control characters,
# non-ASCII text (surrogate pairs past the BMP)
_JSON_STR = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "a\"b\\c", "\x00\x1f\n\t", "\x7f", "M(S3,2)", "é", "\u2028", "𝔽₂"]
)
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_STR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_STR, inner, max_size=4),
    max_leaves=24,
)


@given(st.dictionaries(_JSON_STR, _JSON_VALUE, max_size=5), st.lists(_JSON_VALUE, max_size=5))
@example({}, [])
@example({"total": 1, "empty": {}, "none": []}, [{"a": True, "b": 1, "c": [False, 0, None]}])
@example({"nested": {"d": {"e": [[], {}, [{}]]}}}, [[True, 1], {"1": 1, "true": True}])
def test_json_envelope_matches_json_dumps(aggregates, records):
    want = json.dumps({"aggregates": aggregates, "records": records}, indent=2) + "\n"
    assert render_json_envelope(aggregates, records) == want.encode()


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: 2}, {"a": object()}, {1, 2}])
def test_json_envelope_rejects_other_types(value):
    with pytest.raises(TypeError):
        render_json_envelope({}, [value])


def test_text_report_census_line():
    report = survey(fixture_records(), filter_id="all")
    text = write_report(report, "text").decode()
    line = text.splitlines()[1]
    for token in ("non-Moufang Bol: 1", "SRAR: 1", "non-SRAR: 1",
                  "non-SRAR with D'/E'/F' everywhere: 1"):
        assert token in line


def test_unsupported_format():
    report = survey([], filter_id="all")
    with pytest.raises(UnsupportedFormat):
        write_report(report, "yaml")


def test_classify_loop_scans_each_identity_once(scan_counts):
    # one LoopFacts per record: every scan once, one product cache, and
    # the triple products built once for coverage, RA2 and the profile,
    # and RA2's A/B/C parity gaps once.
    # Right Bol and right Moufang hold, and extra and associativity first
    # fail at (1, 3, 6), past their first y row, so all four pass their
    # first y row into the numpy stage
    classify_loop("x", moufang12())
    assert scan_counts == {
        "right_bol": 1, "right_moufang": 1, "extra": 1, "associative": 1,
        "numpy_scans": 4, "products": 1, "triple_products": 1, "quad_scans": 1,
        "abc_gaps": 1,
    }


def test_classify_records_jobs_order_preserved():
    records = fixture_records()
    assert classify_records(records, jobs=4) == classify_records(records, jobs=1)


def test_rows_csv_matches_report_csv():
    report = survey(fixture_records(), filter_id="all")
    assert rows_csv(report.per_record).encode() == write_report(report, "csv")


def test_catalog_record_is_value_like(t2):
    a = CatalogRecord("x", t2, 1)
    b = CatalogRecord("x", t2, 1)
    assert a == b


# seeded relabellings of both fixtures, in a seeded order.  The Bol
# 16.7.2.1 seeds put the first quadruple gap at x = 0, 1, 2, 3 and 4,
# across the first four x-blocks (see test_quad_gap_witness_in_each_block)
SURVEY_SEEDS = {"bol16": (0, 1, 13, 151, 454), "moufang12": (1, 2, 3)}

# SHA-256 of `loopkit survey --format F` over that catalog, the same at
# every --jobs
SURVEY_DIGESTS = {
    "json": "ce6962f57e21d47ade68a8d6abc7c6fd38cf65b4c0adfee7e18aa83a20b502a2",
    "csv": "fae50a589d818f7b2a48e60604bfb92074a48e1c1094562065df89eb25b7b5d1",
    "text": "98e720a8ac385209c087b4d85f0ae2ede6ac05c42bcd64b99694d111e29c40ba",
}


@pytest.fixture(scope="module")
def relabelled_catalog(tmp_path_factory):
    sources = {"bol16": bol16(), "moufang12": moufang12()}
    records = [
        emit_record(f"{name}-{seed}", relabelled(sources[name], seed))
        for name, seeds in SURVEY_SEEDS.items() for seed in seeds
    ]
    random.Random(7).shuffle(records)
    path = tmp_path_factory.mktemp("survey") / "relabelled.loops"
    path.write_text("\n".join(records))
    return str(path)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_survey_output_is_pinned(relabelled_catalog, capsysbinary, jobs):
    digests = {}
    for fmt in SURVEY_DIGESTS:
        assert cli.main(["survey", "--format", fmt, "--jobs", jobs, relabelled_catalog]) == 0
        digests[fmt] = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert digests == SURVEY_DIGESTS


# SHA-256 of `loopkit classify --format F` over the same catalog (text
# with --witnesses), the same at every --jobs
CLASSIFY_DIGESTS = {
    "json": "651f4cae0669c97a66fb19626cd22807b31202e4a6282a31ab32dee32e0af99f",
    "csv": "fae50a589d818f7b2a48e60604bfb92074a48e1c1094562065df89eb25b7b5d1",
    "text": "4b453be30f28496c800fe6d246cc532e484965099a818f68f55fc23a26d63fb4",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_classify_output_is_pinned(relabelled_catalog, capsysbinary, jobs):
    digests = {}
    for fmt in CLASSIFY_DIGESTS:
        witnesses = ["--witnesses"] if fmt == "text" else []
        argv = ["classify", "--format", fmt, "--jobs", jobs, *witnesses, relabelled_catalog]
        assert cli.main(argv) == 0
        digests[fmt] = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert digests == CLASSIFY_DIGESTS


# (exit code, SHA-256 of stdout) of `loopkit ring-check --identity I` over
# the same catalog
RING_CHECK_DIGESTS = {
    "left-alt": (2, "a50b40f84293ded40651891306576227b5691de31a31f99107d26c899bbcd5ee"),
    "right-alt": (0, "80286702de5af11a198ee9353d388332e52f48874aaf3a54b5564bc6d3265975"),
    "right-bol": (2, "9c71632c76cc9c9bfee76c39dcda03bb878c4e9072ef0b2d1b75df9190298c6b"),
    "right-moufang": (2, "0edf3402a09f6ee238ab5b3b16ff759bb82bdd34cf649cb28e7cb56e8be888b1"),
}


def test_ring_check_output_is_pinned(relabelled_catalog, capsysbinary):
    results = {}
    for flag in RING_CHECK_DIGESTS:
        code = cli.main(["ring-check", "--identity", flag, relabelled_catalog])
        results[flag] = (code, hashlib.sha256(capsysbinary.readouterr().out).hexdigest())
    assert results == RING_CHECK_DIGESTS
