"""catalog-io: parsing, round-trips, classification surveys, reports."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopkit import (
    CatalogError,
    CatalogRecord,
    DuplicateName,
    IdentityId,
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
    write_report,
)
from loopkit.catalog import CSV_COLUMNS, classify_records, rows_csv
from loopkit.fixtures import BOL_16_NAME, MOUFANG_12_NAME, fixture_records, moufang12

from conftest import CORPUS5

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
    with pytest.raises(ParseError, match="end of file"):
        parse_catalog("loop x\norder 3\n1 2 3\n2 3 1\n")
    with pytest.raises(ParseError, match="blank line"):
        parse_catalog("loop x\norder 2\n1 2\n\n2 1\n")
    with pytest.raises(ParseError, match="non-integer"):
        parse_catalog("loop x\norder 2\n1 a\n2 1\n")


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
    # one LoopFacts per record: every scan once, and the triple products
    # built once for coverage, RA2 and the profile
    classify_loop("x", moufang12())
    assert scan_counts == {
        "right_bol": 1, "right_moufang": 1, "extra": 1, "associative": 1,
        "triple_products": 1, "quad_scans": 1,
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
