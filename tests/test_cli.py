"""CLI surface: subcommands, formats, exit codes, diagnostics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopkit import cli, parse_catalog, ring_identity_check, sweeps
from loopkit.catalog import emit_record
from loopkit.cli import RING_IDENTITY_FLAGS
from loopkit.fixtures import cyclic_group

from conftest import NON_BOL_5_RAW

REPO = Path(__file__).resolve().parent.parent
FIXTURES = str(REPO / "fixtures" / "tables.loops")

_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = str(REPO / "src") + os.pathsep + _ENV.get("PYTHONPATH", "")


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "loopkit", *args],
        capture_output=True, text=True, cwd=REPO, env=_ENV, **kw,
    )


@pytest.fixture(scope="module")
def small_catalog(tmp_path_factory):
    path = tmp_path_factory.mktemp("cat") / "small.loops"
    z4 = cyclic_group(4)
    nb5 = "\n".join(" ".join(map(str, row)) for row in NON_BOL_5_RAW)
    path.write_text(emit_record("Z4", z4) + "\nloop NB5\norder 5\n" + nb5 + "\n")
    return str(path)


def test_validate_ok():
    r = run_cli("validate", FIXTURES)
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["16.7.2.1: ok (order 16)", "M(S3,2): ok (order 12)"]


def test_validate_reports_bad_record(tmp_path):
    path = tmp_path / "bad.loops"
    path.write_text("loop ok2\norder 2\n1 2\n2 1\n\nloop broken\norder 2\n1 2\n2 2\n")
    r = run_cli("validate", str(path))
    assert r.returncode == 1
    lines = r.stdout.splitlines()
    assert lines[0] == "ok2: ok (order 2)"
    assert lines[1].startswith("broken: error:") and "row 2" in lines[1]


def test_validate_missing_file():
    r = run_cli("validate", "no/such/file.loops")
    assert r.returncode == 1
    assert "no/such/file.loops" in r.stderr


def test_validate_rejects_a_name_repeated_in_one_file(tmp_path):
    path = tmp_path / "a.loops"
    path.write_text("loop a\norder 2\n1 2\n2 1\n\nloop a\norder 1\n1\n")
    r = run_cli("validate", str(path))
    assert r.returncode == 1
    assert r.stdout.splitlines() == ["a: ok (order 2)", "a: error: duplicate loop name 'a'"]


def test_validate_rejects_a_name_repeated_across_files(tmp_path):
    path = tmp_path / "a.loops"
    path.write_text("loop a\norder 2\n1 2\n2 1\n")
    r = run_cli("validate", str(path), str(path))
    assert r.returncode == 1
    assert r.stdout.splitlines() == ["a: ok (order 2)", "a: error: duplicate loop name 'a'"]


def _good_bad_good(tmp_path):
    paths = [tmp_path / name for name in ("good.loops", "bad.loops", "good2.loops")]
    paths[0].write_text("loop a\norder 1\n1\n")
    paths[1].write_bytes(b"loop b\n\xff\n")
    paths[2].write_text("loop c\norder 1\n1\n")
    return [str(p) for p in paths]


def test_validate_reports_an_undecodable_file_and_goes_on(tmp_path):
    paths = _good_bad_good(tmp_path)
    r = run_cli("validate", *paths)
    assert r.returncode == 1
    assert r.stdout.splitlines() == ["a: ok (order 1)", "c: ok (order 1)"]
    assert r.stderr.startswith(f"{paths[1]}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "command", [["classify"], ["survey"], ["ring-check", "--identity", "right-bol"]]
)
def test_undecodable_input_is_named(tmp_path, command):
    paths = _good_bad_good(tmp_path)
    r = run_cli(*command, *paths)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith(f"error: {paths[1]}: 'utf-8' codec can't decode byte 0xff")


# a fault in the second of two files, and the message after its path
CATALOG_FAULTS = {
    "trunc.loops": ("loop b\norder 2\n1 2\n",
                    "line 3: unexpected end of file, expected a table row of 2 entries"),
    "bad.loops": ("loop b\norder 2\n1 2\n1 2\n", "loop 'b': column 1 repeats entry 1"),
    "dup.loops": ("loop b\norder 1\n1\n\nloop b\norder 1\n1\n", "duplicate loop name 'b'"),
    "dup_across.loops": ("loop a\norder 1\n1\n", "duplicate loop name 'a' across inputs"),
}


@pytest.mark.parametrize("fault", sorted(CATALOG_FAULTS))
@pytest.mark.parametrize(
    "command", [["classify"], ["survey"], ["ring-check", "--identity", "right-bol"]]
)
def test_catalog_faults_are_named(tmp_path, capsys, command, fault):
    text, message = CATALOG_FAULTS[fault]
    good, bad = tmp_path / "a.loops", tmp_path / fault
    good.write_text("loop a\norder 1\n1\n")
    bad.write_text(text)
    assert cli.main([*command, str(good), str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {bad}: {message}\n"


def test_classify_text_flags():
    r = run_cli("classify", FIXTURES)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].split() == list(
        "name order right_bol moufang srar ra2 extra group def_everywhere de df ef".split()
    )
    row1 = dict(zip(lines[0].split(), lines[1].split()))
    assert (row1["name"], row1["right_bol"], row1["moufang"], row1["srar"]) == (
        "16.7.2.1", "true", "false", "false")
    row2 = dict(zip(lines[0].split(), lines[2].split()))
    assert (row2["name"], row2["moufang"], row2["ra2"]) == ("M(S3,2)", "true", "true")


def test_classify_witness_lines_match_presentation():
    r = run_cli("classify", "--witnesses", FIXTURES)
    assert r.returncode == 0
    assert "16.7.2.1: D/E/F empty at (2,2,3,9): S=11 T=9 U=13 V=16" in r.stdout


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_witnesses_need_the_text_format(fmt):
    # json and csv have no place for witness lines: a usage error, not a
    # report that drops them
    r = run_cli("classify", "--witnesses", "--format", fmt, FIXTURES)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == f"error: --witnesses needs --format text, got {fmt}\n"


def test_classify_csv_and_json():
    r = run_cli("classify", "--format", "csv", FIXTURES)
    lines = r.stdout.splitlines()
    assert lines[0].startswith("name,order,right_bol")
    assert len(lines) == 3
    r = run_cli("classify", "--format", "json", FIXTURES)
    doc = json.loads(r.stdout)
    assert doc["aggregates"] == {"total": 2}
    assert [rec["name"] for rec in doc["records"]] == ["16.7.2.1", "M(S3,2)"]


def test_survey_json_aggregates():
    r = run_cli("survey", "--format", "json", FIXTURES)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["aggregates"] == {
        "total": 2, "non_moufang_bol": 1, "srar": 1, "non_srar": 1,
        "non_srar_with_def": 1,
    }


def test_survey_filter_flag():
    r = run_cli("survey", "--filter", "non-moufang-bol", "--format", "json", FIXTURES)
    doc = json.loads(r.stdout)
    assert doc["aggregates"]["total"] == 1
    assert doc["records"][0]["name"] == "16.7.2.1"


def test_ring_check_holds_and_fails(small_catalog):
    r = run_cli("ring-check", "--identity", "right-bol", small_catalog)
    assert r.returncode == 2
    lines = r.stdout.splitlines()
    assert lines[0] == "Z4: right-bol holds"
    assert lines[1].startswith("NB5: ring_right_bol fails at x=")
    r = run_cli("ring-check", "--identity", "right-alt", small_catalog)
    assert r.returncode == 2  # NB5 ring is not right alternative either
    assert r.stdout.splitlines()[0] == "Z4: right-alt holds"


FIXTURE_RING_CHECKS = {
    "right-bol": (2, [
        "16.7.2.1: ring_right_bol fails at x=2 y=2+3 z=9: lhs=10+11+13+14 rhs=9+10+14+16",
        "M(S3,2): right-bol holds",
    ]),
    "right-moufang": (2, [
        "16.7.2.1: ring_right_moufang fails at x=1 y=2 z=9: lhs=9 rhs=11",
        "M(S3,2): right-moufang holds",
    ]),
    "right-alt": (0, ["16.7.2.1: right-alt holds", "M(S3,2): right-alt holds"]),
    "left-alt": (2, [
        "16.7.2.1: ring_left_alternative fails at x=2 y=9: lhs=9 rhs=11",
        "M(S3,2): left-alt holds",
    ]),
}


@pytest.mark.parametrize("flag", sorted(FIXTURE_RING_CHECKS))
def test_ring_check_decides_the_fixtures(flag):
    code, lines = FIXTURE_RING_CHECKS[flag]
    r = run_cli("ring-check", "--identity", flag, FIXTURES)
    assert (r.returncode, r.stdout.splitlines()) == (code, lines)


def test_ring_check_skips_orders_past_the_low_weight_cap(tmp_path):
    path = tmp_path / "z64_z65.loops"
    path.write_text(
        emit_record("Z64", cyclic_group(64)) + "\n" + emit_record("Z65", cyclic_group(65)) + "\n"
    )
    r = run_cli("ring-check", "--identity", "right-alt", str(path))
    assert r.returncode == 1
    assert r.stdout.splitlines() == [
        "Z64: right-alt holds",
        "Z65: skipped: order 65 exceeds the low-weight oracle's 64-bit masks",
    ]


def test_ring_check_decides_the_order_1_loop(tmp_path):
    # validate accepts the trivial loop, and its ring Z2 satisfies every
    # law; below order 2 the low-weight oracle has no weight-2 stage
    path = tmp_path / "one.loops"
    path.write_text("loop one\norder 1\n1\n")
    (record,) = parse_catalog(path.read_text())
    for flag, ident in sorted(RING_IDENTITY_FLAGS.items()):
        r = run_cli("ring-check", "--identity", flag, str(path))
        assert (r.returncode, r.stdout, r.stderr) == (0, f"one: {flag} holds\n", "")
        assert ring_identity_check(record.loop, ident) is None


@pytest.fixture(scope="module")
def order5_catalog(tmp_path_factory):
    path = tmp_path_factory.mktemp("enum") / "order5.loops"
    path.write_text(run_cli("enumerate", "--order", "5").stdout)
    return str(path)


@pytest.mark.parametrize("flag", sorted(RING_IDENTITY_FLAGS))
def test_ring_check_agrees_with_the_brute_force_reference(flag, order5_catalog):
    ident = RING_IDENTITY_FLAGS[flag]
    with open(order5_catalog, encoding="utf-8") as fh:
        records = parse_catalog(fh)
    r = run_cli("ring-check", "--identity", flag, order5_catalog)
    verdicts = [line.endswith(f": {flag} holds") for line in r.stdout.splitlines()]
    expected = [ring_identity_check(rec.loop, ident) is None for rec in records]
    assert verdicts == expected
    assert r.returncode == (0 if all(expected) else 2)


def test_jobs_must_be_positive():
    r = run_cli("classify", "--jobs", "0", FIXTURES)
    assert r.returncode == 3


def test_sweep_small_orders_clean():
    r = run_cli("sweep", "--order", "4", "--order", "5")
    assert r.returncode == 0
    assert "violations=0" in r.stdout
    assert "first_violation" not in r.stdout
    # capped all-loops ring check is reported as skipped, not silently lost
    assert "check=alt_ring_equiv SKIPPED (capped at order 5)" not in r.stdout


def test_sweep_default_skip_lines_present():
    r = run_cli("sweep", "--order", "6", "--format", "text")
    assert r.returncode == 0
    assert "order=6 check=srar_ring_equiv SKIPPED (requires --long)" in r.stdout
    assert "order=6 check=alt_ring_equiv SKIPPED (capped at order 5)" in r.stdout


def test_sweep_order7_requires_long():
    r = run_cli("sweep", "--order", "7")
    assert r.returncode == 3
    assert "--long" in r.stderr


def test_enumerate_order7_requires_long():
    r = run_cli("enumerate", "--order", "7")
    assert r.returncode == 3
    assert "--long" in r.stderr


def test_sweep_json_format():
    r = run_cli("sweep", "--order", "4", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["aggregates"] == {"violations": 0}
    assert {rec["order"] for rec in doc["records"]} == {4}


def test_sweep_renders_the_first_violation(monkeypatch, capsys):
    # a check that fails on every loop, in place of the extra check; the
    # first violation is the first order-4 table, in text and in JSON
    monkeypatch.setitem(sweeps.CHECKS, "extra_iff_moufang_squares_nucleus",
                        sweeps.SweepCheck(lambda f: True))
    first = [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]]
    assert cli.main(["sweep", "--order", "4"]) == 2
    lines = [line for line in capsys.readouterr().out.splitlines() if "first_violation" in line]
    assert lines == ["order=4 check=extra_iff_moufang_squares_nucleus loops_scanned=4 "
                     "violations=4 first_violation=[1 2 3 4 / 2 1 4 3 / 3 4 1 2 / 4 3 2 1]"]
    assert cli.main(["sweep", "--order", "4", "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["aggregates"] == {"violations": 4}
    assert [r for r in doc["records"] if r["first_violation"] is not None] == [
        {"order": 4, "check": "extra_iff_moufang_squares_nucleus", "loops_scanned": 4,
         "violations": 4, "first_violation": first}
    ]


def test_enumerate_order2_exact_bytes():
    r = run_cli("enumerate", "--order", "2")
    assert r.returncode == 0
    assert r.stdout == "loop 2.1\norder 2\n1 2\n2 1\n"


def test_enumerate_order5_streams_valid_catalog():
    r = run_cli("enumerate", "--order", "5")
    records = parse_catalog(r.stdout)
    assert len(records) == 56
    assert records[0].name == "5.1" and records[-1].name == "5.56"


def test_usage_errors():
    assert run_cli("no-such-command").returncode == 3
    assert run_cli("classify").returncode == 3  # missing files
    assert run_cli("enumerate", "--order", "9").returncode == 3
    assert run_cli("survey", "--format", "yaml", FIXTURES).returncode == 3
    assert run_cli("ring-check", FIXTURES).returncode == 3  # --identity required
    assert run_cli("ring-check", "--identity", "right-bol", "--cap", "3", FIXTURES).returncode == 3


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
