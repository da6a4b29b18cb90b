"""Command-line interface: file format, subcommands, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcd4 import __version__, cli, linalg
from hlcd4.code import LinearCode
from hlcd4.errors import CodeFileError, RankDeficientError
from hlcd4.gf4 import from_symbols
from hlcd4.search import SearchConfig, elliptic_quadric_code, random_lcd, search
from hlcd4.transform import axy_construct, puncture, shorten

from conftest import code_with_hull

LCD_42 = "1001\n0101"  # LCD [4,2,2] with a zero column


def write_code(path, code, header=None):
    path.write_text(cli.emit_code_file(code.gen, header))
    return str(path)


# --- file format ------------------------------------------------------------


def test_parse_accepts_comments_and_spacing():
    text = "# a comment\n\n1 0 w W\n# another\n0 1 1 w\n"
    c = cli.parse_code_file(text)
    assert (c.n, c.k) == (4, 2)
    assert str(c) == "10wW\n011w"


def test_parse_round_trip():
    c = LinearCode.from_symbols("10wW\n011w")
    text = cli.emit_code_file(c.gen, header=["note"])
    assert text.startswith("# hlcd4")
    assert "# note" in text
    assert cli.parse_code_file(text) == c


def test_parse_zero_code_emission():
    # A k = 0 code is written as one all-zero row, and reads back.
    zero = LinearCode(np.zeros((0, 4), dtype=np.uint8))
    text = cli.emit_code_file(zero.gen)
    assert "zero code" in text
    assert text.splitlines()[-1] == "0000"
    assert cli.parse_code_file(text) == zero


def test_all_zero_body_is_the_zero_code():
    # Any number of all-zero rows is the zero code of their length; a zero
    # row beside a nonzero one is still a dependent row.
    assert cli.parse_code_file("# c\n000\n0 0 0\n") == LinearCode(linalg.zeros(0, 3))
    with pytest.raises(RankDeficientError):
        cli.parse_code_file("000\n1w0\n")
    # The format error is also the ValueError that from_symbols documents.
    with pytest.raises(ValueError):
        LinearCode.from_symbols("10\n0x\n")


# Text over the format's symbols, whitespace, comment marks and every line
# separator that str.splitlines knows, where many inputs parse; and
# arbitrary text, where few do.
_CODE_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from(list("01wW #\t\xa0\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))),
    st.text(),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_CODE_TEXT)
def test_parse_raises_only_format_errors(text):
    # any text parses to a code that reads back from its own emission, or
    # raises one of the two documented errors
    try:
        code = cli.parse_code_file(text)
    except (CodeFileError, RankDeficientError):
        return
    assert cli.parse_code_file(cli.emit_code_file(code.gen)) == code


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_CODE_TEXT)
def test_one_reader(text):
    # The CLI's reader and LinearCode.from_symbols agree on every text: the
    # same code, or the same error type with the same fields.
    def read(reader):
        try:
            return reader(text)
        except (CodeFileError, RankDeficientError) as e:
            return type(e), str(e), e.fields

    assert read(LinearCode.from_symbols) == read(cli.parse_code_file)


def read_rows_reference(text: str) -> LinearCode:
    """The code-file reader as a loop over the lines, each row parsed on its
    own by ``gf4.from_symbols``: the reference for the one-pass reader."""
    rows = []
    row_lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append(from_symbols(line))
        except ValueError:
            bad = next(ch for ch in line if not ch.isspace() and ch not in "01wW")
            col = line.index(bad) + 1
            raise CodeFileError(f"invalid symbol {bad!r}", line=lineno, column=col) from None
        row_lines.append(lineno)
    if not rows:
        raise CodeFileError("no matrix rows in input")
    n = len(rows[0])
    for r, lineno in zip(rows, row_lines):
        if len(r) != n:
            raise CodeFileError(f"row has {len(r)} symbols, expected {n}", line=lineno)
    gen = np.vstack(rows)
    return LinearCode(gen if gen.any() else gen[:0])


# Bodies of many row lines, each padded with whitespace and line separators,
# some with a bad symbol or a row of another length: the one-pass reader's
# failure paths, which arbitrary text seldom reaches past the first line.
_ROWS_TEXT = st.lists(
    st.tuples(
        st.text(alphabet=st.sampled_from(list(" \t\xa0\x1f#\n\v\x85 ")), max_size=3),
        st.text(alphabet=st.sampled_from(list("01wW \t")), min_size=1, max_size=8),
        st.sampled_from(["", "x", "é", "2"]),
    ),
    max_size=6,
).map(lambda rows: "\n".join(pad + row + bad for pad, row, bad in rows))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(_CODE_TEXT, _ROWS_TEXT))
def test_one_pass_reader_matches_row_loop(text):
    # The same code, or the same error type, message and fields, as the
    # loop that parses one row at a time.
    def read(reader):
        try:
            return reader(text)
        except (CodeFileError, RankDeficientError) as e:
            return type(e), str(e), e.fields

    assert read(LinearCode.from_symbols) == read(read_rows_reference)


def test_parse_errors_carry_location():
    # The location is in the fields and, once, at the end of the message.
    with pytest.raises(CodeFileError) as exc:
        cli.parse_code_file("10w\n0x1\n")
    assert exc.value.line == 2 and exc.value.column == 2
    assert str(exc.value) == "invalid symbol 'x' (line 2, column 2)"
    assert str(exc.value).count("line") == str(exc.value).count("column") == 1
    with pytest.raises(CodeFileError) as exc:
        cli.parse_code_file("10w\n01\n")
    assert exc.value.line == 2 and exc.value.column is None
    assert str(exc.value) == "row has 2 symbols, expected 3 (line 2)"
    assert str(exc.value).count("line") == 1
    with pytest.raises(CodeFileError):
        cli.parse_code_file("# only a comment\n")
    with pytest.raises(RankDeficientError):
        cli.parse_code_file("11\nww\n")


# --- simple subcommands -----------------------------------------------------


def test_info_text(tmp_path, capsys):
    path = write_code(tmp_path / "c.code", LinearCode.from_symbols(LCD_42))
    assert cli.main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "[4,2] code" in out
    assert "d: 2" in out
    assert "LCD: yes" in out


def test_info_json(tmp_path, capsys):
    path = write_code(tmp_path / "c.code", LinearCode.from_symbols(LCD_42))
    assert cli.main(["info", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "n": 4, "k": 2, "d": 2, "d_dual": 1,
        "hull_dim": 0, "is_lcd": True, "is_even": False,
    }


def test_info_budget_flags(tmp_path, capsys):
    path = write_code(tmp_path / "c.code", random_lcd(18, 8, 5))
    assert cli.main(["info", path, "--json", "--budget", "10"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d_exact"] is False
    assert cli.main(["info", path, "--json", "--exact-d"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "d_exact" not in data


def test_dual_round_trip(tmp_path, capsys):
    c = LinearCode.from_symbols(LCD_42)
    path = write_code(tmp_path / "c.code", c)
    out_path = tmp_path / "dual.code"
    assert cli.main(["dual", path, "-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert "# command: dual" in text and "# parent: sha256" in text
    dual = cli.parse_code_file(text)
    assert dual.k == 2
    assert dual.hermitian_dual() == c


def test_dual_to_stdout(tmp_path, capsys):
    path = write_code(tmp_path / "c.code", LinearCode.from_symbols(LCD_42))
    assert cli.main(["dual", path]) == 0
    assert "# hlcd4" in capsys.readouterr().out


def test_puncture_and_shorten(tmp_path, capsys):
    c = LinearCode.from_symbols("110\n001")
    path = write_code(tmp_path / "c.code", c)
    assert cli.main(["puncture", path, "-t", "3"]) == 0
    assert cli.parse_code_file(capsys.readouterr().out) == LinearCode.from_symbols("11")
    assert cli.main(["shorten", path, "-t", "1"]) == 0
    assert cli.parse_code_file(capsys.readouterr().out) == LinearCode.from_symbols("01")
    assert cli.main(["puncture", path, "-t", "9"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert cli.main(["puncture", path, "-t", "1,x"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "coordinate list" in err["message"]


def test_orthonormalize_cli(tmp_path, capsys):
    c = random_lcd(9, 4, 11)
    path = write_code(tmp_path / "c.code", c)
    assert cli.main(["orthonormalize", path]) == 0
    w = cli.parse_code_file(capsys.readouterr().out)
    assert np.array_equal(linalg.gram(w.gen), linalg.identity(4))
    assert w == c


def test_orthonormalize_rejects_non_lcd(tmp_path, capsys):
    c = code_with_hull(np.random.default_rng(5), 3, 2)
    path = write_code(tmp_path / "c.code", c)
    assert cli.main(["orthonormalize", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotLcdError"


def test_parity_json(tmp_path, capsys):
    path = write_code(tmp_path / "c.code", LinearCode.from_symbols(LCD_42))
    assert cli.main(["parity", path, "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 4
    for r in reports:
        assert r["puncture_is_lcd"] == (r["column_weight"] % 2 == 0)
        assert r["puncture_is_lcd"] != r["shorten_is_lcd"]


def test_parity_text(tmp_path, capsys):
    path = write_code(tmp_path / "c.code", LinearCode.from_symbols(LCD_42))
    assert cli.main(["parity", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("coordinate 1:")


@pytest.mark.parametrize(
    "symbols, failure",
    [
        ("100\n010\n001", "minimum weight must be at least 2"),  # the full [3,3] code
        ("000", "dual minimum weight must be at least 2"),  # the zero code [3,0]
        (LCD_42, "dual minimum weight must be at least 2"),  # its zero column
    ],
)
def test_parity_warns_outside_the_hypothesis(tmp_path, capsys, symbols, failure):
    # Outside the dichotomy's hypothesis parity still prints its verdicts
    # and exits 0, with one JSON warning on stderr naming the failed half.
    code = LinearCode.from_symbols(symbols)
    path = write_code(tmp_path / "c.code", code)
    assert cli.main(["parity", path, "--json"]) == 0
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)) == code.n
    warning = json.loads(captured.err)
    assert warning["warning"] == "OutsideHypothesis"
    assert warning["message"].startswith(failure)


def test_parity_inside_the_hypothesis_does_not_warn(tmp_path, capsys):
    # An LCD [4,2,2] code whose dual has minimum weight 2 as well.
    path = write_code(tmp_path / "c.code", LinearCode.from_symbols("10WW\n010w"))
    assert cli.main(["parity", path]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 4
    assert captured.err == ""


def test_axy_cli(tmp_path, capsys):
    c = random_lcd(10, 6, 3)
    path = write_code(tmp_path / "c.code", c)
    assert cli.main(["axy", path, "--x", "1100", "--y", "1w0W"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IsotropyError"
    assert {"xx", "yy", "xy"} <= set(err)
    # A zero vector is an IsotropyError too, and reports the inner products.
    assert cli.main(["axy", path, "--x", "0000", "--y", "0011"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ZeroVectorError", "message": "x is zero", "xx": 0, "yy": 0, "xy": 0}
    assert cli.main(["axy", path, "--x", "1100", "--y", "0011"]) == 0
    out = cli.parse_code_file(capsys.readouterr().out)
    assert (out.n, out.k) == (10, 6)
    assert out.hull_dim() == c.hull_dim() == 0


def test_every_written_code_reads_back(tmp_path, capsys):
    # Each code-writing command writes a file that parses back to the code
    # it derived, zero codes included, and that info reads.
    lcd = random_lcd(10, 6, 3)
    x, y = "1100", "0011"
    cases = [
        (lcd, ["dual"], lcd.hermitian_dual()),
        (LinearCode(linalg.identity(3)), ["dual"], LinearCode(linalg.zeros(0, 3))),
        (lcd, ["puncture", "-t", "2,5"], puncture(lcd, [2, 5])),
        (lcd, ["shorten", "-t", "3"], shorten(lcd, 3)),
        (LinearCode.from_symbols("100"), ["shorten", "-t", "1"], LinearCode(linalg.zeros(0, 2))),
        (lcd, ["orthonormalize"], lcd),
        (lcd, ["axy", "--x", x, "--y", y], axy_construct(lcd, from_symbols(x), from_symbols(y))),
    ]
    for i, (parent, argv, expected) in enumerate(cases):
        path = write_code(tmp_path / f"parent{i}.code", parent)
        out = tmp_path / f"child{i}.code"
        assert cli.main([argv[0], path, *argv[1:], "-o", str(out)]) == 0
        assert cli.parse_code_file(out.read_text()) == expected, argv
        assert cli.main(["info", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == expected.k
    config = SearchConfig(n=14, k=10, target_d=3, seed=1, budget=1000)
    out = tmp_path / "hit.code"
    argv = ["search", "--n", "14", "--k", "10", "--target-d", "3", "--seed", "1"]
    assert cli.main([*argv, "--budget", "1000", "-o", str(out)]) == 0
    capsys.readouterr()
    assert cli.parse_code_file(out.read_text()) == search(config).found


def test_provenance_headers(tmp_path, capsys):
    # each header names the command and its declared options under their
    # first flag, whatever spelling or order was typed
    path = write_code(tmp_path / "c.code", random_lcd(10, 6, 3))
    parent = "# parent: sha256 " + hashlib.sha256((tmp_path / "c.code").read_bytes()).hexdigest()
    for argv, command in (
        (["dual"], "dual"),
        (["puncture", "-t", "1,3"], "puncture -t 1,3"),
        (["shorten", "--coords", "2"], "shorten -t 2"),
        (["orthonormalize"], "orthonormalize"),
        (["axy", "--y", "0011", "--x", "1100"], "axy --x 1100 --y 0011"),
    ):
        assert cli.main([argv[0], path, *argv[1:]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == [f"# command: {command}", parent]


def test_only_provenance_headers_hash_the_file(tmp_path, monkeypatch, capsys):
    # A file is hashed only where a header records its digest: once for a
    # derived code or a search from a base, never for info or parity.
    path = write_code(tmp_path / "c.code", random_lcd(10, 6, 3))
    base = quadric_base_file(tmp_path)
    hashed = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(cli.hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
    search_base = [
        "search", "--n", "13", "--k", "9", "--target-d", "4", "--seed", "1",
        "--budget", "1000", "--strategy", "puncture-shorten", "--base", base,
    ]
    for argv, want in (
        (["info", path], []),
        (["info", path, "--json"], []),
        (["parity", path], []),
        (["dual", path], [Path(path).read_bytes()]),
        (search_base, [Path(base).read_bytes()]),
    ):
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert hashed == want
        hashed.clear()


def test_pair_check(capsys):
    assert cli.main(["pair-check", "--x", "11", "--y", "11"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] and report["isotropic"]
    assert cli.main(["pair-check", "--x", "10", "--y", "11"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["xx"] == 1 and not report["valid"]


# --- search and verify-table -------------------------------------------------


def quadric_base_file(tmp_path):
    quad_path = write_code(tmp_path / "quadric.code", elliptic_quadric_code())
    base_path = tmp_path / "base_14_10.code"
    assert cli.main(["shorten", quad_path, "-t", "1,2,3", "-o", str(base_path)]) == 0
    return str(base_path)


def test_search_cli_puncture_shorten(tmp_path, capsys):
    base = quadric_base_file(tmp_path)
    out1 = tmp_path / "a.code"
    args = [
        "search", "--n", "13", "--k", "9", "--target-d", "4", "--seed", "1",
        "--budget", "1000", "--strategy", "puncture-shorten", "--base", base,
    ]
    assert cli.main(args + ["-o", str(out1)]) == 0
    stdout = json.loads(capsys.readouterr().out)
    assert stdout["found"] is True and stdout["summary"]["d"] == 4
    found = cli.parse_code_file(out1.read_text())
    assert (found.n, found.k) == (13, 9)
    assert found.is_lcd() and found.min_weight() == 4
    # reruns with a different thread count are byte-identical
    out2 = tmp_path / "b.code"
    assert cli.main(args + ["--threads", "4", "-o", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text()
    assert "# command: search" in header and "# parent: sha256" in header
    assert "thread" not in header


def test_search_cli_not_reached(capsys):
    args = [
        "search", "--n", "8", "--k", "4", "--target-d", "6",
        "--seed", "1", "--budget", "64",
    ]
    assert cli.main(args) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TargetNotReached"
    assert err["candidates_tried"] == 64


def test_search_cli_axy_preconditions(tmp_path, capsys):
    # the update needs k < n and an LCD base; both are domain errors
    args = ["search", "--target-d", "2", "--seed", "1", "--strategy", "axy"]
    assert cli.main(args + ["--n", "6", "--k", "6"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PreconditionError" and "k < n" in err["message"]
    base = write_code(tmp_path / "hull.code", code_with_hull(np.random.default_rng(1), 6, 1))
    assert cli.main(args + ["--n", "12", "--k", "6", "--base", base]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "PreconditionError", "message": "base code is not LCD"}


def test_search_cli_random_refuses_a_base(tmp_path, capsys):
    # A random search given --base writes no file that names a parent it
    # never read: a domain error instead.
    base = write_code(tmp_path / "b.code", random_lcd(10, 4, 1))
    out = tmp_path / "hit.code"
    args = ["search", "--n", "10", "--k", "4", "--target-d", "2", "--seed", "1"]
    assert cli.main([*args, "--base", base, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err) == {
        "error": "PreconditionError",
        "message": "RANDOM takes no base code",
    }


def test_verify_table_cli(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    args = [
        "search", "--n", "14", "--k", "10", "--target-d", "3", "--seed", "1",
        "--budget", "1000", "-o", str(results / "c14.code"),
    ]
    assert cli.main(args) == 0
    capsys.readouterr()
    # A subdirectory and a dotfile are not code files: neither is read.
    (results / "nested.code").mkdir()
    (results / ".c14.code.swp").write_text("not a code file\n")
    assert cli.main(["verify-table", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c14.code: [14,10] d=3") and "reproduced-lower" in out
    assert len(out.splitlines()) == 1
    # adding a non-LCD code flips the exit code
    bad = code_with_hull(np.random.default_rng(1), 6, 1)  # [12,6], hull 1
    write_code(results / "bad.code", bad)
    assert cli.main(["verify-table", "--results", str(results)]) == 1
    assert "not-lcd" in capsys.readouterr().out


def test_verify_table_names_the_bad_file(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    write_code(results / "a_good.code", random_lcd(14, 10, 1))
    bad = results / "b_bad.code"
    for text, fields in (
        ("# only a comment\n", {}),
        ("10w\n0x1\n", {"line": 2, "column": 2}),
        ("10w\n10w\n", {}),
    ):
        bad.write_text(text)
        assert cli.main(["verify-table", "--results", str(results)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["file"] == "b_bad.code"
        assert {key: err[key] for key in ("line", "column") if key in err} == fields
    assert err["error"] == "RankDeficientError"


def test_verify_table_names_an_out_of_table_file(tmp_path, capsys):
    # A [2,2] code and a zero code read back, but the table has no entry
    # for either: the error names the file, and no record is printed.
    results = tmp_path / "results"
    results.mkdir()
    write_code(results / "a_good.code", random_lcd(14, 10, 1))
    for name, code in (
        ("b_full.code", LinearCode(linalg.identity(2))),
        ("b_zero.code", LinearCode(linalg.zeros(0, 3))),
    ):
        path = results / name
        write_code(path, code)
        assert cli.main(["verify-table", "--results", str(results)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "UnknownEntryError",
            "message": f"no bounds entry for ({code.n},{code.k})",
            "file": name,
        }
        path.unlink()


def test_verify_table_reports_bad_bounds_csv(tmp_path, capsys):
    # a short row, a missing column and a non-integer value each exit 1
    # with a JSON error naming the CSV line and field; a repeated (n, k),
    # the line
    results = tmp_path / "results"
    results.mkdir()
    shipped = resources.files("hlcd4").joinpath("data/d4_bounds.csv").read_text().splitlines()
    bounds = tmp_path / "bounds.csv"
    for rows, message in (
        (shipped[:3] + ["12,6,5"] + shipped[4:], "line 4, field 'upper': missing"),
        ([row.rsplit(",", 1)[0] for row in shipped], "line 2, field 'flags': missing"),
        (shipped[:3] + ["12,6,five,6,"] + shipped[4:], "line 4, field 'lower': bad value 'five'"),
        (shipped + ["12,4,3,9,"], "line 268: duplicate entry (12,4)"),
    ):
        bounds.write_text("\n".join(rows) + "\n")
        argv = ["verify-table", "--results", str(results), "--bounds", str(bounds)]
        assert cli.main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"bounds CSV {message}"}


def test_verify_table_needs_directory(tmp_path, capsys):
    assert cli.main(["verify-table", "--results", str(tmp_path / "nope")]) == 1
    assert "not a directory" in json.loads(capsys.readouterr().err)["message"]


# --- top-level behavior -------------------------------------------------------


def test_missing_file_is_reported(capsys):
    assert cli.main(["info", "/nonexistent/path.code"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_domain_error_carries_location(tmp_path, capsys):
    path = tmp_path / "bad.code"
    path.write_text("10w\n0x1\n")
    assert cli.main(["info", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CodeFileError"
    assert err["line"] == 2 and err["column"] == 2
    # A field the error does not know is left out, not written as null.
    path.write_text("10w\n01\n")
    assert cli.main(["info", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["line"] == 2 and "column" not in err


def usage_error_argvs(path, results):
    search = ["search", "--seed", "1"]
    return [
        ["no-such-command"],
        ["search", "--n", "10", "--k", "4"],  # missing required args
        [*search, "--n", "10", "--k", "4", "--target-d", "2", "--strategy", "bogus"],
        [*search, "--n", "4", "--k", "5", "--target-d", "2"],  # k > n
        [*search, "--n", "0", "--k", "4", "--target-d", "2"],
        [*search, "--n", "10", "--k", "0", "--target-d", "2"],
        [*search, "--n", "10", "--k", "4", "--target-d", "0"],
        [*search, "--n", "10", "--k", "4", "--target-d", "2", "--budget", "-5"],
        [*search, "--n", "10", "--k", "4", "--target-d", "2", "--threads", "0"],
        ["search", "--seed", "-1", "--n", "10", "--k", "4", "--target-d", "2"],
        ["info", path, "--budget", "0"],
        ["verify-table", "--results", results, "--budget", "0"],
    ]


def test_usage_errors_exit_2(tmp_path, capsys):
    path = write_code(tmp_path / "c.code", LinearCode.from_symbols(LCD_42))
    for argv in usage_error_argvs(path, str(tmp_path)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    # A bound-checked integer option names its type ``int`` when the text is
    # not an integer.
    with pytest.raises(SystemExit) as exc:
        cli.main(["info", path, "--budget", "abc"])
    assert exc.value.code == 2
    assert "argument --budget: invalid int value: 'abc'" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("hlcd4 ")


def test_console_entry_point_reads_sys_argv(monkeypatch, capsys):
    # The console script calls main() with no argument.
    monkeypatch.setattr(sys, "argv", ["hlcd4", "--version"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"hlcd4 {__version__}\n"
    monkeypatch.setattr(sys, "argv", ["hlcd4", "pair-check", "--x", "11", "--y", "11"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["valid"]


# --- the per-call parser ------------------------------------------------------


def full_parser():
    """Every subcommand with all of its options, as one parser."""
    p = argparse.ArgumentParser(
        prog="hlcd4",
        description="Hermitian LCD codes over the four-element field.",
    )
    p.add_argument("--version", action="version", version=f"hlcd4 {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in cli._COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flags, keywords in options:
            sp.add_argument(*flags, **keywords)
        sp.set_defaults(func=handler)
    return p


def outcome(call, argv):
    """What ``call(argv)`` returns, or the code it exits with; then the
    text on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


VALID_ARGVS = [
    ["info", "c.code", "--json", "--budget", "10"],
    ["dual", "c.code", "-o", "d.code"],
    ["puncture", "c.code", "-t", "1,3"],
    ["shorten", "c.code", "--coords", "2"],
    ["orthonormalize", "c.code"],
    ["parity", "c.code", "--json"],
    ["axy", "c.code", "--y", "0011", "--x", "1100"],
    ["pair-check", "--x", "11", "--y", "11"],
    ["search", "--n", "13", "--k", "9", "--target-d", "4", "--seed", "1",
     "--strategy", "puncture-shorten", "--base", "b.code", "--threads", "2"],
    ["verify-table", "--results", "results", "--exact-d", "--bounds", "b.csv"],
]


def test_valid_argvs_cover_every_subcommand():
    assert [argv[0] for argv in VALID_ARGVS] == list(cli._COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["--version"],
        [],
        *([name, "-h"] for name in cli._COMMANDS),
        *VALID_ARGVS,
        *usage_error_argvs("c.code", "results"),
        # A second subcommand name: after the invoked one, as an option's
        # value, or after the top-level -h.
        ["info", "search"],
        ["search", "info", "-h"],
        ["dual", "-h", "info"],
        ["verify-table", "--results", "info"],
        ["-h", "info"],
    ],
    ids=" ".join,
)
def test_parser_matches_the_full_parser(argv):
    # The parser main builds for argv holds one subcommand's options; it
    # parses argv to the same Namespace as the full parser, or exits with
    # the same code and the same text.
    main_parser = cli._parser_for(argv)
    assert outcome(main_parser.parse_args, argv) == outcome(full_parser().parse_args, argv)


VOCABULARY = sorted(
    {*cli._COMMANDS, "-h", "--version", "--", "-", "-1", "c.code", "3"}
    | {flag for _, _, options in cli._COMMANDS.values() for flags, _ in options for flag in flags}
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(VOCABULARY), max_size=6))
def test_parser_matches_the_full_parser_on_any_argv(argv):
    assert outcome(cli._parser_for(argv).parse_args, argv) == outcome(
        full_parser().parse_args, argv
    )


def subparsers(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_one_call_builds_one_subcommand_in_full(name):
    # The invoked subcommand has the full parser's options and help; every
    # other one is a name and a help line, with no -h of its own.
    built = subparsers(cli._build_parser(name))
    assert built[name].format_help() == subparsers(full_parser())[name].format_help()
    assert not any("-h" in sp.format_usage() for other, sp in built.items() if other != name)


GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def test_golden_covers_help_and_usage_errors():
    argvs = [row["argv"] for row in GOLDEN]
    assert ["-h"] in argvs and ["--version"] in argvs
    assert all([name, "-h"] in argvs for name in cli._COMMANDS)
    assert all(argv in argvs for argv in usage_error_argvs("c.code", "results"))


@pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="argparse formats help differently from Python 3.13"
)
@pytest.mark.parametrize("row", GOLDEN, ids=[" ".join(row["argv"]) for row in GOLDEN])
def test_cli_text_matches_golden(row, monkeypatch):
    # Help, version and usage-error text as recorded from the CLI: exit
    # code, stdout and stderr byte for byte.  argparse wraps help to the
    # terminal width, so the width is fixed at the recording's 80 columns.
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(cli.main, row["argv"]) == (row["exit"], row["stdout"], row["stderr"])


OUTPUTS = json.loads(Path(__file__).with_name("cli_outputs_golden.json").read_text())


def test_output_golden_covers_every_writer_and_failure():
    # The recording writes a file with every code-writing command and every
    # search strategy, axy with and without a base, and fails in each way
    # main reports.
    writers = [call["argv"] for call in OUTPUTS["calls"] if "out.code" in call["argv"]]
    takes_output = {
        name
        for name, (_, _, options) in cli._COMMANDS.items()
        if any("-o" in flags for flags, _ in options)
    }
    assert {argv[0] for argv in writers} == takes_output
    searches = sorted(
        (argv[argv.index("--strategy") + 1] if "--strategy" in argv else "random", "--base" in argv)
        for argv in writers
        if argv[0] == "search"
    )
    want = [("axy", False), ("axy", True), ("puncture-shorten", True), ("random", False)]
    assert searches == want
    errors = {json.loads(call["stderr"])["error"] for call in OUTPUTS["calls"] if call["exit"]}
    assert errors == {
        "TargetNotReached", "FileNotFoundError", "ValueError", "CodeFileError",
        "UnknownEntryError", "PreconditionError",
    }


@pytest.mark.parametrize("call", OUTPUTS["calls"], ids=lambda call: " ".join(call["argv"]))
def test_failures_and_written_files_match_golden(call, tmp_path, monkeypatch):
    # Failure reports and written code files as recorded from the CLI: exit
    # code, stdout, stderr and the file written to out.code, byte for byte,
    # with the recording's input files in the working directory.
    for name, text in OUTPUTS["files"].items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    monkeypatch.chdir(tmp_path)
    assert outcome(cli.main, call["argv"]) == (call["exit"], call["stdout"], call["stderr"])
    written = tmp_path / "out.code"
    assert (written.read_text() if written.exists() else None) == call["written"]


SRC = Path(cli.__file__).resolve().parents[1]

INTERLEAVED = [
    ["search", "--n", "14", "--k", "10", "--target-d", "3", "--seed", "1",
     "--budget", "1000", "-o", "results/c14.code"],
    ["info", "results/c14.code", "--json"],
    ["verify-table", "--results", "results"],
    ["search", "--n", "12", "--k", "6", "--target-d", "4", "--seed", "3",
     "--budget", "2000", "-o", "c12.code"],
]


def run_alone(argv, cwd):
    """One call in a fresh interpreter: (exit code, stdout, stderr)."""
    out = subprocess.run(
        [sys.executable, "-m", "hlcd4.cli", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
        check=False,
    )
    return out.returncode, out.stdout, out.stderr


def test_module_entry_point(tmp_path):
    # ``python -m hlcd4.cli`` exits with main's code.
    code, out, _ = run_alone(["--version"], tmp_path)
    assert (code, out) == (0, f"hlcd4 {__version__}\n")
    code, _, err = run_alone(
        ["search", "--n", "4", "--k", "5", "--target-d", "2", "--seed", "1"], tmp_path
    )
    assert code == 2 and err.endswith("error: --k (5) must not exceed --n (4)\n")


def test_interleaved_calls_match_calls_run_alone(tmp_path, monkeypatch, capsys):
    # Calls in one process behave as fresh processes: nothing kept between
    # main calls carries one call's state into the next.
    together, alone = tmp_path / "together", tmp_path / "alone"
    for root in (together, alone):
        (root / "results").mkdir(parents=True)
    monkeypatch.chdir(together)
    for argv in INTERLEAVED:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == run_alone(argv, alone), argv
        assert code == 0 and captured.out, argv
    for name in ("results/c14.code", "c12.code"):
        assert (together / name).read_bytes() == (alone / name).read_bytes()
