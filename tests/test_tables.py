"""Shipped bounds table and the isotropic-pair catalog."""

from importlib import resources
from unittest import mock

import pytest

from hlcd4.errors import UnknownEntryError
from hlcd4.tables import N_RANGE, BoundsEntry, BoundsTable, Flag, catalog_pairs
from hlcd4.transform import check_isotropic


@pytest.fixture(scope="module")
def table():
    return BoundsTable.load()


def test_full_coverage(table):
    # one entry per (n, k) with 12 <= n <= 30 and 4 <= k <= n - 4
    expected = sum(len(range(4, n - 3)) for n in N_RANGE)
    assert len(table) == expected == 266
    for e in table:
        assert 1 <= e.lower <= e.upper <= e.n


def test_spot_entries(table):
    assert table.entry(12, 4).lower == table.entry(12, 4).upper == 7
    assert table.lower(12, 8) == table.upper(12, 8) == 4
    assert table.entry(12, 8).bold
    # a lone non-exact low entry sits inside a mostly settled column
    e = table.entry(24, 19)
    assert (e.lower, e.upper) == (3, 4)
    assert not e.flags


def test_starred_entries(table):
    starred = [e for e in table if e.star]
    assert len(starred) == 8
    expected = {
        (27, 6): 15,
        (27, 8): 13,
        (27, 9): 12,
        (27, 11): 10,
        (28, 11): 11,
        (29, 11): 11,
        (30, 7): 16,
        (30, 12): 11,
    }
    assert {(e.n, e.k): e.lower for e in starred} == expected
    # every starred lower bound comes from an explicit construction
    assert all(e.bold for e in starred)
    assert all(not e.exact for e in starred)


def test_iteration_sorted(table):
    pairs = [(e.n, e.k) for e in table]
    assert pairs == sorted(pairs)
    assert (12, 4) in table and (30, 26) in table
    assert (11, 4) not in table


def test_unknown_entry(table):
    with pytest.raises(UnknownEntryError):
        table.entry(11, 4)
    with pytest.raises(UnknownEntryError):
        table.lower(12, 9)  # k range for n = 12 stops at 8


def test_validation_rejects_bad_tables():
    header = "n,k,lower,upper,flags\n"
    good_rows = "".join(
        f"{n},{k},1,2,\n" for n in N_RANGE for k in range(4, n - 3)
    )
    BoundsTable.from_csv_text(header + good_rows)  # sanity: full grid loads
    with pytest.raises(ValueError, match="missing"):
        BoundsTable.from_csv_text(header + good_rows.rsplit("\n", 2)[0] + "\n")
    bad = good_rows.replace("12,4,1,2,", "12,4,3,2,", 1)
    with pytest.raises(ValueError, match="lower"):
        BoundsTable.from_csv_text(header + bad)
    with pytest.raises(ValueError, match="outside"):
        BoundsTable.from_csv_text(header + good_rows + "11,4,1,2,\n")


def test_duplicate_entry_is_rejected():
    # a repeated (n, k) row names its line, whichever values it carries
    text = resources.files("hlcd4").joinpath("data/d4_bounds.csv").read_text()
    for row in ("12,4,3,9,", "12,4,7,7,"):
        with pytest.raises(ValueError) as e:
            BoundsTable.from_csv_text(text + row + "\n")
        assert str(e.value) == "bounds CSV line 268: duplicate entry (12,4)"


def test_load_from_path(tmp_path, table):
    target = tmp_path / "bounds.csv"
    lines = ["n,k,lower,upper,flags"]
    for e in table:
        flags = "".join(
            f.value for f in (Flag.BOLD, Flag.STAR) if f in e.flags
        )
        lines.append(f"{e.n},{e.k},{e.lower},{e.upper},{flags}")
    target.write_text("\n".join(lines) + "\n")
    reloaded = BoundsTable.load(str(target))
    assert len(reloaded) == len(table)
    assert reloaded.entry(27, 6).flags == table.entry(27, 6).flags


def test_packaged_table_is_parsed_once(table):
    # The packaged table is one shared table: a later load reads nothing.
    with mock.patch.object(resources, "files", side_effect=AssertionError("re-read")):
        assert BoundsTable.load() is BoundsTable.load() is table


def test_load_from_path_reads_the_file_each_time(tmp_path, table):
    target = tmp_path / "bounds.csv"
    text = resources.files("hlcd4").joinpath("data/d4_bounds.csv").read_text()
    target.write_text(text)
    first = BoundsTable.load(str(target))
    assert first.entry(12, 4).lower == 7 and first is not table
    target.write_text(text.replace("\n12,4,7,7,", "\n12,4,6,7,"))
    edited = BoundsTable.load(str(target))
    assert edited.entry(12, 4).lower == 6 and edited is not first
    assert BoundsTable.load().entry(12, 4).lower == 7


def test_load_from_path_skips_a_byte_order_mark(tmp_path, table):
    # Spreadsheet tools save CSV as UTF-8 with a byte-order mark; without
    # it skipped, the first column would be named "\ufeffn".
    target = tmp_path / "bounds.csv"
    text = resources.files("hlcd4").joinpath("data/d4_bounds.csv").read_text()
    target.write_text(text, encoding="utf-8-sig")
    assert target.read_bytes().startswith(b"\xef\xbb\xbf")
    reloaded = BoundsTable.load(str(target))
    assert len(reloaded) == len(table) == 266
    assert list(reloaded) == list(table)


def test_flag_parsing():
    e = BoundsEntry(n=12, k=4, lower=7, upper=7, flags=frozenset({Flag.BOLD}))
    assert e.bold and not e.star and e.exact


def test_catalog_pairs(table):
    pairs = catalog_pairs()
    assert len(pairs) == 8
    for cp in pairs:
        # vectors live in the ambient space of the A-block of an [n, k] code
        assert len(cp.pair.x) == cp.n - cp.k
        assert len(cp.pair.y) == cp.n - cp.k
        report = check_isotropic(cp.pair.x, cp.pair.y)
        assert report.valid
        # the starred table entry records the improved weight d + 1
        entry = table.entry(cp.n, cp.k)
        assert entry.star
        assert entry.lower == cp.d + 1
