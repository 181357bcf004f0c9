"""Ingestion, rolling-window backtests, confusion matrices, heatmap tables."""

import datetime as dt
import inspect
import math
import tempfile
import traceback
import warnings
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from esbacktest.backtest import CALIBRATION, BacktestResult
from esbacktest.estimators import (
    es_empirical,
    es_normal,
    moments,
    var_empirical,
    var_normal,
)
from esbacktest.harness import (
    ESTIMATORS,
    FORMATS,
    LEARN,
    ConfusionMatrix,
    DataError,
    ReturnPanel,
    RollingConfig,
    Sample,
    compare_backtest,
    confusion,
    filter_dates,
    heatmap_table,
    load_returns,
    rolling_backtest,
    run_batch,
    run_compare_batch,
    split_samples,
    write_heatmap_csv,
    _calendar,
    _low_tail,
    _parse_lines,
    _parse_rows,
    _reserves,
)
from esbacktest.secured import SecuredSample
from esbacktest.simulation import FitError

# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

FF_SAMPLE = """\
Sample portfolio file, daily returns in percent.
Missing data are indicated by -99.99 or -999.

,Port A,Port B
20050103,1.25,-0.50
20050104,-99.99,0.30
20050105,0.10,0.20
20050106,2.00,-999
20050107,0.00,1.00

Average Annual Returns
2005,12.00,13.00
"""


def test_ff_daily_parsing(tmp_path):
    path = tmp_path / "ff.csv"
    path.write_text(FF_SAMPLE)
    panel = load_returns(path, "ff_daily")
    assert panel.names == ("Port A", "Port B")
    assert panel.dropped_rows == 2
    assert panel.n_rows == 3 and panel.n_cols == 2
    assert np.array_equal(panel.dates, [20050103, 20050105, 20050107])
    assert np.allclose(panel.values[:, 0], [0.0125, 0.0010, 0.0000])
    assert np.allclose(panel.values[:, 1], [-0.0050, 0.0020, 0.0100])


def test_ff_daily_without_header_names_columns(tmp_path):
    path = tmp_path / "ff.csv"
    path.write_text("20050103,1.0,2.0\n20050104,0.5,0.5\n")
    panel = load_returns(path, "ff_daily")
    assert panel.names == ("col1", "col2")
    assert panel.n_rows == 2


def test_ff_daily_block_ends_at_the_blank_line_before_a_copyright(tmp_path):
    path = tmp_path / "ff.csv"
    path.write_text(",a\n20200101,1.0\n20200102,1.0\n\nCopyright 2024 Kenneth R. French\n")
    panel = load_returns(path, "ff_daily")
    assert panel.dates.tolist() == [20200101, 20200102]
    assert np.array_equal(panel.values, [[0.01], [0.01]])


def test_ff_daily_block_does_not_run_up_over_a_narrower_line(tmp_path):
    # a description line that starts with a digit is no data row unless it is
    # as wide as the block
    path = tmp_path / "ff.csv"
    path.write_text("1 portfolio sorted\n20200101,1.0\n20200102,1.0\n")
    panel = load_returns(path, "ff_daily")
    assert panel.names == ("col1",)
    assert panel.dates.tolist() == [20200101, 20200102]


def test_ff_daily_all_missing_column_rejected(tmp_path):
    path = tmp_path / "ff.csv"
    path.write_text(",A,B\n20050103,-99.99,1.0\n20050104,-999,2.0\n")
    with pytest.raises(DataError, match="'A'"):
        load_returns(path, "ff_daily")


def test_ff_daily_unparseable_cell_reports_line(tmp_path):
    path = tmp_path / "ff.csv"
    path.write_text(",A\n20050103,1.0\n20050104,oops\n")
    with pytest.raises(DataError, match="line 3"):
        load_returns(path, "ff_daily")


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        # a date that is not in the calendar fails first
        ("simple_csv", "date,a\n20201399,0.01\n20200101,0.02\n20200101,0.01\n00000000,0.01\n",
         "line 2: date 20201399 is not a calendar date"),
        ("simple_csv", "date,a\n20201231,0.01\n20200101,0.02\n20200101,0.01\n",
         "line 3: date 20200101 is not after 20201231"),
        ("simple_csv", "date,a\n\n20200101,0.01\n\n20200101,0.02\n",
         "line 5: date 20200101 is not after 20200101"),
        # the order is checked before the missing-data rows are dropped
        (
            "ff_daily",
            ",A\n20050103,1.0\n20050105,-99.99\n20050104,2.0\n",
            "line 4: date 20050104 is not after 20050105",
        ),
        # the first bad line is named, whatever it breaks
        ("simple_csv", "date,a\n20200102,0.01\n20200101,zzz\n", "line 3: date 20200101"),
        ("simple_csv", "date,a\n20200102,zzz\n20200101,0.01\n", "line 2: cannot parse"),
    ],
)
def test_dates_must_strictly_increase(tmp_path, fmt, text, message):
    path = tmp_path / "dated.csv"
    path.write_text(text)
    with pytest.raises(DataError) as exc:
        load_returns(path, fmt)
    assert str(exc.value).startswith(message)


def test_one_pass_date_order_equals_the_per_line_loop():
    rng = np.random.default_rng(19)
    for _ in range(200):
        dates = np.cumsum(rng.integers(-1, 3, size=6)) + 20200101
        numbered = list(enumerate((f"{d},0.01" for d in dates), start=2))
        try:
            want = _parse_lines(numbered, 2, True)[1]
        except DataError as exc:
            with pytest.raises(DataError, match=str(exc)):
                _parse_rows(numbered, ("a",), True)
        else:
            assert _parse_rows(numbered, ("a",), True).dates.tolist() == want == sorted(set(want))


def _is_calendar_date(date: int) -> bool:
    """The datetime oracle of ``harness._calendar`` for one YYYYMMDD integer."""
    try:
        dt.date(date // 10000, date // 100 % 100, date % 100)
    except ValueError:
        return False
    return True


def test_calendar_check_equals_the_datetime_oracle():
    # every month 0..13 and day 0..32 of years around the leap-year rules
    years = [0, 1, 4, 100, 1896, 1900, 1904, 2000, 2023, 2024, 2100, 2400, 9999]
    grid = [y * 10000 + m * 100 + d for y in years for m in range(14) for d in range(33)]
    rng = np.random.default_rng(20)
    dates = np.array(grid + rng.integers(0, 10**8, 5000).tolist() + [-20200101, 10**8 + 101])
    assert _calendar(dates).tolist() == [_is_calendar_date(int(d)) for d in dates]
    assert _calendar(dates[:1]).shape == (1,) and _calendar(20240229) and not _calendar(20230229)


@pytest.mark.parametrize("fmt", ["simple_csv", "ff_daily"])
@pytest.mark.parametrize("bad", ["20230229", "19000229", "20200431", "20201301", "20200100",
                                 "00000101"])
def test_dates_must_be_calendar_dates(tmp_path, fmt, bad):
    head = "date,a" if fmt == "simple_csv" else ",a"
    path = tmp_path / "dated.csv"
    path.write_text(f"{head}\n00010101,0.01\n{bad},0.02\n99991231,0.03\n")
    with pytest.raises(DataError) as exc:
        load_returns(path, fmt)
    assert str(exc.value) == f"line 3: date {bad} is not a calendar date"
    path.write_text(f"{head}\n00010101,0.01\n20240229,0.02\n99991231,0.03\n")
    assert load_returns(path, fmt).dates.tolist() == [10101, 20240229, 99991231]
    with pytest.raises(ValueError, match="dates must be calendar dates"):
        ReturnPanel(("a",), np.zeros((2, 1)), dates=[20200101, int(bad)])


def _calendar_days(first: str, n: int) -> list[int]:
    """``n`` consecutive YYYYMMDD calendar days from the ISO date ``first``."""
    days = np.datetime_as_string(np.datetime64(first) + np.arange(n))
    return [int(d.replace("-", "")) for d in days]


def test_one_pass_calendar_check_equals_the_per_line_loop():
    rng = np.random.default_rng(21)
    days = _calendar_days("2023-12-25", 500)
    for _ in range(100):
        dates = sorted(rng.choice(days, 6, replace=False))
        dates[rng.integers(6)] += rng.choice([0, 1, 30, 70, 100, 8800])
        numbered = list(enumerate((f"{d},0.01" for d in dates), start=2))
        try:
            want = _parse_lines(numbered, 2, True)[1]
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{exc}$"):
                _parse_rows(numbered, ("a",), True)
        else:
            assert _parse_rows(numbered, ("a",), True).dates.tolist() == want


def test_return_panel_rejects_dates_out_of_order():
    with pytest.raises(ValueError, match="dates must strictly increase"):
        ReturnPanel(("a",), np.zeros((3, 1)), dates=[20200101, 20200103, 20200103])
    panel = ReturnPanel(("a",), np.zeros((3, 1)), dates=[20200101, 20200102, 20200103])
    assert np.array_equal(panel.dates, [20200101, 20200102, 20200103])


def test_ff_daily_requires_dated_rows(tmp_path):
    path = tmp_path / "ff.csv"
    path.write_text("no,data,here\n")
    with pytest.raises(DataError, match="YYYYMMDD"):
        load_returns(path, "ff_daily")


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_returns(tmp_path / "nope.csv", "simple_csv")


def test_simple_csv_with_and_without_dates(tmp_path):
    dated = tmp_path / "dated.csv"
    dated.write_text("date,x,y\n20200101,0.01,-0.02\n20200102,0.00,0.03\n")
    panel = load_returns(dated, "simple_csv")
    assert panel.names == ("x", "y")
    assert np.array_equal(panel.dates, [20200101, 20200102])
    assert np.allclose(panel.values, [[0.01, -0.02], [0.00, 0.03]])

    plain = tmp_path / "plain.csv"
    plain.write_text("x,y\n0.01,-0.02\n0.00,0.03\n")
    panel = load_returns(plain, "simple_csv")
    assert panel.dates is None
    assert panel.n_rows == 2


def test_simple_csv_error_reporting(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x,y\n0.01,-0.02\n0.00\n")
    with pytest.raises(DataError, match="line 3"):
        load_returns(ragged, "simple_csv")

    bad = tmp_path / "bad.csv"
    bad.write_text("x\n0.01\nzzz\n")
    with pytest.raises(DataError, match="line 3"):
        load_returns(bad, "simple_csv")

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_returns(empty, "simple_csv")


def test_simple_csv_requires_a_header_row(tmp_path):
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("1.5,2.5\n0.01,0.02\n0.03,0.01\n")
    with pytest.raises(DataError, match="^line 1: a header row is required"):
        load_returns(headerless, "simple_csv")
    dated = tmp_path / "dated.csv"
    dated.write_text("20200101,0.01\n20200102,0.02\n")
    with pytest.raises(DataError, match="^line 1: a header row is required"):
        load_returns(dated, "simple_csv")
    # one name that is no number makes line 1 a header
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("x,2\n0.01,0.02\n0.03,0.01\n")
    assert load_returns(mixed, "simple_csv").names == ("x", "2")


@pytest.mark.parametrize("fmt", ["simple_csv", "ff_daily"])
def test_simple_csv_values_are_the_float_of_each_cell(tmp_path, fmt):
    cells = [[" 0.01", "-0.0 ", "1e-3"], ["+.5", "1_000", "\t-2.5e-7"],
             ["1e308", "1e308", "-1e308"]]  # a row whose sum overflows loads
    if fmt == "ff_daily":  # a date leads each row, and the cells are percent
        lines = [",a,b,c"] + [f"2020010{k}," + ",".join(r) for k, r in enumerate(cells, 1)]
        scale = 100.0
    else:
        lines = ["a,b,c"] + [",".join(r) for r in cells]
        scale = 1.0
    path = tmp_path / "cells.csv"
    path.write_text("\n".join(lines) + "\n")
    values = load_returns(path, fmt).values
    expected = np.array([[float(c.strip()) / scale for c in r] for r in cells])
    assert np.array_equal(values.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("dated", [False, True])
def test_one_pass_parse_equals_the_per_line_loop(dated):
    rng = np.random.default_rng(66)
    cells = np.array([" 0.01", "-0.0 ", "1e-3", "+.5", "1_000", "\t-2.5e-7", "1e308"])
    lines = [",".join(([f" {day} "] if dated else []) + list(rng.choice(cells, 4)))
             for day in _calendar_days("2020-01-01", 300)]
    numbered = list(enumerate(lines, start=9))
    panel = _parse_rows(iter(numbered), tuple("abcd"), dated)
    values, dates = panel.values, [] if panel.dates is None else panel.dates.tolist()
    rows, expected_dates = _parse_lines(numbered, 4 + dated, dated)
    assert np.array_equal(values.view(np.int64), np.array(rows).view(np.int64))
    assert dates == expected_dates and len(dates) == 300 * dated


_FAULTS = ("fields", "pattern", "calendar", "order", "number", "nonfinite")


@st.composite
def _faulty_panel(draw):
    """(fmt, text, numbered, width): a dated panel with one fault planted on one
    line, and the (line number, line) pairs of ``width`` fields that the loader
    parses."""
    fmt = draw(st.sampled_from(FORMATS))
    n_rows, n_cols = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    days = _calendar_days(draw(st.sampled_from(["2019-12-25", "2024-02-20"])), n_rows)
    dates = [str(d) for d in days]
    cells = [[draw(st.sampled_from(["0.01", "-0.5", " 2e-3", "0"])) for _ in range(n_cols)]
             for _ in range(n_rows)]
    fault = draw(st.sampled_from(_FAULTS))
    i = draw(st.integers(0, n_rows - 1))
    if fault == "fields":
        cells[i] = cells[i][1:] if draw(st.booleans()) else cells[i] + ["0.1"]
    elif fault == "pattern":
        # ff_daily reads a first line whose first field starts with no digit as its header
        no_digit = ["x", ""] if i or fmt == "simple_csv" else []
        dates[i] = draw(st.sampled_from(["2020-01-02", "2020010", "202001011", *no_digit]))
    elif fault == "calendar":
        dates[i] = draw(st.sampled_from(["20200230", "20210229", "20201301", "20200100"]))
    elif fault == "order":  # a repeated date, or one before its predecessor's
        dates[i] = dates[draw(st.integers(0, n_rows - 1).filter(lambda j: j != i))]
    else:
        bad = ["abc", "", "0x1p3", "1..0"] if fault == "number" else ["inf", "-inf", "nan",
                                                                      "1e400", "NaN"]
        cells[i][draw(st.integers(0, len(cells[i]) - 1))] = draw(st.sampled_from(bad))
    lines = [",".join([d, *c]) for d, c in zip(dates, cells)]
    numbered = list(enumerate(lines, start=2))
    if fmt == "simple_csv":
        return fmt, "\n".join(["date," + ",".join("abc"[:n_cols])] + lines), numbered, n_cols + 1
    # ff_daily reads its block up to the first line whose first field, stripped,
    # is blank or starts with no digit, as wide as its first line
    numbered = list(takewhile(lambda n: n[1].split(",")[0].strip()[:1].isdigit(), numbered))
    text = "\n".join(["," + ",".join("abc"[:n_cols])] + lines)
    return fmt, text, numbered, len(lines[0].split(","))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_faulty_panel())
def test_load_returns_names_the_faulty_line_as_the_per_line_loop_does(case):
    fmt, text, numbered, width = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "faulty.csv"
        path.write_text(text + "\n")
        try:
            rows, dates = _parse_lines(numbered, width, True)
        except DataError as exc:
            with pytest.raises(ValueError) as got:
                load_returns(path, fmt)
            assert type(got.value) is DataError  # a bare ValueError would exit 3
            assert str(got.value) == str(exc)
        else:  # a fault that ends an ff_daily block early
            panel = load_returns(path, fmt)
            assert fmt == "ff_daily" and panel.dates.tolist() == dates
            assert np.array_equal(panel.values, np.array(rows) / 100)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x,y\n0.01,inf\n0.02\n", "line 2: cell 'inf' is not a finite number"),
        ("x,y\n0.01,0.02\nnan,zzz\n", "line 3: cell 'nan' is not a finite number"),
        ("x,y\n0.01,0.02\n0.1, zzz\n", "line 3: cannot parse 'zzz' as a number"),
        ("x,y\n 1e400 ,0.02\n", "line 2: cell '1e400' is not a finite number"),
        ("date,x\n20200101,-inf\n2020,0.1\n", "line 2: cell '-inf' is not"),
        ("date,x\n20200101,0.1\n 2020 ,0.1\n", "line 3: bad date '2020', expected"),
    ],
)
def test_simple_csv_names_the_first_bad_cell(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError) as exc:
        load_returns(path, "simple_csv")
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        ("simple_csv", "x\n\n0.01\n\n0.02\nzzz\n", "line 6: cannot parse 'zzz' as a number"),
        ("simple_csv", "date,a\n\n20200101,0.01\n\n2020-01-02,0.02\n",
         "line 5: bad date '2020-01-02', expected YYYYMMDD"),
        ("simple_csv", "\n \n1.5,2.5\n0.01,0.02\n", "line 3: a header row is required"),
        ("simple_csv", "x,y\n \n0.01,0.02\n\n0.03\n", "line 5: expected 2 fields, found 1"),
        ("simple_csv", "x,y\r\n\r\n0.01,inf\r\n", "line 3: cell 'inf' is not a finite number"),
        ("ff_daily", "Returns\n\n,A,B\n20200101,1.0,2.0\n20200102,1.0, zzz\n",
         "line 5: cannot parse 'zzz' as a number"),
        ("ff_daily", "Returns\n\n,A,B\n20200101,1.0,2.0\n20200102,1.0\n",
         "line 5: expected 3 fields, found 2"),
        ("ff_daily", "Returns\r\n\r\n,A\r\n20200101,-inf\r\n",
         "line 4: cell '-inf' is not a finite number"),
        # a first field that starts with a digit keeps a line in the block
        ("ff_daily", ",a\n20200101,1.0\n20200102,1.0\n2020-01-03,1.0\n20200106,1.0\n",
         "line 4: bad date '2020-01-03', expected YYYYMMDD"),
        # ... on the first data row too, which is then no header
        ("ff_daily", ",a\n2020-01-01,1.0\n20200102,1.0\n20200103,2.0\n",
         "line 2: bad date '2020-01-01', expected YYYYMMDD"),
    ],
    ids=["cell", "date", "header", "ragged", "crlf", "ff-cell", "ff-ragged", "ff-crlf", "ff-date",
         "ff-first-date"],
)
def test_simple_csv_numbers_physical_lines(tmp_path, fmt, text, message):
    # blank lines are skipped, but still counted
    path = tmp_path / "gappy.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataError) as exc:
        load_returns(path, fmt)
    assert str(exc.value).startswith(message)


def test_simple_csv_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffdate,a\n20200101,0.01\n20200102,0.02\n".encode())
    panel = load_returns(path, "simple_csv")
    assert panel.names == ("a",)
    assert np.array_equal(panel.dates, [20200101, 20200102])
    assert np.array_equal(panel.values, [[0.01], [0.02]])


def test_ff_daily_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    text = "\ufeff20200101,1.0,2.0\n20200102,0.5,0.5\n20200103,-1.0,0.0\n"
    path.write_bytes(text.encode())
    panel = load_returns(path, "ff_daily")
    assert panel.names == ("col1", "col2")
    assert np.array_equal(panel.dates, [20200101, 20200102, 20200103])
    assert np.array_equal(panel.values, [[0.01, 0.02], [0.005, 0.005], [-0.01, 0.0]])


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        ("simple_csv", "a,a\n0.01,0.02\n", "line 1: column name 'a' is repeated"),
        ("simple_csv", "\ndate,b,a,b\n20200101,1,2,3\n", "line 2: column name 'b'"),
        ("ff_daily", "Returns\n,A,A\n20200101,1.0,2.0\n", "line 2: column name 'A'"),
        ("ff_daily", ",col2,\n20200101,1.0,2.0\n", "line 1: column name 'col2'"),
    ],
)
def test_repeated_column_name_is_a_data_error(tmp_path, fmt, text, message):
    path = tmp_path / "repeated.csv"
    path.write_text(text)
    with pytest.raises(DataError) as exc:
        load_returns(path, fmt)
    assert str(exc.value).startswith(message)


def test_unknown_format_is_a_config_error(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x\n0.01\n")
    with pytest.raises(ValueError, match="unknown format"):
        load_returns(path, "parquet")


def test_format_table_lists_every_format_load_returns_reads(tmp_path):
    assert FORMATS == ("ff_daily", "simple_csv")
    path = tmp_path / "x.csv"
    path.write_text("date,a\n20200101,1.0\n20200102,-2.0\n")
    # ff_daily reads percent, simple_csv decimals
    assert [load_returns(path, f).values.ravel().tolist() for f in FORMATS] == [
        [0.01, -0.02], [1.0, -2.0]
    ]


def test_filter_dates_inclusive(tmp_path):
    path = tmp_path / "dated.csv"
    path.write_text(
        "date,x\n20200101,0.01\n20200102,0.02\n20200103,0.03\n20200104,0.04\n"
    )
    panel = load_returns(path, "simple_csv")
    cut = filter_dates(panel, start=20200102, end=20200103)
    assert np.array_equal(cut.dates, [20200102, 20200103])
    with pytest.raises(ValueError, match="removes every row"):
        filter_dates(panel, start=20300101)
    undated = ReturnPanel(("x",), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="no dates"):
        filter_dates(undated, start=20200101)


@pytest.mark.parametrize(
    "start, end, message",
    [
        (20201399, None, "start 20201399 is not a calendar date, YYYYMMDD"),
        (None, 20210229, "end 20210229 is not a calendar date, YYYYMMDD"),
        (-20200101, None, "start -20200101 is not a calendar date"),
        (None, 10**30, f"end {10**30} is not a calendar date"),
        (20200103, 20200102, "start 20200103 is after end 20200102"),
    ],
)
def test_filter_dates_requires_calendar_bounds_in_order(start, end, message):
    dated = ReturnPanel(("x",), np.zeros((2, 1)), dates=[20200101, 20200102])
    undated = ReturnPanel(("x",), np.zeros((2, 1)))
    for panel in (dated, undated):  # the bounds are checked first
        with pytest.raises(ValueError) as exc:
            filter_dates(panel, start=start, end=end)
        assert str(exc.value).startswith(message)
    assert filter_dates(dated, 20200102, 20200102).dates.tolist() == [20200102]


def test_blank_header_names_are_named_by_position_in_both_formats(tmp_path):
    path = tmp_path / "blank.csv"
    for fmt, head in (("simple_csv", "a, ,b,"), ("simple_csv", "date,a,,b, "),
                      ("ff_daily", ",a,,b,")):
        dated = head.startswith(("date", ","))
        path.write_text(f"{head}\n" + "20200101," * dated + "1,2,3,4\n")
        panel = load_returns(path, fmt)
        assert panel.names == ("a", "col2", "b", "col4")
        assert [s.label for s in split_samples(panel, 1)][1] == "col2[0:1]"


def _old_filter_mask(dates, start, end):
    """The mask of ``filter_dates`` with its bounds applied one at a time."""
    keep = np.ones(dates.size, dtype=bool)
    if start is not None:
        keep &= dates >= start
    if end is not None:
        keep &= dates <= end
    return keep


def test_filter_dates_equals_the_mask_of_each_bound_in_turn():
    rng = np.random.default_rng(21)
    days = _calendar_days("2019-12-01", 120)
    panel = ReturnPanel(("x",), rng.standard_normal((120, 1)), dates=days)
    bounds = [None, *_calendar_days("2019-11-20", 150)]
    for _ in range(300):
        start, end = (bounds[k] for k in rng.integers(len(bounds), size=2))
        keep = _old_filter_mask(panel.dates, start, end)
        if start is not None and end is not None and start > end:
            with pytest.raises(ValueError, match="is after end"):
                filter_dates(panel, start, end)
        elif not keep.any():
            with pytest.raises(ValueError, match="removes every row"):
                filter_dates(panel, start, end)
        else:
            cut = filter_dates(panel, start, end)
            assert cut.dates.tolist() == panel.dates[keep].tolist()
            assert np.array_equal(cut.values, panel.values[keep])
    # every date of the calendar's range passes an absent bound
    edges = ReturnPanel(("x",), np.zeros((2, 1)), dates=[10101, 99991231])
    assert filter_dates(edges, start=10101).n_rows == filter_dates(edges, end=99991231).n_rows == 2


def test_constructors_own_a_copy_of_the_callers_arrays():
    values, dates = np.zeros((3, 1)), np.array([20200101, 20200102, 20200103])
    panel = ReturnPanel(("a",), values, dates=dates)
    counts = np.eye(3, dtype=np.int64)
    matrix = ConfusionMatrix(counts)
    secured = np.array([0.1, -0.2, 0.3])
    sample = SecuredSample(secured)
    for caller, owned in ((values, panel.values), (dates, panel.dates), (counts, matrix.counts),
                          (secured, sample.values)):
        assert not np.shares_memory(caller, owned)
        assert caller.flags.writeable and not owned.flags.writeable
        before = owned.copy()
        caller[0] = 7
        assert np.array_equal(owned, before)


def test_return_panel_validation():
    with pytest.raises(ValueError, match="finite"):
        ReturnPanel(("x",), np.array([[np.nan]]))
    with pytest.raises(ValueError, match="one name"):
        ReturnPanel(("x",), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# sample splitting
# ---------------------------------------------------------------------------


def _panel(rows: int, cols: int) -> ReturnPanel:
    rng = np.random.default_rng(rows * 31 + cols)
    names = tuple(f"c{i}" for i in range(cols))
    return ReturnPanel(names, rng.standard_normal((rows, cols)) * 0.01)


def test_split_counts():
    assert len(split_samples(_panel(2500, 25), 500)) == 125
    assert len(split_samples(_panel(500, 1), 500)) == 1
    assert len(split_samples(_panel(999, 1), 500)) == 1
    assert len(split_samples(_panel(2500, 2), 500)) == 10


def test_split_is_column_major_and_disjoint():
    panel = _panel(1000, 2)
    samples = split_samples(panel, 500)
    assert [s.label for s in samples] == [
        "c0[0:500]",
        "c0[500:1000]",
        "c1[0:500]",
        "c1[500:1000]",
    ]
    assert np.array_equal(samples[1].values, panel.values[500:, 0])


def test_split_window_exceeding_rows_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        split_samples(_panel(400, 1), 500)
    with pytest.raises(ValueError, match="positive"):
        split_samples(_panel(400, 1), 0)


# ---------------------------------------------------------------------------
# rolling backtests
# ---------------------------------------------------------------------------


def test_rolling_reserves_follow_the_learning_window():
    # strictly increasing data: the historical reserve is a known index pull
    x = np.arange(500, dtype=float)
    reserve = _reserves(x, 250, 250, [("var_hist", 0.025)])["var_hist", 0.025]
    k = math.floor(250 * 0.025)  # 7th smallest of each window
    expected = -(np.arange(250, dtype=float) + k)
    assert np.array_equal(reserve, expected)


def _reserve_loop(x, learn, test, estimator, alpha):
    """Per-window reference: one scalar estimator call per test day."""
    out = np.empty(test)
    for i in range(test):
        window = x[i : i + learn]
        if estimator == "var_hist":
            out[i] = var_empirical(window, alpha)
        elif estimator == "es_hist":
            out[i] = es_empirical(window, alpha)
        elif estimator == "var_norm":
            out[i] = var_normal(moments(window), alpha)
        elif estimator == "es_norm":
            out[i] = es_normal(moments(window), alpha)
        else:
            raise ValueError(f"unknown estimator {estimator!r}")
    return out


def _pair_set(name, learn, alpha):
    """(estimator, level) pairs for one reserve call: one estimator at alpha, or
    a named set whose levels share a tail index with alpha or do not."""
    if "@" not in name:
        return [(name, alpha)]
    k = math.floor(learn * alpha)
    same = (k + 0.75) / learn  # another level at alpha's tail index
    assert same != alpha and math.floor(learn * same) == k
    half = alpha / 2  # a lower tail index, except where learn * alpha < 2
    return {
        "hist@shared-index": [("var_hist", alpha), ("es_hist", same),
                              ("es_hist", alpha), ("var_hist", same)],
        "hist@distinct-index": [("var_hist", half), ("es_hist", alpha),
                                ("var_hist", alpha), ("es_hist", half)],
        "both@two-levels": [("var_norm", half), ("es_hist", alpha), ("es_norm", alpha),
                            ("var_hist", half), ("var_norm", alpha), ("es_hist", alpha)],
    }[name]


def _check_reserves(x, learn, test, pairs):
    """_reserves against the per-window loop, pair by pair, zeros by sign."""
    got = _reserves(x, learn, test, pairs)
    assert list(got) == list(dict.fromkeys(pairs))  # computed in pairs order
    for (estimator, alpha), reserve in got.items():
        expected = _reserve_loop(x, learn, test, estimator, alpha)
        assert np.array_equal(reserve, expected)
        assert np.array_equal(reserve.view(np.int64), expected.view(np.int64))  # -0.0 != 0.0
    return got


@pytest.mark.parametrize(
    "estimator",
    ["var_hist", "var_norm", "es_hist", "es_norm",
     "hist@shared-index", "hist@distinct-index", "both@two-levels"],
)
@pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05, 0.3, 0.6])
# es_hist tails reach 91 (300 at 0.3) and 601 (1000 at 0.6) elements: past
# the 8-accumulator and recursive-split thresholds of numpy's pairwise sum
@pytest.mark.parametrize(
    "learn,test", [(250, 250), (100, 37), (2, 50), (300, 40), (1000, 20)]
)
@pytest.mark.parametrize("tied", [False, True])
def test_reserve_kernels_match_per_window_loop(estimator, alpha, learn, test, tied):
    rng = np.random.default_rng(59)
    x = rng.standard_t(4, learn + test) * 0.01
    if tied:
        x = np.round(x, 3)  # ties at the tail boundary widen the ES average
    _check_reserves(x, learn, test, _pair_set(estimator, learn, alpha))


def test_es_hist_kernel_keeps_the_sign_of_zero():
    # windows of signed zeros, then of returns; numpy sums from +0.0, so a
    # zero tail averages to +0.0 and its reserve is -0.0 in both forms
    rng = np.random.default_rng(65)
    x = np.concatenate([np.where(rng.random(30) < 0.5, 0.0, -0.0),
                        rng.standard_normal(30) * 0.01])
    for alpha in (0.025, 0.3, 0.6):
        expected = _reserve_loop(x, 20, 40, "es_hist", alpha)
        assert (expected == 0).sum() >= 10
        got = _reserves(x, 20, 40, [("es_hist", alpha)])["es_hist", alpha]
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # 300-day windows of signed zeros: each VAR boundary is the zero that a
    # 1-D partition returns (a row sort returns the other one on some of
    # these windows), shared by the VAR and ES series at one tail index
    signed = np.where(rng.random(340) < 0.5, 0.0, -0.0)
    for pairs in ([("var_hist", 0.025), ("es_hist", 0.025), ("var_hist", 0.0251)],
                  [("es_hist", 0.3), ("var_hist", 0.01), ("var_hist", 0.3)]):
        got = _check_reserves(signed, 300, 40, pairs)
        var = got["var_hist", pairs[-1][1]]
        assert (var == 0).all() and 0 < np.signbit(var).sum() < var.size


_LOW_TAIL_LEVELS = st.one_of(st.sampled_from([0.01, 0.025, 0.05, 0.1, 0.3, 0.6]),
                            st.floats(0.001, 0.999))


@st.composite
def _reserve_case(draw):
    """(x, learn, test, pairs): t4 returns with ties, crashes, runs of signed
    zeros or a volatility regime switch, and a set of (estimator, level) pairs."""
    learn, test = draw(st.integers(2, 90)), draw(st.integers(1, 60))
    n = learn + test
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_t(4, n) * 0.01
    if draw(st.booleans()):
        x = np.round(x, draw(st.sampled_from([2, 3])))  # ties at the boundary
    for _ in range(draw(st.integers(0, 2))):
        x[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-0.4, -50.0, 0.4]))
    if draw(st.booleans()):  # a run of signed zeros
        i, length = draw(st.integers(0, n - 1)), draw(st.integers(1, 40))
        zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=length, max_size=length))
        x[i : i + length] = zeros[: n - i]
    if draw(st.booleans()):  # the volatility steps up or down by 50
        x[draw(st.integers(0, n - 1)):] *= draw(st.sampled_from([50.0, 0.02]))
    levels = draw(st.lists(_LOW_TAIL_LEVELS, min_size=1, max_size=3))
    pairs = st.tuples(st.sampled_from(ESTIMATORS), st.sampled_from(levels))
    return x, learn, test, draw(st.lists(pairs, min_size=1, max_size=5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_reserve_case())
def test_reserves_equal_the_per_window_loop_bit_for_bit(case):
    _check_reserves(*case)


def _low_tail_of(x, learn, test, k):
    windows = sliding_window_view(x[: learn + test - 1], learn)
    return windows, _low_tail(x[: learn + test - 1], windows, k)


def test_low_tail_rows_hold_each_window_values_up_to_the_bound():
    x = np.random.default_rng(66).standard_t(4, 500) * 0.01
    x[300] = -0.4  # a crash widens no row past the bound
    windows, rows = _low_tail_of(x, 250, 250, 6)
    assert rows is not windows and rows.shape[0] == 250 and rows.shape[1] <= 125
    bound = rows[np.isfinite(rows)].max()
    for window, row in zip(windows, rows):
        kept = row[np.isfinite(row)]
        assert np.array_equal(kept, window[window <= bound])  # in time order
        assert (row[kept.size :] == np.inf).all() and kept.size >= 7
    _check_reserves(x, 250, 250, _pair_set("hist@distinct-index", 250, 0.025))


def test_low_tail_falls_back_to_the_full_windows():
    rng = np.random.default_rng(67)
    x = rng.standard_t(4, 500) * 0.01
    # a block of learn // 2 = 125 values has no k-th smallest at k = 150
    windows, rows = _low_tail_of(x, 250, 250, 150)
    assert rows is windows
    _check_reserves(x, 250, 250, [("var_hist", 0.6), ("es_hist", 0.01)])
    # a regime switch: tau comes from a calm block, so the rows of the volatile
    # windows would hold more values than a block
    switched = x.copy()
    switched[250:] *= 50
    windows, rows = _low_tail_of(switched, 250, 250, 6)
    assert rows is windows
    _check_reserves(switched, 250, 250, [("var_hist", 0.025), ("es_hist", 0.025)])
    # a zero of either sign in the view: its sign is the 1-D partition's choice
    positive = np.abs(x) + 0.001
    windows, rows = _low_tail_of(positive, 250, 250, 6)
    assert rows is not windows
    for zero in (0.0, -0.0):
        zeroed = positive.copy()
        zeroed[[40, 90, 200, 260, 320, 330, 400, 410]] = [zero, -zero] * 4
        windows, rows = _low_tail_of(zeroed, 250, 250, 6)
        assert rows is windows
        got = _check_reserves(zeroed, 250, 250, [("var_hist", 0.01), ("es_hist", 0.01)])
        assert (got["var_hist", 0.01] == 0).any()


def test_rolling_rejects_non_finite_samples():
    x = np.random.default_rng(60).standard_normal(500) * 0.01
    for bad in (np.nan, np.inf):
        x[100] = bad
        for estimator in ESTIMATORS:
            with pytest.raises(ValueError, match="non-finite value .* at index 100"):
                rolling_backtest(x, RollingConfig(estimator))
        for family in ("hist", "norm"):
            with pytest.raises(ValueError, match="non-finite value .* at index 100"):
                compare_backtest(x, family)


def _huge_sample(scale):
    x = np.random.default_rng(61).standard_normal(500) * scale
    return Sample("a", 0, x)


@pytest.mark.parametrize("estimator", ["var_norm", "es_norm"])
def test_overflowing_reserve_names_the_sample_and_estimator(estimator):
    # the squared deviations of a finite 1e298 sample overflow the normal sd
    cfg = RollingConfig(estimator)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            run_batch([_huge_sample(1e298)], cfg)
        assert str(exc.value) == (
            f"a[0:500]: {estimator} reserve at level {cfg.resolved_alpha} "
            "overflows on day 0"
        )
        with pytest.raises(ValueError, match=r"^a\[0:500\]: var_norm reserve"):
            run_compare_batch([_huge_sample(1e298)], family="norm")
        # unlabelled values raise the same fault without the label
        with pytest.raises(ValueError, match=f"^{estimator} reserve at level"):
            rolling_backtest(_huge_sample(1e298).values, cfg)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_batch_names_the_first_of_two_failing_samples(workers):
    samples = [Sample(name, 0, _huge_sample(1e298).values) for name in ("a", "b")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^a\[0:500\]: var_norm reserve"):
            run_batch(samples, RollingConfig("var_norm"), workers=workers)


@pytest.mark.parametrize("error", [DataError("bad"), FitError("bad", {"nll": 1.0}, {})])
def test_sample_run_labels_the_error_object_that_its_call_raises(error):
    def fail(values, *args):
        assert values.tolist() == [0.0] * 4 and args == (1, 2)
        raise error

    with pytest.raises(type(error)) as info:
        Sample("a", 3, np.zeros(4)).run(fail, 1, 2)
    assert info.value is error and error.args == ("a[3:7]: bad",)
    assert traceback.extract_tb(error.__traceback__)[-1].name == "fail"


def test_sample_run_passes_other_errors_unlabelled():
    error = TypeError("bad")

    def fail(values):
        raise error

    with pytest.raises(TypeError) as info:
        Sample("a", 0, np.zeros(4)).run(fail)
    assert info.value is error and error.args == ("bad",)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_sample_is_labelled_once_and_keeps_its_innermost_frame(workers):
    # every grading path labels through Sample.run, which re-raises the
    # reserve's own ValueError: its class and traceback reach the caller
    sample = _huge_sample(1e298)
    samples = [Sample(name, 0, sample.values) for name in ("a", "b", "c")]
    cfg = RollingConfig("var_norm")
    calls = [
        lambda: rolling_backtest(sample, cfg),
        lambda: compare_backtest(sample, "norm"),
        lambda: run_batch(samples, cfg, workers=workers),
        lambda: run_compare_batch(samples, workers=workers, family="norm"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError
            assert str(info.value) == (
                "a[0:500]: var_norm reserve at level 0.01 overflows on day 0"
            )
            assert traceback.extract_tb(info.value.__traceback__)[-1].name == "_reserves"


def test_overflowing_partial_sums_are_rejected_without_a_warning():
    # three -8e307 crashes end a sample of returns: the historical reserves
    # stay finite and the negative sorted sums overflow to -inf. A 1e307
    # sample overflows only past the negative prefix, to +inf, and G counts.
    crashed = _huge_sample(0.01).values.copy()
    crashed[-3:] = -8e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimator in ("var_hist", "es_hist"):
            with pytest.raises(ValueError, match=r"^a\[0:500\]: partial sums"):
                run_batch([Sample("a", 0, crashed)], RollingConfig(estimator))
            assert run_batch([_huge_sample(1e307)], RollingConfig(estimator))
        assert run_batch([_huge_sample(1e298)], RollingConfig("es_hist"))


def test_rolling_constant_series_is_fully_covered():
    for estimator in ("var_norm", "es_norm", "var_hist", "es_hist"):
        cfg = RollingConfig(estimator=estimator)
        result = rolling_backtest(np.full(500, 3.0), cfg)
        assert result.nominal_t == 0
        assert result.nominal_g == 0
        assert result.zone_var == "green"
        assert result.zone_es == "green"
        assert result.z is None and result.zone_z is None


def test_rolling_detects_realized_day_alignment():
    # learning data constant 1.0 -> reserve -1.0; breaches only where the
    # realized value sits below 1.0, including both window endpoints
    x = np.concatenate([np.full(250, 1.0), np.full(250, 2.0)])
    x[250] = 0.5
    x[499] = 0.5
    cfg = RollingConfig(estimator="var_hist", alpha=0.01, learn=250, test=250)
    assert rolling_backtest(x, cfg).nominal_t == 2


def test_rolling_matches_step_by_step_oracle():
    rng = np.random.default_rng(55)
    x = rng.standard_normal(500) * 0.01
    x[300:303] = -0.08  # planted three-day crash in the test window

    # hand trace with plain python lists
    alpha = 0.025
    k = math.floor(250 * alpha)
    y = []
    for i in range(250):
        window = [float(v) for v in x[i : i + 250]]
        boundary = sorted(window)[k]
        tail = [v for v in window if v <= boundary]
        reserve = -sum(tail) / len(tail)
        y.append(float(x[250 + i]) + reserve)
    nt = sum(1 for v in y if v < 0)
    sorted_cumsum = np.cumsum(sorted(y))
    ng = int((sorted_cumsum < 0).sum())

    cfg = RollingConfig(estimator="es_hist", alpha=alpha)
    result = rolling_backtest(x, cfg)
    assert result.nominal_t == nt
    assert result.nominal_g == ng


def test_rolling_normalization_keeps_exception_count():
    rng = np.random.default_rng(56)
    x = rng.standard_normal(500) * 0.01
    raw = rolling_backtest(x, RollingConfig(estimator="es_hist"))
    norm = rolling_backtest(x, RollingConfig(estimator="es_hist", normalize=True))
    assert norm.normalized
    assert raw.nominal_t == norm.nominal_t


def test_rolling_rejects_wrong_length_and_bad_config():
    with pytest.raises(ValueError, match="needs 500"):
        rolling_backtest(np.zeros(400), RollingConfig(estimator="var_hist"))
    with pytest.raises(ValueError, match="estimator"):
        RollingConfig(estimator="var-hist")
    with pytest.raises(ValueError, match="alpha"):
        RollingConfig(estimator="var_hist", alpha=1.5)
    for alpha in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"^alpha must lie strictly inside \(0, 1\)"):
            RollingConfig(estimator="var_hist", alpha=alpha)


def test_defaults_read_the_calibration_point_and_the_learning_window():
    cfg = RollingConfig(estimator="var_hist")
    assert (LEARN, cfg.learn, cfg.test, cfg.window) == (250, 250, 250, 500)
    assert cfg.test == CALIBRATION.n
    defaults = {
        name: p.default for name, p in inspect.signature(compare_backtest).parameters.items()
    }
    assert (defaults["learn"], defaults["test"]) == (LEARN, CALIBRATION.n)
    assert (defaults["alpha_var"], defaults["alpha_es"]) == CALIBRATION[1:]
    window = inspect.signature(split_samples).parameters["window"].default
    assert window == LEARN + CALIBRATION.n == 500


def test_rolling_default_levels_follow_the_estimator_family():
    assert RollingConfig(estimator="var_hist").resolved_alpha == 0.01
    assert RollingConfig(estimator="es_norm").resolved_alpha == 0.025
    assert RollingConfig(estimator="es_norm", alpha=0.05).resolved_alpha == 0.05


@pytest.mark.parametrize(
    "batch",
    [
        lambda samples, workers: run_batch(
            samples, RollingConfig(estimator="var_hist"), workers=workers
        ),
        lambda samples, workers: run_compare_batch(
            samples, workers=workers, family="norm", alpha_z=0.05, normalize=True
        ),
    ],
    ids=["rolling", "compare"],
)
def test_run_batch_is_order_preserving_and_worker_independent(batch):
    panel = _panel(1000, 2)
    samples = split_samples(panel, 500)
    serial = batch(samples, 1)
    parallel = batch(samples, 2)
    assert serial == parallel
    assert [r.nominal_g for r in serial] == [
        batch([s], 1)[0].nominal_g for s in samples
    ]


def test_compare_backtest_produces_all_three_verdicts():
    rng = np.random.default_rng(57)
    x = rng.standard_normal(500) * 0.01
    result = compare_backtest(x, "hist")
    assert result.estimator == "hist"
    assert result.alpha == {"var": 0.01, "es": 0.025, "z": 0.025}
    assert result.z is not None
    assert result.zone_z in ("green", "yellow", "red")
    with pytest.raises(ValueError, match="family"):
        compare_backtest(x, "var_hist")


@pytest.mark.parametrize("level", ["alpha_var", "alpha_es", "alpha_z"])
@pytest.mark.parametrize("value", [1.5, 0.0, -0.1, math.nan])
def test_compare_backtest_rejects_each_level_outside_the_unit_interval(level, value):
    # alpha_var and alpha_z used to reach np.partition: "kth(=375) out of bounds"
    x = np.random.default_rng(59).standard_normal(500) * 0.01
    with pytest.raises(ValueError, match=r"level must lie strictly inside \(0, 1\)"):
        compare_backtest(x, "hist", **{level: value})


def test_compare_backtest_z_reserves_can_use_their_own_level():
    rng = np.random.default_rng(58)
    x = rng.standard_normal(500) * 0.01
    a = compare_backtest(x, "hist", alpha_z=0.025)
    b = compare_backtest(x, "hist", alpha_z=0.05)
    assert a.alpha["z"] == 0.025 and b.alpha["z"] == 0.05
    assert a.nominal_t == b.nominal_t  # exception series untouched by alpha_z


# ---------------------------------------------------------------------------
# confusion and heatmap summaries
# ---------------------------------------------------------------------------


def _compare_loop(x, family, learn, test, alpha_var, alpha_es, alpha_z, normalize):
    """Per-window reference for compare_backtest: (nominal_t, nominal_g, z)."""
    realized = [float(v) for v in x[learn:]]

    def reserves(kind, alpha):
        return _reserve_loop(x, learn, test, f"{kind}_{family}", alpha).tolist()

    def secured(reserve):
        if normalize:
            return [r / c + 1.0 for r, c in zip(realized, reserve)]
        return [r + c for r, c in zip(realized, reserve)]

    nt = sum(1 for v in secured(reserves("var", alpha_var)) if v < 0)
    ng = int((np.cumsum(sorted(secured(reserves("es", alpha_es)))) < 0).sum())
    var_z, es_z = reserves("var", alpha_z), reserves("es", alpha_z)
    tail = [r / (alpha_z * e) for r, v, e in zip(realized, var_z, es_z) if r + v < 0]
    return nt, ng, -(sum(tail) / test + 1.0)


@pytest.mark.parametrize("family", ["hist", "norm"])
@pytest.mark.parametrize("alpha_z", [None, 0.05])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("learn,test", [(250, 250), (100, 37)])
def test_compare_backtest_matches_per_window_loop(
    family, alpha_z, normalize, learn, test
):
    rng = np.random.default_rng(61)
    x = rng.standard_t(4, learn + test) * 0.01
    x[learn + 5 : learn + 8] = -0.08  # planted crash in the test window
    result = compare_backtest(
        x, family, learn=learn, test=test, alpha_z=alpha_z, normalize=normalize
    )
    level_z = 0.025 if alpha_z is None else alpha_z
    nt, ng, z = _compare_loop(x, family, learn, test, 0.01, 0.025, level_z, normalize)
    assert (result.nominal_t, result.nominal_g) == (nt, ng)
    assert nt >= 1 and ng >= nt  # the planted crash is breached
    assert result.z == pytest.approx(z, rel=1e-12)
    assert result.alpha == {"var": 0.01, "es": 0.025, "z": level_z}


def test_confusion_orientation_and_trace():
    cm = confusion(
        ["green", "yellow", "green", "red"],
        ["red", "green", "green", "red"],
    )
    # rows are ES zones, columns VAR zones
    assert cm.counts[2, 0] == 1  # ES red, VAR green
    assert cm.counts[0, 1] == 1  # ES green, VAR yellow
    assert cm.counts[0, 0] == 1
    assert cm.counts[2, 2] == 1
    assert cm.total == 4
    assert cm.trace_ratio == pytest.approx(0.5)


def test_confusion_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        confusion(["green"], [])
    assert math.isnan(confusion([], []).trace_ratio)
    with pytest.raises(ValueError):
        ConfusionMatrix(np.zeros((2, 2), dtype=int))


def _result(nt: int, ng: int) -> BacktestResult:
    return BacktestResult(
        n=250,
        alpha=0.025,
        estimator="es_hist",
        normalized=False,
        nominal_t=nt,
        nominal_g=ng,
    )


def test_heatmap_caps_and_aggregation():
    rows = heatmap_table([_result(22, 40), _result(3, 35), _result(3, 35)])
    assert rows == [(3, 35, 2), (15, 35, 1)]
    assert heatmap_table([]) == []


def test_heatmap_caps_are_module_constants():
    # the caps were parameters that no caller set
    assert list(inspect.signature(heatmap_table).parameters) == ["results"]
    with pytest.raises(TypeError):
        heatmap_table([_result(22, 40)], cap_t=20)


def test_heatmap_csv_format(tmp_path):
    path = tmp_path / "heat.csv"
    write_heatmap_csv([(3, 35, 2), (15, 35, 1)], path)
    assert path.read_text() == "nt_capped,ng_capped,count\n3,35,2\n15,35,1\n"
