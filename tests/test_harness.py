"""Ingestion, rolling-window backtests, confusion matrices, heatmap tables."""

import math

import numpy as np
import pytest

from esbacktest.backtest import BacktestResult
from esbacktest.estimators import (
    es_empirical,
    es_normal,
    moments,
    var_empirical,
    var_normal,
)
from esbacktest.harness import (
    ESTIMATORS,
    ConfusionMatrix,
    DataError,
    ReturnPanel,
    RollingConfig,
    compare_backtest,
    confusion,
    filter_dates,
    heatmap_table,
    load_returns,
    rolling_backtest,
    run_batch,
    split_samples,
    write_heatmap_csv,
    _reserve_series,
)

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
    assert np.allclose(panel.column("Port A"), [0.0125, 0.0010, 0.0000])
    assert np.allclose(panel.column("Port B"), [-0.0050, 0.0020, 0.0100])


def test_ff_daily_without_header_names_columns(tmp_path):
    path = tmp_path / "ff.csv"
    path.write_text("20050103,1.0,2.0\n20050104,0.5,0.5\n")
    panel = load_returns(path, "ff_daily")
    assert panel.names == ("col1", "col2")
    assert panel.n_rows == 2


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


def test_unknown_format_is_a_config_error(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x\n0.01\n")
    with pytest.raises(ValueError, match="unknown format"):
        load_returns(path, "parquet")


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
    reserve = _reserve_series(x, 250, 250, "var_hist", 0.025)
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


@pytest.mark.parametrize("estimator", ["var_hist", "var_norm", "es_hist", "es_norm"])
@pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05])
@pytest.mark.parametrize("learn,test", [(250, 250), (100, 37), (2, 50)])
@pytest.mark.parametrize("tied", [False, True])
def test_reserve_kernels_match_per_window_loop(estimator, alpha, learn, test, tied):
    rng = np.random.default_rng(59)
    x = rng.standard_t(4, learn + test) * 0.01
    if tied:
        x = np.round(x, 3)  # ties at the tail boundary widen the ES average
    expected = _reserve_loop(x, learn, test, estimator, alpha)
    assert np.array_equal(_reserve_series(x, learn, test, estimator, alpha), expected)


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


def test_rolling_default_levels_follow_the_estimator_family():
    assert RollingConfig(estimator="var_hist").resolved_alpha == 0.01
    assert RollingConfig(estimator="es_norm").resolved_alpha == 0.025
    assert RollingConfig(estimator="es_norm", alpha=0.05).resolved_alpha == 0.05


def test_run_batch_is_order_preserving_and_worker_independent():
    panel = _panel(1000, 2)
    samples = split_samples(panel, 500)
    cfg = RollingConfig(estimator="var_hist")
    serial = run_batch(samples, cfg, workers=1)
    parallel = run_batch(samples, cfg, workers=2)
    assert serial == parallel


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
        zone_var="green",
        zone_es="green",
    )


def test_heatmap_caps_and_aggregation():
    rows = heatmap_table([_result(22, 40), _result(3, 35), _result(3, 35)])
    assert rows == [(3, 35, 2), (15, 35, 1)]
    assert heatmap_table([]) == []


def test_heatmap_csv_format(tmp_path):
    path = tmp_path / "heat.csv"
    write_heatmap_csv([(3, 35, 2), (15, 35, 1)], path)
    assert path.read_text() == "nt_capped,ng_capped,count\n3,35,2\n15,35,1\n"
