"""Command-line behaviour: exit codes, file outputs, reproducibility."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esbacktest import cli, harness, simulation
from esbacktest.backtest import CALIBRATION, ES_THRESHOLDS, VAR_THRESHOLDS
from esbacktest.cli import main
from esbacktest.dist import PRESETS


@pytest.fixture
def panel_csv(tmp_path):
    rng = np.random.default_rng(60)
    path = tmp_path / "panel.csv"
    data = rng.standard_normal((500, 2)) * 0.01
    lines = ["a,b"] + [f"{x:.8f},{y:.8f}" for x, y in data]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_backtest_command_writes_report_and_heatmap(tmp_path, panel_csv, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "backtest",
            "--input",
            str(panel_csv),
            "--estimator",
            "es-hist",
            "--alpha",
            "0.025",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["results"]) == 2
    assert report["config"]["estimator"] == "es_hist"
    for r in report["results"]:
        assert set(r) == {
            "n",
            "alpha",
            "estimator",
            "normalized",
            "nominal_t",
            "nominal_g",
            "z",
            "zone_var",
            "zone_es",
            "zone_z",
        }
        assert r["z"] is None
    assert "confusion" in report["summary"]
    heatmap = (tmp_path / "report.json.heatmap.csv").read_text().splitlines()
    assert heatmap[0] == "nt_capped,ng_capped,count"
    assert "backtested 2 samples" in capsys.readouterr().out


def test_backtest_missing_file_exits_2(tmp_path, capsys):
    code = main(
        [
            "backtest",
            "--input",
            str(tmp_path / "absent.csv"),
            "--estimator",
            "var-hist",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_backtest_non_finite_cell_exits_2(tmp_path, capsys, cell):
    rng = np.random.default_rng(62)
    values = [f"{v:.8f}" for v in rng.standard_normal(500) * 0.01]
    values[123] = cell
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["a"] + values) + "\n")
    argv = ["backtest", "--input", str(path), "--estimator", "var-hist"]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"data error: line 125: cell {cell!r} is not a finite number" in err


@pytest.mark.parametrize(
    "fmt, header, line", [("simple_csv", "a,b,a", 1), ("ff_daily", "Returns\n,a,b,a", 2)]
)
def test_backtest_repeated_column_name_exits_2(tmp_path, capsys, fmt, header, line):
    rng = np.random.default_rng(63)
    rows = [",".join(f"{v:.6f}" for v in r) for r in rng.standard_normal((500, 3))]
    if fmt == "ff_daily":
        days = np.datetime_as_string(np.datetime64("2000-01-03") + np.arange(len(rows)))
        rows = [d.replace("-", "") + "," + r for d, r in zip(days, rows)]
    path = tmp_path / "repeated.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    argv = ["backtest", "--input", str(path), "--format", fmt, "--estimator", "var-hist"]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"data error: line {line}: column name 'a' is repeated" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("20050104,-99.99,nan", "line 3: cell 'nan' is not a finite number"),
        ("20050230,-99.99,1.0", "line 3: date 20050230 is not a calendar date"),
        ("20050103,-999,1.0", "line 3: date 20050103 is not after 20050103"),
        ("20050104,-99.99", "line 3: expected 3 fields, found 2"),
    ],
)
def test_ff_daily_sentinel_row_is_checked_before_it_is_dropped(tmp_path, capsys, bad_row,
                                                               message):
    path = tmp_path / "ff.csv"
    path.write_text(f",A,B\n20050103,1.0,2.0\n{bad_row}\n20050105,1.0,2.0\n")
    argv = ["backtest", "--input", str(path), "--format", "ff_daily", "--estimator", "var-hist",
            "--learn", "2", "--test", "1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]


def test_ff_daily_mistyped_date_exits_2_naming_its_line(tmp_path, capsys):
    # a mistyped date stays in the block, so the rows after it are not silently dropped
    path = tmp_path / "ff.csv"
    path.write_text(",a\n20200101,1.0\n20200102,1.0\n2020-01-03,1.0\n20200106,1.0\n20200107,1.0\n")
    argv = ["backtest", "--input", str(path), "--format", "ff_daily", "--estimator", "var-hist",
            "--learn", "2", "--test", "1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: line 4: bad date '2020-01-03', expected YYYYMMDD"]


def test_backtest_short_panel_exits_3(tmp_path, capsys):
    path = tmp_path / "short.csv"
    rng = np.random.default_rng(61)
    lines = ["a"] + [f"{v:.8f}" for v in rng.standard_normal(400) * 0.01]
    path.write_text("\n".join(lines) + "\n")
    code = main(
        [
            "backtest",
            "--input",
            str(path),
            "--estimator",
            "var-hist",
            "--learn",
            "250",
            "--test",
            "250",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 3
    assert "config error" in capsys.readouterr().err


def _csv_writer_that(change):
    """``cli._write_csv`` that applies ``change`` to the lines it reads back."""
    original = cli._write_csv
    return lambda *args, **kwargs: change(original(*args, **kwargs))


def _rename_first_column(lines):
    return ["renamed" + lines[0][lines[0].index(","):], *lines[1:]]


def _drop_last_cell(lines):
    return [*lines[:-1], lines[-1].rpartition(",")[0]]


def test_failed_output_self_check_exits_3(tmp_path, panel_csv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_write_csv", _csv_writer_that(_rename_first_column))
    argv = ["backtest", "--input", str(panel_csv), "--estimator", "var-hist"]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert err == f"output check failed: csv header of {tmp_path / 'r.json'}.heatmap.csv\n"


@pytest.mark.parametrize(
    "change, check", [(_rename_first_column, "csv header of"), (_drop_last_cell, "csv row in")]
)
@pytest.mark.parametrize("command", ["backtest", "mc", "simulate"])
def test_every_command_checks_the_read_back_of_its_csv(
    tmp_path, panel_csv, capsys, monkeypatch, command, change, check
):
    monkeypatch.setattr(cli, "_write_csv", _csv_writer_that(change))
    out = str(tmp_path / "out")
    argv = {
        "backtest": ["backtest", "--input", str(panel_csv), "--estimator", "var-hist",
                     "--out", out, "--heatmap-out", str(tmp_path / "h.csv")],
        "mc": ["mc", "--dist", "normal", "--runs", "100", "--seed", "1", "--out-prefix", out],
        "simulate": ["simulate", "--input", str(panel_csv), "--model", "normal", "--picks",
                     "1", "--window", "250", "--seed", "1", "--out", out],
    }[command]
    assert main(argv) == 3
    # the first CSV each command writes: the heatmap, the VAR table, the panel
    first = {"backtest": tmp_path / "h.csv", "mc": f"{out}_var.csv", "simulate": out}[command]
    assert capsys.readouterr().err == f"output check failed: {check} {first}\n"


def test_report_self_check_rejects_reordered_result_fields(
    tmp_path, panel_csv, capsys, monkeypatch
):
    original = cli.harness.BacktestResult.to_json_dict

    def reordered(self):
        return dict(reversed(list(original(self).items())))

    monkeypatch.setattr(cli.harness.BacktestResult, "to_json_dict", reordered)
    argv = ["compare", "--input", str(panel_csv), "--estimator", "hist"]
    assert main(argv + ["--out", str(tmp_path / "c.json")]) == 3
    assert "output check failed: result fields" in capsys.readouterr().err


def test_unknown_flags_exit_3(capsys):
    assert main(["backtest", "--bogus"]) == 3
    assert main(["mc", "--dist", "normal", "--out-prefix", "x"]) == 3  # seed missing
    capsys.readouterr()


def test_mc_command_outputs_and_determinism(tmp_path, capsys):
    argv = [
        "mc",
        "--dist",
        "t3",
        "--runs",
        "400",
        "--n",
        "100",
        "--seed",
        "7",
        "--out-prefix",
        str(tmp_path / "run1"),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "ES cdf@12" in out and "VAR cdf@5" in out

    argv2 = [a.replace("run1", "run2") for a in argv] + ["--workers", "3"]
    assert main(argv2) == 0
    for suffix in ("_var.csv", "_es.csv", "_summary.json"):
        a = (tmp_path / f"run1{suffix}").read_bytes()
        b = (tmp_path / f"run2{suffix}").read_bytes()
        assert a == b

    summary = json.loads((tmp_path / "run1_summary.json").read_text())
    assert summary["runs"] == 400
    assert list(summary["es"]) == ["11", "12", "24", "25"]
    assert list(summary["var"]) == ["4", "5", "9", "10"]
    # the points sit on either side of each zone bound
    for key, th in (("var", VAR_THRESHOLDS), ("es", ES_THRESHOLDS)):
        bounds = (th.green_upper, th.yellow_upper)
        assert list(summary[key]) == [str(k) for b in bounds for k in (b - 1, b)]


def test_mc_accepts_dist_json_and_rejects_bad_specs(tmp_path, capsys):
    code = main(
        [
            "mc",
            "--dist-json",
            '{"kind": "student_t", "nu": 5.0}',
            "--runs",
            "50",
            "--n",
            "50",
            "--seed",
            "1",
            "--out-prefix",
            str(tmp_path / "tj"),
        ]
    )
    assert code == 0
    assert main(
        [
            "mc",
            "--dist-json",
            '{"kind": "weibull"}',
            "--runs",
            "50",
            "--seed",
            "1",
            "--out-prefix",
            str(tmp_path / "bad"),
        ]
    ) == 3
    assert main(
        [
            "mc",
            "--garch-json",
            '{"mu": 0.0, "omega": 1e-5, "a1": 0.6, "b1": 0.6}',
            "--runs",
            "50",
            "--seed",
            "1",
            "--out-prefix",
            str(tmp_path / "bad2"),
        ]
    ) == 3
    capsys.readouterr()


def test_mc_single_run_is_a_point_mass(tmp_path, capsys):
    assert (
        main(
            [
                "mc",
                "--dist",
                "normal",
                "--runs",
                "1",
                "--n",
                "50",
                "--seed",
                "3",
                "--out-prefix",
                str(tmp_path / "one"),
            ]
        )
        == 0
    )
    rows = (tmp_path / "one_var.csv").read_text().splitlines()[1:]
    pmf = [float(r.split(",")[1]) for r in rows]
    assert max(pmf) == 1.0 and sum(pmf) == 1.0
    capsys.readouterr()


def test_compare_command_and_family_validation(tmp_path, panel_csv, capsys):
    out = tmp_path / "cmp.json"
    code = main(
        [
            "compare",
            "--input",
            str(panel_csv),
            "--estimator",
            "hist",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["summary"]) == {"confusion_var_es", "confusion_var_z"}
    for r in report["results"]:
        assert isinstance(r["z"], float)
        assert r["zone_z"] in ("green", "yellow", "red")
        assert r["alpha"] == {"var": 0.01, "es": 0.025, "z": 0.025}

    code = main(
        [
            "compare",
            "--input",
            str(panel_csv),
            "--estimator",
            "var-norm",
            "--out",
            str(tmp_path / "cmp2.json"),
        ]
    )
    assert code == 3
    assert "both VAR and ES" in capsys.readouterr().err


@pytest.mark.parametrize("estimator", cli._ESTIMATOR_CHOICES)
@pytest.mark.parametrize("present", [True, False], ids=["input", "no-input"])
def test_compare_rejects_a_single_metric_estimator_before_reading(
    tmp_path, panel_csv, capsys, monkeypatch, estimator, present
):
    loads = []
    monkeypatch.setattr(harness, "load_returns", lambda *args: loads.append(args))
    source = panel_csv if present else tmp_path / "absent.csv"
    out = tmp_path / "cmp.json"
    argv = ["compare", "--input", str(source), "--estimator", estimator, "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [
        "config error: the z test needs reserves for both VAR and ES; "
        "pass --estimator hist or --estimator norm"
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["panel.csv"]
    assert loads == []


def test_simulate_command_deterministic_across_workers(tmp_path, panel_csv, capsys):
    base = [
        "simulate",
        "--input",
        str(panel_csv),
        "--model",
        "normal",
        "--picks",
        "2",
        "--window",
        "500",
        "--seed",
        "11",
    ]
    out1, fits1 = tmp_path / "sim1.csv", tmp_path / "fits1.json"
    out2, fits2 = tmp_path / "sim2.csv", tmp_path / "fits2.json"
    assert main(base + ["--out", str(out1), "--fits-out", str(fits1)]) == 0
    assert (
        main(
            base
            + ["--out", str(out2), "--fits-out", str(fits2), "--workers", "2"]
        )
        == 0
    )
    assert out1.read_bytes() == out2.read_bytes()
    assert fits1.read_bytes() == fits2.read_bytes()

    header, *rows = out1.read_text().splitlines()
    assert header.split(",") == ["a[0:500].p0", "a[0:500].p1", "b[0:500].p0", "b[0:500].p1"]
    assert len(rows) == 500
    fits = json.loads(fits1.read_text())
    assert fits["model"] == "normal"
    assert len(fits["fits"]) == 2
    capsys.readouterr()


def test_backtest_ff_panel_yields_125_samples(tmp_path, capsys):
    # 2500 dated rows x 25 percent-return columns split into 125 windows
    rng = np.random.default_rng(63)
    path = tmp_path / "ff.csv"
    header = "," + ",".join(f"P{i}" for i in range(25))
    lines = [header]
    for day in np.datetime_as_string(np.datetime64("2005-01-03") + np.arange(2500)):
        cells = ",".join(f"{v:.4f}" for v in rng.standard_normal(25))
        lines.append(f"{day.replace('-', '')},{cells}")
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ff_report.json"
    code = main(
        [
            "backtest",
            "--input",
            str(path),
            "--format",
            "ff_daily",
            "--estimator",
            "es-hist",
            "--alpha",
            "0.025",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["results"]) == 125
    assert report["summary"]["confusion"]["total"] == 125
    capsys.readouterr()


def test_backtest_reports_are_byte_reproducible(tmp_path, panel_csv, capsys):
    args = [
        "backtest",
        "--input",
        str(panel_csv),
        "--estimator",
        "var-hist",
    ]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    a = (tmp_path / "r1.json.heatmap.csv").read_bytes()
    b = (tmp_path / "r2.json.heatmap.csv").read_bytes()
    assert a == b
    capsys.readouterr()


# Metamorphic relations of the panel commands: a sample's result depends on its
# own values only, so the report follows its columns
_PANEL_RUNS = [["backtest", "--estimator", e] for e in cli._ESTIMATOR_CHOICES] + [
    ["compare", "--estimator", family, *normalize]
    for family in harness.FAMILIES for normalize in ([], ["--normalize"])]


def _panel_columns() -> dict:
    """Three t4 columns of two samples each; c's second halves are three times
    as volatile, so that its results reach the yellow and red zones."""
    x = np.random.default_rng(31).standard_t(4, (1000, 3)) * 0.01
    x[250:500, 2] *= 3.0
    x[750:, 2] *= 3.0
    return dict(zip("abc", x.T.tolist()))


def _panel_report(tmp_path, argv, workers, columns, names) -> tuple:
    """(report, heatmap lines or None) of ``argv`` on the panel of ``names``."""
    stem = tmp_path / "".join(names)
    panel = stem.with_suffix(".csv")
    rows = zip(*(columns[n] for n in names))
    panel.write_text(",".join(names) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    out = stem.with_suffix(".json")
    assert main([*argv, "--input", str(panel), "--out", str(out), "--workers", workers]) == 0
    heatmap = Path(f"{out}.heatmap.csv")
    return json.loads(out.read_text()), heatmap.read_text() if heatmap.exists() else None


def _added_confusions(first: dict, second: dict) -> dict:
    counts = np.add(first["counts"], second["counts"])
    total = int(counts.sum())
    return {"zones": first["zones"], "counts": counts.tolist(), "total": total,
            "trace_ratio": float(np.trace(counts)) / total}


def _added_heatmaps(first: str, second: str) -> str:
    cells = {}
    for text in (first, second):
        for line in text.splitlines()[1:]:
            t, g, count = map(int, line.split(","))
            cells[t, g] = cells.get((t, g), 0) + count
    return "".join(["nt_capped,ng_capped,count\n"] +
                   [f"{t},{g},{cells[t, g]}\n" for t, g in sorted(cells)])


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv", _PANEL_RUNS, ids=" ".join)
def test_permuting_columns_permutes_the_report(tmp_path, capsys, argv, workers):
    columns = _panel_columns()
    report, heatmap = _panel_report(tmp_path, argv, workers, columns, "abc")
    permuted, permuted_heatmap = _panel_report(tmp_path, argv, workers, columns, "cab")
    by_label = dict(zip(report["samples"], report["results"]))
    order = [label for name in "cab" for label in report["samples"] if label[0] == name]
    assert permuted["samples"] == order
    assert permuted["results"] == [by_label[label] for label in order]
    assert permuted["config"] == report["config"]
    assert permuted["summary"] == report["summary"]
    assert permuted_heatmap == heatmap
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv", _PANEL_RUNS, ids=" ".join)
def test_the_report_on_joined_columns_joins_their_reports(tmp_path, capsys, argv, workers):
    columns = _panel_columns()
    whole, whole_heatmap = _panel_report(tmp_path, argv, workers, columns, "abc")
    first, first_heatmap = _panel_report(tmp_path, argv, workers, columns, "a")
    second, second_heatmap = _panel_report(tmp_path, argv, workers, columns, "bc")
    assert whole["config"] == first["config"] == second["config"]
    assert whole["samples"] == first["samples"] + second["samples"]
    assert whole["results"] == first["results"] + second["results"]
    summary = {key: _added_confusions(value, second["summary"][key])
               for key, value in first["summary"].items() if key.startswith("confusion")}
    if argv[0] == "backtest":
        summary["trace_ratio"] = summary["confusion"]["trace_ratio"]
        assert first["summary"]["dropped_rows"] == second["summary"]["dropped_rows"] == 0
        summary["dropped_rows"] = 0
        assert whole_heatmap == _added_heatmaps(first_heatmap, second_heatmap)
    assert whole["summary"] == summary
    # the joined panel spans every zone, so the additions are not vacuous
    zones = {r[key] for r in whole["results"] for key in ("zone_var", "zone_es")}
    assert zones == {"green", "yellow", "red"}
    capsys.readouterr()


def _desk_reports(tmp_path) -> dict:
    """sha256 of each file the desk commands of _PINNED_REPORTS write."""
    rng = np.random.default_rng(17)
    x = rng.standard_t(4, (1000, 4)) * 0.01
    x[:, 2:] = np.round(x[:, 2:], 3)  # ties at the tail boundaries
    panel = tmp_path / "desk.csv"
    panel.write_text("a,b,c,d\n" + "".join(",".join(map(repr, r)) + "\n" for r in x.tolist()))
    runs = {f"backtest {e}": ["backtest", "--estimator", e] for e in cli._ESTIMATOR_CHOICES}
    for family in harness.FAMILIES:
        runs[f"compare {family}"] = ["compare", "--estimator", family]
        # z shares VAR's tail index; VAR shares ES's
        runs[f"compare {family} z01"] = ["compare", "--estimator", family, "--alpha-z", "0.01"]
        runs[f"compare {family} var025"] = [
            "compare", "--estimator", family, "--alpha-var", "0.025"]
    digests = {}
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--input", str(panel), "--out", str(out)]) == 0
        for path in (out, tmp_path / f"{name}.json.heatmap.csv"):
            if path.exists():
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return digests


# The desk reports' bytes, captured before the rolling reserves shared their
# window reductions across estimators and levels: no output may move a bit
_PINNED_REPORTS = {
    "backtest var-hist.json": "566119e59a2e01d1",
    "backtest var-hist.json.heatmap.csv": "02d41881b57d29ee",
    "backtest var-norm.json": "8f5dc4e5510abc41",
    "backtest var-norm.json.heatmap.csv": "033bfc8db08626db",
    "backtest es-hist.json": "ea7eff472585728e",
    "backtest es-hist.json.heatmap.csv": "b0b047b5e718ee87",
    "backtest es-norm.json": "d361dbc659fb13a7",
    "backtest es-norm.json.heatmap.csv": "033bfc8db08626db",
    "compare hist.json": "fe222e9782acd541",
    "compare hist z01.json": "22a35ef5203f22a0",
    "compare hist var025.json": "ebeada54efcfc52b",
    "compare norm.json": "8b1aa246a557bca2",
    "compare norm z01.json": "5b34d2add6e1590c",
    "compare norm var025.json": "9d1919c659d9896f",
}


def test_desk_reports_are_pinned_to_their_bytes(tmp_path, capsys):
    assert _desk_reports(tmp_path) == _PINNED_REPORTS
    capsys.readouterr()


def test_every_csv_the_cli_writes_is_pinned_to_its_bytes(tmp_path, capsys):
    # mc's tables end their lines with \r\n, the heatmap and the simulated panel
    # with \n; the heatmap's top cell holds the clamped counts (15, 35)
    argv = ["mc", "--dist", "t3", "--runs", "8", "--n", "5", "--alpha-var", "0.2",
            "--alpha-es", "0.3", "--seed", "1", "--out-prefix", str(tmp_path / "m")]
    assert main(argv) == 0
    assert (tmp_path / "m_var.csv").read_bytes() == (
        b"nominal_value,pmf,cdf\r\n0,0.25,0.25\r\n1,0.5,0.75\r\n2,0.25,1.0\r\n"
        b"3,0.0,1.0\r\n4,0.0,1.0\r\n5,0.0,1.0\r\n"
    )
    assert (tmp_path / "m_es.csv").read_bytes() == (
        b"nominal_value,pmf,cdf\r\n0,0.25,0.25\r\n1,0.375,0.625\r\n2,0.375,1.0\r\n"
        b"3,0.0,1.0\r\n4,0.0,1.0\r\n5,0.0,1.0\r\n"
    )

    rng = np.random.default_rng(5)
    # column a: 20 quiet days, then 40 losses each deeper than the last
    a = np.r_[rng.standard_normal(20) * 0.001, -0.001 * np.arange(1, 41)]
    b = rng.standard_normal(60) * 0.01
    panel = tmp_path / "p.csv"
    panel.write_text("a,b\n" + "".join(f"{x:.4f},{y:.4f}\n" for x, y in zip(a, b)))
    heatmap = tmp_path / "h.csv"
    argv = ["backtest", "--input", str(panel), "--estimator", "var-hist", "--learn", "20",
            "--test", "40", "--out", str(tmp_path / "r.json"), "--heatmap-out", str(heatmap)]
    assert main(argv) == 0
    assert heatmap.read_bytes() == b"nt_capped,ng_capped,count\n2,6,1\n15,35,1\n"

    sim = tmp_path / "s.csv"
    argv = ["simulate", "--input", str(panel), "--model", "normal", "--window", "30",
            "--picks", "1", "--seed", "1", "--out", str(sim)]
    assert main(argv) == 0
    data = sim.read_bytes()
    assert data.startswith(b"a[0:30].p0,a[30:60].p0,b[0:30].p0,b[30:60].p0\n")
    assert data.count(b"\n") == 31 and b"\r" not in data
    assert hashlib.sha256(data).hexdigest()[:16] == "350e0fb410856ac5"
    capsys.readouterr()


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path, capsys):
    # the loader reads UTF-8 whatever the locale, and so does every writer:
    # non-ASCII column names reach the simulated panel's header as UTF-8
    rng = np.random.default_rng(8)
    panel = tmp_path / "p.csv"
    rows = rng.standard_normal((100, 2)) * 0.01
    panel.write_text("α,β\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows.tolist()),
                     encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0"}
    env.pop("PYTHONIOENCODING", None)

    def argv(name):
        return ["simulate", "--input", str(panel), "--model", "normal", "--window", "100",
                "--seed", "1", "--picks", "1", "--out", str(tmp_path / f"{name}.csv"),
                "--fits-out", str(tmp_path / f"{name}.json")]

    proc = subprocess.run([sys.executable, "-m", "esbacktest.cli", *argv("ascii")],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(argv("here")) == 0
    sim = (tmp_path / "ascii.csv").read_bytes()
    assert sim.startswith("α[0:100].p0,β[0:100].p0\n".encode())
    assert sim == (tmp_path / "here.csv").read_bytes()
    assert (tmp_path / "ascii.json").read_bytes() == (tmp_path / "here.json").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "fmt, data, line",
    [
        ("simple_csv", b"\xe9,b\n0.01,0.02\n", 1),
        ("simple_csv", b"a,b\r\n0.01,0.02\r0.03,\xe90.04\n", 3),
        ("ff_daily", b"\xef\xbb\xbfReturns\n\n,x\n20200101,1.0\n20200102,\xe9\n", 5),
    ],
)
def test_a_panel_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys, fmt, data, line):
    panel = tmp_path / "latin1.csv"
    panel.write_bytes(data)
    out = tmp_path / "r.json"
    argv = ["backtest", "--input", str(panel), "--format", fmt, "--estimator", "var-hist",
            "--learn", "2", "--test", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {panel}: line {line}: cannot decode byte 0xe9 as UTF-8"
    ]
    assert not out.exists()


def test_worker_default_comes_from_environment(tmp_path, panel_csv, capsys, monkeypatch):
    monkeypatch.setenv("ESBACKTEST_WORKERS", "2")
    out = tmp_path / "env.json"
    code = main(
        [
            "backtest",
            "--input",
            str(panel_csv),
            "--estimator",
            "var-hist",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    capsys.readouterr()


def test_a_second_main_call_reuses_the_parser_and_rereads_the_worker_default(
    tmp_path, monkeypatch, capsys
):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "mc", lambda args: seen.append(args.workers) or 0)
    argv = ["mc", "--dist", "normal", "--seed", "1", "--out-prefix", str(tmp_path / "m")]
    monkeypatch.setenv("ESBACKTEST_WORKERS", "2")
    assert main(argv) == 0
    built = cli.build_parser.cache_info().misses
    monkeypatch.setenv("ESBACKTEST_WORKERS", "3")
    assert main(argv) == 0
    assert main(argv + ["--workers", "4"]) == 0
    monkeypatch.delenv("ESBACKTEST_WORKERS")
    assert main(argv) == 0
    assert seen == [2, 3, 4, 1]
    monkeypatch.setenv("ESBACKTEST_WORKERS", "abc")
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: ESBACKTEST_WORKERS must be a positive integer, got 'abc'"
    ]
    assert seen == [2, 3, 4, 1]
    assert cli.build_parser.cache_info().misses == built == 1


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_a_bad_worker_default_is_read_only_without_workers(
    tmp_path, capsys, monkeypatch, value
):
    argv = ["mc", "--dist", "normal", "--runs", "100", "--seed", "1"]
    assert main(argv + ["--workers", "2", "--out-prefix", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("ESBACKTEST_WORKERS", value)
    assert main(argv + ["--workers", "2", "--out-prefix", str(tmp_path / "env")]) == 0
    for suffix in ("_var.csv", "_es.csv", "_summary.json"):
        plain = (tmp_path / f"plain{suffix}").read_bytes()
        assert (tmp_path / f"env{suffix}").read_bytes() == plain
    capsys.readouterr()
    assert main(argv + ["--out-prefix", str(tmp_path / "bad")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: ESBACKTEST_WORKERS must be a positive integer, got {value!r}"
    ]
    assert not list(tmp_path.glob("bad*"))


def _json_writer_that(change):
    """``cli._write_json`` that applies ``change`` to the payload it writes."""
    original = cli._write_json
    return lambda path, payload, opened: original(
        path, change(json.loads(json.dumps(payload))), opened)


def _drop_seed(summary):
    del summary["seed"]
    return summary


def _swap_entry_keys(summary):
    summary["es"]["12"] = dict(reversed(list(summary["es"]["12"].items())))
    return summary


def _swap_probabilities(summary):
    entry = summary["var"]["5"]
    entry["p_below"], entry["p_at_most"] = entry["p_at_most"], entry["p_below"] + 1.0
    return summary


@pytest.mark.parametrize(
    "change, check",
    [
        (_drop_seed, "summary keys"),
        (_swap_entry_keys, "es entry keys"),
        (_swap_probabilities, "var probabilities"),
    ],
)
def test_mc_reads_back_its_summary(tmp_path, capsys, monkeypatch, change, check):
    monkeypatch.setattr(cli, "_write_json", _json_writer_that(change))
    argv = ["mc", "--dist", "normal", "--runs", "100", "--seed", "1"]
    assert main(argv + ["--out-prefix", str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"output check failed: {check}")


def _add_key(fits):
    fits["extra"] = 1
    return fits


def _other_model(fits):
    fits["model"] = "skew_t"
    return fits


def _drop_last_fit(fits):
    fits["fits"].pop()
    return fits


def _swap_fit_keys(fits):
    fits["fits"][0] = dict(reversed(list(fits["fits"][0].items())))
    return fits


@pytest.mark.parametrize(
    "change, check",
    [
        (_add_key, "fits keys"),
        (_other_model, "fits model"),
        (_drop_last_fit, "one fit per sample"),
        (_swap_fit_keys, "fit keys"),
    ],
)
def test_simulate_reads_back_its_fits(
    tmp_path, panel_csv, capsys, monkeypatch, change, check
):
    monkeypatch.setattr(cli, "_write_json", _json_writer_that(change))
    argv = ["simulate", "--input", str(panel_csv), "--model", "normal", "--picks", "1",
            "--window", "250", "--seed", "1", "--out", str(tmp_path / "s.csv"),
            "--fits-out", str(tmp_path / "f.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"output check failed: {check}")


@pytest.mark.parametrize("command", ["backtest", "mc", "simulate"])
def test_a_failed_run_removes_every_output_it_wrote(tmp_path, panel_csv, capsys, monkeypatch,
                                                    command):
    # the last check fails, after every output is written: the heatmap's, the
    # summary's, the fits'
    out = str(tmp_path / "left")
    argv, writer = {
        "backtest": (["backtest", "--input", str(panel_csv), "--estimator", "var-hist",
                      "--out", f"{out}.json", "--heatmap-out", f"{out}.csv"],
                     ("_write_csv", _csv_writer_that(_rename_first_column))),
        "mc": (["mc", "--dist", "normal", "--runs", "100", "--seed", "1", "--out-prefix", out],
               ("_write_json", _json_writer_that(_drop_seed))),
        "simulate": (["simulate", "--input", str(panel_csv), "--model", "normal", "--picks",
                      "1", "--window", "250", "--seed", "1", "--out", f"{out}.csv",
                      "--fits-out", f"{out}.json"],
                     ("_write_json", _json_writer_that(_add_key))),
    }[command]
    names, open_output = [], cli._open_output

    def recording(path, opened, **kwargs):
        names.append(os.path.basename(path))
        return open_output(path, opened, **kwargs)

    monkeypatch.setattr(cli, "_open_output", recording)
    monkeypatch.setattr(cli, *writer)
    before = panel_csv.read_bytes()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("output check failed: ")
    assert names == {"backtest": ["left.json", "left.csv"],
                      "mc": ["left_var.csv", "left_es.csv", "left_summary.json"],
                      "simulate": ["left.csv", "left.json"]}[command]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]
    assert panel_csv.read_bytes() == before


def test_a_failed_run_leaves_the_files_it_did_not_write(tmp_path, panel_csv, capsys,
                                                        monkeypatch):
    # a write that fails midway, as the ASCII locale once failed simulate's panel
    original = cli._write_csv

    def failing(path, header, rows, opened, newline="\n"):
        def rows_then_error():
            yield next(iter(rows))
            raise UnicodeEncodeError("ascii", "\u03b1", 0, 1, "ordinal not in range(128)")
        return original(path, header, rows_then_error(), opened, newline)

    monkeypatch.setattr(cli, "_write_csv", failing)
    sim, fits = tmp_path / "sim.csv", tmp_path / "fits.json"
    fits.write_text("an earlier run's fits\n")
    argv = ["simulate", "--input", str(panel_csv), "--model", "normal", "--picks", "1",
            "--window", "250", "--seed", "1", "--out", str(sim), "--fits-out", str(fits)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("config error: 'ascii' codec can't encode")
    assert not sim.exists()
    assert fits.read_text() == "an earlier run's fits\n"
    # a report whose check fails is removed; the heatmap path is never opened
    monkeypatch.setattr(cli, "_write_csv", original)
    monkeypatch.setattr(cli.harness.BacktestResult, "to_json_dict",
                        lambda self: {"n": self.n})
    heatmap = tmp_path / "h.csv"
    heatmap.write_text("an earlier heatmap\n")
    argv = ["backtest", "--input", str(panel_csv), "--estimator", "var-hist",
            "--out", str(tmp_path / "r.json"), "--heatmap-out", str(heatmap)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "output check failed: result fields ['n']\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fits.json", "h.csv", "panel.csv"]
    assert heatmap.read_text() == "an earlier heatmap\n"


def test_an_uncaught_error_propagates_and_removes_the_outputs_written(tmp_path, panel_csv,
                                                                      monkeypatch):
    def broken(path, header, lines):
        raise RuntimeError("a fault in the program")

    monkeypatch.setattr(cli, "_check_csv", broken)
    argv = ["mc", "--dist", "normal", "--runs", "100", "--seed", "1",
            "--out-prefix", str(tmp_path / "m")]
    with pytest.raises(RuntimeError, match="a fault in the program"):
        main(argv)
    assert not list(tmp_path.glob("m_*"))


def test_an_ff_daily_typo_on_the_first_row_exits_2(tmp_path, capsys):
    # the mistyped first row used to be read as the header, dropping both
    path = tmp_path / "ff.csv"
    path.write_text(",a\n2020-01-01,1.0\n20200102,1.0\n20200103,2.0\n")
    out = tmp_path / "r.json"
    argv = ["backtest", "--input", str(path), "--format", "ff_daily", "--estimator",
            "var-hist", "--learn", "2", "--test", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: line 2: bad date '2020-01-01', expected YYYYMMDD"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, second",
    [
        (["backtest", "--estimator", "var-hist", "--out", "r.json", "--heatmap-out", "./r.json"],
         "./r.json"),
        (["backtest", "--estimator", "var-hist", "--out", "r.json", "--heatmap-out",
          "link/r.json"], "link/r.json"),
        (["simulate", "--model", "normal", "--seed", "1", "--out", "s.csv", "--fits-out",
          "./s.csv"], "./s.csv"),
    ],
    ids=["backtest", "backtest-symlink", "simulate"],
)
def test_two_outputs_at_one_path_exit_3_before_any_work(
    tmp_path, panel_csv, capsys, monkeypatch, argv, second
):
    work = tmp_path / "work"
    work.mkdir()
    (work / "link").symlink_to(work)
    monkeypatch.chdir(work)

    def no_work(*args):
        raise AssertionError("the panel was loaded")

    monkeypatch.setattr(harness, "load_returns", no_work)
    assert main(argv + ["--input", str(panel_csv)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"config error: two outputs at one path: {second}"
    ]
    assert [p.name for p in work.iterdir()] == ["link"]


@pytest.mark.parametrize(
    "argv, output",
    [
        (["backtest", "--estimator", "var-hist", "--out", "in.csv"], "in.csv"),
        (["backtest", "--estimator", "var-hist", "--out", "r.json", "--heatmap-out",
          "./in.csv"], "./in.csv"),
        (["compare", "--estimator", "hist", "--out", "in.csv"], "in.csv"),
        (["simulate", "--model", "normal", "--seed", "1", "--out", "in.csv"], "in.csv"),
        (["simulate", "--model", "normal", "--seed", "1", "--out", "s.csv", "--fits-out",
          "in.csv"], "in.csv"),
        (["backtest", "--estimator", "var-hist", "--out", "alias.csv"], "alias.csv"),
    ],
    ids=["backtest", "backtest-heatmap", "compare", "simulate", "simulate-fits", "symlink"],
)
def test_an_output_at_the_input_exits_3_before_any_work(
    tmp_path, panel_csv, capsys, monkeypatch, argv, output
):
    work = tmp_path / "work"
    work.mkdir()
    (work / "in.csv").write_bytes(panel_csv.read_bytes())
    (work / "alias.csv").symlink_to(work / "in.csv")
    monkeypatch.chdir(work)

    def no_work(*args):
        raise AssertionError("the panel was loaded")

    monkeypatch.setattr(harness, "load_returns", no_work)
    assert main(argv + ["--input", "in.csv"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"config error: an output is the input panel: {output}"
    ]
    assert sorted(p.name for p in work.iterdir()) == ["alias.csv", "in.csv"]
    assert (work / "in.csv").read_bytes() == panel_csv.read_bytes()


@pytest.mark.parametrize("flag, text", [("--dist-json", "{bad"), ("--garch-json", "[1")])
def test_mc_bad_json_argument_exits_3_with_one_line(tmp_path, capsys, flag, text):
    argv = ["mc", flag, text, "--runs", "50", "--seed", "1", "--out-prefix", str(tmp_path / "j")]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: bad JSON argument:")


def test_ff_daily_sentinel_row_is_dropped_and_reported(tmp_path, capsys):
    path = tmp_path / "ff.csv"
    path.write_text(",A\n20050103,1.0\n20050104,-99.99\n20050105,2.0\n20050106,1.5\n")
    out = tmp_path / "r.json"
    argv = ["backtest", "--input", str(path), "--format", "ff_daily", "--estimator", "var-hist",
            "--learn", "2", "--test", "1", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == ["dropped 1 rows with missing values"]
    assert json.loads(out.read_text())["summary"]["dropped_rows"] == 1


@pytest.mark.parametrize("argv, use", [
    (["backtest", "--estimator", "var-hist", "--out", "{out}/r.json",
      "--heatmap-out", "{out}/h.csv"], "graded"),
    (["compare", "--estimator", "norm", "--out", "{out}/c.json"], "graded"),
    (["simulate", "--model", "normal", "--seed", "1", "--out", "{out}/s.csv",
      "--fits-out", "{out}/f.json"], "fitted"),
])
def test_rows_that_the_split_leaves_over_are_named_on_stderr(tmp_path, capsys, argv, use):
    # 749 rows in 500-row samples: the last 249 rows of each column are not
    # used, which one stderr line says; every file is that of the first 500 rows
    x = np.random.default_rng(69).standard_t(4, (749, 2)) * 0.01
    outputs = {}
    for rows in (749, 500):
        panel = tmp_path / f"p{rows}.csv"
        panel.write_text("a,b\n" + "".join(f"{u!r},{v!r}\n" for u, v in x[:rows].tolist()))
        out = tmp_path / f"out{rows}"
        out.mkdir()
        assert main([a.replace("{out}", str(out)) for a in argv] + ["--input", str(panel)]) == 0
        outputs[rows] = {p.name: p.read_bytes() for p in out.iterdir()}
        err = capsys.readouterr().err.splitlines()
        assert err == ([f"rows 500-748 of each column are not {use} (window 500)"]
                       if rows == 749 else [])
    assert outputs[749] == outputs[500]


def test_one_row_left_over_is_named_on_stderr(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("a\n" + "".join(f"{v}\n" for v in range(1, 8)))
    argv = ["backtest", "--input", str(path), "--estimator", "var-hist", "--learn", "2",
            "--test", "1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        "row 6 of each column is not graded (window 3)"
    ]


def test_a_dated_panel_out_of_order_exits_2(tmp_path, capsys):
    path = tmp_path / "dated.csv"
    path.write_text("date,a\n20201231,0.01\n20200101,0.02\n20200101,0.01\n20200102,0.01\n")
    argv = ["backtest", "--input", str(path), "--estimator", "var-hist",
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: line 3: date 20200101 is not after 20201231"
    ]


def test_a_dated_panel_off_the_calendar_exits_2(tmp_path, capsys):
    path = tmp_path / "dated.csv"
    path.write_text("date,a\n20201399,0.01\n20200101,0.02\n20200101,0.01\n00000000,0.01\n")
    argv = ["backtest", "--input", str(path), "--estimator", "var-hist",
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: line 2: date 20201399 is not a calendar date"
    ]


def test_importing_the_cli_builds_no_parser():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "from esbacktest import cli; print(cli.build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout == "0\n"


def test_reference_confusion_fixture_is_well_formed():
    import pathlib

    fixture = pathlib.Path(__file__).parent / "data" / "market_confusion_reference.json"
    ref = json.loads(fixture.read_text())
    for family in ("hist", "norm"):
        counts = np.asarray(ref[family]["counts"])
        assert counts.shape == (3, 3)
        assert counts.sum() == ref["total"] == 125
    assert ref["zones"] == ["green", "yellow", "red"]


def test_simulate_garch_model_smoke(tmp_path, capsys):
    rng = np.random.default_rng(62)
    path = tmp_path / "one.csv"
    lines = ["x"] + [f"{v:.8f}" for v in rng.standard_normal(300) * 0.01]
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate",
            "--input",
            str(path),
            "--model",
            "garch-normal",
            "--picks",
            "1",
            "--window",
            "300",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 301
    capsys.readouterr()


@pytest.mark.parametrize("model", ["garch-normal", "garch-skew-t"])
def test_simulate_garch_on_huge_returns_keeps_the_exit_code_contract(tmp_path, capsys, model):
    # a variance near 1e296 starts log(omega) near 678; the first simplex steps
    # past log(DBL_MAX), which must score as a bad point, not raise
    path = tmp_path / "huge.csv"
    x = np.random.default_rng(1).standard_normal(600) * 1e148
    path.write_text("x\n" + "\n".join(repr(float(v)) for v in x) + "\n")
    argv = ["simulate", "--input", str(path), "--model", model, "--window", "600",
            "--seed", "1", "--out", str(tmp_path / "sim.csv")]
    assert main(argv) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "scale, code, err",
    [(1e152, 0, []),
     (1e150, 3, ["config error: x[0:600]: optimizer did not converge within 2000 "
                 "evaluations per start: Maximum number of function evaluations has been "
                 "exceeded."])],
    ids=["2pi-s2-overflows", "no-start-converges"],
)
def test_simulate_garch_normal_on_huge_returns_exits_without_a_warning(
    tmp_path, capsys, scale, code, err
):
    # at 1e152 some simplex points have a finite variance whose 2 pi s2
    # overflows, scored as bad points without a warning; at 1e150 no start converges
    path = tmp_path / "huge.csv"
    x = np.random.default_rng(1).standard_normal(600) * scale
    path.write_text("x\n" + "\n".join(repr(float(v)) for v in x) + "\n")
    argv = ["simulate", "--input", str(path), "--model", "garch-normal", "--window", "600",
            "--seed", "1", "--picks", "1", "--workers", "1", "--out", str(tmp_path / "sim.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    assert capsys.readouterr().err.splitlines() == err


@pytest.mark.parametrize(
    "bounds, message",
    [
        (["--start", "20201399"], "start 20201399 is not a calendar date, YYYYMMDD"),
        (["--end", "20230229"], "end 20230229 is not a calendar date, YYYYMMDD"),
        (["--start", "-1"], "start -1 is not a calendar date, YYYYMMDD"),
        (["--end", "1" + "0" * 30], f"end 1{'0' * 30} is not a calendar date, YYYYMMDD"),
        (["--start", "20210102", "--end", "20210101"], "start 20210102 is after end 20210101"),
    ],
)
@pytest.mark.parametrize("command", ["backtest", "compare", "simulate"])
def test_date_bounds_must_be_calendar_dates_in_order(tmp_path, capsys, command, bounds, message):
    rng = np.random.default_rng(64)
    days = np.datetime_as_string(np.datetime64("2020-01-01") + np.arange(500))
    path = tmp_path / "dated.csv"
    path.write_text("date,a\n" + "".join(
        f"{d.replace('-', '')},{v:.6f}\n" for d, v in zip(days, rng.standard_normal(500) * 0.01)
    ))
    out = tmp_path / "out.json"
    argv = [command, "--input", str(path), "--out", str(out)]
    argv += {"backtest": ["--estimator", "var-hist"], "compare": ["--estimator", "hist"],
             "simulate": ["--model", "normal", "--seed", "1"]}[command]
    assert main(argv + bounds) == 3
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()
    assert main(argv + ["--start", "20200101", "--end", "20210514"]) == 0


@pytest.mark.parametrize("flag", ["--alpha-var", "--alpha-es", "--alpha-z"])
def test_compare_rejects_each_level_outside_the_unit_interval(
    tmp_path, panel_csv, capsys, flag
):
    out = tmp_path / "cmp.json"
    argv = ["compare", "--input", str(panel_csv), "--estimator", "hist"]
    assert main(argv + [flag, "1.5", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: level must lie strictly inside (0, 1), got 1.5"]
    assert not out.exists()


def _writing_argv(command, panel_csv, ok):
    if command == "backtest":
        return ["backtest", "--input", str(panel_csv), "--estimator", "var-hist",
                "--out", str(ok / "r.json"), "--heatmap-out", str(ok / "h.csv")]
    if command == "mc":
        return ["mc", "--dist", "normal", "--runs", "50", "--seed", "1",
                "--out-prefix", str(ok / "m")]
    return ["simulate", "--input", str(panel_csv), "--model", "normal", "--picks", "1",
            "--seed", "1", "--out", str(ok / "s.csv"), "--fits-out", str(ok / "f.json")]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("backtest", "--out"),
        ("backtest", "--heatmap-out"),
        ("mc", "--out-prefix"),
        ("simulate", "--out"),
        ("simulate", "--fits-out"),
    ],
)
def test_unwritable_output_path_exits_3(tmp_path, panel_csv, capsys, command, flag):
    argv = _writing_argv(command, panel_csv, tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    missing = tmp_path / "missing" / "out"
    argv[argv.index(flag) + 1] = str(missing)
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: cannot write {missing}")


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("command", ["mc", "simulate"])
def test_seeds_outside_64_bits_exit_3(tmp_path, panel_csv, capsys, command, seed):
    # both used to run: -1 drew the stream of 2**64 - 1, and 2**64 that of 0
    argv = _writing_argv(command, panel_csv, tmp_path)
    argv[argv.index("--seed") + 1] = seed
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: seed must lie in [0, 2**64), got {seed}"]
    assert list(tmp_path.iterdir()) == [panel_csv]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("backtest", "--heatmap-out"),
        ("mc", "--out-prefix"),
        ("simulate", "--fits-out"),
    ],
)
def test_missing_output_directory_fails_before_any_file_is_written(
    tmp_path, panel_csv, capsys, command, flag
):
    # the report, the first two mc tables or the simulated panel used to be
    # written before the missing directory was found
    argv = _writing_argv(command, panel_csv, tmp_path)
    missing = tmp_path / "missing" / "out"
    argv[argv.index(flag) + 1] = str(missing)
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: cannot write {missing}")
    assert list(tmp_path.iterdir()) == [panel_csv]


def test_compare_missing_output_directory_exits_3(tmp_path, panel_csv, capsys):
    out = tmp_path / "missing" / "cmp.json"
    argv = ["compare", "--input", str(panel_csv), "--estimator", "hist", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: cannot write {out}: No such file or directory"]


def test_mc_level_without_a_finite_reserve_exits_3(tmp_path, capsys):
    # the t3 quantile this far out reads -inf (stdtrit's +inf is on the wrong
    # side of the median), so the VAR reserve is +inf; every run used to count
    # 250 exceptions
    argv = ["mc", "--dist", "t3", "--alpha-var", "1e-300", "--runs", "100",
            "--seed", "1", "--out-prefix", str(tmp_path / "m")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: true VAR at level 1e-300 is not finite: inf"]
    assert list(tmp_path.iterdir()) == []


def test_mc_skew_t_garch_with_infinite_variance_exits_3(tmp_path, capsys):
    spec = ('{"mu":0,"omega":1e-6,"a1":0.1,"b1":0.8,'
            '"innovation":"skew_t","nu":5,"xi":1e110}')
    argv = ["mc", "--garch-json", spec, "--runs", "10", "--seed", "1",
            "--out-prefix", str(tmp_path / "P")]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: skew_t variance is not finite at nu=5, xi=1e+110"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "source, runs, message",
    [
        # draws overflow, and the secured sample's finite check rejects them;
        # ES cdf@24 used to read 0.9707
        ('--dist-json={"kind":"normal","mu":0,"sigma":5e307}', "512",
         "secured sample has non-finite value inf at index 9"),
        # infinite draws exceed every reserve and used to count as covered days
        ('--dist-json={"kind":"normal","mu":1.5e308,"sigma":1e307}', "512",
         "secured sample has non-finite value inf at index 108"),
        # finite draws whose ES-secured values overflow; this used to exit 0
        ('--dist-json={"kind":"normal","mu":0,"sigma":3e307}', "512",
         "secured sample has non-finite value inf at index 33"),
        # every VAR cdf used to read 1.0000
        ('--garch-json={"mu":0,"omega":1e307,"a1":0.1,"b1":0.85}', "349",
         "stationary variance omega / (1 - a1 - b1) is not finite at "
         "omega=1e+307, a1=0.1, b1=0.85"),
        # a finite stationary variance whose recursion overflows in the burn-in
        ('--garch-json={"mu":0,"omega":5e306,"a1":0.1,"b1":0.85}', "349",
         "GARCH conditional variance overflows"),
        # and one whose recursion overflows inside the tested window of one run
        # (among the first 100, which a block reads first from its stream)
        ('--garch-json={"mu":0,"omega":1e305,"a1":0.1,"b1":0.85,'
         '"innovation":"skew_t","nu":2.5,"xi":1}', "349",
         "GARCH conditional variance overflows"),
    ],
    ids=["normal", "infinite-draws", "infinite-secured", "garch-spec", "garch-burn-in",
         "garch-window"],
)
def test_mc_overflow_exits_3_without_a_warning(tmp_path, capsys, source, runs, message):
    for workers in (1, 2, 3):
        # runs is one block, so each worker thread draws a block of its own
        argv = ["mc", source, "--runs", str(int(runs) * workers), "--seed", "4",
                "--workers", str(workers), "--out-prefix", str(tmp_path / "m")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert list(tmp_path.iterdir()) == []


def test_mc_overflow_only_in_the_positive_tail_still_runs(tmp_path, capsys):
    # the sums overflow past the negative prefix, which is all that G reads
    argv = ["mc", '--dist-json={"kind":"normal","mu":0,"sigma":1e306}', "--runs", "512",
            "--seed", "1", "--out-prefix", str(tmp_path / "m")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "VAR cdf@4 = 0.9023 ± 0.0181",
        "VAR cdf@5 = 0.9648 ± 0.0131",
        "VAR cdf@9 = 1.0000 ± 0.0000",
        "VAR cdf@10 = 1.0000 ± 0.0000",
        "ES cdf@11 = 0.9375 ± 0.0107",
        "ES cdf@12 = 0.9668 ± 0.0079",
        "ES cdf@24 = 1.0000 ± 0.0000",
        "ES cdf@25 = 1.0000 ± 0.0000",
    ]


@pytest.mark.parametrize("n", ["250", "49"])  # the partial sort and the full sort
def test_mc_overflow_above_the_negative_prefix_runs_on_either_sort_path(tmp_path, capsys, n):
    # the full sort reads the positive tail, whose sums overflow to +inf;
    # only -inf or NaN refuses a law, whichever sums a path reads
    argv = ["mc", '--dist-json={"kind":"normal","mu":0,"sigma":2e306}', "--runs", "512",
            "--n", n, "--seed", "1", "--out-prefix", str(tmp_path / "m")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m_es.csv", "m_summary.json", "m_var.csv"]


def _subparsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _action(command: str, flag: str) -> argparse.Action:
    return next(a for a in _subparsers()[command]._actions if flag in a.option_strings)


def test_cli_choices_and_defaults_are_read_from_the_library():
    assert _action("mc", "--dist").choices == tuple(PRESETS)
    for command in ("backtest", "compare", "simulate"):
        assert _action(command, "--format").choices == harness.FORMATS
    models = tuple(m.replace("_", "-") for m in simulation.MODELS)
    assert _action("simulate", "--model").choices == models
    assert models == ("normal", "skew-t", "garch-normal", "garch-skew-t")
    for command in ("backtest", "compare"):
        assert _action(command, "--learn").default == harness.LEARN
        assert _action(command, "--test").default == CALIBRATION.n
    assert _action("mc", "--n").default == CALIBRATION.n
    assert _action("mc", "--runs").default == simulation.McConfig.runs == 50_000
    for command in ("mc", "compare"):
        assert _action(command, "--alpha-var").default == CALIBRATION.alpha_var
        assert _action(command, "--alpha-es").default == CALIBRATION.alpha_es
    assert _action("simulate", "--window").default == harness.LEARN + CALIBRATION.n


def test_simulate_takes_only_the_input_flags_of_a_panel():
    flags = [a.option_strings[0] for a in _subparsers()["simulate"]._actions
             if a.option_strings and a.option_strings[0] != "-h"]
    assert flags == ["--input", "--format", "--start", "--end", "--model", "--picks",
                     "--window", "--seed", "--out", "--fits-out", "--workers"]


@pytest.mark.parametrize("extra", [["--learn", "7"], ["--test", "3"], ["--normalize"]])
def test_simulate_rejects_the_rolling_window_flags(tmp_path, panel_csv, capsys, extra):
    # these were accepted and ignored: the output was byte-identical without them
    argv = ["simulate", "--input", str(panel_csv), "--model", "normal", "--seed", "1",
            "--out", str(tmp_path / "s.csv"), *extra]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: argument error: unrecognized arguments: {' '.join(extra)}"]
    assert not (tmp_path / "s.csv").exists()


def test_headerless_panel_exits_2(tmp_path, capsys):
    path = tmp_path / "headerless.csv"
    path.write_text("1.5,2.5\n0.01,0.02\n0.03,0.01\n")
    argv = ["backtest", "--input", str(path), "--estimator", "es-hist",
            "--learn", "2", "--test", "1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["data error: line 1: a header row is required, found only numbers"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("x\n\n0.01\n\n0.02\nzzz\n", "line 6: cannot parse 'zzz' as a number"),
        ("date,a\n\n20200101,0.01\n\n2020-01-02,0.02\n",
         "line 5: bad date '2020-01-02', expected YYYYMMDD"),
        ("\n\n1.5,2.5\n0.01,0.02\n",
         "line 3: a header row is required, found only numbers"),
    ],
    ids=["cell", "date", "header"],
)
def test_data_errors_name_the_physical_line(tmp_path, capsys, text, message):
    path = tmp_path / "gappy.csv"
    path.write_text(text)
    argv = ["backtest", "--input", str(path), "--estimator", "es-hist",
            "--learn", "2", "--test", "1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]


def test_hist_commands_run_with_scipy_blocked(tmp_path, panel_csv):
    # the historical estimators are numpy alone: with every scipy import made to
    # fail, they still run and write the bytes of an ordinary run
    def argvs(out):
        out.mkdir()
        common = ["--input", str(panel_csv), "--learn", "250", "--test", "50"]
        return [
            ["backtest", *common, "--estimator", "es-hist",
             "--out", str(out / "es.json"), "--heatmap-out", str(out / "es.csv")],
            ["backtest", *common, "--estimator", "var-hist",
             "--out", str(out / "var.json"), "--heatmap-out", str(out / "var.csv")],
            ["compare", *common, "--estimator", "hist", "--out", str(out / "cmp.json")],
        ]

    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # every scipy import now raises ImportError\n"
        "from esbacktest.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs(tmp_path / "blocked"))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0]
    assert [main(argv) for argv in argvs(tmp_path / "plain")] == [0, 0, 0]
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "blocked").iterdir())
    assert len(names) == 5
    for name in names:
        blocked = (tmp_path / "blocked" / name).read_bytes()
        assert blocked == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize(
    "model, expect",
    [
        ("normal", []),
        ("skew-t", ["scipy.optimize"]),
        ("garch-normal", ["scipy.optimize", "scipy.signal"]),
        ("garch-skew-t", ["scipy.optimize", "scipy.signal"]),
    ],
)
def test_simulate_imports_the_fit_modules_of_its_model_before_the_pool(
    tmp_path, panel_csv, model, expect
):
    # a fresh interpreter, so the module table holds only what simulate loaded;
    # the stand-in for parallel_map records it and stops the run there
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "from esbacktest import cli, simulation\n"
        "class Stop(Exception): pass\n"
        "def record(*args, **kwargs):\n"
        "    print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
        "    raise Stop\n"
        "simulation.parallel_map = record\n"
        "try:\n"
        "    cli.main(json.loads(sys.argv[1]))\n"
        "except Stop:\n"
        "    pass\n"
    )
    argv = ["simulate", "--input", str(panel_csv), "--model", model, "--seed", "1",
            "--workers", "2", "--out", str(tmp_path / "sim.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    loaded = set(json.loads(proc.stdout))
    assert {m for m in loaded if m in ("scipy.optimize", "scipy.signal")} == set(expect)
    if not expect:
        assert loaded == set()


def test_a_fit_on_a_parameter_boundary_exits_3_at_any_worker_count(tmp_path):
    # the high-variance half drives the GARCH fit to a1 + b1 = 1; on a process
    # pool the FitError is pickled in a worker and must reach main intact
    rng = np.random.default_rng(18)
    cols = [np.concatenate([rng.normal(0, 0.01, 150), rng.normal(0, 0.1, 150)]).tolist()
            for _ in range(2)]
    panel = tmp_path / "boundary.csv"
    panel.write_text("a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(*cols)))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    errs = []
    for workers in ("1", "2"):
        argv = ["simulate", "--input", str(panel), "--model", "garch-normal",
                "--window", "300", "--seed", "1", "--workers", workers,
                "--out", str(tmp_path / f"sim{workers}.csv")]
        proc = subprocess.run([sys.executable, "-m", "esbacktest.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 3, proc.stderr
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert errs[0].splitlines() == [
        "config error: a[0:300]: fit reached a parameter boundary: "
        "need a1 + b1 < 1 for stationarity, got 1.0"
    ]


@pytest.mark.parametrize(
    "command, estimator, culprit",
    [
        ("backtest", "es-norm", "es_norm reserve at level 0.025"),
        ("backtest", "var-norm", "var_norm reserve at level 0.01"),
        ("compare", "norm", "var_norm reserve at level 0.01"),
    ],
)
def test_overflowing_reserve_exits_3_naming_sample_and_estimator(
    tmp_path, capsys, command, estimator, culprit
):
    x = np.random.default_rng(63).standard_normal((500, 2)) * 1e298
    path = tmp_path / "huge.csv"
    path.write_text("a,b\n" + "".join(f"{u!r},{v!r}\n" for u, v in x.tolist()))
    out = tmp_path / "r.json"
    argv = [command, "--input", str(path), "--estimator", estimator, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: a[0:500]: {culprit} overflows on day 0"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit-code contract under generated input
# ---------------------------------------------------------------------------

_GOOD_CELLS = ("0.01", "-0.02", "0.003", "-0.0004", "0")
_BAD_CELLS = ("nan", "NaN", "inf", "-Infinity", "1e400", "abc", "", "0x1p3")


def _mostly(good, bad):
    """Draw from ``good`` about four times in five, else from ``bad``."""
    return st.sampled_from([*good, *good, *good, *good, *bad])


@st.composite
def _panel_text(draw):
    """A small simple_csv panel: normal, constant or huge columns, maybe broken."""
    n_rows = draw(_mostly([40, 16, 120], [0, 1, 3]))
    n_cols = draw(st.integers(1, 2))
    columns = []
    for _ in range(n_cols):
        kind = draw(_mostly(["returns", "scaled"], ["constant", "huge", "huger"]))
        if kind == "constant":
            columns.append(["0.01"] * n_rows)
        elif kind in ("returns", "scaled"):
            cells = st.sampled_from(_GOOD_CELLS)
            cells = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
            exponent = f"e{draw(_EXPONENT)}" if kind == "scaled" else ""
            columns.append([c + exponent for c in cells])
        else:
            scale = "e298" if kind == "huge" else "e307"
            signs = st.sampled_from(["", "-"])
            signs = draw(st.lists(signs, min_size=n_rows, max_size=n_rows))
            columns.append([f"{s}{1 + i % 7}{scale}" for i, s in enumerate(signs)])
    rows = [",".join(cells) for cells in zip(*columns)]
    broken = draw(_mostly(["none"], ["cell", "short", "long"])) if rows else "none"
    if broken != "none":
        i = draw(st.integers(0, len(rows) - 1))
        if broken == "cell":
            rows[i] = ",".join([draw(st.sampled_from(_BAD_CELLS))] * n_cols)
        elif broken == "short":
            rows[i] = rows[i].rsplit(",", 1)[0] if n_cols > 1 else ""
        else:
            rows[i] += ",0.1"
    header = draw(_mostly([",".join("ab"[:n_cols])], ["", "date"]))
    return "\n".join([header] + rows) + "\n"


# a power of ten that scales a panel column, a law or a GARCH variance
_EXPONENT = st.integers(-300, 308)
_DIST_JSON = st.one_of(
    _mostly(
        ['{"kind": "normal"}', '{"kind": "student_t", "nu": 3}',
         '{"kind": "skew_t", "nu": 5, "xi": 0.8}'],
        ['{"kind": "skew_t", "nu": "5", "xi": 0.8}', '{"kind": "skew_t", "nu": 5}',
         '{"kind": 3}', "[1, 2]", '"normal"', "null", "{"],
    ),
    _EXPONENT.map(lambda k: f'{{"kind": "normal", "mu": 0, "sigma": 1e{k}}}'),
    _EXPONENT.map(lambda k: f'{{"kind": "student_t", "nu": 3, "scale": 1e{k}}}'),
    _EXPONENT.map(lambda k: f'{{"kind": "skew_t", "nu": 5, "xi": 0.8, "scale": 1e{k}}}'),
)
_GARCH_JSON = st.one_of(
    _mostly(
        ['{"mu": 0, "omega": 1e-6, "a1": 0.1, "b1": 0.8}',
         '{"mu": 0, "omega": 1e-6, "a1": 0.1, "b1": 0.8, '
         '"innovation": "skew_t", "nu": 5, "xi": 0.9}'],
        ['{"mu": 0, "omega": "x", "a1": 0.1, "b1": 0.8}',
         '{"mu": 0, "omega": 1e-6, "a1": 0.1, "b1": 0.8, "extra": 1}', "[]", "3.5"],
    ),
    _EXPONENT.map(lambda k: f'{{"mu": 0, "omega": 1e{k}, "a1": 0.1, "b1": 0.8}}'),
)
_LEVEL = _mostly(["0.01", "0.025", "0.2"], ["1e-300", "0", "1.5", "-0.1", "nan"])
_LENGTH = _mostly(["2", "3", "5", "8"], ["0", "1"])
_OUT = _mostly(["out"], ["missing"])


@st.composite
def _argv(draw):
    """argv of one subcommand over the input file 'in.csv' and outputs in 'out/'."""
    command = draw(st.sampled_from(["backtest", "compare", "mc", "simulate"]))
    out = draw(_OUT)
    if command == "mc":
        source = draw(st.sampled_from(["--dist", "--dist-json", "--garch-json"]))
        value = {
            "--dist": st.sampled_from(["normal", "t3"]),
            "--dist-json": _DIST_JSON,
            "--garch-json": _GARCH_JSON,
        }[source]
        return ["mc", source, draw(value), "--runs", draw(st.sampled_from(["1", "40"])),
                "--n", draw(_LENGTH), "--seed", "1", "--alpha-var", draw(_LEVEL),
                "--alpha-es", draw(_LEVEL), "--out-prefix", f"{out}/m"]
    argv = [command, "--input", "in.csv"]
    if command == "simulate":
        model = draw(_mostly(["normal"], ["skew-t", "garch-normal"]))
        return argv + ["--model", model, "--picks", draw(_mostly(["1", "2"], ["0"])),
                       "--window", draw(_mostly(["32", "40", "100"], ["0", "5"])),
                       "--seed", "1", "--out", f"{out}/s.csv",
                       "--fits-out", f"{out}/f.json"]
    argv += ["--learn", draw(_LENGTH), "--test", draw(_LENGTH)]
    if draw(st.booleans()):
        argv.append("--normalize")
    if command == "backtest":
        estimator = st.sampled_from(["var-hist", "es-hist", "var-norm", "es-norm"])
        return argv + ["--estimator", draw(estimator), "--alpha", draw(_LEVEL),
                       "--out", f"{out}/r.json", "--heatmap-out", f"{out}/h.csv"]
    estimator = draw(_mostly(["hist", "norm"], ["es-hist"]))
    return argv + ["--estimator", estimator, "--alpha-var", draw(_LEVEL),
                   "--alpha-z", draw(_LEVEL), "--out", f"{out}/c.json"]


_LEVEL_FIELD = (["0.01", "0.025"], ["1e-300", "0", "1.5", "-0.1", "nan"])
_ROLLING = {"--learn": (["20", "40"], ["0", "1"]), "--test": (["5", "20"], ["0"])}
# subcommand -> {flag: (good values, bad values)} of the fields a valid run perturbs
_FIELDS = {
    "simulate": {"--picks": (["1", "2"], ["0"]), "--window": (["30", "60"], ["0", "5"])},
    "compare": {**_ROLLING, "--alpha-var": _LEVEL_FIELD, "--alpha-z": _LEVEL_FIELD},
    "backtest": {**_ROLLING, "--alpha": _LEVEL_FIELD},
    "mc": {"--n": (["5", "8"], ["0", "1"]), "--alpha-var": _LEVEL_FIELD,
           "--alpha-es": _LEVEL_FIELD},
}


@st.composite
def _valid_run(draw):
    """(text, argv, valid): a run built to exit 0, or one whose single field (a
    flag's value, the output directory or one panel cell) is bad instead;
    ``valid`` says that none is. The panel holds 60 days of t4 returns."""
    command = draw(st.sampled_from(list(_FIELDS)))
    fields = _FIELDS[command]
    perturbable = [*fields, "out"] + (["panel"] if command != "mc" else [])
    # two runs in three are fully valid: the other draws already perturb many fields
    perturbed = draw(st.sampled_from([None] * 2 * len(perturbable) + perturbable))
    out = "missing" if perturbed == "out" else "out"
    argv = [command] if command == "mc" else [command, "--input", "in.csv"]
    for flag, (good, bad) in fields.items():
        argv += [flag, draw(st.sampled_from(bad if flag == perturbed else good))]
    if command in ("backtest", "compare") and draw(st.booleans()):
        argv.append("--normalize")
    if command == "backtest":
        estimator = draw(st.sampled_from(["var-hist", "es-hist", "var-norm", "es-norm"]))
        argv += ["--estimator", estimator, "--out", f"{out}/r.json",
                 "--heatmap-out", f"{out}/h.csv"]
    elif command == "compare":
        argv += ["--estimator", draw(st.sampled_from(["hist", "norm"])),
                 "--out", f"{out}/c.json"]
    elif command == "mc":
        argv += ["--dist", draw(st.sampled_from(["normal", "t3"])), "--runs", "40",
                 "--seed", "1", "--out-prefix", f"{out}/m"]
    else:  # a normal fit takes moments, where a likelihood fit costs ~0.2 s a run
        argv += ["--model", "normal", "--seed", "1", "--out", f"{out}/s.csv",
                 "--fits-out", f"{out}/f.json"]
    n_cols = draw(st.integers(1, 2))
    x = np.random.default_rng(draw(st.integers(0, 2**16))).standard_t(4, (60, n_cols))
    rows = [",".join(repr(v * 0.01) for v in row) for row in x.tolist()]
    if perturbed == "panel":
        rows[draw(st.integers(0, 59))] = ",".join([draw(st.sampled_from(_BAD_CELLS))] * n_cols)
    text = "\n".join([",".join("ab"[:n_cols])] + rows) + "\n"
    return text, argv, perturbed is None


def _contract_run(text, argv) -> int:
    """Exit code of ``argv`` over 'in.csv' holding ``text`` and outputs in 'out/',
    after checking the contract: return code 0, 2 or 3; no exception, no
    warning, at most one stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "out").mkdir()
        (root / "in.csv").write_text(text)
        paths = [str(root / a) if a.startswith(("in.csv", "out/", "missing/")) else a
                 for a in argv]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(paths + ["--workers", "1"])
        assert code in (0, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
        assert [str(w.message) for w in caught] == []
        return code


_HUGE_RETURNS = "x\n" + "".join(
    f"{v!r}\n" for v in (np.random.default_rng(1).standard_normal(600) * 1e148).tolist()
)
_MC_2E306 = ["mc", '--dist-json={"kind":"normal","mu":0,"sigma":2e306}', "--runs", "512",
             "--seed", "1", "--out-prefix", "out/m"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run=st.tuples(_panel_text(), _argv(), st.just(False)) | _valid_run())
# a variance near 1e296, whose first GARCH simplex steps past log(DBL_MAX)
@example(run=(_HUGE_RETURNS, ["simulate", "--input", "in.csv", "--model", "garch-normal",
                              "--window", "600", "--seed", "1", "--out", "out/s.csv"], False))
# sums that overflow above the negative prefix, on the partial and the full sort
@example(run=("a\n0.01\n", _MC_2E306 + ["--n", "250"], False))
@example(run=("a\n0.01\n", _MC_2E306 + ["--n", "49"], False))
def test_generated_runs_keep_the_exit_code_contract(run):
    text, argv, valid = run
    code = _contract_run(text, argv)
    if any(a.startswith("missing/") for a in argv):
        assert code == 3  # before any input is read
    if valid:
        assert code == 0


@pytest.mark.parametrize("k", [-300, -200, -100, -10, 0, 10, 100, 148, 200, 290, 298, 300,
                               305, 307])
def test_runs_scaled_by_a_power_of_ten_keep_the_exit_code_contract(k):
    # every subcommand and family on one panel and four laws scaled by 10^k;
    # a scale that the float range holds comfortably must run
    x = np.random.default_rng(68).standard_t(4, (120, 2)) * 0.01 * 10.0**k
    text = "a,b\n" + "".join(f"{u!r},{v!r}\n" for u, v in x.tolist())
    rolling = ["--input", "in.csv", "--learn", "60", "--test", "60"]
    runs = [["backtest", *rolling, "--estimator", e, "--out", "out/r.json"]
            for e in ("var-hist", "es-hist", "var-norm", "es-norm")]
    runs += [["compare", *rolling, "--estimator", f, "--out", "out/c.json"]
             for f in ("hist", "norm")]
    runs += [["simulate", "--input", "in.csv", "--model", m, "--window", "120", "--picks", "1",
              "--seed", "1", "--out", "out/s.csv"]
             for m in ["normal", "skew-t"] + (["garch-normal"] if k in (0, 148, 300) else [])]
    laws = [f'{{"kind": "normal", "mu": 0, "sigma": 1e{k}}}',
            f'{{"kind": "student_t", "nu": 3, "scale": 1e{k}}}',
            f'{{"kind": "skew_t", "nu": 5, "xi": 0.8, "scale": 1e{k}}}']
    runs += [["mc", "--dist-json", law, "--runs", "40", "--n", "60", "--seed", "1",
              "--out-prefix", "out/m"] for law in laws]
    runs.append(["mc", "--garch-json", f'{{"mu": 0, "omega": 1e{2 * k}, "a1": 0.1, "b1": 0.8}}',
                 "--runs", "40", "--n", "60", "--seed", "1", "--out-prefix", "out/m"])
    codes = [_contract_run(text, argv) for argv in runs]
    if abs(k) <= 100:
        assert codes == [0] * len(runs)
