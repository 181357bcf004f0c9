"""Command-line behaviour: exit codes, file outputs, reproducibility."""

import json

import numpy as np
import pytest

from esbacktest import cli
from esbacktest.cli import main


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


def test_failed_output_self_check_exits_3(tmp_path, panel_csv, capsys, monkeypatch):
    def failing_check(path, header):
        cli._check(False, f"forced failure for {header}")

    monkeypatch.setattr(cli, "_validate_csv", failing_check)
    argv = ["backtest", "--input", str(panel_csv), "--estimator", "var-hist"]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "output check failed: forced failure for nt_capped" in err
    assert "Traceback" not in err


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
    assert set(summary["es"]) == {"11", "12", "24", "25"}
    assert set(summary["var"]) == {"4", "5", "9", "10"}


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
    for row in range(2500):
        date = 20050000 + row  # monotone 8-digit identifiers
        cells = ",".join(f"{v:.4f}" for v in rng.standard_normal(25))
        lines.append(f"{date},{cells}")
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
