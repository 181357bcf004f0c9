"""Workload inputs and command plans for the esbacktest benchmark.

Run as a script, this is the benchmark's set-up step: it imports
``esbacktest`` from the checkout, generates one workload's inputs from the
seed, writes them and the command plan to the work directory, and prints
the time all of that took as one JSON line. ``run.py`` starts it in a fresh
interpreter several times per run, so the import is paid each time, as a
CLI user pays it.

    python3 bench/workloads.py --workload desk-panel --seed 1 --work DIR

A plan is a list of CLI commands. ``{out}`` in an argument stands for the
output directory of one pass; ``--workers`` is appended by the runner, so
``ESBACKTEST_WORKERS`` never decides it.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# desk-panel: Student-t(4) returns scaled to a 1% daily sd, split into
# 500-day samples (250 learn + 250 test)
DESK_COLS, DESK_ROWS, DESK_NU, DESK_SD = 10, 500, 4.0, 0.01
SAMPLE = 500

# mc-null: the closed-form laws at 20k runs, enough for the ES table check
# (0.01 is over 4 MC standard errors plus the table's own 0.002 error);
# skew-t and GARCH cost ~10x more per run and run fewer
MC_N, MC_LIGHT_RUNS, MC_HEAVY_RUNS = 250, 20_000, 1_000
SKEWT_JSON = {"kind": "skew_t", "nu": 5.0, "xi": 0.8}
GARCH_JSON = {"mu": 0.0, "omega": 0.05, "a1": 0.1, "b1": 0.85}

# fit-simulate: the fitted panel is the same for every seed. Nelder-Mead
# work depends on the data (one skew-t GARCH fit takes 1.6-3.2 s across
# draws), so with two samples per run a seed-drawn panel would move the
# timings by more than any bound; the seed drives the simulated streams.
FIT_DATA_SEED, FIT_COLS, FIT_PICKS = 20170904, 2, 8
FIT_GARCH = {
    "mu": 0.0003,
    "omega": 2e-6,
    "a1": 0.08,
    "b1": 0.9,
    "innovation": "skew_t",
    "nu": 5.0,
    "xi": 0.85,
}

WORKLOADS = ("desk-panel", "mc-null", "fit-simulate")


def import_esbacktest():
    """Import the package from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import esbacktest

    if not Path(esbacktest.__file__).resolve().is_relative_to(src):
        raise ImportError(f"esbacktest loaded from {esbacktest.__file__}, not {src}")
    return esbacktest


def business_dates(n: int) -> list[int]:
    day, out = dt.date(2000, 1, 3), []
    while len(out) < n:
        if day.weekday() < 5:
            out.append(int(day.strftime("%Y%m%d")))
        day += dt.timedelta(days=1)
    return out


def write_panel(path: Path, names, columns, dates=None) -> None:
    header = (["date"] if dates is not None else []) + list(names)
    lines = [",".join(header)]
    for i, row in enumerate(zip(*columns)):
        cells = [repr(float(v)) for v in row]
        lines.append(",".join(([str(dates[i])] if dates is not None else []) + cells))
    path.write_text("\n".join(lines) + "\n")


def _command(name, group, argv, workers, work, outputs, **spec):
    return {
        "name": name,
        "group": group,
        "argv": argv,
        "workers": workers,
        "work": work,
        "outputs": outputs,
        **spec,
    }


def desk_panel(work: Path, seed: int) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    scale = DESK_SD / np.sqrt(DESK_NU / (DESK_NU - 2.0))
    values = rng.standard_t(DESK_NU, size=(DESK_ROWS, DESK_COLS)) * scale
    names = [f"c{j:02d}" for j in range(1, DESK_COLS + 1)]
    panel = work / "panel.csv"
    write_panel(panel, names, values.T, business_dates(DESK_ROWS))
    samples = DESK_COLS * (DESK_ROWS // SAMPLE)
    base = ["--input", str(panel), "--format", "simple_csv"]

    def backtest(est, group, alpha):
        out = f"bt_{est}"
        argv = ["backtest", *base, "--estimator", est, "--out", f"{{out}}/{out}.json",
                "--heatmap-out", f"{{out}}/{out}_heatmap.csv"]
        return _command(f"backtest {est}", group, argv, 1, samples,
                        [f"{out}.json", f"{out}_heatmap.csv"],
                        kind="backtest", estimator=est.replace("-", "_"), alpha=alpha)

    def compare(family, group):
        argv = ["compare", *base, "--estimator", family, "--out", f"{{out}}/cmp_{family}.json"]
        return _command(f"compare {family}", group, argv, 1, samples, [f"cmp_{family}.json"],
                        kind="compare", family=family,
                        alpha_var=0.01, alpha_es=0.025, alpha_z=0.025)

    return {
        "panel": str(panel),
        "commands": [
            backtest("es-hist", "light", 0.025),
            backtest("var-norm", "heavy", 0.01),
            compare("hist", "light"),
            compare("norm", "heavy"),
        ],
    }


def mc_null(work: Path, seed: int) -> dict:
    def mc(law, group, runs, dist_args):
        argv = ["mc", *dist_args, "--runs", str(runs), "--n", str(MC_N),
                "--seed", str(seed), "--out-prefix", f"{{out}}/{law}"]
        outputs = [f"{law}_var.csv", f"{law}_es.csv", f"{law}_summary.json"]
        return _command(f"mc {law}", group, argv, 2, runs, outputs,
                        law=law, runs=runs, n=MC_N, seed=seed)

    return {
        "commands": [
            mc("normal", "light", MC_LIGHT_RUNS, ["--dist", "normal"]),
            mc("t3", "light", MC_LIGHT_RUNS, ["--dist", "t3"]),
            mc("skewt", "heavy", MC_HEAVY_RUNS, ["--dist-json", json.dumps(SKEWT_JSON)]),
            mc("garch", "heavy", MC_HEAVY_RUNS, ["--garch-json", json.dumps(GARCH_JSON)]),
        ],
    }


def fit_simulate(work: Path, seed: int) -> dict:
    from esbacktest.dist import RngStream
    from esbacktest.simulation import GarchSpec, garch_simulate

    spec = GarchSpec(**FIT_GARCH)
    columns = [garch_simulate(spec, SAMPLE, RngStream(FIT_DATA_SEED, j))[0]
               for j in range(FIT_COLS)]
    names = [f"g{j}" for j in range(FIT_COLS)]
    panel = work / "fit_panel.csv"
    write_panel(panel, names, columns)

    def simulate(model, group):
        out = model.replace("-", "_")
        argv = ["simulate", "--input", str(panel), "--model", model,
                "--picks", str(FIT_PICKS), "--window", str(SAMPLE), "--seed", str(seed),
                "--out", f"{{out}}/{out}.csv", "--fits-out", f"{{out}}/{out}_fits.json"]
        return _command(f"simulate {model}", group, argv, 2, FIT_COLS,
                        [f"{out}.csv", f"{out}_fits.json"],
                        model=out, samples=FIT_COLS, picks=FIT_PICKS, window=SAMPLE)

    return {
        "panel": str(panel),
        "commands": [simulate("skew-t", "light"), simulate("garch-skew-t", "heavy")],
    }


GENERATORS = {"desk-panel": desk_panel, "mc-null": mc_null, "fit-simulate": fit_simulate}


def set_up(workload: str, seed: int, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed, **GENERATORS[workload](work, seed)}
    (work / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True, type=Path)
    args = p.parse_args()
    t0 = time.perf_counter()
    import_esbacktest()
    set_up(args.workload, args.seed, args.work)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
