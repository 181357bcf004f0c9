"""Command-line front end.

Subcommands:

* ``backtest`` - rolling-window backtest of one estimator over a panel;
* ``mc``       - Monte Carlo null distributions of the nominal statistics;
* ``compare``  - VAR, ES, and z backtests side by side with confusions;
* ``simulate`` - fit models per sample and emit simulated panels.

Exit codes: 0 success, 2 input-data error, 3 configuration error. Every
subcommand validates the files it wrote before it returns; a failed output
self-check exits with code 3 and names the check on stderr, since the run
cannot vouch for what it wrote under this configuration. Every stochastic
subcommand requires an explicit seed and is byte-reproducible for any
worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import harness, simulation
from .backtest import ZONES
from .dist import dist_from_json, preset
from .harness import DataError, RollingConfig
from .simulation import McConfig, garch_from_json

__all__ = ["main", "build_parser"]

_ENV_WORKERS = "ESBACKTEST_WORKERS"


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems as configuration errors."""

    def error(self, message):
        raise ValueError(f"argument error: {message}")


def _default_workers() -> int:
    return int(os.environ.get(_ENV_WORKERS, "1"))


def _add_panel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="path to the return panel")
    p.add_argument(
        "--format",
        choices=("ff_daily", "simple_csv"),
        default="simple_csv",
        help="input layout (ff_daily converts percent rows with YYYYMMDD dates)",
    )
    p.add_argument("--start", type=int, default=None, help="first date, YYYYMMDD")
    p.add_argument("--end", type=int, default=None, help="last date, YYYYMMDD")
    p.add_argument("--learn", type=int, default=250, help="estimation window length")
    p.add_argument("--test", type=int, default=250, help="backtest window length")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="divide each day by its reserve before testing",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="esbacktest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("backtest", help="rolling-window backtest of one estimator")
    _add_panel_args(p)
    p.add_argument(
        "--estimator",
        required=True,
        choices=("var-hist", "var-norm", "es-hist", "es-norm"),
    )
    p.add_argument("--alpha", type=float, default=None, help="estimation level")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--heatmap-out", default=None, help="heatmap CSV path")
    p.add_argument("--workers", type=int, default=_default_workers())

    p = sub.add_parser("mc", help="Monte Carlo null distributions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--dist", choices=("normal", "t3", "t5", "t10", "t15"), help="preset law"
    )
    group.add_argument("--dist-json", help="distribution as a JSON object")
    group.add_argument("--garch-json", help="GARCH(1,1) spec as a JSON object")
    p.add_argument("--runs", type=int, default=50_000)
    p.add_argument("--n", type=int, default=250, help="observations per run")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha-var", type=float, default=0.01)
    p.add_argument("--alpha-es", type=float, default=0.025)
    p.add_argument("--out-prefix", required=True, help="prefix for output files")
    p.add_argument("--workers", type=int, default=_default_workers())

    p = sub.add_parser("compare", help="VAR vs ES vs z-statistic comparison")
    _add_panel_args(p)
    p.add_argument(
        "--estimator",
        required=True,
        choices=("hist", "norm", "var-hist", "var-norm", "es-hist", "es-norm"),
        help="estimator family; single-metric choices are rejected",
    )
    p.add_argument("--alpha-var", type=float, default=0.01)
    p.add_argument("--alpha-es", type=float, default=0.025)
    p.add_argument(
        "--alpha-z", type=float, default=None, help="level for the z test reserves"
    )
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--workers", type=int, default=_default_workers())

    p = sub.add_parser("simulate", help="fit models per sample and simulate picks")
    _add_panel_args(p)
    p.add_argument(
        "--model",
        required=True,
        choices=("normal", "skew-t", "garch-normal", "garch-skew-t"),
    )
    p.add_argument("--picks", type=int, default=8, help="simulated series per fit")
    p.add_argument("--window", type=int, default=500, help="sample length")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="simulated panel CSV path")
    p.add_argument("--fits-out", default=None, help="fitted-parameter JSON path")
    p.add_argument("--workers", type=int, default=_default_workers())

    return parser


def _load_panel(args) -> harness.ReturnPanel:
    panel = harness.load_returns(args.input, args.format)
    panel = harness.filter_dates(panel, args.start, args.end)
    if panel.dropped_rows:
        print(f"dropped {panel.dropped_rows} rows with missing values", file=sys.stderr)
    return panel


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


_RESULT_KEYS = {
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


class OutputCheckError(Exception):
    """Raised when a file the command wrote fails its self-check."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise OutputCheckError(message)


def _validate_result_dict(r: dict) -> None:
    _check(set(r) == _RESULT_KEYS, f"result fields {sorted(r)}")
    _check(isinstance(r["n"], int) and r["n"] >= 1, "n")
    _check(0 <= r["nominal_t"] <= r["n"], "nominal_t range")
    _check(0 <= r["nominal_g"] <= r["n"], "nominal_g range")
    _check(r["zone_var"] in ZONES and r["zone_es"] in ZONES, "zones")
    _check(r["zone_z"] is None or r["zone_z"] in ZONES, "zone_z")


def _validate_report(path, expect_z: bool) -> None:
    with open(path) as fh:
        report = json.load(fh)
    _check(
        len(report["samples"]) == len(report["results"]), "samples/results aligned"
    )
    for r in report["results"]:
        _validate_result_dict(r)
        if expect_z:
            _check(isinstance(r["z"], float), "z present")


def _validate_csv(path, header: str) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    _check(bool(lines) and lines[0] == header, f"csv header of {path}")
    for line in lines[1:]:
        _check(len(line.split(",")) == len(header.split(",")), f"csv row in {path}")


def cmd_backtest(args) -> int:
    cfg = RollingConfig(
        estimator=args.estimator.replace("-", "_"),
        learn=args.learn,
        test=args.test,
        alpha=args.alpha,
        normalize=args.normalize,
    )
    panel = _load_panel(args)
    samples = harness.split_samples(panel, cfg.window)
    results = harness.run_batch(samples, cfg, workers=args.workers)
    cm = harness.confusion([r.zone_var for r in results], [r.zone_es for r in results])
    heatmap = harness.heatmap_table(results)
    heatmap_path = args.heatmap_out or f"{args.out}.heatmap.csv"

    report = {
        "config": {
            "estimator": cfg.estimator,
            "alpha": cfg.resolved_alpha,
            "learn": cfg.learn,
            "test": cfg.test,
            "normalize": cfg.normalize,
            "format": args.format,
        },
        "samples": [s.label for s in samples],
        "results": [r.to_json_dict() for r in results],
        "summary": {
            "confusion": cm.to_json_dict(),
            "trace_ratio": cm.trace_ratio,
            "dropped_rows": panel.dropped_rows,
        },
    }
    _write_json(args.out, report)
    harness.write_heatmap_csv(heatmap, heatmap_path)
    _validate_report(args.out, expect_z=False)
    _validate_csv(heatmap_path, "nt_capped,ng_capped,count")
    print(f"backtested {len(results)} samples with {cfg.estimator}")
    return 0


def cmd_compare(args) -> int:
    if args.estimator not in harness.FAMILIES:
        raise ValueError(
            "the z test needs reserves for both VAR and ES; "
            "pass --estimator hist or --estimator norm"
        )
    panel = _load_panel(args)
    samples = harness.split_samples(panel, args.learn + args.test)
    results = harness.run_compare_batch(
        samples,
        workers=args.workers,
        family=args.estimator,
        learn=args.learn,
        test=args.test,
        alpha_var=args.alpha_var,
        alpha_es=args.alpha_es,
        alpha_z=args.alpha_z,
        normalize=args.normalize,
    )
    zones_var = [r.zone_var for r in results]
    cm_es = harness.confusion(zones_var, [r.zone_es for r in results])
    cm_z = harness.confusion(zones_var, [r.zone_z for r in results])

    report = {
        "config": {
            "family": args.estimator,
            "alpha_var": args.alpha_var,
            "alpha_es": args.alpha_es,
            "alpha_z": args.alpha_z if args.alpha_z is not None else args.alpha_es,
            "learn": args.learn,
            "test": args.test,
            "normalize": args.normalize,
            "format": args.format,
        },
        "samples": [s.label for s in samples],
        "results": [r.to_json_dict() for r in results],
        "summary": {
            "confusion_var_es": cm_es.to_json_dict(),
            "confusion_var_z": cm_z.to_json_dict(),
        },
    }
    _write_json(args.out, report)
    _validate_report(args.out, expect_z=True)
    print(
        f"compared {len(results)} samples: "
        f"VAR-vs-ES trace {cm_es.trace_ratio:.3f}, "
        f"VAR-vs-z trace {cm_z.trace_ratio:.3f}"
    )
    return 0


def _mc_dist(args):
    if args.dist is not None:
        return preset(args.dist)
    if args.dist_json is not None:
        return dist_from_json(_parse_json_arg(args.dist_json))
    return garch_from_json(_parse_json_arg(args.garch_json))


def _parse_json_arg(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON argument: {exc}") from None


_VAR_POINTS = (4, 5, 9, 10)
_ES_POINTS = (11, 12, 24, 25)


def cmd_mc(args) -> int:
    cfg = McConfig(
        dist=_mc_dist(args),
        seed=args.seed,
        n=args.n,
        runs=args.runs,
        alpha_var=args.alpha_var,
        alpha_es=args.alpha_es,
    )
    nd_var, nd_es = simulation.mc_null(cfg, workers=args.workers)

    var_csv = f"{args.out_prefix}_var.csv"
    es_csv = f"{args.out_prefix}_es.csv"
    nd_var.to_csv(var_csv)
    nd_es.to_csv(es_csv)

    def entry(nd, k):
        p_le = nd.prob_at_most(k)
        p_lt = nd.prob_below(k)
        se = float(np.sqrt(max(p_le * (1 - p_le), p_lt * (1 - p_lt)) / nd.runs))
        return {"p_at_most": p_le, "p_below": p_lt, "mc_se": se}

    summary = {
        "runs": cfg.runs,
        "n": cfg.n,
        "seed": cfg.seed,
        "alpha_var": cfg.alpha_var,
        "alpha_es": cfg.alpha_es,
        "var": {str(k): entry(nd_var, k) for k in _VAR_POINTS},
        "es": {str(k): entry(nd_es, k) for k in _ES_POINTS},
    }
    summary_path = f"{args.out_prefix}_summary.json"
    _write_json(summary_path, summary)
    _validate_csv(var_csv, "nominal_value,pmf,cdf")
    _validate_csv(es_csv, "nominal_value,pmf,cdf")

    # zone-boundary readings: counts at most k for VAR, strictly below k for ES
    for k in _VAR_POINTS:
        e = summary["var"][str(k)]
        print(f"VAR cdf@{k} = {e['p_at_most']:.4f} ± {e['mc_se']:.4f}")
    for k in _ES_POINTS:
        e = summary["es"][str(k)]
        print(f"ES cdf@{k} = {e['p_below']:.4f} ± {e['mc_se']:.4f}")
    return 0


def cmd_simulate(args) -> int:
    if args.picks < 1:
        raise ValueError(f"need picks >= 1, got {args.picks}")
    panel = _load_panel(args)
    samples = harness.split_samples(panel, args.window)
    model = args.model.replace("-", "_")
    tasks = [
        (s.values, model, args.picks, args.seed, i * args.picks)
        for i, s in enumerate(samples)
    ]
    outputs = harness._parallel_map(_simulate_task, tasks, args.workers)

    names, columns, fits = [], [], []
    for sample, (params, sims) in zip(samples, outputs):
        fits.append({"sample": sample.label, "params": params})
        for p, sim in enumerate(sims):
            names.append(f"{sample.label}.p{p}")
            columns.append(sim)

    with open(args.out, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        block = np.column_stack(columns)
        for row in block:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    if args.fits_out:
        _write_json(args.fits_out, {"model": model, "fits": fits})
    _validate_csv(args.out, ",".join(names))
    print(f"simulated {len(columns)} series from {len(samples)} fitted samples")
    return 0


def _simulate_task(task):
    values, model, picks, seed, base = task
    return simulation.fit_and_simulate(values, model, picks, seed, base)


_COMMANDS = {
    "backtest": cmd_backtest,
    "mc": cmd_mc,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OutputCheckError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, simulation.FitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
