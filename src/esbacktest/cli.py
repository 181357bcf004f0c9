"""Command-line front end.

Subcommands:

* ``backtest`` - rolling-window backtest of one estimator over a panel;
* ``mc``       - Monte Carlo null distributions of the nominal statistics;
* ``compare``  - VAR, ES, and z backtests side by side with confusions;
* ``simulate`` - fit models per sample and emit simulated panels.

Exit codes: 0 success, 2 input-data error, 3 configuration error. Every
subcommand validates the files it wrote before it returns; a failed output
self-check exits with code 3 and names the check on stderr, since the run
cannot vouch for what it wrote under this configuration. An output path
that cannot be written exits with code 3 too, and a missing output
directory, two outputs at one path or an output at the input's path do so
before any work is done. A run that exits non-zero removes the outputs it
opened, and no other file. Every stochastic subcommand requires an explicit
seed and is byte-reproducible for any worker count. ``--workers`` runs
``backtest``, ``compare`` and ``mc`` on threads, as their numpy kernels
release the GIL (``mc``'s GARCH recursion, a Python loop over the days, steps
groups of blocks, whose numpy calls are long enough to release it too), and
``simulate``'s fits on processes (see ``simulation.simulate_batch``). Without
``--workers`` the count comes from ``ESBACKTEST_WORKERS`` (1 when unset), a
positive integer.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from . import harness, simulation
from .backtest import CALIBRATION, ES_THRESHOLDS, RESULT_FIELDS, VAR_THRESHOLDS, ZONES
from .dist import PRESETS, dist_from_json, preset
from .harness import LEARN, DataError, RollingConfig
from .simulation import McConfig, garch_from_json

__all__ = ["main", "build_parser"]

_ENV_WORKERS = "ESBACKTEST_WORKERS"
_ESTIMATOR_CHOICES = tuple(e.replace("_", "-") for e in harness.ESTIMATORS)
_MODEL_CHOICES = tuple(m.replace("_", "-") for m in simulation.MODELS)


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems as configuration errors."""

    def error(self, message):
        raise ValueError(f"argument error: {message}")


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="path to the return panel")
    p.add_argument(
        "--format",
        choices=harness.FORMATS,
        default="simple_csv",
        help="input layout (ff_daily converts percent rows with YYYYMMDD dates)",
    )
    p.add_argument("--start", type=int, default=None, help="first date, YYYYMMDD")
    p.add_argument("--end", type=int, default=None, help="last date, YYYYMMDD")


def _add_panel_args(p: argparse.ArgumentParser) -> None:
    _add_input_args(p)
    p.add_argument("--learn", type=int, default=LEARN, help="estimation window length")
    p.add_argument("--test", type=int, default=CALIBRATION.n, help="backtest window length")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="divide each day by its reserve before testing",
    )


@functools.cache  # one parser per process, built by the first call: main reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="esbacktest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("backtest", help="rolling-window backtest of one estimator")
    _add_panel_args(p)
    p.add_argument("--estimator", required=True, choices=_ESTIMATOR_CHOICES)
    p.add_argument("--alpha", type=float, default=None, help="estimation level")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--heatmap-out", default=None, help="heatmap CSV path")

    p = sub.add_parser("mc", help="Monte Carlo null distributions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dist", choices=tuple(PRESETS), help="preset law")
    group.add_argument("--dist-json", help="distribution as a JSON object")
    group.add_argument("--garch-json", help="GARCH(1,1) spec as a JSON object")
    p.add_argument("--runs", type=int, default=McConfig.runs)
    p.add_argument("--n", type=int, default=CALIBRATION.n, help="observations per run")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha-var", type=float, default=CALIBRATION.alpha_var)
    p.add_argument("--alpha-es", type=float, default=CALIBRATION.alpha_es)
    p.add_argument("--out-prefix", required=True, help="prefix for output files")

    p = sub.add_parser("compare", help="VAR vs ES vs z-statistic comparison")
    _add_panel_args(p)
    p.add_argument(
        "--estimator",
        required=True,
        choices=harness.FAMILIES + _ESTIMATOR_CHOICES,
        help="estimator family; single-metric choices are rejected",
    )
    p.add_argument("--alpha-var", type=float, default=CALIBRATION.alpha_var)
    p.add_argument("--alpha-es", type=float, default=CALIBRATION.alpha_es)
    p.add_argument(
        "--alpha-z", type=float, default=None, help="level for the z test reserves"
    )
    p.add_argument("--out", required=True, help="JSON report path")

    p = sub.add_parser("simulate", help="fit models per sample and simulate picks")
    _add_input_args(p)
    p.add_argument("--model", required=True, choices=_MODEL_CHOICES)
    p.add_argument("--picks", type=int, default=8, help="simulated series per fit")
    p.add_argument("--window", type=int, default=LEARN + CALIBRATION.n, help="sample length")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="simulated panel CSV path")
    p.add_argument("--fits-out", default=None, help="fitted-parameter JSON path")

    for p in sub.choices.values():
        # None stands for "not given": only then does main read the environment
        p.add_argument("--workers", type=int, default=None)
    return parser


def _load_panel(args) -> harness.ReturnPanel:
    panel = harness.load_returns(args.input, args.format)
    panel = harness.filter_dates(panel, args.start, args.end)
    if panel.dropped_rows:
        print(f"dropped {panel.dropped_rows} rows with missing values", file=sys.stderr)
    return panel


def _report_rows_left(panel: harness.ReturnPanel, window: int, use: str) -> None:
    """Name on stderr the rows at the end of each column that the split into
    samples of ``window`` rows leaves over, if any."""
    first = panel.n_rows - panel.n_rows % window
    if first < panel.n_rows:
        last = panel.n_rows - 1
        rows = f"row {last} of each column is" if first == last else (
            f"rows {first}-{last} of each column are")
        print(f"{rows} not {use} (window {window})", file=sys.stderr)


def _require_output_dirs(*paths, source: Optional[str] = None) -> None:
    """Fail before any work if an output's directory is missing, or an output is
    the input panel ``source`` or another output."""
    seen = {os.path.realpath(source): "an output is the input panel"} if source else {}
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{seen[real]}: {path}")
        seen[real] = "two outputs at one path"


def _open_output(path, opened: list, **kwargs):
    """``open(path, "w", **kwargs)``, adding the file's real path to ``opened``,
    the run's list of the files it wrote, which ``main`` removes if it fails."""
    fh = open(path, "w", **kwargs)
    opened.append(os.path.realpath(path))
    return fh


def _write_json(path, payload, opened: list):
    """Write ``payload`` as JSON and return what the file then holds."""
    with _open_output(path, opened) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    with open(path) as fh:
        return json.load(fh)


def _write_csv(path, header, rows, opened: list, newline="\n") -> list[str]:
    """Write ``header`` and then each of ``rows`` as a UTF-8 CSV line that ends
    in ``newline``, and return the lines the file then holds. The lines stay
    whole: a list of every cell would take several times the file's size."""
    with _open_output(path, opened, encoding="utf-8", newline=newline) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, cells)) + "\n" for cells in rows)
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


class OutputCheckError(Exception):
    """Raised when a file the command wrote fails its self-check."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise OutputCheckError(message)


def _check_csv(path, header: list, lines: list) -> None:
    """The checks of a CSV's read-back ``lines``: the header, then the row widths."""
    _check(bool(lines) and lines[0] == ",".join(header), f"csv header of {path}")
    _check(all(line.count(",") == len(header) - 1 for line in lines), f"csv row in {path}")


def _write_report(args, config, samples, results, summary, expect_z: bool) -> None:
    """Write a per-sample report, read it back and check every result."""
    config.update(
        learn=args.learn, test=args.test, normalize=args.normalize, format=args.format
    )
    report = {
        "config": config,
        "samples": [s.label for s in samples],
        "results": [r.to_json_dict() for r in results],
        "summary": summary,
    }
    report = _write_json(args.out, report, args.opened)
    _check(
        len(report["samples"]) == len(report["results"]), "samples/results aligned"
    )
    for r in report["results"]:
        _check(list(r) == list(RESULT_FIELDS), f"result fields {list(r)}")
        _check(isinstance(r["n"], int) and r["n"] >= 1, "n")
        _check(0 <= r["nominal_t"] <= r["n"], "nominal_t range")
        _check(0 <= r["nominal_g"] <= r["n"], "nominal_g range")
        _check(r["zone_var"] in ZONES and r["zone_es"] in ZONES, "zones")
        _check(r["zone_z"] is None or r["zone_z"] in ZONES, "zone_z")
        if expect_z:
            _check(isinstance(r["z"], float), "z present")


def cmd_backtest(args) -> int:
    heatmap_path = args.heatmap_out or f"{args.out}.heatmap.csv"
    _require_output_dirs(args.out, heatmap_path, source=args.input)
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

    config = {"estimator": cfg.estimator, "alpha": cfg.resolved_alpha}
    summary = {
        "confusion": cm.to_json_dict(),
        "trace_ratio": cm.trace_ratio,
        "dropped_rows": panel.dropped_rows,
    }
    _write_report(args, config, samples, results, summary, expect_z=False)
    header = ["nt_capped", "ng_capped", "count"]
    rows = harness.heatmap_table(results)
    _check_csv(heatmap_path, header, _write_csv(heatmap_path, header, rows, args.opened))
    _report_rows_left(panel, cfg.window, "graded")
    print(f"backtested {len(results)} samples with {cfg.estimator}")
    return 0


def cmd_compare(args) -> int:
    if args.estimator not in harness.FAMILIES:
        raise ValueError(
            "the z test needs reserves for both VAR and ES; "
            "pass --estimator hist or --estimator norm"
        )
    _require_output_dirs(args.out, source=args.input)
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

    # the levels as compare_backtest resolved them: alpha_z defaults to alpha_es
    levels = {f"alpha_{metric}": a for metric, a in results[0].alpha.items()}
    config = {"family": args.estimator, **levels}
    summary = {
        "confusion_var_es": cm_es.to_json_dict(),
        "confusion_var_z": cm_z.to_json_dict(),
    }
    _write_report(args, config, samples, results, summary, expect_z=True)
    _report_rows_left(panel, args.learn + args.test, "graded")
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


def cmd_mc(args) -> int:
    var_csv, es_csv, summary_path = (
        f"{args.out_prefix}{s}" for s in ("_var.csv", "_es.csv", "_summary.json")
    )
    _require_output_dirs(var_csv, es_csv, summary_path)
    # the run parameters, in the order the summary lists them
    params = {k: getattr(args, k) for k in ("runs", "n", "seed", "alpha_var", "alpha_es")}
    cfg = McConfig(dist=_mc_dist(args), **params)
    nulls = simulation.mc_null(cfg, workers=args.workers)
    header = ["nominal_value", "pmf", "cdf"]
    for nd, path in zip(nulls, (var_csv, es_csv)):
        rows = zip(range(nd.n + 1), nd.pmf.tolist(), nd.cdf.tolist())
        _check_csv(path, header, _write_csv(path, header, rows, args.opened, newline="\r\n"))

    def entry(nd, k):
        p_le = nd.prob_at_most(k)
        p_lt = nd.prob_below(k)
        se = float(np.sqrt(max(p_le * (1 - p_le), p_lt * (1 - p_lt)) / nd.runs))
        return {"p_at_most": p_le, "p_below": p_lt, "mc_se": se}

    summary = dict(params)
    for nd, th in zip(nulls, (VAR_THRESHOLDS, ES_THRESHOLDS)):
        # the counts on either side of each zone bound
        points = [k for b in (th.green_upper, th.yellow_upper) for k in (b - 1, b)]
        summary[nd.metric.lower()] = {str(k): entry(nd, k) for k in points}
    summary = _write_json(summary_path, summary, args.opened)
    _check(list(summary) == [*params, "var", "es"], f"summary keys {list(summary)}")
    for metric in ("var", "es"):
        for e in summary[metric].values():
            _check(list(e) == ["p_at_most", "p_below", "mc_se"], f"{metric} entry keys")
            _check(0 <= e["p_below"] <= e["p_at_most"] <= 1, f"{metric} probabilities")

    # zone-boundary readings: counts at most k for VAR, strictly below k for ES
    for nd, reading in zip(nulls, ("p_at_most", "p_below")):
        for k, e in summary[nd.metric.lower()].items():
            print(f"{nd.metric} cdf@{k} = {e[reading]:.4f} ± {e['mc_se']:.4f}")
    return 0


def cmd_simulate(args) -> int:
    if args.picks < 1:
        raise ValueError(f"need picks >= 1, got {args.picks}")
    _require_output_dirs(args.out, args.fits_out, source=args.input)
    panel = _load_panel(args)
    samples = harness.split_samples(panel, args.window)
    model = args.model.replace("-", "_")
    outputs = simulation.simulate_batch(samples, model, args.picks, args.seed, args.workers)

    fits = [{"sample": s.label, "params": params} for s, (params, _) in zip(samples, outputs)]
    names = [f"{s.label}.p{p}" for s in samples for p in range(args.picks)]
    rows = map(np.ndarray.tolist, np.column_stack([sim for _, sims in outputs for sim in sims]))
    _check_csv(args.out, names, _write_csv(args.out, names, rows, args.opened))
    if args.fits_out:
        written = _write_json(args.fits_out, {"model": model, "fits": fits}, args.opened)
        _check(list(written) == ["model", "fits"], f"fits keys {list(written)}")
        _check(written["model"] == model, "fits model")
        _check([f["sample"] for f in written["fits"]] == [s.label for s in samples],
               "one fit per sample")
        _check(all(list(f) == ["sample", "params"] for f in written["fits"]), "fit keys")
    _report_rows_left(panel, args.window, "fitted")
    print(f"simulated {len(names)} series from {len(samples)} fitted samples")
    return 0


_COMMANDS = {
    "backtest": cmd_backtest,
    "mc": cmd_mc,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.workers is None:
            text = os.environ.get(_ENV_WORKERS, "1")
            args.workers = int(text) if text.strip().isdecimal() else 0
            if args.workers < 1:
                raise ValueError(f"{_ENV_WORKERS} must be a positive integer, got {text!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    args.opened = []  # the real paths of the files the run writes (_open_output)
    code = 1  # an uncaught error
    try:
        code = _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        code = 2
    except OutputCheckError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        code = 3
    except ValueError as exc:  # simulation.FitError included
        print(f"config error: {exc}", file=sys.stderr)
        code = 3
    except OSError as exc:  # inputs fail as DataError, so this is an output file
        print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        code = 3
    finally:
        if code:  # a failed run leaves none of its outputs
            for path in filter(os.path.isfile, args.opened):
                os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
