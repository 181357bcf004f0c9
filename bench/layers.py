"""Per-layer timings: public functions of each module, timed from outside.

Each row is the median over repeats of the time per call, with the work one
call does beside it. Inputs come from the workload seed, except the fits,
which use the fixed fit-simulate sample so that their Nelder-Mead work is
the same in every run. The arrow in each comment names the end-to-end
metrics the rows should move (see bench/README.md).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import workloads

REPEATS = 5


def per_call(fn, inner: int = 1, repeats: int = REPEATS) -> float:
    """Median over ``repeats`` of the seconds per call of ``fn``, ``inner`` calls each."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def measure(work, seed: int) -> list[tuple[str, float, str, str]]:
    """Rows of (metric name, value, unit, work per call)."""
    from esbacktest import backtest, dist, estimators, harness, secured, simulation

    rows = []

    def row(name, seconds, unit, note):
        scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
        rows.append((name, seconds * scale, unit, note))

    rng = np.random.default_rng(seed)
    x250 = rng.standard_t(4.0, 250) * 0.007
    reserve = np.full(250, 0.02)
    stream = dist.RngStream(seed, 1)
    normal, t3, skewt = dist.Normal(), dist.StudentT(3.0), dist.SkewT(5.0, 0.8)

    # dist -> light_s, heavy_s on mc-null and on fit-simulate
    row("dist.stream_us", per_call(stream.generator, 500), "us", "1 Philox generator")
    row("dist.sample_normal_us", per_call(lambda: normal.sample(250, stream), 500), "us",
        "250 draws (2 KB)")
    row("dist.sample_t3_us", per_call(lambda: t3.sample(250, stream), 500), "us",
        "250 draws (2 KB)")
    row("dist.sample_skewt_us", per_call(lambda: skewt.sample(250, stream), 50), "us",
        "250 draws via t.ppf (2 KB)")
    x500 = rng.standard_t(5.0, 500)
    row("dist.skewt_logpdf_us", per_call(lambda: skewt.logpdf(x500), 50), "us",
        "500 points (4 KB in)")

    # backtest, secured -> desk-panel; the same sort+cumsum tally feeds light_s on mc-null
    y = x250 + reserve
    row("backtest.t_stat_us", per_call(lambda: backtest.t_stat(y), 1000), "us", "n=250")
    row("backtest.g_stat_us", per_call(lambda: backtest.g_stat(y), 1000), "us",
        "n=250, sort+cumsum of 2 KB")
    row("backtest.z_stat_us",
        per_call(lambda: backtest.z_stat(x250, reserve, reserve * 1.2, 0.025), 1000), "us",
        "n=250, 3 series")
    row("secured.build_secured_us", per_call(lambda: secured.build_secured(x250, reserve), 1000),
        "us", "n=250")
    row("secured.build_normalized_us",
        per_call(lambda: secured.build_normalized(x250, reserve), 1000), "us", "n=250")

    # estimators -> light_s (empirical), heavy_s (normal, with moments) on desk-panel
    for name, fn in (("var_empirical", lambda: estimators.var_empirical(x250, 0.01)),
                     ("es_empirical", lambda: estimators.es_empirical(x250, 0.025)),
                     ("var_normal", lambda: estimators.var_normal(estimators.moments(x250), 0.01)),
                     ("es_normal", lambda: estimators.es_normal(estimators.moments(x250), 0.025))):
        row(f"estimators.{name}_us", per_call(fn, 500), "us", "one 250-day window")
    row("estimators.true_risk_skewt_ms",
        per_call(lambda: estimators.true_risk(skewt, 0.025, "ES"), 3), "ms",
        "ES by quadrature, once per MC chunk")

    # harness -> desk-panel; the executor rows -> wall_s on fit-simulate
    panel_dir = work / "layer_inputs"
    panel_dir.mkdir(exist_ok=True)
    panel_path = workloads.desk_panel(panel_dir, seed)["panel"]
    size = (panel_dir / "panel.csv").stat().st_size
    row("harness.load_returns_ms",
        per_call(lambda: harness.load_returns(panel_path, "simple_csv")), "ms",
        f"{size} bytes read")
    panel = harness.load_returns(panel_path, "simple_csv")
    samples = harness.split_samples(panel, 500)
    x = samples[0].values
    for est in harness.ESTIMATORS:
        cfg = harness.RollingConfig(est)
        row(f"harness.rolling_ms.{est}", per_call(lambda: harness.rolling_backtest(x, cfg)),
            "ms", "one 500-day sample, 250 windows")
    for family in harness.FAMILIES:
        row(f"harness.compare_ms.{family}",
            per_call(lambda: harness.compare_backtest(x, family)), "ms",
            "one 500-day sample, 3 reserve series")
    cfg = harness.RollingConfig("es_norm")
    batch = {w: per_call(lambda: harness.run_batch(samples[:8], cfg, workers=w), repeats=3)
             for w in (1, 2)}
    row("harness.run_batch_s.w1", batch[1], "s", "8 es_norm samples")
    row("harness.run_batch_s.w2", batch[2], "s", "8 es_norm samples, 2 processes")
    rows.append(("harness.scaling_eff", batch[1] / (2 * batch[2]), "ratio", "t(w1)/(2 t(w2))"))

    # simulation -> mc-null and fit-simulate
    mc_runs = {"normal": (normal, 2000, 250), "t3": (t3, 2000, 250),
               "skewt": (skewt, 300, 250),
               "garch": (simulation.garch_from_json(workloads.GARCH_JSON), 300,
                         250 + simulation.GARCH_BURN_IN)}
    for law, (spec, runs, draws) in mc_runs.items():
        cfg = simulation.McConfig(dist=spec, seed=seed, runs=runs)
        t = per_call(lambda: simulation.mc_null(cfg, workers=1), repeats=3)
        row(f"simulation.mc_us_per_run.{law}", t / runs, "us",
            f"{draws} draws per run, {runs} runs at w1")
    cfg = simulation.McConfig(dist=normal, seed=seed, runs=6000)
    mc = {w: per_call(lambda: simulation.mc_null(cfg, workers=w), repeats=3) for w in (1, 2)}
    rows.append(("simulation.mc_scaling_eff", mc[1] / (2 * mc[2]), "ratio",
                 "normal, 6000 runs, t(w1)/(2 t(w2))"))
    garch = mc_runs["garch"][0]
    row("simulation.garch_simulate_us",
        per_call(lambda: simulation.garch_simulate(garch, 250, stream), 50), "us",
        f"GARCH-normal, 250 kept of {250 + simulation.GARCH_BURN_IN} steps")

    fit_x = simulation.garch_simulate(simulation.GarchSpec(**workloads.FIT_GARCH),
                                      workloads.SAMPLE,
                                      dist.RngStream(workloads.FIT_DATA_SEED, 0))[0]
    errors = 0

    def fit(fn, *args):
        nonlocal errors
        try:
            fn(fit_x, *args)
        except simulation.FitError:
            errors += 1

    for name, fn, arg, repeats in (("garch_fit_s.normal", simulation.garch_fit, "normal", 3),
                                   ("garch_fit_s.skew_t", simulation.garch_fit, "skew_t", 3),
                                   ("fit_iid_s.skew_t", simulation.fit_iid, "skew_t", 3)):
        before = errors
        t = per_call(lambda: fit(fn, arg), repeats=repeats)
        row(f"simulation.{name}", t, "s",
            f"n=500, {repeats} fits, {errors - before} FitError")
    return rows
