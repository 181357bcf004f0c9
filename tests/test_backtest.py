"""Backtest statistics: counting forms, dual forms, z test, classification."""

import json

import numpy as np
import pytest
from scipy import stats

from esbacktest.backtest import (
    ES_THRESHOLDS,
    VAR_THRESHOLDS,
    Z_THRESHOLDS,
    BacktestResult,
    ZoneThresholds,
    classify,
    dual_g,
    dual_t,
    g_stat,
    t_stat,
    z_stat,
)
from esbacktest.estimators import true_risk
from esbacktest.dist import Normal
from esbacktest.secured import build_normalized, build_secured

# ---------------------------------------------------------------------------
# counting forms
# ---------------------------------------------------------------------------


def test_t_stat_hand_examples():
    assert t_stat([1, 1, 1, 1]) == (0.0, 0, 4)
    assert t_stat([-1, 1, 1, 1]) == (0.25, 1, 4)


def test_t_stat_zero_is_not_a_breach():
    assert t_stat([0.0, -0.0, 1.0]).nominal == 0


def test_g_stat_hand_examples():
    assert g_stat([-3, 1, 1, 3]) == (0.75, 3, 4)
    # zero partial sum is not negative
    assert g_stat([-3, 1, 2, 5]) == (0.5, 2, 4)
    # total sum negative: every prefix counts
    assert g_stat([-5, 1]) == (1.0, 2, 2)


def test_stats_accept_secured_samples():
    y = build_secured([-3.0, 1.0, 2.0, 5.0], np.zeros(4))
    assert t_stat(y).nominal == 1
    assert g_stat(y).nominal == 2


def test_t_stat_binomial_mean_over_mc_runs():
    rng = np.random.default_rng(42)
    addon = true_risk(Normal(), 0.01, "VAR")
    x = rng.standard_normal((50_000, 250)) + addon
    counts = (x < 0).sum(axis=1)
    # Binomial(250, 0.01) mean is 2.5; MC standard error ~0.007
    assert abs(counts.mean() - 2.5) < 0.03


def test_g_dominates_t_on_random_samples():
    rng = np.random.default_rng(43)
    for _ in range(500):
        y = rng.standard_normal(int(rng.integers(1, 80)))
        assert g_stat(y).nominal >= t_stat(y).nominal


def test_t_invariant_under_normalization():
    rng = np.random.default_rng(44)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        pnl = rng.standard_normal(n)
        reserve = rng.uniform(0.1, 2.0, n)
        raw = t_stat(build_secured(pnl, reserve))
        norm = t_stat(build_normalized(pnl, reserve))
        assert raw == norm


def test_g_stat_scale_invariant():
    rng = np.random.default_rng(45)
    for _ in range(300):
        y = rng.standard_normal(int(rng.integers(1, 60)))
        lam = float(rng.uniform(0.01, 100.0))
        assert g_stat(lam * y) == g_stat(y)


# ---------------------------------------------------------------------------
# dual forms
# ---------------------------------------------------------------------------


def test_dual_t_hand_examples():
    assert dual_t([-3, 1, 2, 5]) == 0.25
    assert dual_t([1.0, 2.0]) == 0.0
    assert dual_t([-1.0, -2.0]) == 1.0


def test_dual_g_hand_examples():
    # ES step function for (-3,1,2,5): 3 on (0,.25), 1 on [.25,.5), 0 at .5
    assert dual_g([-3, 1, 2, 5]) == 0.5
    assert dual_g([1.0, 2.0]) == 0.0


def test_duality_identities_on_random_vectors():
    rng = np.random.default_rng(46)
    for _ in range(2000):
        n = int(rng.integers(1, 65))
        y = rng.standard_normal(n) + rng.normal(scale=0.5)
        assert dual_t(y) == t_stat(y).value
        assert dual_g(y) == g_stat(y).value


def test_duality_identities_on_heavy_tailed_vectors():
    rng = np.random.default_rng(47)
    for _ in range(500):
        n = int(rng.integers(1, 65))
        y = rng.standard_t(3.0, n) * rng.uniform(0.2, 5.0)
        assert dual_t(y) == t_stat(y).value
        assert dual_g(y) == g_stat(y).value


# ---------------------------------------------------------------------------
# z statistic
# ---------------------------------------------------------------------------


def test_z_stat_no_breaches_scores_minus_one():
    z = z_stat([1.0, 2.0, 0.5], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], 0.025)
    assert z == -1.0
    assert classify(z, Z_THRESHOLDS) == "green"


def test_z_stat_single_breach_arithmetic():
    # core = -5 / (0.5 * 2) + 1 = -4, reported negated
    assert z_stat([-5.0], [2.0], [2.0], 0.5) == 4.0
    assert classify(4.0, Z_THRESHOLDS) == "red"


def test_z_stat_null_mean_is_zero():
    d = Normal()
    var_true = true_risk(d, 0.025, "VAR")
    es_true = true_risk(d, 0.025, "ES")
    rng = np.random.default_rng(48)
    n, runs = 250, 20_000
    x = rng.standard_normal((runs, n))
    breach = x + var_true < 0
    core = (x * breach / (0.025 * es_true)).sum(axis=1) / n + 1.0
    zs = -core
    # per-run sd is ~0.4, so the run-mean sd is ~0.003
    assert abs(zs.mean()) < 0.02


def test_z_stat_rejects_nonpositive_es_on_breach_days():
    with pytest.raises(ValueError, match="breach day 0"):
        z_stat([-5.0], [2.0], [0.0], 0.5)
    # nonpositive reserve on a covered day is tolerated
    assert z_stat([5.0], [2.0], [-1.0], 0.5) == -1.0


def test_z_stat_rejects_non_finite_reserves():
    with pytest.raises(ValueError, match="es_reserve has non-finite value nan at index 0"):
        z_stat([-5.0, 1.0], [2.0, 2.0], [np.nan, 1.0], 0.5)
    with pytest.raises(ValueError, match="var_reserve has non-finite value nan"):
        z_stat([-5.0], [np.nan], [1.0], 0.5)
    with pytest.raises(ValueError, match="realized has non-finite value inf"):
        z_stat([np.inf], [1.0], [1.0], 0.5)


def test_z_stat_rejects_bad_inputs():
    with pytest.raises(ValueError, match="length mismatch"):
        z_stat([1.0, 2.0], [1.0], [1.0], 0.5)
    with pytest.raises(ValueError):
        z_stat([1.0], [1.0], [1.0], 1.5)
    with pytest.raises(ValueError):
        z_stat([], [], [], 0.5)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_var_zones():
    assert classify(4, VAR_THRESHOLDS) == "green"
    assert classify(5, VAR_THRESHOLDS) == "yellow"
    assert classify(9, VAR_THRESHOLDS) == "yellow"
    assert classify(10, VAR_THRESHOLDS) == "red"


def test_classify_es_zones():
    assert classify(11, ES_THRESHOLDS) == "green"
    assert classify(12, ES_THRESHOLDS) == "yellow"
    assert classify(24, ES_THRESHOLDS) == "yellow"
    assert classify(25, ES_THRESHOLDS) == "red"


def test_classify_z_zones():
    assert classify(-1.0, Z_THRESHOLDS) == "green"
    assert classify(0.7, Z_THRESHOLDS) == "yellow"
    assert classify(1.8, Z_THRESHOLDS) == "red"


def test_classify_is_monotone():
    order = {"green": 0, "yellow": 1, "red": 2}
    values = np.linspace(-2, 30, 200)
    for th in (VAR_THRESHOLDS, ES_THRESHOLDS, Z_THRESHOLDS):
        ranks = [order[classify(v, th)] for v in values]
        assert ranks == sorted(ranks)


def test_statistics_reject_non_finite_samples():
    for stat in (t_stat, g_stat):
        with pytest.raises(ValueError, match="non-finite value nan at index 1"):
            stat([1.0, np.nan, -1.0])


def test_classify_rejects_non_finite_statistics():
    for value in (float("nan"), float("inf"), np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            classify(value, VAR_THRESHOLDS)


def test_thresholds_must_be_ordered():
    with pytest.raises(ValueError):
        ZoneThresholds("VAR", 10, 5)


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------


def test_backtest_result_json_fields_exact():
    r = BacktestResult(
        n=250,
        alpha=0.025,
        estimator="es_hist",
        normalized=False,
        nominal_t=3,
        nominal_g=7,
        zone_var="green",
        zone_es="green",
    )
    payload = r.to_json_dict()
    assert set(payload) == {
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
    assert payload["z"] is None
    assert json.loads(json.dumps(payload)) == payload


def test_backtest_result_validates_counts():
    with pytest.raises(ValueError):
        BacktestResult(
            n=10,
            alpha=0.01,
            estimator="var_hist",
            normalized=False,
            nominal_t=11,
            nominal_g=11,
            zone_var="red",
            zone_es="red",
        )
