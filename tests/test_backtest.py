"""Backtest statistics: counting forms, dual forms, z test, classification."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from esbacktest.backtest import (
    CALIBRATION,
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
    _exceptions,
    _grade,
    _negative_sums,
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


# Samples for the properties below: entries are 0 or at least 1e-100 in
# magnitude, so scaling by a power of two in [2^-30, 2^30] is exact.
_entries = st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False).filter(
    lambda v: v == 0 or abs(v) >= 1e-100
)
_samples = st.lists(_entries, min_size=1, max_size=64).map(np.array)
_powers_of_two = st.integers(min_value=-30, max_value=30).map(lambda k: 2.0**k)


@settings(max_examples=200, deadline=None)
@given(_samples)
def test_property_g_at_least_t(y):
    assert g_stat(y).nominal >= t_stat(y).nominal


@settings(max_examples=200, deadline=None)
@given(_samples, _powers_of_two)
def test_property_t_and_g_unchanged_under_positive_scaling(y, lam):
    assert t_stat(lam * y) == t_stat(y)
    assert g_stat(lam * y) == g_stat(y)


@settings(max_examples=200, deadline=None)
@given(_samples)
def test_property_dual_t_equals_t_stat(y):
    assert dual_t(y) == t_stat(y).value


# distinct integers: every partial sum and tail mean is exact
_distinct_integers = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=64, unique=True
).map(lambda v: np.array(v, dtype=float))


@settings(max_examples=300, deadline=None)
@given(_distinct_integers)
def test_property_dual_g_equals_g_stat_on_distinct_values(y):
    assert dual_g(y) == g_stat(y).value


def test_dual_g_differs_from_g_stat_with_tied_values():
    # the "distinct values" condition of dual_g is needed: ties break it
    y = [-2, 4, 2, 4, -3, 2, 4, -4, -1, 1]
    assert dual_g(y) == 0.7
    assert g_stat(y).value == 0.8


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


def test_overflowing_statistics_are_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="z statistic overflows"):
            z_stat([-1e300, 1.0], [1.0, 1.0], [1e-300, 1.0], 0.5)
        with pytest.raises(ValueError, match="partial sums of the sorted sample overflow"):
            g_stat([-1e308, -1e308, 1e308])


def _t_identity(x, r):
    with np.errstate(over="ignore"):  # a sum past the float range is an exact +-inf
        added = x + r
    got = _exceptions(x, r)
    assert np.array_equal(got, _exceptions(added))
    assert np.array_equal(got, (added < 0).sum(-1))
    return got


def test_exceptions_against_a_reserve_count_as_the_secured_sum_does():
    # the Monte Carlo compares x < -r where the grader counts x + r < 0
    x = np.random.default_rng(9).standard_t(4, size=(30, 250))
    for sign in (1.0, -1.0):
        for r in (sign * 2.5, sign * np.abs(x[:, :1]), sign * np.abs(x[0]),
                  sign * np.abs(np.random.default_rng(10).standard_t(4, size=x.shape))):
            _t_identity(x, r)
    # days exactly at -r are not exceptions, in the Monte Carlo as in the grader
    r = np.abs(x)
    assert _t_identity(-r, r).tolist() == [0] * 30
    assert _t_identity(np.nextafter(-r, -np.inf), r).tolist() == [250] * 30
    # signed zeros: -0.0 + 0.0, 0.0 + -0.0 and -0.0 + -0.0 are all zero
    zeros = np.array([[-0.0, 0.0, -0.0, 0.0]])
    assert _t_identity(zeros, np.array([0.0, -0.0, -0.0, 0.0])).tolist() == [0]
    # sums that overflow to -inf are exceptions and sums that overflow to +inf are not
    big = np.array([1e308, -1e308, 1.7e308, -1.7e308])
    assert _t_identity(big, big).tolist() == 2


def _grade_oracle(x, var_reserve, es_reserve, normalize):
    """Per-row (T, G) from the public builders and statistics, one row at a time."""
    build = build_normalized if normalize else build_secured
    v, e = (np.broadcast_to(r, x.shape) for r in (var_reserve, es_reserve))
    return ([t_stat(build(row, r)).nominal for row, r in zip(x, v)],
            [g_stat(build(row, r)).nominal for row, r in zip(x, e)])


@pytest.mark.parametrize("n", [5, 60])  # the full sort and the partial sort
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("shape", ["scalar", "column", "matrix"])
def test_grade_counts_each_row_as_t_stat_and_g_stat_do(n, normalize, shape):
    rng = np.random.default_rng(11)
    # half-integers in -2..2: tied values, partial sums of exactly zero, days at -r
    x = rng.integers(-4, 5, (8, n)) * 0.5
    x[rng.random(x.shape) < 0.2] = -0.0
    x[0] = -2.0  # every partial sum negative: G counts past the prefix
    x[1] = np.abs(x[1])  # no exception at a nonnegative reserve
    # a normalized sample needs strictly positive reserves; a raw one takes any sign
    levels = [0.5, 1.0, 1.5] if normalize else [-0.5, -0.0, 0.0, 0.5, 1.0, 1.5]
    size = {"scalar": (), "column": (8, 1), "matrix": (8, n)}[shape]
    var_reserve, es_reserve = (rng.choice(levels, size) for _ in range(2))
    want = _grade_oracle(x, var_reserve, es_reserve, normalize)
    before = x.copy()
    t, g = _grade(x, var_reserve, es_reserve, normalize)
    assert np.array_equal(x, before)
    assert (t.tolist(), g.tolist()) == want
    t, g = _grade(x, var_reserve, es_reserve, normalize, out=x)
    assert (t.tolist(), g.tolist()) == want
    # out= received the ES-secured sample, each row reordered by the count
    secured = before / es_reserve + 1.0 if normalize else before + es_reserve
    assert np.array_equal(np.sort(x, -1), np.sort(secured, -1))


def test_negative_sums_counts_each_row_as_g_stat_does():
    y = np.random.default_rng(5).standard_normal((20, 30))
    assert _negative_sums(y + 0.5).tolist() == [g_stat(row + 0.5).nominal for row in y]
    assert _negative_sums(y[0]) == g_stat(y[0]).nominal
    y[3, 0] = -1e308
    y[3, 1] = -1e308
    with pytest.raises(ValueError, match="partial sums of the sorted sample overflow"):
        _negative_sums(y + 0.5)


def test_g_stat_counts_past_a_sum_that_overflows_upwards():
    # past the negative prefix the sums only rise, so +inf is never counted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g_stat([-1.0, 1e308, 1e308]).nominal == 1
        y = np.array([[-3.0, 1e308, 1e308, 1.0], [-1e308, -1.0, 1e308, 1e308]])
        assert _negative_sums(y).tolist() == [2, 2]


def test_calibration_point_is_where_the_var_thresholds_hold():
    assert CALIBRATION == (250, 0.01, 0.025)
    # the Basel rule: yellow from the first count whose binomial cdf reaches
    # 95%, red from the first that reaches 99.99%
    n, alpha = CALIBRATION.n, CALIBRATION.alpha_var
    cdf = stats.binom.cdf(np.arange(n + 1), n, alpha)
    assert int(np.argmax(cdf >= 0.95)) == VAR_THRESHOLDS.green_upper
    assert int(np.argmax(cdf >= 0.9999)) == VAR_THRESHOLDS.yellow_upper


def test_z_stat_rejects_bad_inputs():
    with pytest.raises(ValueError, match="length mismatch"):
        z_stat([1.0, 2.0], [1.0], [1.0], 0.5)
    with pytest.raises(ValueError):
        z_stat([1.0], [1.0], [1.0], 1.5)
    with pytest.raises(ValueError, match="^realized must not be empty$"):
        z_stat([], [], [], 0.5)
    # each message names the inputs it is about
    mismatch = "^length mismatch: realized has 2, var_reserve has 1, es_reserve has 2$"
    with pytest.raises(ValueError, match=mismatch):
        z_stat([1.0, 2.0], [1.0], [1.0, 1.0], 0.5)
    for alpha in (0.0, float("nan")):
        with pytest.raises(ValueError, match=r"^level must lie strictly inside \(0, 1\)"):
            z_stat([1.0], [1.0], [1.0], alpha)


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
        )


def _result(nt: int, ng: int, z=None) -> BacktestResult:
    return BacktestResult(
        n=250,
        alpha=0.025,
        estimator="es_hist",
        normalized=False,
        nominal_t=nt,
        nominal_g=ng,
        z=z,
    )


def test_backtest_result_derives_its_zones():
    r = _result(22, 40)
    assert (r.zone_var, r.zone_es, r.zone_z) == ("red", "red", None)
    r = _result(4, 12, z=2.0)
    assert (r.zone_var, r.zone_es, r.zone_z) == ("green", "yellow", "red")
    r = _result(9, 11, z=-1.0)
    assert (r.zone_var, r.zone_es, r.zone_z) == ("yellow", "green", "green")
    payload = _result(10, 25, z=1.0).to_json_dict()
    assert list(payload)[-3:] == ["zone_var", "zone_es", "zone_z"]
    assert (payload["zone_var"], payload["zone_es"], payload["zone_z"]) == (
        "red",
        "red",
        "yellow",
    )
    with pytest.raises(TypeError):
        BacktestResult(250, 0.025, "es_hist", False, 22, 40, zone_var="green")
