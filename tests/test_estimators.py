"""Estimator layer: empirical and normal VAR/ES, moments, analytic risk."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate, stats

from esbacktest.dist import Normal, RngStream, SkewT, StudentT
from esbacktest.estimators import (
    SampleMoments,
    es_empirical,
    es_normal,
    moments,
    true_risk,
    var_empirical,
    var_normal,
    _normal_moments,
)

# ---------------------------------------------------------------------------
# empirical estimators
# ---------------------------------------------------------------------------


def test_var_empirical_hand_examples():
    assert var_empirical([1, 2, 3, 4], 0.25) == -2.0
    assert var_empirical([-3, 1, 2, 5], 0.25) == -1.0


def test_var_empirical_matches_full_sort_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal(250)
        # 3rd smallest value for alpha = 0.01
        expected = -sorted(x.tolist())[2]
        assert var_empirical(x, 0.01) == expected


def test_es_empirical_hand_examples():
    assert es_empirical([-3, 1, 2, 5], 0.25) == 1.0
    assert es_empirical([-3, 1, 2, 5], 0.6) == 0.0


def test_es_empirical_matches_tail_average_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.standard_normal(250)
        # distinct values a.s.: mean of the 7 smallest, negated, at alpha=0.025
        expected = -float(np.mean(sorted(x.tolist())[:7]))
        assert es_empirical(x, 0.025) == pytest.approx(expected, rel=1e-14)


def test_es_empirical_tie_handling_widens_the_tail():
    # boundary value appears twice: both copies enter the average
    x = [-2.0, -1.0, -1.0, 3.0, 4.0]
    assert var_empirical(x, 0.2) == 1.0
    assert es_empirical(x, 0.2) == pytest.approx(4.0 / 3.0)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        var_empirical([], 0.5)
    with pytest.raises(ValueError):
        es_empirical([], 0.5)


def test_non_finite_sample_rejected():
    # np.partition sorts NaN last, so it would silently drop out of the tail
    for estimator in (var_empirical, es_empirical):
        with pytest.raises(ValueError, match="non-finite value nan at index 0"):
            estimator([np.nan, 1, 2, 3, -1], 0.2)
        with pytest.raises(ValueError, match="non-finite value -inf at index 2"):
            estimator([1, 2, -np.inf], 0.2)
    with pytest.raises(ValueError, match="non-finite"):
        moments([1.0, np.nan])


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
def test_level_domain_is_open_unit_interval(alpha):
    with pytest.raises(ValueError):
        var_empirical([1.0, 2.0], alpha)


def test_var_empirical_monotone_in_level():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(64)
    n = x.size
    values = [var_empirical(x, (k + 0.5) / n) for k in range(n)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_es_dominates_var_on_distinct_samples():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(2, 64))
        x = rng.standard_normal(n)
        alpha = float(rng.uniform(0.02, 0.98))
        assert es_empirical(x, alpha) >= var_empirical(x, alpha)


def _exact_cases(rng, count):
    """Random integer samples on which estimator arithmetic is exact.

    Values are multiples of the tail size so the tail average divides evenly,
    shifts are integers, and scalings are powers of two: every operation then
    rounds nothing and the coherence properties must hold to the last bit.
    """
    for _ in range(count):
        n = int(rng.integers(4, 65))
        alpha = float(rng.uniform(0.05, 0.95))
        m = int(math.floor(n * alpha)) + 1
        distinct = rng.choice(2001, size=n, replace=False).astype(float) - 1000.0
        x = distinct * m
        lam = float(2.0 ** rng.integers(-6, 7))
        c = float(rng.integers(-500, 500))
        yield x, alpha, lam, c


def test_positive_homogeneity_and_cash_additivity_exact():
    rng = np.random.default_rng(15)
    for x, alpha, lam, c in _exact_cases(rng, 2000):
        assert var_empirical(lam * x, alpha) == lam * var_empirical(x, alpha)
        assert es_empirical(lam * x, alpha) == lam * es_empirical(x, alpha)
        assert var_empirical(x + c, alpha) == var_empirical(x, alpha) - c
        assert es_empirical(x + c, alpha) == es_empirical(x, alpha) - c


def test_positive_homogeneity_and_cash_additivity_generic_floats():
    rng = np.random.default_rng(16)
    for _ in range(500):
        n = int(rng.integers(2, 64))
        x = rng.standard_normal(n) * 10
        alpha = float(rng.uniform(0.05, 0.95))
        lam = float(rng.uniform(0.1, 10))
        c = float(rng.normal())
        assert var_empirical(lam * x, alpha) == pytest.approx(
            lam * var_empirical(x, alpha), rel=1e-12, abs=1e-12
        )
        assert es_empirical(x + c, alpha) == pytest.approx(
            es_empirical(x, alpha) - c, rel=1e-12, abs=1e-12
        )


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_hand_examples():
    assert moments([1, 1, 1, 1]) == SampleMoments(1.0, 0.0, 4)
    m = moments([0, 2])
    assert m.mean == 1.0
    assert m.sd == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_moments_matches_compensated_summation_oracle():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(250) * 1e-2 + 3.0
    mean = math.fsum(x) / x.size
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in x) / (x.size - 1))
    m = moments(x)
    assert m.mean == pytest.approx(mean, rel=1e-12)
    assert m.sd == pytest.approx(sd, rel=1e-12)


def test_moments_needs_two_observations():
    with pytest.raises(ValueError):
        moments([1.0])


# ---------------------------------------------------------------------------
# normal estimators
# ---------------------------------------------------------------------------


def test_var_normal_reference_values():
    m = SampleMoments(0.0, 1.0, 250)
    assert var_normal(m, 0.01) == pytest.approx(2.33, abs=0.005)
    assert var_normal(m, 0.02) == pytest.approx(2.05, abs=0.005)
    assert var_normal(m, 0.04) == pytest.approx(1.75, abs=0.005)
    assert var_normal(SampleMoments(0.0, 0.0, 250), 0.01) == 0.0


def test_es_normal_reference_values():
    m = SampleMoments(0.0, 1.0, 250)
    assert es_normal(m, 0.025) == pytest.approx(2.34, abs=0.005)
    assert es_normal(m, 0.05) == pytest.approx(2.06, abs=0.005)
    assert es_normal(m, 0.10) == pytest.approx(1.75, abs=0.005)


def test_es_normal_cash_additivity_in_the_mean():
    base = es_normal(SampleMoments(0.0, 1.3, 100), 0.025)
    shifted = es_normal(SampleMoments(0.7, 1.3, 100), 0.025)
    assert shifted == pytest.approx(base - 0.7, rel=1e-14)


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.025, 0.05, 0.3])
def test_normal_estimators_match_scipy_stats_formulas_bit_for_bit(alpha):
    z = float(stats.norm.ppf(alpha))
    for m in (
        SampleMoments(0.1, 2.0, 3),
        SampleMoments(np.array([0.0, 0.1, -2e-3]), np.array([1.0, 0.02, 3.5]), 250),
    ):
        assert np.array_equal(var_normal(m, alpha), -(m.mean + m.sd * z))
        es = -m.mean + m.sd * float(stats.norm.pdf(z)) / alpha
        assert np.array_equal(es_normal(m, alpha), es)


def test_normal_moments_hold_one_sample_of_windows_at_a_time():
    # a group of four 250/250 samples: one buffer of one sample's windows serves
    # every sample, so no second copy is alive while the next one is made
    x = np.random.default_rng(93).standard_normal((4, 499))
    windows = sliding_window_view(x, 250, axis=-1)
    one_sample = windows[0].size * windows.itemsize
    tracemalloc.start()
    try:
        m = _normal_moments(windows, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.mean.shape == m.sd.shape == (4, 250)
    assert peak <= 1.5 * one_sample


# ---------------------------------------------------------------------------
# analytic risk
# ---------------------------------------------------------------------------

# frozen outputs of the quantile-integral oracle below
T3_ES_025 = 5.039583061087363
NORMAL_ES_025 = 2.3378027921980955


def _es_quantile_integral(d, alpha):
    """Independent ES oracle: -(1/alpha) * integral of the quantile over (0, alpha)."""
    val, _ = integrate.quad(
        lambda p: float(d.quantile(p)), 0.0, alpha, limit=400, epsabs=1e-12
    )
    return -val / alpha


def test_true_risk_reference_values():
    d = Normal()
    assert true_risk(d, 0.025, "ES") == pytest.approx(2.34, abs=0.005)
    assert true_risk(d, 0.01, "VAR") == pytest.approx(2.33, abs=0.005)
    assert true_risk(d, 0.025, "ES") == pytest.approx(NORMAL_ES_025, abs=1e-8)


def test_true_risk_t3_closed_form_matches_quadrature_oracle():
    d = StudentT(3.0)
    assert _es_quantile_integral(d, 0.025) == pytest.approx(T3_ES_025, abs=1e-9)
    assert true_risk(d, 0.025, "ES") == pytest.approx(T3_ES_025, abs=1e-8)


@pytest.mark.parametrize(
    "d",
    [
        Normal(0.2, 1.5),
        StudentT(5.0, -0.1, 0.8),
        SkewT(5.0, 1.5),
        SkewT(4.0, 0.6, 0.3, 1.2),
    ],
)
@pytest.mark.parametrize("alpha", [0.01, 0.025, 0.1])
def test_true_es_agrees_with_quantile_integral_oracle(d, alpha):
    assert true_risk(d, alpha, "ES") == pytest.approx(
        _es_quantile_integral(d, alpha), abs=1e-8
    )


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.025, 0.3, 0.5, 0.75])
def test_closed_form_true_risk_matches_scipy_stats_formulas_bit_for_bit(alpha):
    z = stats.norm.ppf(alpha)
    d = Normal(0.1, 3.0)
    assert true_risk(d, alpha, "VAR") == -float(stats.norm.ppf(alpha, 0.1, 3.0))
    assert true_risk(d, alpha, "ES") == -0.1 + 3.0 * float(stats.norm.pdf(z)) / alpha
    for nu in (2.5, 3.0, 5.0, 30.0):
        d = StudentT(nu, 0.1, 2.0)
        t = stats.t.ppf(alpha, nu)
        core = float(stats.t.pdf(t, nu)) * (nu + t * t) / ((nu - 1.0) * alpha)
        assert true_risk(d, alpha, "VAR") == -float(stats.t.ppf(alpha, nu, 0.1, 2.0))
        assert true_risk(d, alpha, "ES") == -0.1 + 2.0 * core


def _es_tail_quadrature(d, alpha):
    """Independent ES oracle: adaptive quadrature of x * pdf(x) over the lower tail."""
    q = float(d.quantile(alpha))
    val, _err = integrate.quad(
        lambda x: x * d.pdf(x), -np.inf, q, epsabs=1e-10, limit=200
    )
    return -val / alpha


@pytest.mark.parametrize("nu", [2.2, 3.0, 5.0, 12.0, 40.0])
def test_skew_t_closed_form_es_matches_tail_quadrature(nu):
    for xi in (0.3, 0.8, 1.0, 1.3, 2.5):
        for loc in (0.0, 0.1, -2.0):
            for scale in (1.0, 0.01, 3.0):
                d = SkewT(nu, xi, loc, scale)
                for alpha in (0.001, 0.01, 0.025, 0.1, 0.6):
                    es = true_risk(d, alpha, "ES")
                    oracle = _es_tail_quadrature(d, alpha)
                    assert abs(es - oracle) <= 1e-7 * max(1.0, abs(es)), (d, alpha)


# -(1/alpha) E[Z; Z <= q] of the standard skewed t, to 40 digits: the quantile
# solved and the tail integrated numerically in 50-digit mpmath arithmetic
SKEW_T_ES_40_DIGITS = {
    (2.2, 0.3, 0.001): "144.3865699867718053632600481018698282874",
    (2.2, 0.3, 0.025): "33.09328725081810637338733544409373706681",
    (2.2, 0.3, 0.6): "6.236587912491716443503028280559550173456",
    (2.2, 1.0, 0.001): "32.85853288647334443253737696494009143419",
    (2.2, 1.0, 0.025): "7.474625638485119502448246852087992599541",
    (2.2, 1.0, 0.6): "1.06805219448911992034977397169833090234",
    (2.2, 2.5, 0.001): "7.303483978941838420811288035776726385773",
    (2.2, 2.5, 0.025): "1.593610380856986240146449585489655564618",
    (2.2, 2.5, 0.6): "-0.6593639738295430217260081298895619171298",
    (3.0, 0.3, 0.001): "63.00138699337139482725739738015663035602",
    (3.0, 0.3, 0.025): "20.92405602416342194369317308998877520953",
    (3.0, 0.3, 0.6): "5.194234371601729606512720704888536086338",
    (3.0, 1.0, 0.001): "15.4093361151088864030266099431109531902",
    (3.0, 1.0, 0.025): "5.039583061113471575328822348797133554402",
    (3.0, 1.0, 0.6): "0.8960190713423414298352876678285668435456",
    (3.0, 2.5, 0.001): "3.981335921201229883470648528338435587289",
    (3.0, 2.5, 0.025): "1.215042357946894931747196258037028643533",
    (3.0, 2.5, 0.6): "-0.6484924256342837211176969576579706090521",
    (5.0, 0.3, 0.001): "28.51938378537127243664324274669562127444",
    (5.0, 0.3, 0.025): "13.74661450752946671181231707627028201586",
    (5.0, 0.3, 0.6): "4.426348643474275334731274308843403125851",
    (5.0, 1.0, 0.001): "7.514357282729377837716223597868183000973",
    (5.0, 1.0, 0.025): "3.52157733173942710586672839674324167067",
    (5.0, 1.0, 0.6): "0.7687397884069667181505448355796859628145",
    (5.0, 2.5, 0.001): "2.261041525859727819765540769775234467739",
    (5.0, 2.5, 0.025): "0.9535257986947022753431022603327480099947",
    (5.0, 2.5, 0.6): "-0.6310738834282742478716683569848910089809",
}


@pytest.mark.parametrize("point", sorted(SKEW_T_ES_40_DIGITS))
def test_skew_t_es_matches_high_precision_reference(point):
    nu, xi, alpha = point
    reference = float(SKEW_T_ES_40_DIGITS[point])
    assert abs(true_risk(SkewT(nu, xi), alpha, "ES") - reference) <= 1e-12


@pytest.mark.parametrize("metric", ["VAR", "ES"])
@pytest.mark.parametrize("d", [StudentT(3.0), SkewT(3.0, 0.8)])
def test_true_risk_rejects_a_non_finite_reserve(d, metric):
    # the quantile is -inf this far out, where stdtrit itself returns +inf
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=f"true {metric} at level 1e-300"):
            true_risk(d, 1e-300, metric)


def test_true_es_exceeds_true_var():
    for d in (Normal(), StudentT(3.0), SkewT(5.0, 1.4)):
        for alpha in (0.01, 0.025, 0.05, 0.25):
            assert true_risk(d, alpha, "ES") > true_risk(d, alpha, "VAR")


def test_true_risk_rejects_unknown_metric():
    with pytest.raises(ValueError):
        true_risk(Normal(), 0.05, "CVAR")


# ---------------------------------------------------------------------------
# large-sample consistency
# ---------------------------------------------------------------------------


def _var_asymptotic_sd(d, alpha, n):
    q = float(d.quantile(alpha))
    return math.sqrt(alpha * (1 - alpha) / n) / float(d.pdf(q))


def _es_asymptotic_sd(d, alpha, n):
    # influence-function variance: Var((X - q) 1{X <= q}) / alpha^2
    q = float(d.quantile(alpha))
    m1, _ = integrate.quad(lambda x: (x - q) * d.pdf(x), -np.inf, q, limit=400)
    m2, _ = integrate.quad(lambda x: (x - q) ** 2 * d.pdf(x), -np.inf, q, limit=400)
    return math.sqrt((m2 - m1**2) / alpha**2 / n)


@pytest.mark.parametrize("d", [Normal(), StudentT(5.0)])
def test_empirical_estimators_consistent_with_true_risk(d):
    n = 10**5
    alpha = 0.025
    x = d.sample(n, RngStream(31, 7))
    var_err = var_empirical(x, alpha) - true_risk(d, alpha, "VAR")
    es_err = es_empirical(x, alpha) - true_risk(d, alpha, "ES")
    assert abs(var_err) < 3.0 * _var_asymptotic_sd(d, alpha, n)
    assert abs(es_err) < 3.0 * _es_asymptotic_sd(d, alpha, n)
