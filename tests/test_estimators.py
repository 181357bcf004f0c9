"""Estimator layer: empirical and normal VAR/ES, moments, analytic risk."""

import math

import numpy as np
import pytest
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
