"""Risk estimators.

Empirical (historical) and normal VAR/ES at arbitrary confidence levels,
sample moments, and analytic risk values for the supported distributions.

Sign convention: estimators return the capital reserve, a positive number
for a position carrying loss risk. Levels are lower-tail probabilities, so
the 1% VAR of a standard normal is 2.3263. A sample containing NaN or
infinity is rejected rather than estimated around.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import integrate, stats

from .dist import DistSpec, Normal, SkewT, StudentT
from .secured import _require_finite

__all__ = [
    "SampleMoments",
    "var_empirical",
    "es_empirical",
    "moments",
    "var_normal",
    "es_normal",
    "true_risk",
]


class SampleMoments(NamedTuple):
    """Mean and (n-1)-denominator standard deviation of a sample.

    ``mean`` and ``sd`` may also be arrays holding the moments of several
    equal-length samples, such as rolling windows; the normal estimators
    then return one reserve per sample.
    """

    mean: float
    sd: float
    n: int


def _as_sample(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("sample must not be empty")
    _require_finite(arr, "sample")
    return arr


def _check_level(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level must lie strictly inside (0, 1), got {alpha}")


def _tail_index(n: int, alpha: float) -> int:
    # zero-based index of the floor(n*alpha)+1 smallest value
    return int(np.floor(n * alpha))


def var_empirical(x, alpha: float) -> float:
    """Historical VAR: the negated (floor(n*alpha)+1)-th smallest sample value.

    Positively homogeneous and cash additive: scaling the sample scales the
    estimate, adding cash lowers it one for one.
    """
    arr = _as_sample(x)
    _check_level(alpha)
    k = _tail_index(arr.size, alpha)
    return -float(np.partition(arr, k)[k])


def es_empirical(x, alpha: float) -> float:
    """Historical ES: negated average of the sample values at or below -VAR.

    The averaging set is every observation x_i with x_i + VAR <= 0, so ties
    at the tail boundary widen the denominator beyond floor(n*alpha)+1.
    """
    arr = _as_sample(x)
    _check_level(alpha)
    k = _tail_index(arr.size, alpha)
    boundary = float(np.partition(arr, k)[k])
    tail = arr[arr <= boundary]
    return -float(tail.mean())


def moments(x) -> SampleMoments:
    """Sample mean and standard deviation with the n-1 denominator."""
    arr = _as_sample(x)
    if arr.size < 2:
        raise ValueError(f"need at least 2 observations, got {arr.size}")
    return SampleMoments(float(arr.mean()), float(arr.std(ddof=1)), arr.size)


def _check_sd(sd) -> None:
    if np.any(np.less(sd, 0)):
        raise ValueError(f"standard deviation must be nonnegative, got {np.min(sd)}")


def var_normal(m: SampleMoments, alpha: float) -> float:
    """Normal VAR from fitted moments: -(mean + sd * z_alpha)."""
    _check_level(alpha)
    _check_sd(m.sd)
    return -(m.mean + m.sd * float(stats.norm.ppf(alpha)))


def es_normal(m: SampleMoments, alpha: float) -> float:
    """Normal ES from fitted moments: -mean + sd * phi(z_alpha) / alpha.

    This is the exact lower-tail expectation of the fitted normal; at
    (mean=0, sd=1) it gives 2.3378 for alpha=0.025 and 2.0627 for 0.05.
    (A complementary-level form dividing by 1-alpha circulates in places;
    it does not reproduce those values and is not used here.)
    """
    _check_level(alpha)
    _check_sd(m.sd)
    z = float(stats.norm.ppf(alpha))
    return -m.mean + m.sd * float(stats.norm.pdf(z)) / alpha


def _es_true(d: DistSpec, alpha: float) -> float:
    q = float(d.quantile(alpha))
    if isinstance(d, Normal):
        z = stats.norm.ppf(alpha)
        return -d.mu + d.sigma * float(stats.norm.pdf(z)) / alpha
    if isinstance(d, StudentT):
        t = stats.t.ppf(alpha, d.nu)
        core = float(stats.t.pdf(t, d.nu)) * (d.nu + t * t) / ((d.nu - 1.0) * alpha)
        return -d.loc + d.scale * core
    # no closed form: adaptive quadrature of the lower-tail expectation
    val, _err = integrate.quad(
        lambda x: x * d.pdf(x), -np.inf, q, epsabs=1e-10, limit=200
    )
    return -val / alpha


def true_risk(d: DistSpec, alpha: float, metric: str) -> float:
    """Analytic risk of a known distribution.

    VAR is the negated alpha-quantile; ES the negated mean below it. Closed
    forms cover the normal and Student-t, the skewed t falls back to
    adaptive quadrature with absolute tolerance 1e-10.
    """
    _check_level(alpha)
    if metric == "VAR":
        return -float(d.quantile(alpha))
    if metric == "ES":
        return _es_true(d, alpha)
    raise ValueError(f"metric must be 'VAR' or 'ES', got {metric!r}")
