"""Risk estimators.

Empirical (historical) and normal VAR/ES at arbitrary confidence levels,
sample moments, and analytic risk values for the supported distributions,
each a closed form on the ``dist`` laws (``scipy.special``, imported on first
use, so the empirical estimators never load scipy).

Sign convention: estimators return the capital reserve, a positive number
for a position carrying loss risk. Levels are lower-tail probabilities, so
the 1% VAR of a standard normal is 2.3263. A sample containing NaN or
infinity is rejected rather than estimated around.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dist import DistSpec, Normal, SkewT, StudentT
from .secured import _finite_vector

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


def _check_level(alpha: float, name: str = "level") -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {alpha}")


def _tail_index(n: int, alpha: float) -> int:
    # zero-based index of the floor(n*alpha)+1 smallest value
    return int(np.floor(n * alpha))


def _run_sums(values: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Sums of the consecutive runs of ``values``, one run per entry of ``size``
    and as long as it, in the shape of ``size``.

    numpy sums each row of a C-contiguous (rows, n) block with the pairwise
    loop of a 1-D ``.sum()``, so the runs, grouped by length into such blocks,
    sum bit for bit as each run alone.
    """
    lengths = size.ravel()
    start = np.cumsum(lengths) - lengths
    out = np.empty(lengths.size)
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        out[rows] = values[start[rows, None] + np.arange(n)].sum(axis=1)
    return out.reshape(size.shape)


def var_empirical(x, alpha: float) -> float:
    """Historical VAR: the negated (floor(n*alpha)+1)-th smallest sample value.

    Positively homogeneous and cash additive: scaling the sample scales the
    estimate, adding cash lowers it one for one.
    """
    arr = _finite_vector(x, "sample")
    _check_level(alpha)
    k = _tail_index(arr.size, alpha)
    return -float(np.partition(arr, k)[k])


def es_empirical(x, alpha: float) -> float:
    """Historical ES: negated average of the sample values at or below -VAR.

    The averaging set is every observation x_i with x_i + VAR <= 0, so ties
    at the tail boundary widen the denominator beyond floor(n*alpha)+1.
    """
    arr = _finite_vector(x, "sample")
    _check_level(alpha)
    k = _tail_index(arr.size, alpha)
    boundary = float(np.partition(arr, k)[k])
    tail = arr[arr <= boundary]
    return -float(tail.mean())


def moments(x) -> SampleMoments:
    """Sample mean and standard deviation with the n-1 denominator."""
    arr = _finite_vector(x, "sample")
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
    return -(m.mean + m.sd * float(Normal().quantile(alpha)))


def es_normal(m: SampleMoments, alpha: float) -> float:
    """Normal ES from fitted moments: -mean + sd * phi(z_alpha) / alpha.

    This is the exact lower-tail expectation of the fitted normal; at
    (mean=0, sd=1) it gives 2.3378 for alpha=0.025 and 2.0627 for 0.05.
    (A complementary-level form dividing by 1-alpha circulates in places;
    it does not reproduce those values and is not used here.)
    """
    _check_level(alpha)
    _check_sd(m.sd)
    return -m.mean + m.sd * float(Normal().pdf(Normal().quantile(alpha))) / alpha


def _es_true(d: DistSpec, alpha: float) -> float:
    if isinstance(d, Normal):
        return es_normal(SampleMoments(d.mu, d.sigma, 0), alpha)  # n is unused
    # two-piece t, StudentT being xi = 1: with M(a) = -t(a)(nu + a^2)/(nu - 1),
    # E[Z; Z <= q] = (c / xi^2) M(q xi) if q < 0, else E[Z] + c xi^2 M(q / xi)
    xi, z = d.xi, SkewT(d.nu, d.xi)
    q = float(z.quantile(alpha))
    c = 2.0 / (xi + 1.0 / xi)
    a, k, shift = (q * xi, c / xi**2, 0.0) if q < 0 else (q / xi, c * xi**2, z.mean())
    pdf = float(StudentT(d.nu).pdf(a))
    core = k * pdf * (d.nu + a * a) / ((d.nu - 1.0) * alpha) - shift / alpha
    return -d.loc + d.scale * core


def true_risk(d: DistSpec, alpha: float, metric: str) -> float:
    """Analytic risk of a known distribution.

    VAR is the negated alpha-quantile; ES the negated mean below it, a closed
    form for every law. A level too extreme for a finite quantile raises
    ``ValueError`` rather than returning an infinite or NaN reserve.
    """
    _check_level(alpha)
    if metric == "VAR":
        value = -float(d.quantile(alpha))
    elif metric == "ES":
        value = _es_true(d, alpha)
    else:
        raise ValueError(f"metric must be 'VAR' or 'ES', got {metric!r}")
    if not math.isfinite(value):
        raise ValueError(f"true {metric} at level {alpha} is not finite: {value}")
    return value
