"""Risk estimators.

Empirical (historical) and normal VAR/ES at arbitrary confidence levels,
sample moments, and analytic risk values for the supported distributions,
each a closed form on the ``dist`` laws (``scipy.special``, imported on first
use, so the empirical estimators never load scipy).

Sign convention: estimators return the capital reserve, a positive number
for a position carrying loss risk. Levels are lower-tail probabilities, so
the 1% VAR of a standard normal is 2.3263. A sample containing NaN or
infinity is rejected rather than estimated around.

Rolling reserves come from one table, ``_KERNELS``, that maps each name in
``ESTIMATORS`` to a statistic of the learning windows and a reserve read from
it. ``_reserves`` takes one sample or a (samples, learn + test) matrix, such as
a group that ``harness`` grades, and every kernel reduces along the last axis
only: it takes the (samples, test, learn) view of the windows once
(``sliding_window_view``, no copy) and reduces it once per statistic and key:
each window's mean and sd for the normal family at any level, the sd taken
from that mean, and each window's order statistic at one tail index for the
historical family, so VAR and ES at one level share one ``np.partition``.
The historical family reads a narrower view, ``_low_tail``: each window's
values at or below its sample's bound tau, in time order, padded with
``+inf``. tau is the largest k-th smallest value of the sample's aligned
blocks of ``learn // 2`` values, k the largest tail index of the pairs. Every
window holds a whole block, so every value at or below its k-th smallest is
in its row, and the boundaries, ties and ES tails are the same floats in the
same order. The whole group reads the full windows instead when a block is
shorter than k + 1 values, when the widest row would be wider than a block,
or when a value in the view is a zero of either sign, whose sign a 1-D
partition decides; either way is exact. Every (estimator, level) series is
read from those reductions and equals the scalar estimator on each window
bit for bit: the normal reads call ``Normal().quantile``/``pdf``
(``scipy.special``) once per series, and the ES tails, like z's sums over
breach days, are summed in time order, one block per run length
(``_run_sums``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _normal_moments(windows: np.ndarray, _) -> SampleMoments:
    """Each window's mean and sd along the last axis. The sd is taken from that
    mean, sqrt(sum((w - mean)**2) / (n - 1)): ``np.std(ddof=1)`` bit for bit,
    without its second pass for the mean.

    One sample's (test, learn) windows are copied at a time into one buffer:
    the deviations are then reduced along contiguous rows, and the temporary
    is one sample's, not the group's, allocated once per call."""
    n = windows.shape[-1]
    mean, ss = np.empty(windows.shape[:-1]), np.empty(windows.shape[:-1])
    dev = np.empty(windows.shape[-2:])
    for i in np.ndindex(windows.shape[:-2]):
        np.copyto(dev, windows[i])
        mean[i] = dev.mean(-1)
        dev -= mean[i][:, None]
        dev *= dev
        ss[i] = dev.sum(-1)
    return SampleMoments(mean, np.sqrt(ss / (n - 1)), n)


def _boundary(windows: np.ndarray, k: int) -> np.ndarray:
    # the column alone: a partitioned block held beside another slows the next
    # partition down
    return np.partition(windows, k, axis=-1)[..., k].copy()


def _es_hist(windows: np.ndarray, boundary: np.ndarray, _alpha) -> np.ndarray:
    mask = windows <= boundary[..., None]
    size = mask.sum(-1)
    # the tails in time order, window by window: each mean is es_empirical's
    return -(_run_sums(windows[mask], size) / size)


# A statistic is (key, reduce): reduce(windows, key(learn, alpha)) gives one
# value per window, so the series whose keys agree share one reduction.
_MOMENTS = (lambda learn, alpha: None, _normal_moments)
_BOUNDARY = (_tail_index, _boundary)
# Estimator name -> (statistic, reserve): reserve(windows, value, alpha) reads one
# reserve per window from the statistic; each matches its scalar estimator bit
# for bit.
_KERNELS = {
    "var_hist": (_BOUNDARY, lambda windows, boundary, alpha: -boundary),
    "var_norm": (_MOMENTS, lambda windows, m, alpha: var_normal(m, alpha)),
    "es_hist": (_BOUNDARY, _es_hist),
    "es_norm": (_MOMENTS, lambda windows, m, alpha: es_normal(m, alpha)),
}
ESTIMATORS = tuple(_KERNELS)  # public in harness, whose RollingConfig names one


def _low_tail(x: np.ndarray, windows: np.ndarray, k: int) -> np.ndarray:
    """Each window's values at or below its row's tau, in time order, padded
    with +inf, where a row's tau bounds the k-th smallest value of each of its
    windows; ``windows`` for every row of ``x`` when, for any row, the bound
    saves nothing or a zero's sign would depend on the row."""
    learn, test = windows.shape[-1], windows.shape[-2]
    half = learn // 2
    if half < k + 1:
        return windows
    # every window holds a whole aligned block of its row, whose k-th smallest
    # bounds its own
    lead, n = x.shape[:-1], x.shape[-1]
    blocks = x[..., : n // half * half].reshape(*lead, -1, half)
    low = x <= np.partition(blocks, k, axis=-1)[..., k].max(-1)[..., None]
    counts = np.zeros((*lead, n + 1), dtype=np.intp)  # low values before each index
    np.cumsum(low, axis=-1, out=counts[..., 1:])
    total = counts[..., -1].ravel()
    first = (np.cumsum(total) - total).reshape(lead)[..., None] + counts[..., :test]
    size = counts[..., learn : learn + test] - counts[..., :test]
    values = x[low]
    width = size.max()
    if width > half or (values == 0).any():
        return windows
    cols = np.arange(width)
    rows = np.take(values, first[..., None] + cols, mode="clip")
    rows[cols >= size[..., None]] = np.inf
    return rows


def _reserves(x: np.ndarray, learn: int, test: int, pairs) -> dict:
    """Reserve series per (estimator, level) pair, one per test day from the
    ``learn`` observations before it, for each row of ``x`` (or for ``x``
    alone); in ``pairs`` order, so that the first series to overflow raises."""
    x = x[..., : learn + test - 1]
    windows = sliding_window_view(x, learn, axis=-1)
    ks = [_tail_index(learn, alpha) for e, alpha in pairs if _KERNELS[e][0] is _BOUNDARY]
    low = _low_tail(x, windows, max(ks)) if ks else windows
    reduced, series = {}, {}
    for estimator, alpha in dict.fromkeys(pairs):
        statistic, reserve = _KERNELS[estimator]
        rows = low if statistic is _BOUNDARY else windows
        key, reduce = statistic
        at = (reduce, key(learn, alpha))
        with np.errstate(over="ignore", invalid="ignore"):
            if at not in reduced:
                reduced[at] = reduce(rows, at[1])
            reserves = series[estimator, alpha] = reserve(rows, reduced[at], alpha)
        finite = np.isfinite(reserves)  # the sample is finite, so only overflow fails
        if not finite.all():
            day = int(np.argmin(finite)) % test
            raise ValueError(f"{estimator} reserve at level {alpha} overflows on day {day}")
    return series


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
