"""Backtest statistics and traffic-light classification.

Two statistics grade a secured-position sample y of length n:

* exception rate ``t_stat``: the fraction of days with y_i < 0;
* worst-case-sum rate ``g_stat``: the largest fraction k/n such that the k
  smallest realizations add up to a negative total.

Both admit a dual reading as the smallest confidence level at which the
corresponding historical estimator (VAR for t, ES for g) signs off on the
sample; ``dual_t`` and ``dual_g`` evaluate that reading directly and agree
with the counting forms exactly. ``z_stat`` implements the tail-magnitude
comparison test that needs reserve series for both VAR and ES.

Every zone bound comes from ``zone_bounds``, the exception count's by the Basel
binomial rule at the run's n and level; ``classify`` reads a zone off a pair.

The rolling grader and the Monte Carlo secure and count per row of a matrix with
``_grade``: T with ``_exceptions`` against the VAR reserve, and G with ``_g_counts``
from a partially sorted prefix, falling back on ``g_stat``'s ``_negative_sums``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Optional, Union

import numpy as np

from .estimators import _check_level, _run_sums, es_empirical, var_empirical
from .secured import SecuredSample, _finite_vector, _same_length, _secured

__all__ = [
    "CALIBRATION",
    "CalibrationPoint",
    "ZONES",
    "StatResult",
    "BacktestResult",
    "RESULT_FIELDS",
    "t_stat",
    "g_stat",
    "dual_t",
    "dual_g",
    "z_stat",
    "zone_bounds",
    "classify",
]

ZONES = ("green", "yellow", "red")

# Keys of a result in reports, in order; each names a BacktestResult attribute.
RESULT_FIELDS = (
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
)


class CalibrationPoint(NamedTuple):
    """The default test window length and reserve levels, where the ES and Z bounds hold."""

    n: int
    alpha_var: float
    alpha_es: float


CALIBRATION = CalibrationPoint(n=250, alpha_var=0.01, alpha_es=0.025)
# a worst-case-sum count above this falls back to a full sort of its row
_G_PREFIX = 48


class StatResult(NamedTuple):
    """A backtest statistic as both a rate and a nominal count."""

    value: float
    nominal: int
    n: int


def _values(y) -> np.ndarray:
    return y.values if isinstance(y, SecuredSample) else _finite_vector(y, "sample")


def t_stat(y) -> StatResult:
    """Exception rate: fraction of strictly negative entries.

    Invariant under any strictly positive rescaling of individual entries,
    so it coincides for raw and reserve-normalized secured samples.
    """
    arr = _values(y)
    nominal = int(_exceptions(arr))
    return StatResult(nominal / arr.size, nominal, arr.size)


def _exceptions(x: np.ndarray, reserve=0.0) -> np.ndarray:
    """Count of days with ``x + reserve < 0`` along the last axis, as ``x < -reserve``:
    a rounded sum is negative exactly when the exact sum is, and negation is exact."""
    return (x < -reserve).sum(-1)


def g_stat(y) -> StatResult:
    """Worst-case-sum rate: count of strictly negative sorted partial sums.

    Sorting ascending and cumulating, the count equals the largest k whose k
    smallest entries sum below zero (a zero partial sum does not count).
    Always at least the exception count, since a prefix of negative entries
    has a negative sum. A partial sum that overflows to ``-inf`` raises
    ``ValueError``; one that overflows to ``+inf`` is past the count and is
    not counted, so ``g_stat([-1.0, 1e308, 1e308])`` counts 1.
    """
    arr = _values(y)
    nominal = int(_negative_sums(arr))
    return StatResult(nominal / arr.size, nominal, arr.size)


def _negative_sums(y: np.ndarray) -> np.ndarray:
    """Count of negative partial sums of ``sort(y)`` along the last axis: the
    G count of ``g_stat``, and ``_g_counts``' fallback and oracle.

    A partial sum of ``-inf`` or NaN raises ``ValueError``; ``+inf`` does not.
    Past the first non-negative sum every term is positive, so the sums rise
    from there and only overflow upwards: whether a row raises depends on the
    law, not on how many of its sorted values are read.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.cumsum(np.sort(y, -1), -1)
    if not (sums > -np.inf).all():
        raise ValueError("partial sums of the sorted sample overflow")
    return (sums < 0).sum(-1)


def _g_counts(y: np.ndarray) -> np.ndarray:
    """Per-row worst-case-sum counts of the matrix ``y``, equal to ``_negative_sums(y)``.

    The negative partial sums of a sorted row form a prefix, so a row sorts only
    its _G_PREFIX + 1 smallest values unless all their partial sums are negative.
    A partial sum that overflows to ``-inf`` raises ``ValueError`` on either path.
    The partition reorders each row of ``y`` in place, which the counts ignore.
    """
    if y.shape[1] <= _G_PREFIX + 1:
        return _negative_sums(y)
    y.partition(_G_PREFIX, axis=1)
    counts = _negative_sums(y[:, : _G_PREFIX + 1])
    longer = counts > _G_PREFIX
    if longer.any():
        counts[longer] = _negative_sums(y[longer])
    return counts


def _grade(x, var_reserve, es_reserve, normalize=False, out=None):
    """Per-row (T, G) of ``x`` secured by the reserves, which broadcast against it:
    T by sign against the VAR reserve, exactly, or on the normalized sample; G on
    the ES-secured sample, with ``_secured``'s errors, written to ``out`` if given."""
    t = _exceptions(_secured(x, var_reserve, True)) if normalize else _exceptions(x, var_reserve)
    return t, _g_counts(_secured(x, es_reserve, normalize, out=out))


def _dual(y, estimator) -> float:
    """The midpoint-grid scan of ``dual_t`` and ``dual_g`` with ``estimator``."""
    arr = _values(y)
    n = arr.size
    for k in range(n):
        if estimator(arr, (k + 0.5) / n) <= 0:
            return k / n
    return 1.0


def dual_t(y) -> float:
    """Smallest level at which the historical VAR of y is nonpositive.

    Scans the level grid at midpoints (k + 0.5)/n to dodge the jump points
    of the order-statistic index and reports the infimum on the k/n grid;
    returns 1.0 when no level qualifies. Equals ``t_stat(y).value`` exactly.
    """
    return _dual(y, var_empirical)


def dual_g(y) -> float:
    """Smallest level at which the historical ES of y is nonpositive.

    Same midpoint-grid scan as ``dual_t`` with the ES estimator; returns 1.0
    when no level qualifies. Equals ``g_stat(y).value`` exactly whenever the
    sample values are distinct.
    """
    return _dual(y, es_empirical)


def z_stat(realized, var_reserve, es_reserve, alpha: float) -> float:
    """Tail-magnitude statistic from realized values and both reserve series.

    Averages realized_i / (alpha * es_reserve_i) over the days breaching the
    VAR reserve, adds one, and negates, so that a conservative no-breach
    sample scores -1, a correctly sized model scores near 0, and positive
    values signal underestimated risk.
    """
    r = _finite_vector(realized, "realized")
    v = _finite_vector(var_reserve, "var_reserve")
    e = _finite_vector(es_reserve, "es_reserve")
    _same_length(realized=r, var_reserve=v, es_reserve=e)
    _check_level(alpha)
    return float(_z_rows(r, v, e, alpha))


def _z_rows(r: np.ndarray, v: np.ndarray, e: np.ndarray, alpha: float) -> np.ndarray:
    """``z_stat`` along the last axis of finite equal-shape arrays, with its
    errors; a day in a message is the day within its row.

    Each row sums its breach days as the 1-D ``.sum()`` of those days does
    (``_run_sums``): a sum over a zero-padded row would not.
    """
    breach = r + v < 0
    bad = np.flatnonzero(breach & (e <= 0))
    if bad.size:
        i = bad[0]
        raise ValueError(f"breach day {i % r.shape[-1]} has nonpositive es_reserve {e.flat[i]}")
    with np.errstate(all="ignore"):
        core = _run_sums(r[breach] / (alpha * e[breach]), breach.sum(-1)) / r.shape[-1] + 1.0
    if not np.isfinite(core).all():
        raise ValueError("z statistic overflows")
    return -core


@cache
def zone_bounds(metric: str, n: int = CALIBRATION.n, level: float = CALIBRATION.alpha_var):
    """Exclusive upper bounds (green, yellow) of a metric's zones. ``"VAR"`` takes
    the Basel rule at n days and ``level``: yellow from the first count whose
    binomial cdf reaches 95%, red from the first that reaches 99.99%. ``"ES"`` and
    ``"Z"`` take fixed pairs, calibrated only at ``CALIBRATION``."""
    if metric != "VAR":
        # worst-case-sum count: 0-11 green, 12-24 yellow; z > 0 flags underestimated risk
        return {"ES": (12, 25), "Z": (0.7, 1.8)}[metric]
    _check_level(level)
    k = np.arange(n + 1)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    log_pmf = (log_factorial[n] - log_factorial - log_factorial[::-1]
               + k * math.log(level) + (n - k) * math.log1p(-level))
    green, yellow = np.searchsorted(np.cumsum(np.exp(log_pmf)), (0.95, 0.9999))
    return int(green), int(yellow)


def classify(value: float, bounds) -> str:
    """Map a statistic to its traffic-light zone by the exclusive upper bounds of
    ``zone_bounds``, of which equal ones leave yellow empty. A non-finite statistic
    has no zone and is rejected, as are unordered bounds."""
    green_upper, yellow_upper = bounds
    if not green_upper <= yellow_upper:
        raise ValueError(f"green bound {green_upper} lies above yellow bound {yellow_upper}")
    if not math.isfinite(value):
        raise ValueError(f"cannot classify non-finite statistic {value}")
    if value < green_upper:
        return "green"
    if value < yellow_upper:
        return "yellow"
    return "red"


@dataclass(frozen=True)
class BacktestResult:
    """Outcome of one backtesting exercise over an n-day window.

    ``alpha`` is the level used for reserve estimation; comparison runs that
    estimate several reserve series carry a dict of levels keyed by metric.
    The zones are properties derived from the counts and ``z``, so a result
    cannot disagree with itself.
    """

    n: int
    alpha: Union[float, dict]
    estimator: str
    normalized: bool
    nominal_t: int
    nominal_g: int
    z: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 <= self.nominal_t <= self.n or not 0 <= self.nominal_g <= self.n:
            raise ValueError("nominal counts must lie in [0, n]")

    @property
    def var_bounds(self) -> tuple:
        """T's zone bounds: at (n, level) where T is graded on a VAR reserve (a
        ``var_*`` estimator or a comparison), at ``CALIBRATION`` on an ES reserve."""
        level = self.alpha["var"] if isinstance(self.alpha, dict) else self.alpha
        on_var = isinstance(self.alpha, dict) or self.estimator.startswith("var")
        return zone_bounds("VAR", self.n, level) if on_var else zone_bounds("VAR")

    @property
    def zone_var(self) -> str:
        return classify(self.nominal_t, self.var_bounds)

    @property
    def zone_es(self) -> str:
        return classify(self.nominal_g, zone_bounds("ES"))

    @property
    def zone_z(self) -> Optional[str]:
        return None if self.z is None else classify(self.z, zone_bounds("Z"))

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in RESULT_FIELDS}
