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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .estimators import es_empirical, var_empirical
from .secured import SecuredSample, _require_finite

__all__ = [
    "ZONES",
    "ZoneThresholds",
    "VAR_THRESHOLDS",
    "ES_THRESHOLDS",
    "Z_THRESHOLDS",
    "StatResult",
    "BacktestResult",
    "t_stat",
    "g_stat",
    "dual_t",
    "dual_g",
    "z_stat",
    "classify",
]

ZONES = ("green", "yellow", "red")


@dataclass(frozen=True)
class ZoneThresholds:
    """Exclusive upper bounds of the green and yellow zones for one metric."""

    metric: str
    green_upper: float
    yellow_upper: float

    def __post_init__(self) -> None:
        if not self.green_upper < self.yellow_upper:
            raise ValueError(
                f"green bound {self.green_upper} must lie below "
                f"yellow bound {self.yellow_upper}"
            )


# Nominal exception count: 0-4 green, 5-9 yellow, 10+ red.
VAR_THRESHOLDS = ZoneThresholds("VAR", 5, 10)
# Nominal worst-case-sum count: 0-11 green, 12-24 yellow, 25+ red.
ES_THRESHOLDS = ZoneThresholds("ES", 12, 25)
# Magnitude statistic: positive values flag underestimated risk.
Z_THRESHOLDS = ZoneThresholds("Z", 0.7, 1.8)


class StatResult(NamedTuple):
    """A backtest statistic as both a rate and a nominal count."""

    value: float
    nominal: int
    n: int


def _values(y) -> np.ndarray:
    if isinstance(y, SecuredSample):
        return y.values
    arr = np.asarray(y, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("sample must not be empty")
    _require_finite(arr, "sample")
    return arr


def t_stat(y) -> StatResult:
    """Exception rate: fraction of strictly negative entries.

    Invariant under any strictly positive rescaling of individual entries,
    so it coincides for raw and reserve-normalized secured samples.
    """
    arr = _values(y)
    nominal = int((arr < 0).sum())
    return StatResult(nominal / arr.size, nominal, arr.size)


def g_stat(y) -> StatResult:
    """Worst-case-sum rate: count of strictly negative sorted partial sums.

    Sorting ascending and cumulating, the count equals the largest k whose k
    smallest entries sum below zero (a zero partial sum does not count).
    Always at least the exception count, since a prefix of negative entries
    has a negative sum.
    """
    arr = _values(y)
    nominal = int((np.cumsum(np.sort(arr)) < 0).sum())
    return StatResult(nominal / arr.size, nominal, arr.size)


def dual_t(y) -> float:
    """Smallest level at which the historical VAR of y is nonpositive.

    Scans the level grid at midpoints (k + 0.5)/n to dodge the jump points
    of the order-statistic index and reports the infimum on the k/n grid;
    returns 1.0 when no level qualifies. Equals ``t_stat(y).value`` exactly.
    """
    arr = _values(y)
    n = arr.size
    for k in range(n):
        if var_empirical(arr, (k + 0.5) / n) <= 0:
            return k / n
    return 1.0


def dual_g(y) -> float:
    """Smallest level at which the historical ES of y is nonpositive.

    Same midpoint-grid scan as ``dual_t`` with the ES estimator; returns 1.0
    when no level qualifies. Equals ``g_stat(y).value`` exactly whenever the
    sample values are distinct.
    """
    arr = _values(y)
    n = arr.size
    for k in range(n):
        if es_empirical(arr, (k + 0.5) / n) <= 0:
            return k / n
    return 1.0


def z_stat(realized, var_reserve, es_reserve, alpha: float) -> float:
    """Tail-magnitude statistic from realized values and both reserve series.

    Averages realized_i / (alpha * es_reserve_i) over the days breaching the
    VAR reserve, adds one, and negates, so that a conservative no-breach
    sample scores -1, a correctly sized model scores near 0, and positive
    values signal underestimated risk.
    """
    r = np.asarray(realized, dtype=float).ravel()
    v = np.asarray(var_reserve, dtype=float).ravel()
    e = np.asarray(es_reserve, dtype=float).ravel()
    if not (r.size == v.size == e.size):
        raise ValueError(
            f"length mismatch: realized {r.size}, var {v.size}, es {e.size}"
        )
    if r.size == 0:
        raise ValueError("inputs must not be empty")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level must lie strictly inside (0, 1), got {alpha}")
    _require_finite(r, "realized")
    _require_finite(v, "var_reserve")
    _require_finite(e, "es_reserve")
    breach = r + v < 0
    if np.any(e[breach] <= 0):
        idx = int(np.flatnonzero(breach & (e <= 0))[0])
        raise ValueError(
            f"breach day {idx} has nonpositive es_reserve {e[idx]}"
        )
    core = float((r[breach] / (alpha * e[breach])).sum()) / r.size + 1.0
    return -core


def classify(value: float, th: ZoneThresholds) -> str:
    """Map a statistic to its traffic-light zone by exclusive upper bounds.

    A non-finite statistic has no zone and is rejected.
    """
    if not math.isfinite(value):
        raise ValueError(f"cannot classify non-finite statistic {value}")
    if value < th.green_upper:
        return "green"
    if value < th.yellow_upper:
        return "yellow"
    return "red"


@dataclass(frozen=True)
class BacktestResult:
    """Outcome of one backtesting exercise over an n-day window.

    ``alpha`` is the level used for reserve estimation; comparison runs that
    estimate several reserve series carry a dict of levels keyed by metric.
    """

    n: int
    alpha: Union[float, dict]
    estimator: str
    normalized: bool
    nominal_t: int
    nominal_g: int
    zone_var: str
    zone_es: str
    z: Optional[float] = None
    zone_z: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 <= self.nominal_t <= self.n or not 0 <= self.nominal_g <= self.n:
            raise ValueError("nominal counts must lie in [0, n]")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "estimator": self.estimator,
            "normalized": self.normalized,
            "nominal_t": self.nominal_t,
            "nominal_g": self.nominal_g,
            "z": self.z,
            "zone_var": self.zone_var,
            "zone_es": self.zone_es,
            "zone_z": self.zone_z,
        }
