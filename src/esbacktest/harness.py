"""End-to-end rolling-window study: ingestion, batch backtests, summaries.

The workflow mirrors a desk-scale validation exercise: a panel of daily
returns is split per column into disjoint 500-day samples; for each sample
the first 250 days seed a rolling one-day-ahead reserve estimate, the last
250 days are secured against it, and the resulting statistics are
classified and cross-tabulated.

Rolling reserves come from one table, ``_KERNELS``, that maps each name in
``ESTIMATORS`` to an array kernel. A kernel takes the (test, learn) view of
all learning windows at once (``sliding_window_view``, no copy) and returns
one reserve per test day, equal bit for bit to calling the scalar estimator
on each window: the normal kernels reduce each row for its mean and sd and
evaluate ``norm.ppf``/``norm.pdf`` once per series, the historical kernels
take each row's order statistic with one 2-D ``np.partition``, and the ES
tail is then averaged row by row in time order. A sample with a non-finite
value is rejected before any kernel runs.
"""

from __future__ import annotations

import re
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .backtest import (
    ES_THRESHOLDS,
    VAR_THRESHOLDS,
    Z_THRESHOLDS,
    ZONES,
    BacktestResult,
    classify,
    g_stat,
    t_stat,
    z_stat,
)
from .estimators import SampleMoments, _as_sample, _tail_index, es_normal, var_normal

# bench/spans.py wraps these scalar estimators by their names in this module
# to attribute traced time to layers; the rolling kernels no longer call them.
from .estimators import es_empirical, moments, var_empirical  # noqa: F401
from .secured import build_normalized, build_secured

__all__ = [
    "DataError",
    "ReturnPanel",
    "Sample",
    "RollingConfig",
    "ConfusionMatrix",
    "ESTIMATORS",
    "FAMILIES",
    "load_returns",
    "filter_dates",
    "split_samples",
    "rolling_backtest",
    "compare_backtest",
    "run_batch",
    "run_compare_batch",
    "confusion",
    "heatmap_table",
    "write_heatmap_csv",
]

FAMILIES = ("hist", "norm")

_FF_SENTINELS = (-99.99, -999.0)
_DATE_RE = re.compile(r"^\d{8}$")


class DataError(ValueError):
    """Raised when an input file cannot be ingested."""


@dataclass(frozen=True)
class ReturnPanel:
    """Aligned daily return series; values are decimals, not percent."""

    names: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    dates: Optional[np.ndarray] = field(default=None, repr=False)
    dropped_rows: int = 0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if values.shape[1] != len(self.names):
            raise ValueError("one name per column required")
        if not np.all(np.isfinite(values)):
            raise ValueError("panel contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.dates is not None:
            dates = np.asarray(self.dates, dtype=np.int64)
            if dates.size != values.shape[0]:
                raise ValueError("one date per row required")
            dates.flags.writeable = False
            object.__setattr__(self, "dates", dates)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]


class Sample(NamedTuple):
    """One contiguous slice of one panel column."""

    column: str
    start: int
    values: np.ndarray

    @property
    def label(self) -> str:
        return f"{self.column}[{self.start}:{self.start + self.values.size}]"


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _parse_float(cell: str, lineno: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(
            f"line {lineno}: cannot parse {cell.strip()!r} as a number"
        ) from None


def _load_ff_daily(path) -> ReturnPanel:
    """Parse a daily panel whose rows start with a YYYYMMDD date.

    Returns are given in percent and converted to decimals; the sentinel
    values -99.99 and -999 mark missing data and drop the whole row. Any
    description lines before the data block are skipped, and only the first
    contiguous block of dated rows is read.
    """
    lines = _read_lines(path)
    start = None
    for i, line in enumerate(lines):
        first = line.split(",")[0].strip()
        if _DATE_RE.match(first):
            start = i
            break
    if start is None:
        raise DataError(f"{path}: no rows starting with a YYYYMMDD date")

    width = len(lines[start].split(","))
    names = [f"col{j}" for j in range(1, width)]
    if start > 0:
        header = [c.strip() for c in lines[start - 1].split(",")]
        if len(header) == width:
            names = [h or f"col{j}" for j, h in enumerate(header[1:], start=1)]

    dates: list[int] = []
    rows: list[list[float]] = []
    for i in range(start, len(lines)):
        parts = lines[i].split(",")
        first = parts[0].strip()
        if not _DATE_RE.match(first):
            break  # end of the daily block
        if len(parts) != width:
            raise DataError(
                f"line {i + 1}: expected {width} fields, found {len(parts)}"
            )
        dates.append(int(first))
        rows.append([_parse_float(c, i + 1) for c in parts[1:]])

    raw = np.asarray(rows, dtype=float)
    missing = np.isin(raw, _FF_SENTINELS)
    all_missing = missing.all(axis=0)
    if all_missing.any():
        bad = names[int(np.flatnonzero(all_missing)[0])]
        raise DataError(f"{path}: column {bad!r} has no usable observations")
    keep = ~missing.any(axis=1)
    dropped = int((~keep).sum())
    return ReturnPanel(
        names=tuple(names),
        values=raw[keep] / 100.0,
        dates=np.asarray(dates, dtype=np.int64)[keep],
        dropped_rows=dropped,
    )


def _load_simple_csv(path) -> ReturnPanel:
    """Parse a headed CSV of decimal returns; a leading 'date' column is optional."""
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    has_dates = bool(header) and header[0].lower() == "date"
    names = header[1:] if has_dates else header
    if not names:
        raise DataError(f"{path}: header defines no return columns")

    dates: list[int] = []
    rows: list[list[float]] = []
    for i, line in enumerate(lines[1:], start=2):
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != len(header):
            raise DataError(
                f"line {i}: expected {len(header)} fields, found {len(parts)}"
            )
        if has_dates:
            if not _DATE_RE.match(parts[0]):
                raise DataError(f"line {i}: bad date {parts[0]!r}, expected YYYYMMDD")
            dates.append(int(parts[0]))
            parts = parts[1:]
        rows.append([_parse_float(c, i) for c in parts])
    if not rows:
        raise DataError(f"{path}: no data rows")
    return ReturnPanel(
        names=tuple(names),
        values=np.asarray(rows, dtype=float),
        dates=np.asarray(dates, dtype=np.int64) if has_dates else None,
    )


def load_returns(path, fmt: str) -> ReturnPanel:
    """Load a return panel from disk; ``fmt`` is 'ff_daily' or 'simple_csv'."""
    if fmt == "ff_daily":
        return _load_ff_daily(path)
    if fmt == "simple_csv":
        return _load_simple_csv(path)
    raise ValueError(f"unknown format {fmt!r}")


def filter_dates(
    panel: ReturnPanel, start: Optional[int] = None, end: Optional[int] = None
) -> ReturnPanel:
    """Restrict a dated panel to start <= date <= end (YYYYMMDD, inclusive)."""
    if start is None and end is None:
        return panel
    if panel.dates is None:
        raise ValueError("panel has no dates to filter on")
    keep = np.ones(panel.n_rows, dtype=bool)
    if start is not None:
        keep &= panel.dates >= start
    if end is not None:
        keep &= panel.dates <= end
    if not keep.any():
        raise ValueError("date filter removes every row")
    return ReturnPanel(
        names=panel.names,
        values=panel.values[keep],
        dates=panel.dates[keep],
        dropped_rows=panel.dropped_rows,
    )


def split_samples(panel: ReturnPanel, window: int = 500) -> list[Sample]:
    """Disjoint consecutive windows per column, column-major, remainder dropped."""
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    if window > panel.n_rows:
        raise ValueError(
            f"window {window} exceeds panel length {panel.n_rows}"
        )
    per_col = panel.n_rows // window
    out = []
    for ci, name in enumerate(panel.names):
        for w in range(per_col):
            lo = w * window
            out.append(Sample(name, lo, panel.values[lo : lo + window, ci]))
    return out


def _normal_moments(windows: np.ndarray) -> SampleMoments:
    return SampleMoments(
        windows.mean(axis=1), windows.std(axis=1, ddof=1), windows.shape[1]
    )


def _hist_boundary(windows: np.ndarray, alpha: float) -> np.ndarray:
    k = _tail_index(windows.shape[1], alpha)
    return np.partition(windows, k, axis=1)[:, k]


def _es_hist(windows: np.ndarray, alpha: float) -> np.ndarray:
    boundary = _hist_boundary(windows, alpha)
    # the tail mean stays per row so it sums in time order like es_empirical;
    # a masked 2-D sum reorders the additions and drifts by an ulp
    return np.array([-w[w <= b].mean() for w, b in zip(windows, boundary)])


# Estimator name -> kernel mapping a (test, learn) array of rolling windows to
# one reserve per window; each matches its scalar estimator bit for bit.
_KERNELS = {
    "var_hist": lambda windows, alpha: -_hist_boundary(windows, alpha),
    "var_norm": lambda windows, alpha: var_normal(_normal_moments(windows), alpha),
    "es_hist": _es_hist,
    "es_norm": lambda windows, alpha: es_normal(_normal_moments(windows), alpha),
}
ESTIMATORS = tuple(_KERNELS)


@dataclass(frozen=True)
class RollingConfig:
    """Rolling one-day-ahead backtest configuration.

    ``alpha`` defaults to the conventional level of the estimator family:
    0.01 for VAR estimators, 0.025 for ES estimators.
    """

    estimator: str
    learn: int = 250
    test: int = 250
    alpha: Optional[float] = None
    normalize: bool = False

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}"
            )
        if self.learn < 2 or self.test < 1:
            raise ValueError("need learn >= 2 and test >= 1")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie inside (0, 1), got {self.alpha}")

    @property
    def window(self) -> int:
        return self.learn + self.test

    @property
    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        return 0.01 if self.estimator.startswith("var") else 0.025


def _reserve_series(
    x: np.ndarray, learn: int, test: int, estimator: str, alpha: float
) -> np.ndarray:
    """Reserve for each test day from the ``learn`` observations before it."""
    windows = sliding_window_view(x[: learn + test - 1], learn)
    return _KERNELS[estimator](windows, alpha)


def _window_sample(x, learn: int, test: int) -> np.ndarray:
    """The finite sample of length learn + test that one backtest consumes."""
    if learn < 2 or test < 1:
        raise ValueError("need learn >= 2 and test >= 1")
    arr = _as_sample(x)
    if arr.size != learn + test:
        raise ValueError(
            f"sample has {arr.size} observations, config needs {learn + test}"
        )
    return arr


def _secure(realized, reserve, normalize: bool):
    if normalize:
        return build_normalized(realized, reserve)
    return build_secured(realized, reserve)


def rolling_backtest(x, cfg: RollingConfig) -> BacktestResult:
    """Backtest one sample of length learn + test with a single estimator.

    Day i of the test period is secured by the reserve estimated from the
    ``learn`` observations ending the day before; both statistics and their
    zones are computed on the resulting secured sample.
    """
    arr = _window_sample(x, cfg.learn, cfg.test)
    alpha = cfg.resolved_alpha
    reserve = _reserve_series(arr, cfg.learn, cfg.test, cfg.estimator, alpha)
    y = _secure(arr[cfg.learn :], reserve, cfg.normalize)
    t = t_stat(y)
    g = g_stat(y)
    return BacktestResult(
        n=cfg.test,
        alpha=alpha,
        estimator=cfg.estimator,
        normalized=cfg.normalize,
        nominal_t=t.nominal,
        nominal_g=g.nominal,
        zone_var=classify(t.nominal, VAR_THRESHOLDS),
        zone_es=classify(g.nominal, ES_THRESHOLDS),
    )


def compare_backtest(
    x,
    family: str,
    learn: int = 250,
    test: int = 250,
    alpha_var: float = 0.01,
    alpha_es: float = 0.025,
    alpha_z: Optional[float] = None,
    normalize: bool = False,
) -> BacktestResult:
    """Run the VAR and ES backtests of one estimator family plus the z test.

    The exception count comes from the sample secured by the family's VAR
    estimator at ``alpha_var``, the worst-case-sum count from the sample
    secured by its ES estimator at ``alpha_es``. The z statistic compares
    raw realized values against reserves of both kinds estimated at
    ``alpha_z`` (defaulting to ``alpha_es``); normalization never applies
    to it.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    arr = _window_sample(x, learn, test)
    if alpha_z is None:
        alpha_z = alpha_es
    realized = arr[learn:]

    var_reserve = _reserve_series(arr, learn, test, f"var_{family}", alpha_var)
    es_reserve = _reserve_series(arr, learn, test, f"es_{family}", alpha_es)
    t = t_stat(_secure(realized, var_reserve, normalize))
    g = g_stat(_secure(realized, es_reserve, normalize))

    var_z = (
        var_reserve
        if alpha_z == alpha_var
        else _reserve_series(arr, learn, test, f"var_{family}", alpha_z)
    )
    es_z = (
        es_reserve
        if alpha_z == alpha_es
        else _reserve_series(arr, learn, test, f"es_{family}", alpha_z)
    )
    z = z_stat(realized, var_z, es_z, alpha_z)

    return BacktestResult(
        n=test,
        alpha={"var": alpha_var, "es": alpha_es, "z": alpha_z},
        estimator=family,
        normalized=normalize,
        nominal_t=t.nominal,
        nominal_g=g.nominal,
        zone_var=classify(t.nominal, VAR_THRESHOLDS),
        zone_es=classify(g.nominal, ES_THRESHOLDS),
        z=z,
        zone_z=classify(z, Z_THRESHOLDS),
    )


def _run_one(args) -> BacktestResult:
    values, cfg = args
    return rolling_backtest(values, cfg)


def _run_one_compare(args) -> BacktestResult:
    values, kwargs = args
    return compare_backtest(values, **kwargs)


def _parallel_map(fn, items, workers: int):
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def run_batch(
    samples: Sequence[Sample], cfg: RollingConfig, workers: int = 1
) -> list[BacktestResult]:
    """Map ``rolling_backtest`` over samples; ordering follows the input."""
    return _parallel_map(_run_one, [(s.values, cfg) for s in samples], workers)


def run_compare_batch(
    samples: Sequence[Sample], workers: int = 1, **kwargs
) -> list[BacktestResult]:
    """Map ``compare_backtest`` over samples; ordering follows the input."""
    return _parallel_map(
        _run_one_compare, [(s.values, kwargs) for s in samples], workers
    )


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 zone cross-tabulation, rows = ES zone, columns = VAR zone."""

    counts: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (3, 3) or np.any(counts < 0):
            raise ValueError("counts must be a nonnegative 3x3 matrix")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def trace_ratio(self) -> float:
        """Share of samples receiving the same zone from both tests."""
        if self.total == 0:
            return float("nan")
        return float(np.trace(self.counts)) / self.total

    def to_json_dict(self) -> dict:
        return {
            "zones": list(ZONES),
            "counts": self.counts.tolist(),
            "total": self.total,
            "trace_ratio": self.trace_ratio,
        }


def confusion(results_var, results_es) -> ConfusionMatrix:
    """Cross-tabulate paired zone labels, indexed (ES zone, VAR zone)."""
    if len(results_var) != len(results_es):
        raise ValueError(
            f"length mismatch: {len(results_var)} VAR zones, "
            f"{len(results_es)} ES zones"
        )
    index = {z: i for i, z in enumerate(ZONES)}
    counts = np.zeros((3, 3), dtype=np.int64)
    for zv, ze in zip(results_var, results_es):
        counts[index[ze], index[zv]] += 1
    return ConfusionMatrix(counts)


def heatmap_table(
    results: Sequence[BacktestResult], cap_t: int = 15, cap_g: int = 35
) -> list[tuple[int, int, int]]:
    """Aggregate (capped exception count, capped worst-case count) cells.

    Counts above the caps are clamped onto them (caps inclusive), so the
    top cells read 'at least this bad'. Rows are sorted and only populated
    cells are emitted.
    """
    cells = Counter(
        (min(r.nominal_t, cap_t), min(r.nominal_g, cap_g)) for r in results
    )
    return [(t, g, cells[(t, g)]) for (t, g) in sorted(cells)]


def write_heatmap_csv(rows: Sequence[tuple[int, int, int]], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("nt_capped,ng_capped,count\n")
        for nt, ng, count in rows:
            fh.write(f"{nt},{ng},{count}\n")
