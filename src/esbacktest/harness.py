"""End-to-end rolling-window study: ingestion, batch backtests, summaries.

The workflow mirrors a desk-scale validation exercise: a panel of daily
returns is split per column into disjoint 500-day samples; for each sample
the first 250 days seed a rolling one-day-ahead reserve estimate, the last
250 days are secured against it, and the resulting statistics are
classified and cross-tabulated.

A loaded panel is checked in two places. ``_parse_rows`` reads every line in
one pass and checks the field counts, the date pattern and that each cell is
a number; ``ReturnPanel`` checks the arrays it is given: finite values,
calendar dates and strictly increasing dates. On any failure ``_parse_lines``
reads the lines again one at a time and raises a ``DataError`` that names the
first bad line. ``ff_daily`` checks its whole percent block before it drops
the rows that hold a missing-data sentinel.

Rolling reserves come from one table, ``_KERNELS``, that maps each name in
``ESTIMATORS`` to a statistic of the learning windows and a reserve read from
it. ``_reserves`` takes the (test, learn) view of a sample's windows once
(``sliding_window_view``, no copy) and reduces it once per statistic and key:
each row's mean and sd for the normal family at any level, and each row's
order statistic at one tail index for the historical family, so VAR and ES
at one level share a 2-D ``np.partition``. The historical family reads a
narrower view, ``_low_tail``: each window's values at or below a bound tau,
in time order, padded with ``+inf``. tau is the largest k-th smallest value
of the aligned blocks of ``learn // 2`` values, k the largest tail index of
the sample's pairs. Every window holds a whole block, so every value at or
below its k-th smallest is in its row, and the boundaries, ties and ES tails
are the same floats in the same order. The full windows are read instead
when a block is shorter than k + 1 values, when the widest row would be
wider than a block, or when a value in the view is a zero of either sign,
whose sign a 1-D partition decides. Every (estimator, level) series is
read from those reductions and equals the scalar estimator on each window
bit for bit: the normal reads call ``Normal().quantile``/``pdf``
(``scipy.special``) once per series, and the ES tails are gathered in time
order, one block per tail length, for row means.
A sample with a non-finite value is rejected before any kernel runs.

Both backtests grade through ``_graded``: ``rolling_backtest`` with one
estimator in both roles, ``compare_backtest`` with the VAR and ES estimators
of one family plus the z test. ``BacktestResult`` derives the zones.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import takewhile
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .backtest import CALIBRATION, ZONES, BacktestResult, g_stat, t_stat, z_stat
from .estimators import SampleMoments, _check_level, _tail_index
from .estimators import es_normal, var_normal

# bench/spans.py wraps these names in this module to attribute traced time to
# layers; the rolling kernels and BacktestResult's zones no longer call them.
from .backtest import classify  # noqa: F401
from .estimators import es_empirical, moments, var_empirical  # noqa: F401
from .parallel import parallel_map
from .secured import _finite_vector, build_normalized, build_secured
from .simulation import FitError

__all__ = [
    "DataError",
    "ReturnPanel",
    "Sample",
    "RollingConfig",
    "ConfusionMatrix",
    "ESTIMATORS",
    "FAMILIES",
    "FORMATS",
    "LEARN",
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
# Default learning window; one sample is a learning and a test window.
LEARN = 250

_FF_SENTINELS = (-99.99, -999.0)
_CAP_T, _CAP_G = 15, 35  # heatmap caps of the exception and worst-case-sum counts
_DATE_RE = re.compile(r"^\d{8}$")
# days in each month of a leap year; month 0 stands in for a month out of range
_MONTH_DAYS = np.array([0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


class DataError(ValueError):
    """Raised when an input file cannot be ingested."""


def _calendar(dates) -> np.ndarray:
    """Whether each YYYYMMDD integer is a date of the Gregorian calendar, years 1 to 9999."""
    dates = np.asarray(dates, dtype=np.int64)
    year, month, day = dates // 10000, dates // 100 % 100, dates % 100
    month = np.where(month <= 12, month, 0)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    last = _MONTH_DAYS[month] - ((month == 2) & ~leap)
    return (1 <= year) & (year <= 9999) & (1 <= day) & (day <= last)


@dataclass(frozen=True)
class ReturnPanel:
    """Aligned daily return series; values are decimals, not percent."""

    names: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    dates: Optional[np.ndarray] = field(default=None, repr=False)
    dropped_rows: int = 0

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)  # owned: the caller's stays writeable
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if values.shape[1] != len(self.names):
            raise ValueError("one name per column required")
        if not np.all(np.isfinite(values)):
            raise ValueError("panel contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.dates is not None:
            dates = np.array(self.dates, dtype=np.int64)
            if dates.size != values.shape[0]:
                raise ValueError("one date per row required")
            if not _calendar(dates).all():
                raise ValueError("dates must be calendar dates, YYYYMMDD")
            if not (dates[1:] > dates[:-1]).all():
                raise ValueError("dates must strictly increase")
            dates.flags.writeable = False
            object.__setattr__(self, "dates", dates)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


class Sample(NamedTuple):
    """One contiguous slice of one panel column."""

    column: str
    start: int
    values: np.ndarray

    @property
    def label(self) -> str:
        return f"{self.column}[{self.start}:{self.start + self.values.size}]"

    def run(self, fn, *args):
        """``fn(self.values, *args)``, the one place a sample names itself in an
        error: a ``ValueError`` or ``FitError`` that the call raises keeps its
        class and traceback, and its message is prefixed ``"a[0:300]: "``."""
        try:
            return fn(self.values, *args)
        except (ValueError, FitError) as exc:
            exc.args = (f"{self.label}: {exc}",)
            raise


def _read_lines(path) -> list[str]:
    try:  # utf-8-sig drops a leading byte-order mark
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _parse_float(cell: str, lineno: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"line {lineno}: cannot parse {cell.strip()!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"line {lineno}: cell {cell.strip()!r} is not a finite number")
    return value


def _is_dated(line: str) -> bool:
    return bool(_DATE_RE.match(line.split(",")[0].strip()))


def _leads_digit(line: str) -> bool:
    return line.split(",")[0].strip()[:1].isdigit()


def _names(cells, lineno: int) -> tuple[str, ...]:
    """Column names from the header cells of the return columns: a blank cell is
    named ``col{j}`` after its 1-based position, and no name may repeat."""
    names = [c.strip() or f"col{j}" for j, c in enumerate(cells, start=1)]
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise DataError(f"line {lineno}: column name {repeated[0]!r} is repeated")
    return tuple(names)


def _parse_rows(numbered_lines, names, dated: bool) -> ReturnPanel:
    """The panel of (physical line number, line) pairs, each line a YYYYMMDD
    date if ``dated`` and then one cell per name; errors name the physical line.

    One pass splits every line and parses every cell: it checks the field
    counts, the date pattern and that each cell is a number. ``ReturnPanel``
    checks the rest on the arrays: finite values, calendar dates, strictly
    increasing dates. On any failure the per-line loop runs again to name the
    first bad line.
    """
    numbered = list(numbered_lines)
    lines = [line for _, line in numbered]
    width = len(names) + dated
    cells = ",".join(lines).split(",") if lines else []
    dates = [date.strip() for date in cells[::width]] if dated else []
    if dated:
        del cells[::width]
    try:
        if not (all(line.count(",") == width - 1 for line in lines)
                and all(map(_DATE_RE.match, dates))):
            raise ValueError("a line has the wrong number of fields or a bad date")
        values = np.fromiter(map(float, cells), float, len(cells))  # float() strips
        order = np.fromiter(map(int, dates), np.int64, len(dates)) if dated else None
        return ReturnPanel(names, values.reshape(len(lines), len(names)), order)
    except ValueError:
        _parse_lines(numbered, width, dated)  # raises, naming the first bad line
        raise


def _parse_lines(numbered, width: int, dated: bool):
    """``_parse_rows`` one line at a time, raising at the first bad line."""
    dates, rows = [], []
    for i, line in numbered:
        parts = line.split(",")
        if len(parts) != width:
            raise DataError(f"line {i}: expected {width} fields, found {len(parts)}")
        if dated:
            date = parts[0].strip()
            if not _DATE_RE.match(date):
                raise DataError(f"line {i}: bad date {date!r}, expected YYYYMMDD")
            if not _calendar(int(date)):
                raise DataError(f"line {i}: date {date} is not a calendar date")
            if dates and int(date) <= dates[-1]:
                raise DataError(f"line {i}: date {date} is not after {dates[-1]}")
            dates.append(int(date))
            parts = parts[1:]
        rows.append([_parse_float(c, i) for c in parts])
    return rows, dates


def _load_ff_daily(path) -> ReturnPanel:
    """Parse a daily panel whose rows start with a YYYYMMDD date.

    Returns are given in percent and converted to decimals; the sentinel
    values -99.99 and -999 mark missing data and drop the whole row. The block
    of data rows runs down from the first dated line until a first field,
    stripped, is blank or starts with no digit, and up over lines as wide whose
    first field starts with a digit; the line above is the header when as wide.
    So a mistyped date fails naming its line, on the first row too.
    """
    lines = _read_lines(path)
    start = next((i for i, line in enumerate(lines) if _is_dated(line)), None)
    if start is None:
        raise DataError(f"{path}: no rows starting with a YYYYMMDD date")
    width = len(lines[start].split(","))
    while start and _leads_digit(lines[start - 1]) and lines[start - 1].count(",") == width - 1:
        start -= 1
    header = lines[start - 1].split(",") if start else []
    names = _names(header[1:] if len(header) == width else [""] * (width - 1), start)
    block = takewhile(lambda n: _leads_digit(n[1]), enumerate(lines[start:], start + 1))
    raw = _parse_rows(block, names, dated=True)  # in percent

    missing = np.isin(raw.values, _FF_SENTINELS)
    all_missing = missing.all(axis=0)
    if all_missing.any():
        bad = names[int(np.flatnonzero(all_missing)[0])]
        raise DataError(f"{path}: column {bad!r} has no usable observations")
    keep = ~missing.any(axis=1)
    return ReturnPanel(names, raw.values[keep] / 100.0, raw.dates[keep], int((~keep).sum()))


def _load_simple_csv(path) -> ReturnPanel:
    """Parse a headed CSV of decimal returns; a leading 'date' column is optional."""
    lines = [(i, ln) for i, ln in enumerate(_read_lines(path), start=1) if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    head, header = lines[0][0], [c.strip() for c in lines[0][1].split(",")]
    has_dates = bool(header) and header[0].lower() == "date"
    names = header[1:] if has_dates else header
    if not names:
        raise DataError(f"{path}: header defines no return columns")
    try:
        [float(c) for c in names]
    except ValueError:
        pass  # a name that is no number: the first line is the header
    else:
        raise DataError(f"line {head}: a header row is required, found only numbers")
    panel = _parse_rows(lines[1:], _names(names, head), has_dates)
    if not panel.n_rows:
        raise DataError(f"{path}: no data rows")
    return panel


# Input format -> loader of a panel file in that layout
_LOADERS = {"ff_daily": _load_ff_daily, "simple_csv": _load_simple_csv}
FORMATS = tuple(_LOADERS)


def load_returns(path, fmt: str) -> ReturnPanel:
    """Load a return panel from disk; ``fmt`` is one of ``FORMATS``."""
    if fmt not in _LOADERS:
        raise ValueError(f"unknown format {fmt!r}")
    return _LOADERS[fmt](path)


def filter_dates(
    panel: ReturnPanel, start: Optional[int] = None, end: Optional[int] = None
) -> ReturnPanel:
    """Restrict a dated panel to start <= date <= end (YYYYMMDD, inclusive).

    Each bound given must be a calendar date, and start may not follow end.
    """
    for name, bound in (("start", start), ("end", end)):
        if bound is not None and not (0 < bound < 10**8 and _calendar(bound)):
            raise ValueError(f"{name} {bound} is not a calendar date, YYYYMMDD")
    if start is None and end is None:
        return panel
    lo, hi = start or 0, end or 10**8  # an absent bound is the open end
    if lo > hi:
        raise ValueError(f"start {start} is after end {end}")
    if panel.dates is None:
        raise ValueError("panel has no dates to filter on")
    keep = (lo <= panel.dates) & (panel.dates <= hi)
    if not keep.any():
        raise ValueError("date filter removes every row")
    return replace(panel, values=panel.values[keep], dates=panel.dates[keep])


def split_samples(panel: ReturnPanel, window: int = LEARN + CALIBRATION.n) -> list[Sample]:
    """Disjoint consecutive windows per column, column-major, remainder dropped."""
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    if window > panel.n_rows:
        raise ValueError(f"window {window} exceeds panel length {panel.n_rows}")
    starts = range(0, panel.n_rows - window + 1, window)
    return [Sample(name, lo, panel.values[lo : lo + window, ci])
            for ci, name in enumerate(panel.names) for lo in starts]


def _normal_moments(windows: np.ndarray, _) -> SampleMoments:
    return SampleMoments(
        windows.mean(axis=1), windows.std(axis=1, ddof=1), windows.shape[1]
    )


def _boundary(windows: np.ndarray, k: int) -> np.ndarray:
    # the column alone: a partitioned block held beside another slows the next
    # partition down
    return np.partition(windows, k, axis=1)[:, k].copy()


def _es_hist(windows: np.ndarray, boundary: np.ndarray, _alpha) -> np.ndarray:
    mask = windows <= boundary[:, None]
    tails, size = windows[mask], mask.sum(axis=1)  # tails in time order, row by row
    start = np.cumsum(size) - size
    out = np.empty(len(windows))
    # numpy means each row of a C-contiguous (rows, n) block with the pairwise
    # loop of es_empirical's 1-D tail.mean(), so grouping by length is exact
    for n in np.unique(size):
        rows = np.flatnonzero(size == n)
        out[rows] = -tails[start[rows, None] + np.arange(n)].mean(axis=1)
    return out


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
ESTIMATORS = tuple(_KERNELS)


@dataclass(frozen=True)
class RollingConfig:
    """Rolling one-day-ahead backtest configuration.

    ``alpha`` defaults to the calibration level of the estimator family,
    ``CALIBRATION.alpha_var`` or ``CALIBRATION.alpha_es``.
    """

    estimator: str
    learn: int = LEARN
    test: int = CALIBRATION.n
    alpha: Optional[float] = None
    normalize: bool = False

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}"
            )
        if self.learn < 2 or self.test < 1:
            raise ValueError("need learn >= 2 and test >= 1")
        if self.alpha is not None:
            _check_level(self.alpha, name="alpha")

    @property
    def window(self) -> int:
        return self.learn + self.test

    @property
    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        var = self.estimator.startswith("var")
        return CALIBRATION.alpha_var if var else CALIBRATION.alpha_es


def _low_tail(x: np.ndarray, windows: np.ndarray, k: int) -> np.ndarray:
    """Each window's values at or below tau, in time order, padded with +inf,
    where tau bounds every window's k-th smallest value; ``windows`` where the
    bound saves nothing or a zero's sign would depend on the row."""
    half = windows.shape[1] // 2
    if half < k + 1:
        return windows
    # every window holds a whole aligned block, whose k-th smallest bounds its own
    blocks = x[: x.size // half * half].reshape(-1, half)
    at = np.flatnonzero(x <= np.partition(blocks, k, axis=1)[:, k].max())
    start = np.arange(len(windows))
    first = np.searchsorted(at, start)  # each window's first index into at
    size = np.searchsorted(at, start + windows.shape[1]) - first
    width, low = size.max(), x[at]
    if width > half or (low == 0).any():
        return windows
    cols = np.arange(width)
    rows = np.take(low, first[:, None] + cols, mode="clip")
    rows[cols >= size[:, None]] = np.inf
    return rows


def _reserves(x: np.ndarray, learn: int, test: int, pairs) -> dict:
    """Reserve series per (estimator, level) pair, one per test day from the
    ``learn`` observations before it; in ``pairs`` order, so that the first
    series to overflow raises."""
    x = x[: learn + test - 1]
    windows = sliding_window_view(x, learn)
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
            day = int(np.argmin(finite))
            raise ValueError(f"{estimator} reserve at level {alpha} overflows on day {day}")
    return series


def _graded(
    x, learn, test, normalize, var_est, alpha_var, es_est, alpha_es, alpha_z=None
) -> tuple[int, int, Optional[float]]:
    """(nominal_t, nominal_g, z) of one sample, graded as ``compare_backtest`` says.

    Each (estimator, level) reserve series is estimated once; z is None
    without ``alpha_z``. ``x`` holds the sample's values, or is a ``Sample``,
    which labels the errors of its values (``Sample.run``).
    """
    if learn < 2 or test < 1:
        raise ValueError("need learn >= 2 and test >= 1")
    if isinstance(x, Sample):
        levels = (var_est, alpha_var, es_est, alpha_es, alpha_z)
        return x.run(_graded, learn, test, normalize, *levels)
    arr = _finite_vector(x, "sample")
    if arr.size != learn + test:
        raise ValueError(f"sample has {arr.size} observations, config needs {learn + test}")
    realized = arr[learn:]
    secure = build_normalized if normalize else build_secured
    pairs = [(var_est, alpha_var), (es_est, alpha_es)]
    if alpha_z is not None:
        pairs += [(var_est, alpha_z), (es_est, alpha_z)]
    series = _reserves(arr, learn, test, pairs)

    y = secure(realized, series[var_est, alpha_var])
    nt = t_stat(y).nominal
    if (es_est, alpha_es) != (var_est, alpha_var):
        y = secure(realized, series[es_est, alpha_es])
    ng = g_stat(y).nominal
    if alpha_z is None:
        return nt, ng, None
    z = z_stat(realized, series[var_est, alpha_z], series[es_est, alpha_z], alpha_z)
    return nt, ng, z


def rolling_backtest(x, cfg: RollingConfig) -> BacktestResult:
    """Backtest one sample of length learn + test with a single estimator.

    Day i of the test period is secured by the reserve estimated from the
    ``learn`` observations ending the day before; both statistics are
    computed on the resulting secured sample. ``x`` may be a ``Sample``,
    whose label then names it in any error that its values raise.
    """
    alpha = cfg.resolved_alpha
    est = cfg.estimator
    nt, ng, _ = _graded(x, cfg.learn, cfg.test, cfg.normalize, est, alpha, est, alpha)
    return BacktestResult(
        n=cfg.test,
        alpha=alpha,
        estimator=cfg.estimator,
        normalized=cfg.normalize,
        nominal_t=nt,
        nominal_g=ng,
    )


def compare_backtest(
    x,
    family: str,
    learn: int = LEARN,
    test: int = CALIBRATION.n,
    alpha_var: float = CALIBRATION.alpha_var,
    alpha_es: float = CALIBRATION.alpha_es,
    alpha_z: Optional[float] = None,
    normalize: bool = False,
) -> BacktestResult:
    """Run the VAR and ES backtests of one estimator family plus the z test.

    The exception count comes from the sample secured by the family's VAR
    estimator at ``alpha_var``, the worst-case-sum count from the sample
    secured by its ES estimator at ``alpha_es``. The z statistic compares
    raw realized values against reserves of both kinds estimated at
    ``alpha_z`` (defaulting to ``alpha_es``); normalization never applies
    to it. ``x`` may be a ``Sample``, as in ``rolling_backtest``.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if alpha_z is None:
        alpha_z = alpha_es
    for alpha in (alpha_var, alpha_es, alpha_z):
        _check_level(alpha)
    var_est, es_est = f"var_{family}", f"es_{family}"
    nt, ng, z = _graded(
        x, learn, test, normalize, var_est, alpha_var, es_est, alpha_es, alpha_z
    )
    return BacktestResult(
        n=test,
        alpha={"var": alpha_var, "es": alpha_es, "z": alpha_z},
        estimator=family,
        normalized=normalize,
        nominal_t=nt,
        nominal_g=ng,
        z=z,
    )


def run_batch(
    samples: Sequence[Sample], cfg: RollingConfig, workers: int = 1
) -> list[BacktestResult]:
    """Map ``rolling_backtest`` over samples; ordering follows the input."""
    return parallel_map(partial(rolling_backtest, cfg=cfg), samples, workers)


def run_compare_batch(
    samples: Sequence[Sample], workers: int = 1, **kwargs
) -> list[BacktestResult]:
    """Map ``compare_backtest`` over samples; ordering follows the input."""
    return parallel_map(partial(compare_backtest, **kwargs), samples, workers)


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 zone cross-tabulation, rows = ES zone, columns = VAR zone."""

    counts: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
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


def heatmap_table(results: Sequence[BacktestResult]) -> list[tuple[int, int, int]]:
    """Aggregate (capped exception count, capped worst-case count) cells.

    Counts above ``_CAP_T`` and ``_CAP_G`` are clamped onto them (caps
    inclusive), so the top cells read 'at least this bad'. Rows are sorted
    and only populated cells are emitted.
    """
    cells = Counter(
        (min(r.nominal_t, _CAP_T), min(r.nominal_g, _CAP_G)) for r in results
    )
    return [(t, g, cells[(t, g)]) for (t, g) in sorted(cells)]


def write_heatmap_csv(rows: Sequence[tuple[int, int, int]], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("nt_capped,ng_capped,count\n")
        for nt, ng, count in rows:
            fh.write(f"{nt},{ng},{count}\n")
