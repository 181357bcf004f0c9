"""Monte Carlo engine, GARCH(1,1) modelling, and i.i.d. model fitting.

``mc_null`` reproduces the null distributions of the nominal backtest
statistics: each run draws an n-day sample, secures it with the analytic
reserve for the requested level, and tallies the resulting counts. Runs are
cut into blocks of ``_block_rows(cfg)`` rows; block b draws all of its
innovations from stream (seed, b), and ``_mc_block`` counts exceptions on the
draws and worst-case sums on a partial sort of each row. Worker threads
receive contiguous chunks of blocks, since the sampling, partition and sort
release the GIL, and integer counts add exactly, so the aggregate is
identical under any worker count (stream contract 3, ``dist.STREAM_CONTRACT``).
As the threads share one address space, a block keeps its temporaries small.

``_unit_law`` alone checks a GARCH innovation and builds its unit-variance
law, which each ``GarchSpec`` keeps as ``law``. The GARCH recursion
``_garch_paths`` steps once per day across the rows of a Monte Carlo block, or
the one path of ``garch_simulate`` that draws each simulated pick; it keeps
only the days after the burn-in.

``simulate_batch`` fits a model to each sample on processes, as Nelder-Mead
holds the GIL, and draws pick p of sample s from stream (seed, s * picks + p).
A ``harness.Sample`` labels the errors of its fit in ``Sample.run``.
"""

from __future__ import annotations

import csv
import importlib
import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .backtest import CALIBRATION, _negative_sums
from .dist import DistSpec, Normal, RngStream, SkewT, dist_to_json, special
from .estimators import _check_level, true_risk
from .parallel import parallel_map
from .secured import _finite_vector

__all__ = [
    "GARCH_BURN_IN",
    "MODELS",
    "McConfig",
    "NullDistribution",
    "GarchSpec",
    "FitError",
    "mc_null",
    "garch_simulate",
    "garch_fit",
    "fit_iid",
    "garch_to_json",
    "garch_from_json",
    "fit_and_simulate",
    "simulate_batch",
]

GARCH_BURN_IN = 500
_MAXFEV = 2000
# Monte Carlo block size, part of the stream contract: at most this many
# runs and this many draws per block
_BLOCK_ROWS = 512
_BLOCK_CELLS = 2**18
# a worst-case-sum count above this falls back to a full sort of its row
_G_PREFIX = 48


@dataclass(frozen=True)
class GarchSpec:
    """GARCH(1,1) with unit-variance innovations.

    Recursion: sigma2_t = omega + a1 * eps_{t-1}^2 + b1 * sigma2_{t-1},
    eps_t = sigma_t * z_t, return_t = mu + eps_t. Innovations z_t are
    standardized to zero mean and unit variance, so sigma_t is the
    conditional standard deviation for both normal and skew-t kinds.
    """

    mu: float
    omega: float
    a1: float
    b1: float
    innovation: str = "normal"
    nu: Optional[float] = None
    xi: Optional[float] = None
    law: Union[Normal, SkewT] = field(init=False, repr=False, compare=False)  # of z_t

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.a1 < 0 or self.b1 < 0:
            raise ValueError("a1 and b1 must be nonnegative")
        if not self.a1 + self.b1 < 1:
            raise ValueError(
                f"need a1 + b1 < 1 for stationarity, got {self.a1 + self.b1}"
            )
        if not math.isfinite(self.stationary_variance()):
            raise ValueError(
                "stationary variance omega / (1 - a1 - b1) is not finite at "
                f"omega={self.omega}, a1={self.a1}, b1={self.b1}"
            )
        object.__setattr__(self, "law", _unit_law(self.innovation, self.nu, self.xi))

    def stationary_variance(self) -> float:
        return self.omega / (1.0 - self.a1 - self.b1)


def garch_to_json(g: GarchSpec) -> dict:
    values = ((f.name, getattr(g, f.name)) for f in fields(GarchSpec) if f.init)
    return {name: v for name, v in values if v is not None}


def garch_from_json(obj: dict) -> GarchSpec:
    if not isinstance(obj, dict):
        raise ValueError("GARCH JSON must be an object")
    extra = set(obj) - {f.name for f in fields(GarchSpec) if f.init}
    if extra:
        raise ValueError(f"unknown GARCH fields {sorted(extra)}")
    try:
        return GarchSpec(**obj)
    except TypeError as exc:
        raise ValueError(f"bad GARCH parameters: {exc}") from None


def _skewt_shape(theta) -> tuple[float, float]:
    """Skew-t (nu, xi) of the fit parameters (log(nu - 2), log(xi))."""
    return 2.0 + math.exp(theta[0]), math.exp(theta[1])


def _unit_law(
    kind: str, nu: Optional[float] = None, xi: Optional[float] = None
) -> Union[Normal, SkewT]:
    """The one check of a GARCH innovation, and its zero-mean, unit-variance law."""
    if kind == "normal":
        if nu is not None or xi is not None:
            raise ValueError("normal innovations take no nu/xi")
        return Normal()
    if kind != "skew_t":
        raise ValueError(f"unknown innovation kind {kind!r}")
    if nu is None or xi is None:
        raise ValueError("skew_t innovations need nu and xi")
    SkewT._check_shape(nu, xi)
    try:
        mean, var = SkewT._moments(nu, xi)
    except OverflowError:  # xi**3 or xi**-3 leaves the float range
        var = math.inf
    if not math.isfinite(var):
        raise ValueError(f"skew_t variance is not finite at nu={nu}, xi={xi}")
    s = math.sqrt(var)
    return SkewT(nu, xi, loc=-mean / s, scale=1.0 / s)


def _innovations(g: GarchSpec, n: int, stream: RngStream) -> np.ndarray:
    """n unit-variance innovations of g from the start of ``stream``."""
    # skew-t innovations stay inverse-cdf draws, so a GARCH path, and
    # any panel drawn from one, keeps its values for a given stream
    if g.innovation == "normal":
        return g.law.sample(n, stream)
    return g.law.sample_by_quantile(n, stream)


def _garch_paths(
    g: GarchSpec, z: np.ndarray, burn_in: int
) -> tuple[np.ndarray, np.ndarray]:
    """Returns and conditional sd of the GARCH paths driven by the rows of z.

    Every row starts from the stationary variance, and the recursion steps
    once per column across all rows; the first ``burn_in`` days of each path
    are stepped but not kept. One row steps over Python floats, where
    numpy's per-call cost would be most of the time. Each step is
    elementwise IEEE arithmetic in the same order either way, so every row
    equals the one-path scalar loop bit for bit.
    """
    m, steps = z.shape
    if m == 1:
        sqrt, columns, s2 = math.sqrt, z[0].tolist(), g.stationary_variance()
    else:
        sqrt, columns, s2 = np.sqrt, z.T, np.full(m, g.stationary_variance())
    omega, a1, b1 = g.omega, g.a1, g.b1
    for zt in columns[:burn_in]:
        eps = sqrt(s2) * zt
        s2 = omega + a1 * eps * eps + b1 * s2
    path = []
    for zt in columns[burn_in:]:
        sd = sqrt(s2)
        path.append(sd)
        eps = sd * zt
        s2 = omega + a1 * eps * eps + b1 * s2
    if not np.isfinite(path[-1]).all():  # an inf or nan variance persists
        raise ValueError("GARCH conditional variance overflows")
    sigma = np.array(path).reshape(steps - burn_in, m).T
    del path  # before the returns are built, to lower the peak
    returns = sigma * z[:, burn_in:]
    returns += g.mu
    return returns, sigma


def garch_simulate(
    g: GarchSpec, n: int, stream: RngStream, burn_in: int = GARCH_BURN_IN
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate n returns and the conditional-sd path that generated them.

    The recursion starts from the stationary variance and discards
    ``burn_in`` warm-up steps, so the retained path is effectively a draw
    from the stationary law.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    z = _innovations(g, burn_in + n, stream)
    returns, sigma = _garch_paths(g, z[np.newaxis], burn_in)
    return returns[0], sigma[0]


def _conditional_variance(
    x: np.ndarray, s0: float, mu: float, omega: float, a1: float, b1: float
) -> tuple[np.ndarray, np.ndarray]:
    """Variance path implied by observed returns, seeded at the sample variance s0."""
    from scipy.signal import lfilter
    e = x - mu
    # s2[0] = s0 and s2[t] = drive[t] + b1 * s2[t - 1]: s0 leads the drive, no state
    drive = np.concatenate(([s0], omega + a1 * e[:-1] ** 2))
    return lfilter([1.0], [1.0, -b1], drive), e


def _garch_params(theta) -> tuple[float, float, float, float]:
    """(mu, omega, a1, b1) of a ``garch_fit`` parameter vector (see its docstring)."""
    persistence, frac = float(special.expit(theta[2])), float(special.expit(theta[3]))
    a1, b1 = persistence * frac, persistence * (1.0 - frac)
    return float(theta[0]), math.exp(theta[1]), a1, b1


def _garch_nll(theta: np.ndarray, x: np.ndarray, s0: float, kind: str) -> float:
    try:
        mu, omega, a1, b1 = _garch_params(theta)
    except OverflowError:  # exp(theta[1]) leaves the float range
        return 1e12
    s2, e = _conditional_variance(x, s0, mu, omega, a1, b1)
    if not (s2.min() > 0 and s2.max() < math.inf):  # NaN fails too
        return 1e12
    if kind == "normal":
        ll = -0.5 * np.sum(np.log(2.0 * math.pi * s2) + e * e / s2)
    else:
        try:
            law = _unit_law("skew_t", *_skewt_shape(theta[4:]))
        except (ValueError, OverflowError):  # nu rounds to 2, or xi under- or overflows
            return 1e12
        sd = np.sqrt(s2)
        ll = np.sum(law.logpdf(e / sd) - np.log(sd))
    if not np.isfinite(ll):
        return 1e12
    return -float(ll)


class FitError(RuntimeError):
    """Raised when a fit does not converge or converges onto a boundary.

    Carries the best parameter point seen (``best``) and the optimizer
    diagnostics (``diagnostics``) for post-mortems.
    """

    def __init__(self, message: str, best: dict, diagnostics: dict):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics

    def __reduce__(self):
        # the default rebuilds from args alone, which a worker's FitError fails
        return type(self), (*self.args, self.best, self.diagnostics)


def _multistart_minimize(fun, starts: Sequence[np.ndarray], args=()):
    """Best converged (theta, objective) of Nelder-Mead runs from ``starts``."""
    from scipy import optimize
    best = None
    best_converged = None
    for x0 in starts:
        res = optimize.minimize(
            fun,
            np.asarray(x0, dtype=float),
            args=args,
            method="Nelder-Mead",
            options={"maxfev": _MAXFEV, "xatol": 1e-8, "fatol": 1e-10},
        )
        if best is None or res.fun < best.fun:
            best = res
        if res.success and (best_converged is None or res.fun < best_converged.fun):
            best_converged = res
    if best_converged is None:
        raise FitError(
            f"optimizer did not converge within {_MAXFEV} evaluations per start: "
            f"{best.message}",
            best={"theta": best.x.tolist(), "nll": float(best.fun)},
            diagnostics={"nfev": int(best.nfev), "message": str(best.message)},
        )
    return best_converged.x, float(best_converged.fun)


def garch_fit(returns, innovation: str = "normal") -> GarchSpec:
    """Maximum-likelihood GARCH(1,1) fit.

    The conditional variance is seeded at the sample variance, and the
    stationarity constraint a1 + b1 < 1 is enforced by reparameterization
    (persistence and its split both live in (0, 1) via a logistic map).
    Optimization is derivative-free simplex search from three starts.
    """
    x, mu0, v = _fit_input(returns, 100)
    if innovation not in ("normal", "skew_t"):
        raise ValueError(f"unknown innovation kind {innovation!r}")

    starts = []
    for s, f in ((0.95, 0.10), (0.90, 0.05), (0.70, 0.30)):
        theta = [
            mu0,
            math.log(v * (1.0 - s)),
            math.log(s / (1.0 - s)),
            math.log(f / (1.0 - f)),
        ]
        if innovation == "skew_t":
            theta += [math.log(6.0), 0.0]  # nu = 8, xi = 1
        starts.append(np.array(theta))

    theta, nll = _multistart_minimize(_garch_nll, starts, args=(x, v, innovation))
    nu, xi = _skewt_shape(theta[4:]) if innovation == "skew_t" else (None, None)
    try:
        return GarchSpec(*_garch_params(theta), innovation, nu, xi)
    except (ValueError, OverflowError) as exc:
        # expit rounds persistence to 1, or exp under- or overflows omega
        raise FitError(
            f"fit reached a parameter boundary: {exc}",
            best={"theta": theta.tolist(), "nll": nll},
            diagnostics={"boundary": str(exc)},
        ) from None


def _fit_input(returns, minimum: int) -> tuple[np.ndarray, float, float]:
    """Finite returns, at least ``minimum`` of them, their mean and sample variance."""
    x = _finite_vector(returns, "returns")
    if x.size < minimum:
        raise ValueError(f"need at least {minimum} observations, got {x.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the check
        v = float(np.var(x, ddof=1))
    if not 0 < v < math.inf:
        raise ValueError(f"degenerate series: variance is {v}")
    return x, float(np.mean(x)), v


def _skewt_nll(theta: np.ndarray, x: np.ndarray) -> float:
    try:
        nu, xi = _skewt_shape(theta[2:])
        d = SkewT(nu, xi, loc=theta[0], scale=math.exp(theta[1]))
    except (ValueError, OverflowError):  # nu rounds to 2, or an exp under- or overflows
        return 1e12
    ll = float(np.sum(d.logpdf(x)))
    return -ll if np.isfinite(ll) else 1e12


def fit_iid(returns, kind: str) -> DistSpec:
    """Fit an i.i.d. model: normal by moments, skew-t by maximum likelihood."""
    x, mean, v = _fit_input(returns, 30)
    sd = math.sqrt(v)  # np.std's own square root of np.var, bit for bit
    if kind == "normal":
        return Normal(mean, sd)
    if kind == "skew_t":
        starts = [
            np.array([mean, math.log(sd * math.sqrt((n0 - 2.0) / n0)), math.log(n0 - 2.0), math.log(x0)])
            for n0, x0 in ((8.0, 1.0), (5.0, 0.8), (20.0, 1.25))
        ]
        theta, _ = _multistart_minimize(_skewt_nll, starts, args=(x,))
        nu, xi = _skewt_shape(theta[2:])
        return SkewT(nu, xi, loc=float(theta[0]), scale=math.exp(theta[1]))
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class McConfig:
    """Configuration of a null-distribution Monte Carlo run."""

    dist: Union[DistSpec, GarchSpec]
    seed: int
    n: int = CALIBRATION.n
    runs: int = 50_000
    alpha_var: float = CALIBRATION.alpha_var
    alpha_es: float = CALIBRATION.alpha_es

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.runs < 1:
            raise ValueError(f"need runs >= 1, got {self.runs}")
        for a in (self.alpha_var, self.alpha_es):
            _check_level(a)
        RngStream(self.seed)  # reuse seed validation


@dataclass(frozen=True)
class NullDistribution:
    """Empirical pmf/cdf of a nominal statistic over 0..n."""

    metric: str
    counts: np.ndarray = field(repr=False)
    runs: int
    seed: int

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)  # owned: the caller's stays writeable
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if int(counts.sum()) != self.runs:
            raise ValueError("counts must total the number of runs")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def n(self) -> int:
        return self.counts.size - 1

    @property
    def pmf(self) -> np.ndarray:
        return self.counts / self.runs

    @property
    def cdf(self) -> np.ndarray:
        return np.cumsum(self.counts) / self.runs

    def prob_at_most(self, k: int) -> float:
        """P(nominal <= k)."""
        if k < 0:
            return 0.0
        return float(self.cdf[min(k, self.n)])

    def prob_below(self, k: int) -> float:
        """P(nominal < k); the zone probabilities are of this form."""
        return self.prob_at_most(k - 1)

    def to_csv(self, path) -> None:
        pmf, cdf = self.pmf, self.cdf
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["nominal_value", "pmf", "cdf"])
            for k in range(self.counts.size):
                writer.writerow([k, repr(float(pmf[k])), repr(float(cdf[k]))])


def _addons(cfg: McConfig) -> tuple[float, float]:
    """The analytic VAR and ES reserves; those of the unit law for GARCH."""
    law = cfg.dist.law if isinstance(cfg.dist, GarchSpec) else cfg.dist
    return true_risk(law, cfg.alpha_var, "VAR"), true_risk(law, cfg.alpha_es, "ES")


def _steps(cfg: McConfig) -> int:
    """Innovations one run draws, the burn-in included."""
    return cfg.n + (GARCH_BURN_IN if isinstance(cfg.dist, GarchSpec) else 0)


def _block_rows(cfg: McConfig) -> int:
    """Runs per Monte Carlo block."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // _steps(cfg)))


def _g_counts(y: np.ndarray, shift: float) -> np.ndarray:
    """Per-row worst-case-sum counts of ``y + shift``, identical to a full sort.

    sort(y) + shift equals sort(y + shift), as rounding is monotone, and the
    negative partial sums of a sorted row form a prefix. So a row sorts only
    its _G_PREFIX + 1 smallest values unless all their partial sums are negative.
    A partial sum that overflows to ``-inf`` raises ``ValueError`` on either path.
    """
    if y.shape[1] <= _G_PREFIX + 1:
        return _negative_sums(y, shift)
    counts = _negative_sums(np.partition(y, _G_PREFIX, 1)[:, : _G_PREFIX + 1], shift)
    longer = counts > _G_PREFIX
    if longer.any():
        counts[longer] = _negative_sums(y[longer], shift)
    return counts


def _mc_block(cfg: McConfig, addons: tuple[float, float], b: int):
    """Counts over 0..n of the exception and worst-case-sum counts of block b."""
    rows = _block_rows(cfg)
    m, steps = min(rows, cfg.runs - b * rows), _steps(cfg)
    stream = RngStream(cfg.seed, b)
    var_add, es_add = addons
    # x + var_add < 0 exactly when x < -var_add: a rounded sum is negative
    # exactly when the exact sum is, and negation is exact
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
        if isinstance(cfg.dist, GarchSpec):
            # the per-day reserve is conditional: sigma_t scales the unit risk
            z = _innovations(cfg.dist, m * steps, stream).reshape(m, steps)
            eps, sigma = _garch_paths(cfg.dist, z, GARCH_BURN_IN)
            del z
            eps -= cfg.dist.mu
            t = (eps < -(sigma * var_add)).sum(1)
            g = _g_counts(eps + sigma * es_add, 0.0)
        else:
            x = cfg.dist.sample(m * steps, stream).reshape(m, steps)
            t = (x < -var_add).sum(1)
            g = _g_counts(x, es_add)
    return np.bincount(t, minlength=cfg.n + 1), np.bincount(g, minlength=cfg.n + 1)


def mc_null(
    cfg: McConfig, workers: int = 1
) -> tuple[NullDistribution, NullDistribution]:
    """Null distributions of the nominal exception and worst-case-sum counts.

    Each run secures its sample with the analytic reserve (conditional,
    sigma_t-scaled, for GARCH inputs) and tallies both counts. Block b holds
    runs [b * rows, (b + 1) * rows) and draws them from stream (seed, b),
    one run per row. The result depends only on (cfg, seed), not on
    ``workers``.
    """
    addons = _addons(cfg)
    blocks = -(-cfg.runs // _block_rows(cfg))
    parts = parallel_map(partial(_mc_block, cfg, addons), range(blocks), workers)
    counts_t, counts_g = map(sum, zip(*parts))
    return (
        NullDistribution("VAR", counts_t, cfg.runs, cfg.seed),
        NullDistribution("ES", counts_g, cfg.runs, cfg.seed),
    )


# Model name -> (GARCH?, innovation kind, the scipy modules its fit imports):
# a normal fit takes moments; every likelihood fit runs Nelder-Mead, and a
# GARCH likelihood also filters its conditional variance
_OPTIMIZE, _GARCH_FIT = ("scipy.optimize",), ("scipy.optimize", "scipy.signal")
_MODELS = {"normal": (False, "normal", ()), "skew_t": (False, "skew_t", _OPTIMIZE),
           "garch_normal": (True, "normal", _GARCH_FIT),
           "garch_skew_t": (True, "skew_t", _GARCH_FIT)}
MODELS = tuple(_MODELS)


def fit_and_simulate(
    x, model: str, picks: int, seed: int, base_stream_id: int
) -> tuple[dict, list[np.ndarray]]:
    """Fit one model to a sample and draw independent simulated picks.

    Returns the fitted parameters (JSON-ready) and ``picks`` simulated
    series, each from stream (seed, base_stream_id + pick).
    """
    x = np.asarray(x, dtype=float).ravel()
    if picks < 1:
        raise ValueError(f"need picks >= 1, got {picks}")
    streams = [RngStream(seed, base_stream_id + p) for p in range(picks)]
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    garch, kind, _ = _MODELS[model]
    if garch:
        fitted = garch_fit(x, kind)
        params = {"model": model, **garch_to_json(fitted)}
        sims = [garch_simulate(fitted, x.size, s)[0] for s in streams]
    else:
        fitted = fit_iid(x, kind)
        params = {"model": model, **dist_to_json(fitted)}
        sims = [np.asarray(fitted.sample(x.size, s)) for s in streams]
    return params, sims


def _fit_and_simulate_task(task):
    # a global lookup, so that a wrapper set on the module attribute runs too;
    # a harness.Sample labels the errors of its fit
    x, *args = task
    return x.run(fit_and_simulate, *args) if hasattr(x, "run") else fit_and_simulate(x, *args)


def simulate_batch(
    samples: Sequence, model: str, picks: int, seed: int, workers: int = 1
) -> list[tuple[dict, list[np.ndarray]]]:
    """``fit_and_simulate`` per sample on up to ``workers`` processes; the scipy
    modules of the model's fit are imported here first, for forked workers to
    inherit. A sample is an array or a ``harness.Sample``, which labels the
    errors of its fit (``Sample.run``)."""
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    RngStream(seed, 0)  # a seed out of range fails the run, not one sample
    for name in _MODELS[model][2]:
        importlib.import_module(name)
    tasks = [(x, model, picks, seed, s * picks) for s, x in enumerate(samples)]
    return parallel_map(_fit_and_simulate_task, tasks, workers, processes=True)
