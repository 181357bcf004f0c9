"""Distributions and reproducible random streams.

Normal, Student-t, and skewed Student-t laws with pdf/cdf/quantile/sampling,
plus counter-based random streams so Monte Carlo draws are reproducible and
independent of worker scheduling. Densities, cdfs and quantiles are scipy.stats'
own formulas on ``scipy.special``, loc and scale applied in scipy.stats' order,
so they equal scipy.stats bit for bit without its import or per-call cost.
``StudentT`` is the skew-t at xi = 1 with its own sampler; one caveat follows:
``SkewT.logpdf`` takes ``math.log(scale)`` where scipy.stats takes ``np.log``,
so at a few scales ``StudentT.logpdf`` sits one ulp from scipy's. Every law
returns numpy scalars for scalar input, as scipy.stats does.
``scipy.special`` itself is imported on first use, through ``special``, so
code that never evaluates a law (the historical estimators) never loads scipy.

``STREAM_CONTRACT`` versions the map from (seed, stream) to draws. Version 2
samples ``SkewT`` by the two-piece construction and keys Monte Carlo streams
by block of runs (see ``simulation.mc_null``); version 3 draws skew-t GARCH
innovations from the unit-variance ``SkewT`` itself. The README's "Random
streams" section states the whole contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "STREAM_CONTRACT",
    "RngStream",
    "Normal",
    "StudentT",
    "SkewT",
    "DistSpec",
    "dist_to_json",
    "dist_from_json",
    "preset",
    "PRESETS",
]

STREAM_CONTRACT = 3

_UINT64 = (1 << 64) - 1
_OPEN_UNIT = float(1 << 53)


class _LazySpecial:
    """``scipy.special``, imported on first use; a name looked up is cached here."""

    def __getattr__(self, name):
        from scipy import special as module
        value = getattr(module, name)
        setattr(self, name, value)
        return value


special = _LazySpecial()


def _std(x, loc, scale):
    return (np.asarray(x, dtype=float) - loc) / scale


def _t_logpdf(z, nu):
    """Standard Student-t log density; its exp is the density."""
    c = np.log(special.poch(0.5 * nu, 0.5)) - 0.5 * (np.log(nu) + np.log(np.pi))
    return c - (nu + 1) / 2 * np.log1p(z * z / nu)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    The same (seed, stream_id) pair reproduces the same draw sequence on any
    platform and under any worker count; distinct stream_ids are independent.
    Both must lie in [0, 2**64); any other value raises ``ValueError``.
    Entry points that fan out work derive one stream per task from their seed.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name, v in (("seed", self.seed), ("stream id", self.stream_id)):
            if not 0 <= v <= _UINT64:
                raise ValueError(f"{name} must lie in [0, 2**64), got {v}")

    def generator(self) -> Generator:
        """Fresh generator positioned at the start of the stream."""
        key = self.seed | (self.stream_id << 64)
        return Generator(Philox(key=key))


def _open_uniform(gen: Generator, n: int) -> np.ndarray:
    """Uniform draws on the open interval (0, 1), safe for quantile transforms."""
    return gen.integers(1, 1 << 53, size=n) / _OPEN_UNIT


@dataclass(frozen=True)
class Normal:
    """Normal law with mean ``mu`` and standard deviation ``sigma``."""

    mu: float = 0.0
    sigma: float = 1.0

    kind = "normal"

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def pdf(self, x):
        z = _std(x, self.mu, self.sigma)
        return np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) / self.sigma

    def logpdf(self, x):
        z = _std(x, self.mu, self.sigma)
        return -z**2 / 2.0 - np.log(np.sqrt(2 * np.pi)) - np.log(self.sigma)

    def cdf(self, x):
        return special.ndtr(_std(x, self.mu, self.sigma))

    def quantile(self, p):
        _check_prob(p)
        return special.ndtri(p) * self.sigma + self.mu

    def sample(self, n: int, stream: RngStream) -> np.ndarray:
        _check_count(n)
        z = stream.generator().standard_normal(n)
        z *= self.sigma
        z += self.mu
        return z

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.sigma**2


def _abs_t_mean(nu: float) -> float:
    """E|T| for a standard Student-t with nu > 1 degrees of freedom."""
    # poch(nu/2, 1/2), the t density's gamma ratio, keeps its digits at large nu
    ratio = float(special.poch(0.5 * nu, 0.5))
    return 2.0 * math.sqrt(nu) * ratio / (math.sqrt(math.pi) * (nu - 1.0))


@dataclass(frozen=True)
class SkewT:
    """Skewed Student-t built by one-parameter two-piece rescaling of the t law.

    A standardised variate z has density

        f(z) = 2 / (xi + 1/xi) * [ t_nu(z / xi)  if z >= 0
                                   t_nu(z * xi)  if z <  0 ]

    so ``xi = 1`` recovers the symmetric Student-t, ``xi > 1`` skews right and
    ``xi < 1`` skews left. ``loc`` and ``scale`` shift and scale the result.
    """

    nu: float
    xi: float
    loc: float = 0.0
    scale: float = 1.0

    kind = "skew_t"

    def __post_init__(self) -> None:
        self._check_shape(self.nu, self.xi)
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @staticmethod
    def _check_shape(nu: float, xi: float) -> None:
        """Raise ``ValueError`` unless (nu, xi) is a shape ``SkewT`` accepts."""
        if not 2 < nu < math.inf:
            raise ValueError(f"nu must be finite and exceed 2, got {nu}")
        if not (xi > 0 and 0 < xi * xi < math.inf):
            raise ValueError(f"xi must be positive with xi**2 in (0, inf), got {xi}")

    @staticmethod
    def _moments(nu: float, xi: float) -> tuple[float, float]:
        """Mean and variance at loc 0 and scale 1 of a shape that passes ``_check_shape``."""
        ez = _abs_t_mean(nu) * (xi - 1.0 / xi)
        ez2 = nu / (nu - 2.0) * (xi**3 + xi**-3) / (xi + 1.0 / xi)
        return ez, ez2 - ez**2

    def _core(self, x):
        z = _std(x, self.loc, self.scale)  # t log density at the two-piece argument
        return _t_logpdf(np.where(z >= 0, z / self.xi, z * self.xi), self.nu)

    def pdf(self, x):
        return 2.0 / (self.xi + 1.0 / self.xi) * np.exp(self._core(x)) / self.scale

    def logpdf(self, x):
        norm = math.log(2.0 / (self.xi + 1.0 / self.xi)) - math.log(self.scale)
        return norm + self._core(x)

    def cdf(self, x):
        z = _std(x, self.loc, self.scale)
        w = self.xi**2
        lower = 2.0 / (1.0 + w) * special.stdtr(self.nu, z * self.xi)
        upper = 1.0 / (1.0 + w) + 2.0 * w / (1.0 + w) * (
            special.stdtr(self.nu, z / self.xi) - 0.5
        )
        return np.where(z < 0, lower, upper)[()]

    def quantile(self, p):
        _check_prob(p)
        return self._quantile_into(np.array(p, dtype=float))[()]

    def _quantile_into(self, p: np.ndarray) -> np.ndarray:
        """Overwrite the probabilities ``p`` with their quantiles, in place."""
        w = self.xi**2
        p0 = 1.0 / (1.0 + w)  # mass below zero
        lower = p < p0
        upper = ~lower
        # map each probability to the t cdf level its branch inverts, in the
        # order of operations of the closed form, so every rounding is kept
        np.subtract(p, p0, out=p, where=upper)
        p *= 1.0 + w
        np.divide(p, 2.0, out=p, where=lower)
        np.divide(p, 2.0 * w, out=p, where=upper)
        np.add(p, 0.5, out=p, where=upper)
        special.stdtrit(self.nu, p, out=p)
        # stdtrit reads +inf below about 1e-222 at nu = 2.5 (1e-270 at nu = 5),
        # and at a level that underflows to 0: a lower-branch quantile is -inf there
        p[lower & (p > 0)] = -np.inf
        np.divide(p, self.xi, out=p, where=lower)
        np.multiply(p, self.xi, out=p, where=upper)
        p *= self.scale
        p += self.loc
        return p

    def sample(self, n: int, stream: RngStream) -> np.ndarray:
        """Two-piece draws (Fernandez & Steel 1998): n of |T|, then n uniforms.

        A draw keeps the positive side, scaled by xi, when its uniform falls
        below the mass above zero, xi^2 / (1 + xi^2); otherwise it is negated
        and scaled by 1 / xi.
        """
        _check_count(n)
        gen = stream.generator()
        z = gen.standard_t(self.nu, n)
        np.abs(z, out=z)
        w = self.xi**2
        down = gen.random(n) >= w / (1.0 + w)
        # a / -xi is -a / xi bit for bit: a quotient takes the sign of its
        # operands and rounds its magnitude the same either way
        negative = z / -self.xi
        z *= self.xi
        np.copyto(z, negative, where=down)
        z *= self.scale
        z += self.loc
        return z

    def sample_by_quantile(self, n: int, stream: RngStream) -> np.ndarray:
        """Inverse-cdf draws: the quantile of n open uniforms, in stream order."""
        _check_count(n)
        return self._quantile_into(_open_uniform(stream.generator(), n))

    def mean(self) -> float:
        return self.loc + self.scale * self._moments(self.nu, self.xi)[0]

    def variance(self) -> float:
        return self.scale**2 * self._moments(self.nu, self.xi)[1]


@dataclass(frozen=True)
class StudentT(SkewT):
    """Student-t law with ``nu`` degrees of freedom, shifted and scaled.

    It is the skew-t at ``xi = 1``, whose two-piece formulas are then exact,
    and inherits every method but ``sample``: its draws are numpy's
    ``standard_t``, one per value. ``nu`` must be finite, where the density
    formula holds, and exceed 2 so the variance (and the tail expectations
    used for shortfall work) stay finite.
    """

    nu: float
    xi: float = field(default=1.0, init=False, repr=False)
    loc: float = 0.0
    scale: float = 1.0

    kind = "student_t"

    def sample(self, n: int, stream: RngStream) -> np.ndarray:
        _check_count(n)
        z = stream.generator().standard_t(self.nu, n)
        z *= self.scale
        z += self.loc
        return z


DistSpec = Union[Normal, StudentT, SkewT]

PRESETS = {
    "normal": Normal(0.0, 1.0),
    "t3": StudentT(3.0),
    "t5": StudentT(5.0),
    "t10": StudentT(10.0),
    "t15": StudentT(15.0),
}


def preset(name: str) -> DistSpec:
    """Look up a named reference distribution."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}"
        ) from None


_KINDS = {cls.kind: cls for cls in (Normal, StudentT, SkewT)}


def dist_to_json(d: DistSpec) -> dict:
    """Serialize a distribution to a plain JSON-ready dict."""
    if not isinstance(d, tuple(_KINDS.values())):
        raise ValueError(f"unsupported distribution {d!r}")
    return {"kind": d.kind, **{f.name: getattr(d, f.name) for f in fields(d) if f.init}}


def dist_from_json(obj: dict) -> DistSpec:
    """Rebuild a distribution from its JSON dict form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("distribution JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    params = {k: v for k, v in obj.items() if k != "kind"}
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown distribution kind {kind!r}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {kind!r}: {exc}") from None


def _check_prob(p) -> None:
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN fails too
        raise ValueError("probability level must lie strictly inside (0, 1)")


def _check_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
