"""Distribution layer: quantile/pdf/cdf/sampling and stream reproducibility."""

import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import integrate, special, stats

import esbacktest
from esbacktest.dist import (
    STREAM_CONTRACT,
    Normal,
    RngStream,
    SkewT,
    StudentT,
    _abs_t_mean,
    dist_from_json,
    dist_to_json,
    preset,
)

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def _t_pdf_direct(x, nu):
    # density written out from the gamma-function form, no scipy.stats
    from scipy.special import gammaln

    c = math.exp(gammaln((nu + 1) / 2) - gammaln(nu / 2)) / math.sqrt(nu * math.pi)
    return c * (1 + x * x / nu) ** (-(nu + 1) / 2)


def _t_cdf_quad(x, nu):
    val, _ = integrate.quad(lambda u: _t_pdf_direct(u, nu), -np.inf, x, limit=400)
    return val


def _t_quantile_bisect(p, nu, lo=-60.0, hi=60.0, tol=1e-12):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _t_cdf_quad(mid, nu) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# frozen output of _t_quantile_bisect(0.025, 3.0)
T3_Q025 = -3.1824463052838325
# frozen 1/sqrt(2*pi) from a 40-digit arbitrary-precision evaluation
PHI_AT_ZERO = 0.39894228040143267794


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------


def test_normal_quantile_reference_values():
    d = Normal()
    assert -d.quantile(0.01) == pytest.approx(2.33, abs=0.005)
    assert d.quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_t3_quantile_matches_numeric_inversion_oracle():
    assert _t_quantile_bisect(0.025, 3.0) == pytest.approx(T3_Q025, abs=1e-10)
    assert StudentT(3.0).quantile(0.025) == pytest.approx(T3_Q025, abs=1e-8)


def test_quantile_strictly_increasing():
    grid = np.linspace(0.01, 0.99, 25)
    for d in (Normal(), StudentT(3.0), SkewT(5.0, 1.5)):
        q = np.asarray(d.quantile(grid))
        assert np.all(np.diff(q) > 0)


@pytest.mark.parametrize("nu", [2.05, 2.5, 3.0, 5.0, 10.0, 30.0, 123.0])
@pytest.mark.parametrize("xi", [0.3, 0.8, 1.0, 2.5])
def test_no_lower_level_has_a_quantile_above_the_branch_point(nu, xi):
    # stdtrit returns +inf at tiny lower levels (below ~1e-222 at nu = 2.5);
    # every level below the mass under zero must stay at or below loc
    levels = np.concatenate([[5e-324], np.logspace(-323, -1, 400)])
    p0 = 1.0 / (1.0 + xi * xi)
    laws = [SkewT(nu, xi), SkewT(nu, xi, 0.3, 2.5)]
    laws += [StudentT(nu), StudentT(nu, 0.3, 2.5)] if xi == 1.0 else []
    for d in laws:
        q = d.quantile(levels)
        assert not np.isnan(q).any()
        assert (q[levels < p0] <= d.loc).all()
        assert (q[levels >= p0] >= d.loc).all()


def test_levels_past_stdtrit_range_read_minus_inf():
    assert StudentT(3.0).quantile(1e-280) == -np.inf
    assert StudentT(2.5).quantile(1e-230) == -np.inf
    assert SkewT(5.0, 0.8).quantile(1e-290) == -np.inf
    assert SkewT(5.0, 0.8, loc=1.0, scale=2.0).quantile(5e-324) == -np.inf


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, math.nan])
def test_quantile_rejects_levels_outside_open_unit_interval(p):
    with pytest.raises(ValueError):
        Normal().quantile(p)
    for d in (StudentT(3.0), SkewT(5.0, 0.8)):
        with pytest.raises(ValueError):
            d.quantile(p)
        with pytest.raises(ValueError):
            d.quantile([0.1, p])


# ---------------------------------------------------------------------------
# pdf / cdf
# ---------------------------------------------------------------------------


def test_normal_pdf_at_zero_against_high_precision_value():
    assert Normal().pdf(0.0) == pytest.approx(PHI_AT_ZERO, abs=1e-15)


def test_normal_pdf_symmetry():
    d = Normal()
    x = np.linspace(0.1, 4.0, 17)
    assert np.allclose(d.pdf(x), d.pdf(-x))


def test_skew_t_with_unit_xi_reduces_to_student_t():
    x = np.linspace(-8, 8, 401)
    gap = np.abs(SkewT(5.0, 1.0).pdf(x) - StudentT(5.0).pdf(x))
    assert gap.max() < 1e-10


@pytest.mark.parametrize(
    "d", [Normal(), StudentT(3.0), SkewT(4.0, 0.7), SkewT(6.0, 2.0)]
)
def test_pdf_is_a_density(d):
    total, _ = integrate.quad(d.pdf, -np.inf, np.inf, limit=400)
    assert total == pytest.approx(1.0, abs=1e-8)
    x = np.linspace(-20, 20, 101)
    assert np.all(np.asarray(d.pdf(x)) >= 0)


def test_cdf_symmetry_points():
    assert Normal().cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert StudentT(3.0).cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    # inverse of the 1% quantile (the 4-dp rounding -2.3263 already sits
    # 1.3e-6 away in probability, so the full-precision point is checked)
    assert Normal().cdf(-2.3263478740408408) == pytest.approx(0.01, abs=1e-6)


@pytest.mark.parametrize(
    "d",
    [
        Normal(),
        Normal(0.3, 2.0),
        StudentT(3.0),
        StudentT(10.0, -1.0, 0.5),
        SkewT(4.0, 0.7),
        SkewT(8.0, 1.6, 0.2, 1.5),
    ],
)
def test_cdf_quantile_round_trip(d):
    grid = np.linspace(0.001, 0.999, 41)
    back = np.asarray(d.cdf(d.quantile(grid)))
    assert np.abs(back - grid).max() < 1e-8


def test_skew_t_logpdf_matches_log_of_pdf():
    d = SkewT(5.0, 1.4, 0.1, 0.8)
    x = np.linspace(-6, 6, 41)
    assert np.allclose(d.logpdf(x), np.log(d.pdf(x)), atol=1e-12)


# ---------------------------------------------------------------------------
# scipy.special kernels against scipy.stats, bit for bit
# ---------------------------------------------------------------------------

_RNG = np.random.default_rng(41)
_XS = np.concatenate(
    [
        _RNG.standard_t(3.0, 2000) * 3.0,
        [0.0, -0.0, 1e150, -1e150, np.inf, -np.inf, np.nan],
    ]
)
_PS = np.concatenate([_RNG.random(2000), [5e-324, 1e-300, 1e-16, 0.5, 1.0 - 2**-53]])
_LOC_SCALE = [(0.0, 1.0), (0.3, 2.5), (-1e-3, 0.01), (5.0, 1e-7)]


def _assert_same_bits(got, expect):
    # same type and shape, every non-NaN value bit for bit (so signed zeros
    # differ), NaN exactly where the oracle has NaN
    assert type(got) is type(expect)
    got, expect = np.asarray(got), np.asarray(expect)
    assert got.shape == expect.shape and got.dtype == expect.dtype
    nan = np.isnan(expect)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), expect[~nan].view(np.uint64))


def _wrong_side_as_minus_inf(t_quantile):
    """A t quantile whose +inf at a lower level reads -inf: stdtrit, and with it
    scipy.stats' ppf, returns +inf below about 1e-222 at nu = 2.5, where the
    laws report the lower tail's -inf."""

    def quantile(p):
        q = t_quantile(p)
        return np.where((np.asarray(p) < 0.5) & (q == np.inf), -np.inf, q)[()]

    return quantile


def _assert_matches_oracle(method, oracle, points):
    _assert_same_bits(method(points), oracle(points))
    block = points[-12:].reshape(3, 4)
    _assert_same_bits(method(block), oracle(block))
    for v in (float(points[0]), float(points[-1]), points[1], [float(points[2]), 0.5]):
        _assert_same_bits(method(v), oracle(v))


@pytest.mark.parametrize("loc, scale", _LOC_SCALE)
def test_normal_kernels_match_scipy_stats_bit_for_bit(loc, scale):
    d, ref = Normal(loc, scale), stats.norm(loc=loc, scale=scale)
    with np.errstate(over="ignore"):
        for name in ("pdf", "logpdf", "cdf"):
            _assert_matches_oracle(getattr(d, name), getattr(ref, name), _XS)
    _assert_matches_oracle(d.quantile, ref.ppf, _PS)


@pytest.mark.parametrize("loc, scale", _LOC_SCALE)
@pytest.mark.parametrize("nu", [2.05, 2.5, 3.0, 4.1, 5.0, 8.0, 30.0, 123.0])
def test_student_t_kernels_match_scipy_stats_bit_for_bit(nu, loc, scale):
    d, ref = StudentT(nu, loc, scale), stats.t(nu, loc=loc, scale=scale)
    with np.errstate(over="ignore"):
        for name in ("pdf", "logpdf", "cdf"):
            _assert_matches_oracle(getattr(d, name), getattr(ref, name), _XS)
    _assert_matches_oracle(d.quantile, _wrong_side_as_minus_inf(ref.ppf), _PS)


def _skew_t_two_calls(d, name):
    # the two-branch scipy.stats form the one-kernel SkewT replaced
    xi, nu, w = d.xi, d.nu, d.xi**2

    def at(x):
        z = (np.asarray(x, dtype=float) - d.loc) / d.scale
        if name == "pdf":
            core = np.where(z >= 0, stats.t.pdf(z / xi, nu), stats.t.pdf(z * xi, nu))
            out = 2.0 / (xi + 1.0 / xi) * core / d.scale
        elif name == "logpdf":
            core = np.where(
                z >= 0, stats.t.logpdf(z / xi, nu), stats.t.logpdf(z * xi, nu)
            )
            out = math.log(2.0 / (xi + 1.0 / xi)) - math.log(d.scale) + core
        else:
            lower = 2.0 / (1.0 + w) * stats.t.cdf(z * xi, nu)
            upper = 1.0 / (1.0 + w) + 2.0 * w / (1.0 + w) * (
                stats.t.cdf(z / xi, nu) - 0.5
            )
            out = np.where(z < 0, lower, upper)
        return out[()]

    def quantile(p):
        p = np.asarray(p, dtype=float)
        lower = _wrong_side_as_minus_inf(lambda q: stats.t.ppf(q, nu))(p * (1.0 + w) / 2.0) / xi
        p0 = 1.0 / (1.0 + w)
        upper = xi * stats.t.ppf((p - p0) * (1.0 + w) / (2.0 * w) + 0.5, nu)
        out = d.loc + d.scale * np.where(p < p0, lower, upper)
        return out[()]

    return quantile if name == "quantile" else at


@pytest.mark.parametrize("loc, scale", _LOC_SCALE[:3])
@pytest.mark.parametrize(
    "nu, xi", [(2.05, 0.3), (3.0, 0.8), (5.0, 1.0), (8.3, 1.3), (123.0, 2.5)]
)
def test_skew_t_one_kernel_matches_two_scipy_stats_calls_bit_for_bit(
    nu, xi, loc, scale
):
    d = SkewT(nu, xi, loc, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        for name in ("pdf", "logpdf", "cdf"):
            _assert_matches_oracle(getattr(d, name), _skew_t_two_calls(d, name), _XS)
        _assert_matches_oracle(d.quantile, _skew_t_two_calls(d, "quantile"), _PS)


def _skew_t_quantile_both_branches(d):
    # the form SkewT.quantile replaced: both stdtrit branches over every
    # probability, one picked per probability by np.where
    from scipy import special

    def quantile(p):
        p = np.asarray(p, dtype=float)
        w = d.xi**2
        p0 = 1.0 / (1.0 + w)
        q = p * (1.0 + w) / 2.0
        lower = _wrong_side_as_minus_inf(lambda q: special.stdtrit(d.nu, q))(q) / d.xi
        upper = d.xi * special.stdtrit(d.nu, (p - p0) * (1.0 + w) / (2.0 * w) + 0.5)
        out = d.loc + d.scale * np.where(p < p0, lower, upper)
        return out[()]

    return quantile


@pytest.mark.parametrize("loc, scale", _LOC_SCALE)
@pytest.mark.parametrize("nu, xi", [(2.05, 0.3), (5.0, 0.85), (4.0, 1.0), (123.0, 2.5)])
def test_skew_t_quantile_equals_both_branch_form_bit_for_bit(nu, xi, loc, scale):
    d = SkewT(nu, xi, loc, scale)
    oracle = _skew_t_quantile_both_branches(d)
    p0 = 1.0 / (1.0 + xi * xi)  # the branch point, and its neighbours
    edges = [p0, np.nextafter(p0, 0.0), np.nextafter(p0, 1.0)]
    points = np.concatenate([_PS, edges])
    _assert_matches_oracle(d.quantile, oracle, points)
    for p in [*edges, 5e-324]:
        _assert_same_bits(d.quantile(np.array(p)), oracle(np.array(p)))
    _assert_same_bits(d.quantile(points[:3].reshape(3, 1)), oracle(points[:3].reshape(3, 1)))


class _OwnStudentT:
    """The Student-t that carried its own copy of the t formulas, before
    ``StudentT`` became the skew-t at xi = 1."""

    def __init__(self, nu, loc=0.0, scale=1.0):
        self.nu, self.loc, self.scale = nu, loc, scale

    def _log_t(self, x):
        nu, z = self.nu, (np.asarray(x, dtype=float) - self.loc) / self.scale
        c = np.log(special.poch(0.5 * nu, 0.5)) - 0.5 * (np.log(nu) + np.log(np.pi))
        return c - (nu + 1) / 2 * np.log1p(z * z / nu)

    def pdf(self, x):
        return np.exp(self._log_t(x)) / self.scale

    def logpdf(self, x):
        return self._log_t(x) - np.log(self.scale)

    def cdf(self, x):
        return special.stdtr(self.nu, (np.asarray(x, dtype=float) - self.loc) / self.scale)

    def quantile(self, p):
        t = _wrong_side_as_minus_inf(lambda q: special.stdtrit(self.nu, q))(p)
        return t * self.scale + self.loc

    def sample(self, n, stream):
        return self.loc + self.scale * stream.generator().standard_t(self.nu, n)

    def variance(self):
        return self.scale**2 * self.nu / (self.nu - 2.0)


@pytest.mark.parametrize("loc, scale", _LOC_SCALE)
@pytest.mark.parametrize("nu", [2.05, 2.5, 3.0, 4.1, 5.0, 8.0, 30.0, 123.0])
def test_student_t_as_unit_xi_skew_t_matches_its_own_formulas(nu, loc, scale):
    d, own = StudentT(nu, loc, scale), _OwnStudentT(nu, loc, scale)
    with np.errstate(over="ignore"):
        for name in ("pdf", "logpdf", "cdf"):
            _assert_matches_oracle(getattr(d, name), getattr(own, name), _XS)
    _assert_matches_oracle(d.quantile, own.quantile, _PS)
    assert abs(d.variance() - own.variance()) <= np.spacing(own.variance())
    assert d.mean() == loc


@pytest.mark.parametrize("name", ["t3", "t5", "t10", "t15"])
def test_student_t_presets_draw_numpys_standard_t(name):
    d = preset(name)
    own = _OwnStudentT(d.nu, d.loc, d.scale)
    for stream in (RngStream(7), RngStream(2024, 3)):
        assert np.array_equal(d.sample(1000, stream), own.sample(1000, stream))


def test_student_t_is_a_skew_t_that_defines_only_its_sampler():
    d = StudentT(4.0, -0.3, 0.01)
    assert isinstance(d, SkewT) and d.xi == 1.0 and d.kind == "student_t"
    assert repr(d) == "StudentT(nu=4.0, loc=-0.3, scale=0.01)"
    assert pickle.loads(pickle.dumps(d)) == d
    methods = [k for k, v in vars(StudentT).items() if callable(v) and not k.startswith("__")]
    assert methods == ["sample"]
    with pytest.raises(TypeError):
        StudentT(4.0, xi=2.0)
    with pytest.raises(ValueError, match="bad parameters for 'student_t'"):
        dist_from_json({"kind": "student_t", "nu": 4.0, "xi": 1.0})
    with pytest.raises(ValueError, match="^nu must be finite and exceed 2, got 2.0$"):
        StudentT(2.0)
    with pytest.raises(ValueError, match="^scale must be positive, got 0.0$"):
        StudentT(5.0, 0.0, 0.0)


def _abs_t_mean_by_gammaln(nu):
    # the form before the gamma ratio went through poch
    ratio = math.exp(special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0))
    return 2.0 * math.sqrt(nu) * ratio / (math.sqrt(math.pi) * (nu - 1.0))


def test_abs_t_mean_equals_the_gammaln_form_below_1e4():
    u = np.random.default_rng(43).random((2, 3000))
    nus = np.concatenate([2.0 + 10.0 * u[0], np.exp(np.log(1e4) * u[1])])
    for nu in nus[nus > 2.0].tolist() + [2.05, 3.0, 5.0, 9999.0]:
        assert _abs_t_mean(nu) == _abs_t_mean_by_gammaln(nu), nu


@pytest.mark.parametrize("nu", [1e15, 1e16, 1e300])
def test_skew_t_moments_reach_the_normal_limit_at_large_nu(nu):
    xi = 0.8
    mean = math.sqrt(2.0 / math.pi) * (xi - 1.0 / xi)  # E|Z| (xi - 1/xi) for normal Z
    var = (xi**3 + xi**-3) / (xi + 1.0 / xi) - mean**2
    d = SkewT(nu, xi)
    assert d.mean() == pytest.approx(mean, rel=1e-14)
    assert d.variance() == pytest.approx(var, rel=1e-14)


def test_package_import_loads_no_scipy_until_a_law_is_evaluated():
    # the historical path is numpy alone; scipy.special loads when a law is
    # first evaluated, the fits import scipy.optimize and scipy.signal only when
    # they run, a process pool imports concurrent.futures only when it starts,
    # and every analytic ES, the skewed t's included, is a closed form
    src = str(Path(esbacktest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "def show(): print(' '.join(sorted(sys.modules)))\n"
        "import esbacktest; show()\n"
        "import esbacktest.cli; show()\n"
        "esbacktest.Normal().quantile(0.01); show()\n"
        "esbacktest.true_risk(esbacktest.SkewT(5, 0.8), 0.025, 'ES'); show()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    on_import, on_cli, after_law, after_es = (
        set(line.split()) for line in proc.stdout.splitlines()
    )
    for loaded in (on_import, on_cli):
        assert {m for m in loaded if m == "scipy" or m.startswith("scipy.")} == set()
        assert "concurrent.futures" not in loaded
        assert "csv" not in loaded  # the cli writes its CSV lines itself
    assert "scipy.special" in after_law
    for heavy in ("scipy.stats", "scipy.signal", "scipy.integrate", "scipy.optimize"):
        assert heavy not in after_law
    assert "scipy.integrate" not in after_es


def test_lazy_special_hands_out_the_scipy_special_objects():
    from scipy import special as scipy_special

    from esbacktest.dist import special

    for name in ("poch", "gammaln", "ndtr", "ndtri", "stdtr", "stdtrit", "expit"):
        assert getattr(special, name) is getattr(scipy_special, name)
        assert vars(special)[name] is getattr(scipy_special, name)  # cached
    with pytest.raises(AttributeError):
        special.no_such_function
    assert "no_such_function" not in vars(special)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_same_stream_reproduces_the_same_vector():
    stream = RngStream(seed=99, stream_id=3)
    for d in (Normal(), StudentT(5.0), SkewT(5.0, 1.3)):
        a = d.sample(1000, stream)
        b = d.sample(1000, stream)
        assert np.array_equal(a, b)


def test_streams_are_order_and_thread_independent():
    streams = [RngStream(7, i) for i in range(8)]
    d = StudentT(4.0)
    sequential = [d.sample(100, s) for s in streams]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda s: d.sample(100, s), streams))
    reversed_order = [d.sample(100, s) for s in reversed(streams)][::-1]
    for a, b, c in zip(sequential, threaded, reversed_order):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


@pytest.mark.parametrize(
    "seed, stream_id", [(-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)]
)
def test_stream_rejects_seeds_and_ids_outside_64_bits(seed, stream_id):
    # they used to be masked, so seed -1 aliased seed 2**64 - 1
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
        RngStream(seed, stream_id)


@pytest.mark.parametrize(
    "seed, stream_id", [(0, 0), (7, 3), ((1 << 64) - 1, (1 << 64) - 1)]
)
def test_stream_key_is_seed_then_stream_id(seed, stream_id):
    expect = Generator(Philox(key=seed | stream_id << 64)).random(5)
    assert np.array_equal(RngStream(seed, stream_id).generator().random(5), expect)


def test_distinct_stream_ids_give_distinct_draws():
    d = Normal()
    a = d.sample(100, RngStream(7, 0))
    b = d.sample(100, RngStream(7, 1))
    assert not np.array_equal(a, b)


def test_normal_sample_mean_within_clt_band():
    x = Normal().sample(10**6, RngStream(2024, 0))
    assert abs(x.mean()) < 0.004  # 3 / sqrt(n) rounded up


def test_t5_sample_variance_within_three_sigma_band():
    nu = 5.0
    n = 10**6
    x = StudentT(nu).sample(n, RngStream(2024, 1))
    target = nu / (nu - 2.0)
    # var of the sample variance from the t moments: (kurt - 1) * var^2 / n
    kurt = 3.0 * (nu - 2.0) / (nu - 4.0)
    band = 3.0 * math.sqrt((kurt - 1.0) * target**2 / n)
    assert abs(x.var(ddof=1) - target) < band


def test_skew_t_sample_moments_match_closed_forms():
    d = SkewT(6.0, 1.5, 0.3, 1.2)
    x = d.sample(10**6, RngStream(2024, 2))
    assert x.mean() == pytest.approx(d.mean(), abs=0.006)
    assert x.var(ddof=1) == pytest.approx(d.variance(), rel=0.02)


@pytest.mark.parametrize("nu, xi", [(5.0, 0.8), (3.5, 1.6), (8.0, 1.0)])
def test_two_piece_skew_t_sampler_matches_the_cdf(nu, xi):
    d = SkewT(nu, xi)
    x = d.sample(10**5, RngStream(2024, 3))
    assert stats.kstest(x, d.cdf).pvalue > 0.001
    # mass above zero is xi^2 / (1 + xi^2); allow 4 binomial standard errors
    share = xi**2 / (1.0 + xi**2)
    se = math.sqrt(share * (1.0 - share) / x.size)
    assert abs((x > 0).mean() - share) < 4.0 * se


def test_skew_t_draw_order_is_the_stream_contract():
    # contracts 2 and 3: n draws of |T| with standard_t, then n uniforms
    assert STREAM_CONTRACT == 3
    for xi, loc, scale in ((0.7, 0.2, 1.5), (1.0, 0.0, 1.0), (1.3, -0.3, 0.01)):
        d = SkewT(5.0, xi, loc=loc, scale=scale)
        gen = RngStream(2024, 4).generator()
        a = np.abs(gen.standard_t(5.0, 5000))
        w = xi**2
        up = gen.random(5000) < w / (1.0 + w)
        expect = loc + scale * np.where(up, xi * a, -a / xi)
        assert np.array_equal(d.sample(5000, RngStream(2024, 4)), expect)


def test_normal_and_t_draws_are_the_stream_scaled_and_shifted():
    gen = RngStream(2024, 6).generator
    expect = 0.2 + 1.5 * gen().standard_normal(500)
    assert np.array_equal(Normal(0.2, 1.5).sample(500, RngStream(2024, 6)), expect)
    expect = -0.3 + 0.01 * gen().standard_t(4.0, 500)
    assert np.array_equal(StudentT(4.0, -0.3, 0.01).sample(500, RngStream(2024, 6)), expect)


@pytest.mark.parametrize("nu, loc, scale", [(3.0, -0.3, 0.01), (4.0, 1e-3, 0.02),
                                             (5.0, 7.25, 3.1), (10.0, -1e5, 1e-7)])
def test_student_t_draws_scale_and_shift_in_place_bit_for_bit(nu, loc, scale):
    # in place, z *= scale; z += loc, as loc + scale * z: each operation commutes
    draws = RngStream(2024, 7).generator().standard_t(nu, 100_000)
    tracemalloc.start()
    try:
        got = StudentT(nu, loc, scale).sample(100_000, RngStream(2024, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.view(np.int64), (loc + scale * draws).view(np.int64))
    # the draws alone: no temporary of their size
    assert peak < 1.5 * draws.nbytes


def test_skew_t_quantile_draws_are_inverse_cdf_of_open_uniforms():
    d = SkewT(5.0, 0.7)
    x = d.sample_by_quantile(2000, RngStream(2024, 5))
    u = RngStream(2024, 5).generator().integers(1, 1 << 53, size=2000) / float(1 << 53)
    assert np.array_equal(x, d.quantile(u))
    assert stats.kstest(x, d.cdf).pvalue > 0.001


def _sample_by_quantile_before_in_place_steps(d, n, stream):
    # SkewT.sample_by_quantile as it was before its steps ran in place: every
    # step of the open uniforms and of each quantile branch made a new array
    u = stream.generator().integers(1, 1 << 53, size=n).astype(np.float64) / float(1 << 53)
    w = d.xi**2
    p0 = 1.0 / (1.0 + w)
    lower, upper = u < p0, u >= p0
    z = np.empty_like(u)
    q = u[lower] * (1.0 + w) / 2.0
    z[lower] = np.where(q > 0, special.stdtrit(d.nu, q), -np.inf) / d.xi
    r = (u[upper] - p0) * (1.0 + w) / (2.0 * w) + 0.5
    z[upper] = d.xi * special.stdtrit(d.nu, r)
    return d.loc + d.scale * z


@pytest.mark.parametrize(
    "d",
    [SkewT(5.0, 0.85), SkewT(3.0, 1.3, -0.2, 0.7), SkewT(7.0, 0.4, 1e-3, 2e-2), StudentT(4.0)],
)
@pytest.mark.parametrize("n", [1, 7, 20_000])
def test_in_place_quantile_draws_keep_their_bits(d, n):
    got = d.sample_by_quantile(n, RngStream(19, n))
    want = _sample_by_quantile_before_in_place_steps(d, n, RngStream(19, n))
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_quantile_leaves_its_argument_unchanged():
    p = np.array([0.01, 0.5, 0.99])
    SkewT(5.0, 0.8).quantile(p)
    assert p.tolist() == [0.01, 0.5, 0.99]


def test_skew_t_moment_formulas_against_quadrature():
    d = SkewT(5.0, 1.4)
    m1, _ = integrate.quad(lambda x: x * d.pdf(x), -np.inf, np.inf, limit=400)
    m2, _ = integrate.quad(lambda x: x * x * d.pdf(x), -np.inf, np.inf, limit=400)
    assert d.mean() == pytest.approx(m1, abs=1e-9)
    assert d.variance() == pytest.approx(m2 - m1**2, abs=1e-8)


def test_sample_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Normal().sample(0, RngStream(1))


# ---------------------------------------------------------------------------
# construction and serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda: Normal(0.0, 0.0),
        lambda: Normal(0.0, -1.0),
        lambda: StudentT(2.0),
        lambda: StudentT(math.inf),
        lambda: StudentT(5.0, 0.0, 0.0),
        lambda: SkewT(1.5, 1.0),
        lambda: SkewT(math.inf, 1.0),
        lambda: SkewT(5.0, 0.0),
        lambda: SkewT(5.0, -2.0),
        # xi**2 underflows to 0 or overflows: the cdf, quantile and ES divide by it
        lambda: SkewT(5.0, 1e-200),
        lambda: SkewT(5.0, 1e200),
    ],
)
def test_invalid_parameters_are_rejected(factory):
    with pytest.raises(ValueError):
        factory()


def test_json_round_trip():
    for d in (Normal(0.1, 2.0), StudentT(7.0, -0.5, 1.5), SkewT(4.0, 0.8, 0.0, 2.0)):
        assert dist_from_json(dist_to_json(d)) == d


def test_json_rejects_unknown_kind_and_bad_params():
    with pytest.raises(ValueError):
        dist_from_json({"kind": "cauchy"})
    with pytest.raises(ValueError):
        dist_from_json({"kind": "normal", "mu": 0.0, "bogus": 1.0})
    with pytest.raises(ValueError):
        dist_from_json([1, 2, 3])


def test_json_keeps_field_order_and_messages():
    assert json.dumps(dist_to_json(SkewT(4.0, 0.8, 0.0, 2.0))) == (
        '{"kind": "skew_t", "nu": 4.0, "xi": 0.8, "loc": 0.0, "scale": 2.0}'
    )
    assert list(dist_to_json(Normal(0.1, 2.0))) == ["kind", "mu", "sigma"]
    assert list(dist_to_json(StudentT(7.0))) == ["kind", "nu", "loc", "scale"]
    with pytest.raises(ValueError, match="unsupported distribution"):
        dist_to_json(object())
    with pytest.raises(ValueError, match="unknown distribution kind 'cauchy'"):
        dist_from_json({"kind": "cauchy"})
    with pytest.raises(ValueError, match=r"unknown distribution kind \['normal'\]"):
        dist_from_json({"kind": ["normal"]})
    with pytest.raises(ValueError, match="bad parameters for 'normal'"):
        dist_from_json({"kind": "normal", "bogus": 1.0})
    with pytest.raises(ValueError, match="'kind' field"):
        dist_from_json({"mu": 0.0})


def test_presets():
    assert preset("normal") == Normal(0.0, 1.0)
    assert preset("t3") == StudentT(3.0)
    with pytest.raises(ValueError):
        preset("t4")
