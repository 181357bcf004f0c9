"""Monte Carlo engine, GARCH simulation/fitting, and i.i.d. fitting."""

import itertools
import json
import math
import pickle
import re
import traceback
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from esbacktest import backtest, harness, simulation
from esbacktest.backtest import CALIBRATION
from esbacktest.dist import Normal, RngStream, SkewT, StudentT, _abs_t_mean
from esbacktest.estimators import true_risk
from esbacktest.harness import Sample
from esbacktest.simulation import (
    GARCH_BURN_IN,
    FitError,
    GarchSpec,
    McConfig,
    NullDistribution,
    _addons,
    _block_rows,
    _conditional_variance,
    _garch_nll,
    _garch_params,
    _garch_paths,
    _innovations,
    _mc_blocks,
    _multistart_minimize,
    _skewt_nll,
    _skewt_shape,
    _steps,
    _unit_law,
    fit_and_simulate,
    fit_iid,
    garch_fit,
    garch_from_json,
    garch_simulate,
    garch_to_json,
    mc_null,
    simulate_batch,
)

# ---------------------------------------------------------------------------
# GARCH simulation
# ---------------------------------------------------------------------------


def _garch_loop_oracle(g, z):
    """One path of the recursion as a scalar loop: returns and sigma."""
    sigma = np.empty(z.size)
    s2 = g.stationary_variance()
    for t in range(z.size):
        sd = math.sqrt(s2)
        sigma[t] = sd
        eps = sd * z[t]
        s2 = g.omega + g.a1 * eps * eps + g.b1 * s2
    return g.mu + sigma * z, sigma


GARCH_ORACLE_SPECS = [
    GarchSpec(mu=1e-4, omega=1e-5, a1=0.08, b1=0.90),
    GarchSpec(mu=-2e-4, omega=3e-6, a1=0.12, b1=0.85, innovation="skew_t", nu=5.0, xi=0.8),
]


@pytest.mark.parametrize("g", GARCH_ORACLE_SPECS, ids=["normal", "skew_t"])
def test_block_recursion_equals_scalar_loop_oracle(g):
    z = _innovations(g, 64 * 300, RngStream(81, 2)).reshape(64, 300)
    full = [_garch_loop_oracle(g, row) for row in z]
    for burn_in in (0, 1, 100, 299):
        # the oracle keeps the whole path; the kernel keeps the days after burn_in
        expect = [(r[burn_in:], s[burn_in:]) for r, s in full]
        returns, sigma = _garch_paths(g, z, burn_in)
        assert np.array_equal(returns, np.array([r for r, _ in expect]))
        assert np.array_equal(sigma, np.array([s for _, s in expect]))
        one_r, one_s = _garch_paths(g, z[:1], burn_in)
        assert np.array_equal(one_r[0], expect[0][0])
        assert np.array_equal(one_s[0], expect[0][1])


def _garch_paths_per_block(g, z, burn_in):
    """The former block kernel: a new array per operation, the kept sds in a list."""
    m, steps = z.shape
    sqrt, columns, s2 = np.sqrt, z.T, np.full(m, g.stationary_variance())
    for zt in columns[:burn_in]:
        eps = sqrt(s2) * zt
        s2 = g.omega + g.a1 * eps * eps + g.b1 * s2
    path = []
    for zt in columns[burn_in:]:
        sd = sqrt(s2)
        path.append(sd)
        eps = sd * zt
        s2 = g.omega + g.a1 * eps * eps + g.b1 * s2
    sigma = np.array(path).reshape(steps - burn_in, m).T
    return g.mu + sigma * z[:, burn_in:], sigma


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("sizes", [(6,), (6, 6), (6, 6, 2), (6, 6, 6, 1), (1, 6), (1,)])
@pytest.mark.parametrize("g", GARCH_ORACLE_SPECS, ids=["normal", "skew_t"])
def test_stacked_blocks_equal_each_block_on_the_old_kernel_and_the_loop(g, sizes):
    # blocks of 6 rows, a short last block and a one-row block, each on its own stream
    steps, burn_in = 300, 200
    blocks = [_innovations(g, m * steps, RngStream(88, b)).reshape(m, steps)
              for b, m in enumerate(sizes)]
    returns, sigma = _garch_paths(g, np.concatenate(blocks), burn_in)
    first = 0
    for z in blocks:
        rows = slice(first, first + len(z))
        first += len(z)
        if len(z) > 1:
            old_r, old_s = _garch_paths_per_block(g, z, burn_in)
            assert np.array_equal(_bits(returns[rows]), _bits(old_r))
            assert np.array_equal(_bits(sigma[rows]), _bits(old_s))
        for got_r, got_s, row in zip(returns[rows], sigma[rows], z):
            want_r, want_s = _garch_loop_oracle(g, row)
            assert np.array_equal(_bits(got_r), _bits(want_r[burn_in:]))
            assert np.array_equal(_bits(got_s), _bits(want_s[burn_in:]))


@pytest.mark.parametrize("g", GARCH_ORACLE_SPECS, ids=["normal", "skew_t"])
def test_garch_simulate_equals_scalar_loop_on_its_stream(g):
    stream = RngStream(82, 4)
    x, sigma = garch_simulate(g, 200, stream, burn_in=50)
    r, s = _garch_loop_oracle(g, _innovations(g, 250, stream))
    assert np.array_equal(x, r[50:])
    assert np.array_equal(sigma, s[50:])


def _stacked_picks(g, size, seed, base, picks):
    """The former pick path: each pick's innovations a row of one recursion."""
    z = np.stack([_innovations(g, GARCH_BURN_IN + size, RngStream(seed, base + p))
                  for p in range(picks)])
    return list(_garch_paths(g, z, GARCH_BURN_IN)[0])


@pytest.mark.parametrize("picks", [1, 2, 3])
@pytest.mark.parametrize("g", GARCH_ORACLE_SPECS, ids=["normal", "skew_t"])
def test_garch_picks_equal_the_stacked_path(monkeypatch, g, picks):
    model = "garch_" + g.innovation
    monkeypatch.setattr(simulation, "garch_fit", lambda x, kind: g if kind == g.innovation else None)
    x = np.random.default_rng(85).standard_normal(300) * 0.01
    params, sims = fit_and_simulate(x, model, picks, 7, 11)
    assert params == {"model": model, **garch_to_json(g)}
    expect = _stacked_picks(g, x.size, 7, 11, picks)
    assert len(sims) == picks
    for got, want in zip(sims, expect):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_garch_without_feedback_reduces_to_iid():
    g = GarchSpec(mu=0.0, omega=1.0, a1=0.0, b1=0.0)
    x, sigma = garch_simulate(g, 10**6, RngStream(70))
    assert np.all(sigma == 1.0)
    # sample variance of n normals: sd ~ omega * sqrt(2/n)
    band = 3.0 * math.sqrt(2.0 / x.size)
    assert abs(x.var(ddof=1) - 1.0) < band


def test_garch_long_run_variance_matches_stationary_value():
    g = GarchSpec(mu=0.0, omega=1e-5, a1=0.08, b1=0.90)
    reps = 24
    per = 50_000
    vs = []
    for r in range(reps):
        x, _ = garch_simulate(g, per, RngStream(71, r))
        vs.append(x.var(ddof=1))
    vs = np.asarray(vs)
    # self-calibrated band: replicate spread of the replicate mean
    band = 3.0 * vs.std(ddof=1) / math.sqrt(reps)
    assert abs(vs.mean() - g.stationary_variance()) < band


def test_garch_simulation_is_deterministic_per_stream():
    g = GarchSpec(mu=1e-4, omega=1e-5, a1=0.05, b1=0.93)
    a = garch_simulate(g, 500, RngStream(72, 5))
    b = garch_simulate(g, 500, RngStream(72, 5))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_garch_skew_t_innovations_are_standardized():
    g = GarchSpec(mu=0.0, omega=1e-4, a1=0.0, b1=0.0, innovation="skew_t", nu=6.0, xi=1.4)
    x, sigma = garch_simulate(g, 400_000, RngStream(73))
    assert np.all(sigma == pytest.approx(0.01))
    assert x.mean() == pytest.approx(0.0, abs=3 * 0.01 / math.sqrt(x.size) * 2)
    assert x.var(ddof=1) == pytest.approx(1e-4, rel=0.02)


# ---------------------------------------------------------------------------
# unit-variance innovation law
# ---------------------------------------------------------------------------

SKEWT_SHAPES = [(5.0, 0.85), (3.5, 1.3), (30.0, 0.6)]


def _skewt_garch(nu, xi):
    return GarchSpec(mu=0.0, omega=1e-5, a1=0.1, b1=0.8, innovation="skew_t", nu=nu, xi=xi)


@pytest.mark.parametrize("nu, xi", SKEWT_SHAPES)
def test_unit_law_has_mean_zero_and_variance_one(nu, xi):
    law = _unit_law("skew_t", nu, xi)
    assert abs(law.mean()) < 1e-12
    assert abs(law.variance() - 1.0) < 1e-12
    assert _unit_law("normal") == Normal()


def test_unit_law_is_built_once_per_spec_and_never_per_block_or_pick(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _unit_law(*args)

    monkeypatch.setattr(simulation, "_unit_law", counted)
    g = GarchSpec(mu=0.0, omega=0.05, a1=0.1, b1=0.85, innovation="skew_t", nu=5.0, xi=0.85)
    assert calls == [("skew_t", 5.0, 0.85)]
    cfg = McConfig(dist=g, seed=3, n=50, runs=1000)
    assert -(-cfg.runs // _block_rows(cfg)) == 3
    mc_null(cfg)
    monkeypatch.setattr(simulation, "garch_fit", lambda x, kind: g)
    fit_and_simulate(np.zeros(100), "garch_skew_t", 3, 7, 0)
    assert len(calls) == 1
    replace(g, xi=1.2)
    assert calls[1:] == [("skew_t", 5.0, 1.2)]


def test_garch_spec_pickles_and_replace_rebuilds_its_law():
    g = _skewt_garch(5.0, 0.9)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g) and back.law == g.law
    assert replace(g, xi=1.2).law == _unit_law("skew_t", 5.0, 1.2)
    assert replace(g, innovation="normal", nu=None, xi=None).law == Normal()
    # the law is derived from the fields: no JSON key and no repr of its own
    assert "law" not in garch_to_json(g) and "law" not in repr(g)
    with pytest.raises(ValueError, match=re.escape("unknown GARCH fields ['law']")):
        garch_from_json({**garch_to_json(g), "law": None})


@pytest.mark.parametrize("nu, xi", SKEWT_SHAPES)
def test_skew_t_innovations_match_standardised_quantile_draws(nu, xi):
    # the standardisation the unit law replaced: (q - m) / sd of SkewT(nu, xi)
    base = SkewT(nu, xi)
    stream = RngStream(83, 1)
    expect = (base.sample_by_quantile(10**5, stream) - base.mean()) / math.sqrt(base.variance())
    got = _innovations(_skewt_garch(nu, xi), 10**5, stream)
    assert np.allclose(got, expect, rtol=0, atol=1e-13)


def test_normal_innovations_are_standard_normal_draws_bit_for_bit():
    g = GarchSpec(mu=1e-4, omega=1e-5, a1=0.08, b1=0.90)
    stream = RngStream(84, 2)
    assert np.array_equal(_innovations(g, 5000, stream), Normal().sample(5000, stream))


@pytest.mark.parametrize("nu, xi", SKEWT_SHAPES + [(5.0, 0.8)])
def test_garch_addons_match_standardised_skew_t_risk(nu, xi):
    base = SkewT(nu, xi)
    m, sd = base.mean(), math.sqrt(base.variance())
    cfg = McConfig(dist=_skewt_garch(nu, xi), seed=1)
    var_add, es_add = _addons(cfg)
    q = float(base.quantile(cfg.alpha_var))
    assert var_add == pytest.approx(-(q - m) / sd, rel=0, abs=1e-12)
    es = (true_risk(base, cfg.alpha_es, "ES") + m) / sd
    assert es_add == pytest.approx(es, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "index, value", [(4, -40.0), (5, -800.0), (5, 800.0)], ids=["nu=2", "xi=0", "xi=inf"]
)
def test_garch_nll_scores_a_shape_without_a_law_as_1e12(index, value):
    # nu = 2 + exp(-40) rounds to 2, exp(-800) underflows xi, exp(800) overflows
    x, _ = garch_simulate(_skewt_garch(5.0, 0.85), 500, RngStream(85))
    theta = np.array([0.0, math.log(1e-5), 2.0, -2.0, math.log(6.0), 0.0])
    s0 = float(np.var(x, ddof=1))
    assert _garch_nll(theta, x, s0, "skew_t") < 1e12
    theta[index] = value
    assert _garch_nll(theta, x, s0, "skew_t") == 1e12


@pytest.mark.parametrize(
    "kind, theta, scale",
    [("normal", [0.0, 710.0, 0.0, 0.0], 1.0),
     ("skew_t", [0.0, 710.0, 0.0, 0.0, math.log(6.0), 0.0], 1.0),
     ("normal", [0.0, 709.0, 5.0, 0.0], 0.01)],
    ids=["normal-shape0", "skew_t-shape1", "normal-2pi-s2"],
)
def test_garch_nll_scores_an_overflowing_omega_as_1e12(kind, theta, scale):
    # exp(710) leaves the float range before any variance is filtered; at
    # exp(709) the variance is finite but 2 pi s2 overflows, which must not warn
    x = np.random.default_rng(87).standard_normal(300) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _garch_nll(np.array(theta), x, float(np.var(x, ddof=1)), kind) == 1e12


def test_large_nu_keeps_the_skew_t_moments_finite():
    # the gamma ratio of E|T| held only to nu ~ 1e4 when taken as exp(gammaln - gammaln)
    GarchSpec(0.0, 1e-6, 0.1, 0.85, "skew_t", nu=1e15, xi=0.8)  # checks its unit law's variance
    normal_limit = true_risk(SkewT(1e300, 0.8), 0.7, "ES")
    assert true_risk(SkewT(1e15, 0.8), 0.7, "ES") == pytest.approx(normal_limit, rel=1e-12)


def test_skewt_nll_scores_an_overflowing_shape_as_1e12():
    x = np.random.default_rng(86).standard_t(5.0, 200)
    assert _skewt_nll(np.array([0.0, 0.0, 1.0, 800.0]), x) == 1e12
    assert _skewt_nll(np.array([0.0, 0.0, 800.0, 0.0]), x) == 1e12
    assert _skewt_nll(np.array([0.0, 710.0, 1.0, 0.0]), x) == 1e12  # the scale overflows
    assert _skewt_nll(np.array([0.0, 0.0, -40.0, 0.0]), x) == 1e12  # nu rounds to 2


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seeds_outside_64_bits_are_rejected_before_any_work(seed):
    with pytest.raises(ValueError, match="seed must lie in"):
        McConfig(dist=Normal(), seed=seed, runs=10)
    x = np.random.default_rng(87).standard_normal(100)
    with pytest.raises(ValueError, match="seed must lie in"):
        fit_and_simulate(x, "skew_t", 1, seed, 0)
    # the last pick's stream id would pass 2**64 - 1
    with pytest.raises(ValueError, match="stream id must lie in"):
        fit_and_simulate(x, "normal", 2, 1, (1 << 64) - 1)


def test_garch_spec_validation():
    with pytest.raises(ValueError):
        GarchSpec(mu=0.0, omega=0.0, a1=0.1, b1=0.5)
    with pytest.raises(ValueError):
        GarchSpec(mu=0.0, omega=1e-5, a1=0.5, b1=0.5)
    with pytest.raises(ValueError):
        GarchSpec(mu=0.0, omega=1e-5, a1=-0.1, b1=0.5)
    with pytest.raises(ValueError):
        GarchSpec(mu=0.0, omega=1e-5, a1=0.1, b1=0.5, innovation="skew_t")
    with pytest.raises(ValueError):
        GarchSpec(mu=0.0, omega=1e-5, a1=0.1, b1=0.5, nu=5.0)
    with pytest.raises(ValueError):
        GarchSpec(mu=0.0, omega=1e-5, a1=0.1, b1=0.5, innovation="levy")
    # omega / (1 - a1 - b1) overflows: every path would start at sigma = inf
    for omega in (1e307, math.inf):
        message = f"is not finite at omega={omega}, a1=0.1, b1=0.85"
        with pytest.raises(ValueError, match=re.escape(message)):
            GarchSpec(mu=0.0, omega=omega, a1=0.1, b1=0.85)


def test_garch_paths_reject_a_variance_that_overflows_without_a_warning():
    # the stationary variance is finite, but one large draw overflows the recursion
    g = GarchSpec(mu=0.0, omega=5e306, a1=0.1, b1=0.85)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="GARCH conditional variance overflows"):
            garch_simulate(g, 10, RngStream(1))  # one path: Python floats
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="GARCH conditional variance overflows"):
                _garch_paths(g, np.full((3, 20), 3.0), 10)  # rows: numpy arrays


@pytest.mark.parametrize("workers", [1, 2])
def test_a_group_whose_variance_overflows_is_rejected_without_a_warning(monkeypatch, workers):
    g = GarchSpec(mu=0.0, omega=5e306, a1=0.1, b1=0.85)
    cfg = McConfig(dist=g, seed=1, n=10, runs=40)
    # blocks of 8 runs, so that every task steps a group of several blocks
    monkeypatch.setattr(simulation, "_BLOCK_CELLS", 8 * _steps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^GARCH conditional variance overflows$"):
            _mc_blocks(cfg, _addons(cfg), range(1, 4))
        with pytest.raises(ValueError, match="^GARCH conditional variance overflows$"):
            mc_null(cfg, workers)


@pytest.mark.parametrize(
    "nu, xi", [(5.0, 1e110), (5.0, 1e-110), (2.0000000000000004, 1e100)]
)
def test_skew_t_garch_rejects_an_infinite_innovation_variance(nu, xi):
    # xi**3 or xi**-3 raises OverflowError, or nu/(nu - 2) * xi**3 is inf
    with pytest.raises(ValueError, match="skew_t variance is not finite"):
        GarchSpec(mu=0.0, omega=1e-6, a1=0.1, b1=0.8, innovation="skew_t", nu=nu, xi=xi)


def test_garch_json_round_trip():
    for g in (
        GarchSpec(mu=1e-4, omega=2e-5, a1=0.07, b1=0.9),
        GarchSpec(mu=0.0, omega=1e-5, a1=0.1, b1=0.8, innovation="skew_t", nu=5.0, xi=0.9),
    ):
        assert garch_from_json(garch_to_json(g)) == g
    with pytest.raises(ValueError):
        garch_from_json({"mu": 0.0, "omega": 1e-5, "a1": 0.1, "b1": 0.5, "gamma": 1.0})


def test_garch_json_keeps_field_order_and_drops_unset_shape():
    normal = GarchSpec(mu=1e-4, omega=2e-5, a1=0.07, b1=0.9)
    assert list(garch_to_json(normal)) == ["mu", "omega", "a1", "b1", "innovation"]
    skew = _skewt_garch(5.0, 0.9)
    assert json.dumps(garch_to_json(skew)) == (
        '{"mu": 0.0, "omega": 1e-05, "a1": 0.1, "b1": 0.8, '
        '"innovation": "skew_t", "nu": 5.0, "xi": 0.9}'
    )
    with pytest.raises(ValueError, match="bad GARCH parameters"):
        garch_from_json({"mu": 0.0, "omega": 1e-5, "a1": 0.1})
    with pytest.raises(ValueError, match="must be an object"):
        garch_from_json([0.0])


def test_conditional_variance_filter_matches_loop_oracle():
    rng = np.random.default_rng(74)
    x = rng.standard_normal(300) * 0.01
    mu, omega, a1, b1 = 2e-4, 3e-6, 0.09, 0.88
    s2, e = _conditional_variance(x, float(np.var(x, ddof=1)), mu, omega, a1, b1)
    expect = np.empty_like(s2)
    expect[0] = np.var(x, ddof=1)
    for t in range(1, x.size):
        expect[t] = omega + a1 * (x[t - 1] - mu) ** 2 + b1 * expect[t - 1]
    assert np.allclose(s2, expect, rtol=1e-12, atol=0)
    assert np.allclose(e, x - mu)


def _conditional_variance_with_state(x, s0, mu, omega, a1, b1):
    """The variance filter the likelihood ran before: b1 * s0 as lfilter's state."""
    from scipy.signal import lfilter

    e = x - mu
    drive = omega + a1 * e[:-1] ** 2
    rest, _state = lfilter([1.0], [1.0, -b1], drive, zi=np.array([b1 * s0]))
    return np.concatenate(([s0], rest)), e


def _unit_law_of_two_skew_t(nu, xi):
    """The unit skew-t law as built before: a base SkewT, then its rescaled copy,
    with the mean and the variance each taking their own E|T|."""
    SkewT(nu, xi)  # the base law validates the shape
    try:
        ez = _abs_t_mean(nu) * (xi - 1.0 / xi)
        ez2 = nu / (nu - 2.0) * (xi**3 + xi**-3) / (xi + 1.0 / xi)
        var = 1.0**2 * (ez2 - ez**2)
    except OverflowError:
        var = math.inf
    if not math.isfinite(var):
        raise ValueError(f"skew_t variance is not finite at nu={nu}, xi={xi}")
    s = math.sqrt(var)
    mean = 0.0 + 1.0 * _abs_t_mean(nu) * (xi - 1.0 / xi)
    return SkewT(nu, xi, loc=-mean / s, scale=1.0 / s)


def _garch_nll_oracle(theta, x, s0, kind):
    """The likelihood as evaluated before its per-call trims."""
    mu, omega, a1, b1 = _garch_params(theta)
    s2, e = _conditional_variance_with_state(x, s0, mu, omega, a1, b1)
    if not np.all(np.isfinite(s2)) or np.any(s2 <= 0):
        return 1e12
    if kind == "normal":
        ll = -0.5 * np.sum(np.log(2.0 * math.pi * s2) + e * e / s2)
    else:
        try:
            law = _unit_law_of_two_skew_t(*_skewt_shape(theta[4:]))
        except (ValueError, OverflowError):
            return 1e12
        sd = np.sqrt(s2)
        ll = np.sum(law.logpdf(e / sd) - np.log(sd))
    if not np.isfinite(ll):
        return 1e12
    return -float(ll)


def _random_thetas(rng, m, v):
    """m skew-t GARCH parameter vectors around the fit's starts, some far out."""
    theta = np.column_stack([
        rng.normal(0.0, 0.01, m),
        math.log(v) + rng.uniform(-30.0, 30.0, m),
        rng.normal(2.0, 4.0, m),
        rng.normal(-1.0, 3.0, m),
        rng.uniform(-45.0, 6.0, m),  # nu = 2 + exp(-45) rounds to 2
        rng.normal(0.0, 1.0, m),
    ])
    far = rng.random(m) < 0.05
    theta[far, 1] = rng.uniform(650.0, 709.0, far.sum())  # the variance overflows
    far = rng.random(m) < 0.05
    theta[far, 0] = rng.choice([1e150, -1e160, 1e200], far.sum())  # e * e overflows
    far = rng.random(m) < 0.05
    theta[far, 5] = rng.choice([-800.0, 800.0], far.sum())  # xi under- or overflows
    return theta


@pytest.mark.parametrize("kind", ["normal", "skew_t"])
def test_garch_nll_equals_the_untrimmed_likelihood_bit_for_bit(kind):
    x, _ = garch_simulate(_skewt_garch(5.0, 0.85), 500, RngStream(88))
    v = float(np.var(x, ddof=1))
    thetas = _random_thetas(np.random.default_rng(89), 3000, v)
    if kind == "normal":
        thetas = thetas[:, :4]
    # a tiny seed variance makes e * e / s2 overflow: a non-finite likelihood;
    # a negative one fails the variance check
    values = {}
    with np.errstate(all="ignore"):
        for s0 in (v, 1e-300, 5e-324, -v):
            for theta in thetas:
                got = _garch_nll(theta, x, s0, kind)
                assert got == _garch_nll_oracle(theta, x, s0, kind), (theta, s0)
                values[got == 1e12] = values.get(got == 1e12, 0) + 1
    assert values[True] > 500 and values[False] > 500


# garch_fit of one garch_simulate path, as JSON, captured before the
# likelihood's per-call trims: the Nelder-Mead path must not move a bit
_PINNED_FITS = {
    "skew_t": (
        '{"mu": 0.00017796304732302896, "omega": 4.018858317095233e-06, '
        '"a1": 0.14934460444584477, "b1": 0.7988984227630098, "innovation": "skew_t", '
        '"nu": 4.909081974836604, "xi": 0.852062705387445}'
    ),
    "normal": (
        '{"mu": 0.0002673047560472373, "omega": 4.728073305347766e-06, '
        '"a1": 0.15792496203628123, "b1": 0.773297816319381, "innovation": "normal"}'
    ),
}


@pytest.mark.parametrize("kind", ["skew_t", "normal"])
def test_garch_fit_json_is_pinned_to_its_bytes(kind):
    g = garch_from_json({"mu": 0.0003, "omega": 2e-6, "a1": 0.08, "b1": 0.9,
                         "innovation": "skew_t", "nu": 5, "xi": 0.85})
    x, _ = garch_simulate(g, 500, RngStream(14))
    assert json.dumps(garch_to_json(garch_fit(x, kind))) == _PINNED_FITS[kind]


# ---------------------------------------------------------------------------
# GARCH fitting
# ---------------------------------------------------------------------------


def _nll_oracle(x, mu, omega, a1, b1):
    """Likelihood evaluated by a direct loop, independent of the fit path."""
    e = x - mu
    s2 = np.var(x, ddof=1)
    nll = 0.0
    for t in range(x.size):
        if t > 0:
            s2 = omega + a1 * e[t - 1] ** 2 + b1 * s2
        nll += 0.5 * (math.log(2 * math.pi * s2) + e[t] ** 2 / s2)
    return nll


def test_garch_fit_recovers_generating_parameters():
    truth = GarchSpec(mu=0.0, omega=1e-5, a1=0.08, b1=0.90)
    x, _ = garch_simulate(truth, 2000, RngStream(75))
    fit = garch_fit(x, "normal")
    assert abs(fit.a1 - truth.a1) < 0.05
    assert abs(fit.b1 - truth.b1) < 0.05
    assert truth.omega / 2 < fit.omega < truth.omega * 2


def test_garch_fit_likelihood_not_worse_than_truth():
    truth = GarchSpec(mu=0.0, omega=1e-5, a1=0.08, b1=0.90)
    x, _ = garch_simulate(truth, 1500, RngStream(76))
    fit = garch_fit(x, "normal")
    nll_fit = _nll_oracle(x, fit.mu, fit.omega, fit.a1, fit.b1)
    nll_truth = _nll_oracle(x, truth.mu, truth.omega, truth.a1, truth.b1)
    assert nll_fit <= nll_truth + 1e-6


def test_garch_fit_rejects_degenerate_and_short_input():
    with pytest.raises(ValueError, match="degenerate"):
        garch_fit(np.ones(500), "normal")
    with pytest.raises(ValueError, match="at least 100"):
        garch_fit(np.arange(50, dtype=float), "normal")
    with pytest.raises(ValueError, match="innovation"):
        garch_fit(np.random.default_rng(0).standard_normal(200), "poisson")


def test_garch_fit_with_skew_t_innovations_smoke():
    truth = GarchSpec(
        mu=0.0, omega=1e-5, a1=0.08, b1=0.88, innovation="skew_t", nu=7.0, xi=1.3
    )
    x, _ = garch_simulate(truth, 1500, RngStream(77))
    fit = garch_fit(x, "skew_t")
    assert fit.innovation == "skew_t"
    assert abs(fit.a1 + fit.b1 - 0.96) < 0.08
    assert 0.9 < fit.xi < 1.8
    assert fit.nu > 3.0


@pytest.mark.parametrize(
    "innovation,theta,boundary",
    [
        ("normal", [0.0, -11.5, 40.0, 0.0], r"a1 \+ b1 < 1"),
        ("skew_t", [0.0, -800.0, 2.0, 0.0, 1.0, 0.0], "omega"),
        ("normal", [0.0, 710.0, 2.0, 0.0], "math range error"),
    ],
)
def test_garch_fit_on_a_parameter_boundary_raises_fit_error(
    monkeypatch, innovation, theta, boundary
):
    # expit(40) rounds persistence to exactly 1, exp(-800) omega to 0, and
    # exp(710) overflows
    def optimum(fun, starts, args=()):
        return np.array(theta), -123.5

    monkeypatch.setattr(simulation, "_multistart_minimize", optimum)
    x = np.random.default_rng(81).standard_normal(200) * 0.01
    with pytest.raises(FitError, match=f"parameter boundary: .*{boundary}") as info:
        garch_fit(x, innovation)
    assert info.value.best == {"theta": theta, "nll": -123.5}
    assert info.value.diagnostics["boundary"] in str(info.value)


def _canned_minimize(runs):
    """A ``scipy.optimize.minimize`` stand-in that returns the (success, fun)
    of ``runs`` in turn, at theta = x0 + fun and nfev = the run's index."""
    from scipy.optimize import OptimizeResult
    results = iter(enumerate(runs))

    def minimize(fun, x0, args=(), method=None, options=None):
        i, (success, value) = next(results)
        return OptimizeResult(x=x0 + value, fun=value, success=success, nfev=i,
                              message=f"run {i}")
    return minimize


def test_multistart_minimize_takes_the_first_lowest_converged_start(monkeypatch):
    from scipy import optimize
    starts = [np.array([10.0 * i]) for i in range(4)]
    # a converged start beats a non-converged one with a lower objective, and
    # the first of equal objectives wins
    runs = [(False, 1.0), (True, 3.0), (True, 2.0), (True, 2.0)]
    monkeypatch.setattr(optimize, "minimize", _canned_minimize(runs))
    theta, nll = _multistart_minimize(None, starts)
    assert theta.tolist() == [22.0] and nll == 2.0
    # with none converged, the error reports the first lowest run
    runs = [(False, 5.0), (False, 4.0), (False, 4.0), (False, 6.0)]
    monkeypatch.setattr(optimize, "minimize", _canned_minimize(runs))
    with pytest.raises(FitError) as info:
        _multistart_minimize(None, starts)
    assert str(info.value) == "optimizer did not converge within 2000 evaluations per start: run 1"
    assert info.value.best == {"theta": [14.0], "nll": 4.0}
    assert info.value.diagnostics == {"nfev": 1, "message": "run 1"}


def test_fit_error_survives_a_pickle_round_trip():
    # a process pool pickles a worker's exception to raise it in the parent
    err = FitError("fit reached a parameter boundary: x", {"theta": [0.5], "nll": 1.5},
                   {"boundary": "x"})
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is FitError
    assert str(back) == str(err) and back.args == err.args
    assert back.best == err.best and back.diagnostics == err.diagnostics


# ---------------------------------------------------------------------------
# i.i.d. fitting
# ---------------------------------------------------------------------------


def test_fit_iid_normal_moment_recovery():
    d = Normal(0.001, 0.02)
    x = d.sample(10**5, RngStream(78))
    fit = fit_iid(x, "normal")
    assert isinstance(fit, Normal)
    assert abs(fit.mu - 0.001) < 2e-4
    assert abs(fit.sigma - 0.02) / 0.02 < 0.01


def test_fit_iid_skew_t_on_symmetric_data_finds_unit_skew():
    x = StudentT(5.0).sample(5000, RngStream(79))
    fit = fit_iid(x, "skew_t")
    assert isinstance(fit, SkewT)
    assert abs(fit.xi - 1.0) < 0.05
    assert 3.0 < fit.nu < 9.0


def test_fit_iid_skew_t_recovers_skewness_direction():
    x = SkewT(6.0, 1.5).sample(5000, RngStream(80))
    fit = fit_iid(x, "skew_t")
    assert fit.xi > 1.2


def test_fit_iid_skew_t_on_tails_beyond_nu_2_does_not_crash():
    # Cauchy tails drive nu toward 2; a simplex vertex where 2 + exp(theta)
    # rounds to 2 is scored as infeasible instead of raising mid-optimization
    x = np.random.default_rng(0).standard_cauchy(500) * 0.01
    fit = fit_iid(x, "skew_t")
    assert isinstance(fit, SkewT)
    assert fit.nu > 2.0


def test_fits_reject_an_overflowing_variance_without_a_warning():
    # the normal fit used to return sigma = inf and simulate infinite paths
    x = np.random.default_rng(1).standard_normal(200) * 1e298
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("normal", "skew_t"):
            with pytest.raises(ValueError, match="degenerate series: variance is inf"):
                fit_iid(x, kind)
        with pytest.raises(ValueError, match="degenerate series: variance is inf"):
            garch_fit(x, "normal")


def test_fits_name_the_index_of_a_nan_return():
    # the shared input rule used to report "degenerate series: variance is nan"
    x = np.random.default_rng(2).standard_normal(200)
    x[17] = np.nan
    for fit in (lambda: fit_iid(x, "normal"), lambda: fit_iid(x, "skew_t"),
                lambda: garch_fit(x, "normal")):
        with pytest.raises(ValueError, match="returns has non-finite value nan at index 17"):
            fit()


def test_fit_iid_sd_is_np_std_bit_for_bit():
    # fit_iid takes its sd as the square root of the shared variance
    rng = np.random.default_rng(3)
    for k in range(200):
        x = rng.standard_normal(30 + k) * 10.0 ** rng.uniform(-6, 6) + rng.uniform(-1, 1)
        assert fit_iid(x, "normal").sigma == float(np.std(x, ddof=1))


def test_fit_iid_input_validation():
    with pytest.raises(ValueError, match="at least 30"):
        fit_iid(np.arange(10, dtype=float), "normal")
    with pytest.raises(ValueError, match="degenerate"):
        fit_iid(np.full(100, 2.0), "normal")
    with pytest.raises(ValueError, match="model kind"):
        fit_iid(np.random.default_rng(0).standard_normal(100), "gamma")


# ---------------------------------------------------------------------------
# Monte Carlo null distributions
# ---------------------------------------------------------------------------


def _tally_oracle(y_var, y_es):
    """Per-run tallies as one sort and cumsum per row."""
    n = y_var.shape[1]
    counts_t = np.zeros(n + 1, dtype=np.int64)
    counts_g = np.zeros(n + 1, dtype=np.int64)
    for yv, ye in zip(y_var, y_es):
        counts_t[int((yv < 0).sum())] += 1
        counts_g[int((np.cumsum(np.sort(ye)) < 0).sum())] += 1
    return counts_t, counts_g


def _secured_block(cfg, addons, rows, stream):
    """One block's (rows, n) samples secured at the VAR and the ES reserve."""
    steps = _steps(cfg)
    var_add, es_add = addons
    if isinstance(cfg.dist, GarchSpec):
        # the per-day reserve is conditional: sigma_t scales the unit risk
        z = _innovations(cfg.dist, rows * steps, stream).reshape(rows, steps)
        paths = [_garch_loop_oracle(cfg.dist, row) for row in z]
        x = np.array([r[GARCH_BURN_IN:] for r, _ in paths])
        sigma = np.array([s[GARCH_BURN_IN:] for _, s in paths])
        eps = x - cfg.dist.mu
        return eps + sigma * var_add, eps + sigma * es_add
    x = cfg.dist.sample(rows * steps, stream).reshape(rows, steps)
    return x + var_add, x + es_add


def _tally(y_var, y_es):
    """Counts over 0..n of the per-row exception and worst-case-sum counts."""
    size = y_var.shape[1] + 1
    counts_t = np.bincount((y_var < 0).sum(1), minlength=size)
    counts_g = np.bincount((np.cumsum(np.sort(y_es, 1), 1) < 0).sum(1), minlength=size)
    return counts_t, counts_g


class _SmallIntegers:
    """Draws uniform on -3..3: tied values and partial sums of exactly zero."""

    def sample(self, n, stream):
        return stream.generator().integers(-3, 4, size=n).astype(float)


def test_block_tally_equals_per_run_oracle_with_ties():
    beyond_prefix = 0
    for n, runs in ((1, 1), (3, 7), (50, 300), (250, 700)):
        cfg = McConfig(dist=_SmallIntegers(), seed=83, n=n, runs=runs)
        rows = _block_rows(cfg)
        # reserves of 0 and 1 put draws exactly on x == -var_add
        for reserve, b in itertools.product((0.0, 1.0, 0.5), range(-(-runs // rows))):
            addons = (reserve, reserve)
            m = min(rows, runs - b * rows)
            got = _mc_blocks(cfg, addons, range(b, b + 1))
            expect = _tally_oracle(*_secured_block(cfg, addons, m, RngStream(cfg.seed, b)))
            for counts, want in zip(got, expect):
                assert counts.shape == (n + 1,)
                assert np.array_equal(counts, want)
            beyond_prefix += int(expect[1][backtest._G_PREFIX + 1 :].sum())
    # rows whose worst-case-sum count passes the sorted prefix take the full sort
    assert beyond_prefix > 0


BLOCK_GRID_LAWS = [
    Normal(),
    StudentT(3.0),
    SkewT(5.0, 0.8),
    Normal(0.3, 2.0),
    GarchSpec(mu=1e-4, omega=1e-5, a1=0.08, b1=0.90),
    GarchSpec(mu=-2e-4, omega=3e-6, a1=0.12, b1=0.85, innovation="skew_t", nu=5.0, xi=0.8),
]


@pytest.mark.parametrize("levels", [(0.01, 0.025), (0.3, 0.6), (0.05, 0.9)])
@pytest.mark.parametrize(
    "dist", BLOCK_GRID_LAWS, ids=["normal", "t3", "skewt", "normal-loc-scale", "garch", "garch-skewt"]
)
def test_block_kernel_equals_secured_block_tally(dist, levels):
    for n in (1, 2, 5, 50, 250):
        cfg = McConfig(dist=dist, seed=86, n=n, runs=1, alpha_var=levels[0], alpha_es=levels[1])
        # block 1 of rows + 37 runs: a partial block on its own stream
        cfg = replace(cfg, runs=_block_rows(cfg) + 37)
        addons = _addons(cfg)
        expect = _tally(*_secured_block(cfg, addons, 37, RngStream(cfg.seed, 1)))
        for counts, want in zip(_mc_blocks(cfg, addons, range(1, 2)), expect):
            assert np.array_equal(counts, want)


@pytest.mark.parametrize("n", [40, 250])  # the full sort and the partial sort
def test_block_overflow_is_rejected_without_a_warning(n):
    # a block is graded by backtest's grader, as the rolling backtest is
    assert simulation._grade is backtest._grade is harness._grade
    # draws overflow, and the secured sample's finite check rejects them;
    # G used to read 0.9707 at 24
    cfg = McConfig(dist=Normal(0.0, 5e307), seed=1, n=n, runs=512)
    # a finite block whose negative partial sums overflow to -inf
    x = np.ones((3, n))
    x[:, :3] = -8e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="secured sample has non-finite value inf"):
            _mc_blocks(cfg, _addons(cfg), range(1))
        with pytest.raises(ValueError, match="partial sums of the sorted sample overflow"):
            backtest._grade(x, 0.0, 0.0, out=x)
        # sigma = 1e306 overflows only in the positive tail, which the prefix never reads
        big = replace(cfg, dist=Normal(0.0, 1e306), n=250)
        counts_t, counts_g = _mc_blocks(big, _addons(big), range(1))
    assert counts_t.sum() == counts_g.sum() == 512


@pytest.mark.parametrize(
    "dist, blocks",
    [
        (Normal(), 1),
        (StudentT(3.0), 1),
        (SkewT(5.0, 0.8), 1),
        (GarchSpec(mu=0.0, omega=0.05, a1=0.1, b1=0.85), 1),
        (GarchSpec(0.0, 0.05, 0.1, 0.85, "skew_t", 5.0, 0.85), 1),
        (GarchSpec(mu=0.0, omega=0.05, a1=0.1, b1=0.85), 2),
        (GarchSpec(0.0, 0.05, 0.1, 0.85, "skew_t", 5.0, 0.85), 2),
    ],
    ids=["normal", "t3", "skewt", "garch", "garch-skewt", "garch-group", "garch-skewt-group"],
)
def test_block_peak_memory_is_at_most_three_times_its_draws(dist, blocks):
    # worker threads hold one block, or one GARCH group, each in a shared address space
    cfg = McConfig(dist=dist, seed=87, n=250, runs=2048)  # blocks 1 and 2 are full
    addons = _addons(cfg)
    draw_bytes = blocks * _block_rows(cfg) * _steps(cfg) * 8
    tracemalloc.start()
    try:
        _mc_blocks(cfg, addons, range(1, 1 + blocks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * draw_bytes


def test_g_counts_partition_their_block_in_place():
    # _mc_blocks owns the block, so the prefix partition reorders its rows and
    # copies none of them
    y = np.random.default_rng(92).standard_normal((512, 250)) + 2.0
    expect = backtest._negative_sums(y)  # the full sort
    tracemalloc.start()
    try:
        got = backtest._g_counts(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expect)
    assert peak <= 0.5 * y.nbytes


@pytest.mark.parametrize("g", GARCH_ORACLE_SPECS, ids=["normal", "skew_t"])
def test_a_group_tallies_as_its_blocks_do_one_at_a_time(monkeypatch, g):
    cfg = McConfig(dist=g, seed=89, n=40, runs=25)
    # blocks of 6, 6, 6, 6 and 1 runs
    monkeypatch.setattr(simulation, "_BLOCK_CELLS", 6 * _steps(cfg))
    addons = _addons(cfg)
    for start, stop in ((0, 1), (0, 2), (1, 4), (1, 5), (4, 5), (2, 5)):
        expect = [_tally(*_secured_block(cfg, addons, min(6, cfg.runs - 6 * b),
                                         RngStream(cfg.seed, b))) for b in range(start, stop)]
        for counts, want in zip(_mc_blocks(cfg, addons, range(start, stop)), zip(*expect)):
            assert np.array_equal(counts, sum(want))


@pytest.mark.parametrize(
    "g", [GarchSpec(0.0, 0.05, 0.1, 0.85), GarchSpec(0.0, 0.05, 0.1, 0.85, "skew_t", 5.0, 0.85)],
    ids=["normal", "skew_t"],
)
def test_mc_null_garch_groups_sum_the_per_block_tallies(monkeypatch, g):
    # 2500 runs at n = 250: blocks of 349 runs and a last one of 57, in groups of two
    cfg = McConfig(dist=g, seed=90, n=250, runs=2500)
    addons = _addons(cfg)
    blocks = [_mc_blocks(cfg, addons, range(b, b + 1)) for b in range(8)]
    expect_t, expect_g = (sum(part) for part in zip(*blocks))
    tasks, original = [], simulation._mc_blocks

    def spy(cfg, addons, group):
        tasks.append(group)
        return original(cfg, addons, group)

    monkeypatch.setattr(simulation, "_mc_blocks", spy)
    for workers in (1, 2, 3):
        tasks.clear()
        nd_var, nd_es = mc_null(cfg, workers)
        assert np.array_equal(nd_var.counts, expect_t)
        assert np.array_equal(nd_es.counts, expect_g)
        assert sorted(b for group in tasks for b in group) == list(range(8))
        assert max(map(len, tasks)) == 2 and all(group.step == 1 for group in tasks)
        assert len(tasks) % workers == 0


def test_block_rows_follow_the_stream_contract():
    assert _block_rows(McConfig(dist=Normal(), seed=1, n=250)) == 512
    assert _block_rows(McConfig(dist=Normal(), seed=1, n=5000)) == 52
    assert _block_rows(McConfig(dist=Normal(), seed=1, n=2**19)) == 1
    g = GarchSpec(mu=0.0, omega=1e-5, a1=0.08, b1=0.90)
    assert _block_rows(McConfig(dist=g, seed=1, n=250)) == 349


def _mc_oracle(cfg):
    """Counts rebuilt run by run from the block streams of stream contract 2."""
    addons = _addons(cfg)
    rows, steps = _block_rows(cfg), cfg.n
    garch = isinstance(cfg.dist, GarchSpec)
    if garch:
        steps += GARCH_BURN_IN
    y_var, y_es = [], []
    for b in range(-(-cfg.runs // rows)):
        m = min(rows, cfg.runs - b * rows)
        if garch:
            z = _innovations(cfg.dist, m * steps, RngStream(cfg.seed, b))
            for row in z.reshape(m, steps):
                x, sigma = (a[GARCH_BURN_IN:] for a in _garch_loop_oracle(cfg.dist, row))
                eps = x - cfg.dist.mu
                y_var.append(eps + sigma * addons[0])
                y_es.append(eps + sigma * addons[1])
        else:
            x = cfg.dist.sample(m * steps, RngStream(cfg.seed, b)).reshape(m, steps)
            y_var.extend(x + addons[0])
            y_es.extend(x + addons[1])
    return _tally_oracle(np.array(y_var), np.array(y_es))


@pytest.mark.parametrize(
    "dist, runs",
    [(StudentT(4.0), 1100), (GarchSpec(mu=1e-4, omega=1e-5, a1=0.08, b1=0.90), 500)],
    ids=["t4", "garch"],
)
def test_mc_null_equals_per_run_oracle_on_block_streams(dist, runs):
    cfg = McConfig(dist=dist, seed=84, n=50, runs=runs)
    nd_var, nd_es = mc_null(cfg)
    expect_t, expect_g = _mc_oracle(cfg)
    assert np.array_equal(nd_var.counts, expect_t)
    assert np.array_equal(nd_es.counts, expect_g)


def test_mc_null_worker_independent_with_a_partial_last_block():
    # 1300 runs at n = 250: blocks of 512, 512 and 276 runs
    cfg = McConfig(dist=SkewT(5.0, 0.8), seed=85, n=250, runs=1300)
    nd_var, nd_es = mc_null(cfg, workers=1)
    for workers in (2, 3, 8):
        other_var, other_es = mc_null(cfg, workers=workers)
        assert np.array_equal(nd_var.counts, other_var.counts)
        assert np.array_equal(nd_es.counts, other_es.counts)


def test_mc_null_reproducible_and_worker_independent():
    cfg = McConfig(dist=Normal(), seed=90, n=250, runs=3000)
    nd_var_1, nd_es_1 = mc_null(cfg, workers=1)
    nd_var_4, nd_es_4 = mc_null(cfg, workers=4)
    nd_var_16, nd_es_16 = mc_null(cfg, workers=16)
    assert np.array_equal(nd_var_1.counts, nd_var_4.counts)
    assert np.array_equal(nd_var_1.counts, nd_var_16.counts)
    assert np.array_equal(nd_es_1.counts, nd_es_4.counts)
    assert np.array_equal(nd_es_1.counts, nd_es_16.counts)


def test_mc_null_var_statistic_tracks_binomial():
    cfg = McConfig(dist=StudentT(5.0), seed=91, n=250, runs=5000)
    nd_var, _ = mc_null(cfg)
    # the exception count is Binomial(250, 0.01) for any continuous law
    expected = stats.binom.cdf(4, 250, 0.01)
    assert nd_var.prob_at_most(4) == pytest.approx(expected, abs=0.02)
    mean = float((nd_var.counts * np.arange(nd_var.counts.size)).sum()) / cfg.runs
    assert mean == pytest.approx(2.5, abs=0.12)


def test_mc_null_conditional_garch_breaches_are_binomial():
    g = GarchSpec(mu=1e-4, omega=1e-5, a1=0.08, b1=0.90)
    cfg = McConfig(dist=g, seed=92, n=250, runs=1500)
    nd_var, nd_es = mc_null(cfg)
    mean = float((nd_var.counts * np.arange(nd_var.counts.size)).sum()) / cfg.runs
    assert mean == pytest.approx(2.5, abs=0.13)
    # worst-case-sum count concentrates near its null location
    assert 0.8 < nd_es.prob_at_most(11) < 1.0


def test_mc_null_single_run_degenerates_to_point_mass():
    cfg = McConfig(dist=Normal(), seed=93, n=50, runs=1)
    nd_var, nd_es = mc_null(cfg)
    assert nd_var.counts.sum() == 1
    assert nd_es.counts.sum() == 1
    assert nd_var.pmf.max() == 1.0


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(dist=Normal(), seed=1, n=0)
    with pytest.raises(ValueError):
        McConfig(dist=Normal(), seed=1, runs=0)
    with pytest.raises(ValueError):
        McConfig(dist=Normal(), seed=1, alpha_var=1.5)
    # parallel_map holds the worker check for every caller
    with pytest.raises(ValueError, match="need workers >= 1, got 0"):
        mc_null(McConfig(dist=Normal(), seed=1, runs=10), workers=0)
    for level in ("alpha_var", "alpha_es"):
        for value in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"^level must lie strictly inside"):
                McConfig(dist=Normal(), seed=1, **{level: value})


def test_null_distribution_invariants():
    cfg = McConfig(dist=Normal(), seed=94, n=100, runs=2000)
    nd_var, nd_es = mc_null(cfg)
    for nd in (nd_var, nd_es):
        assert abs(nd.pmf.sum() - 1.0) < 1e-12
        assert np.all(np.diff(nd.cdf) >= 0)
        assert nd.cdf[-1] == 1.0
        assert nd.prob_below(0) == 0.0
        assert nd.prob_at_most(nd.n) == 1.0
        assert nd.prob_below(5) == nd.prob_at_most(4)


def test_null_distribution_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        NullDistribution("VAR", np.array([1, 2, 3]), runs=10, seed=0)


# ---------------------------------------------------------------------------
# fit-and-simulate bundles
# ---------------------------------------------------------------------------


def test_fit_and_simulate_normal_is_deterministic():
    x = Normal(0.0, 0.01).sample(500, RngStream(95))
    params_a, sims_a = fit_and_simulate(x, "normal", picks=3, seed=7, base_stream_id=0)
    params_b, sims_b = fit_and_simulate(x, "normal", picks=3, seed=7, base_stream_id=0)
    assert params_a == params_b
    assert params_a["model"] == "normal"
    assert len(sims_a) == 3
    for a, b in zip(sims_a, sims_b):
        assert a.size == 500
        assert np.array_equal(a, b)
    assert not np.array_equal(sims_a[0], sims_a[1])


def test_fit_and_simulate_garch_emits_paths():
    truth = GarchSpec(mu=0.0, omega=1e-5, a1=0.08, b1=0.90)
    x, _ = garch_simulate(truth, 600, RngStream(96))
    params, sims = fit_and_simulate(x, "garch_normal", picks=2, seed=8, base_stream_id=10)
    assert params["model"] == "garch_normal"
    assert len(sims) == 2 and sims[0].size == 600
    fitted = garch_from_json({k: v for k, v in params.items() if k != "model"})
    for p, sim in enumerate(sims):
        # the stacked picks equal one path per pick stream
        assert np.array_equal(sim, garch_simulate(fitted, 600, RngStream(8, 10 + p))[0])
    with pytest.raises(ValueError, match="model"):
        fit_and_simulate(x, "arch", picks=1, seed=8, base_stream_id=0)
    with pytest.raises(ValueError, match="picks"):
        fit_and_simulate(x, "normal", picks=0, seed=8, base_stream_id=0)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_simulate_batch_draws_sample_s_pick_p_from_stream_s_times_picks_plus_p(workers):
    samples = [Normal(0.0, 0.01).sample(200, RngStream(97, j)) for j in range(3)]
    batch = simulate_batch(samples, "normal", 2, 9, workers)
    assert len(batch) == 3
    for s, (x, (params, sims)) in enumerate(zip(samples, batch)):
        one_params, one_sims = fit_and_simulate(x, "normal", 2, 9, s * 2)
        assert params == one_params
        assert all(np.array_equal(a, b) for a, b in zip(sims, one_sims, strict=True))
    with pytest.raises(ValueError, match="unknown model 'arch'"):
        simulate_batch(samples, "arch", 2, 9, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_batch_labels_a_fit_error_that_keeps_its_fields_and_frame(workers):
    # the high-variance half drives the GARCH fit to a1 + b1 = 1; on a process
    # pool the labelled FitError is pickled in a worker and raised in this one
    rng = np.random.default_rng(18)
    x = np.concatenate([rng.normal(0, 0.01, 150), rng.normal(0, 0.1, 150)])
    samples = [Sample("a", 0, x), Sample("b", 0, x)]
    with pytest.raises(FitError) as info:
        simulate_batch(samples, "garch_normal", 1, 1, workers)
    boundary = "need a1 + b1 < 1 for stationarity, got 1.0"
    assert info.value.args == (f"a[0:300]: fit reached a parameter boundary: {boundary}",)
    assert info.value.diagnostics == {"boundary": boundary}
    assert list(info.value.best) == ["theta", "nll"] and len(info.value.best["theta"]) == 4
    # the worker's traceback reaches this process as text, in the cause
    frames = str(info.value.__cause__) if workers > 1 else "".join(
        traceback.format_tb(info.value.__traceback__))
    assert re.findall(r", in (\w+)\n", frames)[-1] == "garch_fit"


def test_null_distribution_owns_a_copy_of_the_callers_counts():
    counts = np.array([3, 5, 2])
    nd = NullDistribution("VAR", counts, runs=10, seed=0)
    assert counts.flags.writeable and not nd.counts.flags.writeable
    counts[0] = 9
    assert nd.counts.tolist() == [3, 5, 2]


def test_model_table_and_mc_defaults():
    # fit_and_simulate dispatches on MODELS; McConfig reads the calibration point
    assert simulation.MODELS == ("normal", "skew_t", "garch_normal", "garch_skew_t")
    cfg = McConfig(dist=Normal(), seed=1)
    assert (cfg.n, cfg.alpha_var, cfg.alpha_es) == tuple(CALIBRATION) == (250, 0.01, 0.025)
    assert cfg.runs == 50_000
