"""Secured-position construction and the breach-invariance property."""

import numpy as np
import pytest

from esbacktest.secured import SecuredSample, build_normalized, build_secured


def test_build_secured_componentwise_sum():
    y = build_secured([-1.0, 2.0], [1.0, 1.0])
    assert np.array_equal(y.values, [0.0, 3.0])
    assert not y.normalized
    assert y.n == 2


def test_build_secured_exact_offset_gives_zero_vector():
    pnl = np.array([-3.0, 0.5, 1.25])
    y = build_secured(pnl, -pnl)
    assert np.array_equal(y.values, np.zeros(3))


def test_build_normalized_hand_examples():
    assert np.array_equal(build_normalized([-2.0], [2.0]).values, [0.0])
    y = build_normalized([-1.0, 3.0], [2.0, 2.0])
    assert np.array_equal(y.values, [0.5, 2.5])
    assert y.normalized


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        build_secured([1.0], [1.0, 2.0])


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        build_secured([], [])


def test_nonpositive_reserve_names_offending_index():
    with pytest.raises(ValueError, match="index 2"):
        build_normalized([1.0, 1.0, 1.0], [1.0, 2.0, 0.0])
    with pytest.raises(ValueError, match="index 1"):
        build_normalized([1.0, 1.0], [1.0, -0.5])


def test_non_finite_inputs_rejected_not_scored_as_covered():
    with pytest.raises(ValueError, match="non-finite value nan at index 0"):
        build_secured([-1.0, -2.0, 0.5], [np.nan, 0.1, 0.1])
    with pytest.raises(ValueError, match="non-finite value inf at index 1"):
        build_secured([1.0, np.inf], [1.0, 1.0])
    with pytest.raises(ValueError, match="reserve has non-finite value nan at index 0"):
        build_normalized([-1.0, -2.0, 0.5], [np.nan, 0.1, 0.1])
    with pytest.raises(ValueError, match="reserve has non-finite value inf"):
        build_normalized([-1.0], [np.inf])
    with pytest.raises(ValueError, match="non-finite value -inf at index 0"):
        build_normalized([-np.inf], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        SecuredSample(np.array([0.5, np.nan]))


def test_normalization_preserves_breach_indicators():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 100))
        pnl = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        reserve = rng.uniform(0.05, 3.0, size=n)
        raw = build_secured(pnl, reserve).values
        norm = build_normalized(pnl, reserve).values
        assert np.array_equal(raw < 0, norm < 0)


def test_values_are_immutable():
    y = build_secured([1.0, -1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        y.values[0] = 9.9


def test_secured_sample_rejects_empty():
    with pytest.raises(ValueError):
        SecuredSample(np.array([]))
