import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import volint as vi
from volint.volatility import log_returns, normalize_volatility, volatility


E = float(np.e)


def test_log_returns_basic():
    r = log_returns([1.0, E, E])
    assert np.allclose(r, [1.0, 0.0])


def test_log_returns_drops_zero_adjacent_steps():
    # both the step into the zero and the step out of it are undefined
    r = log_returns([1.0, 0.0, 1.0, 2.0])
    assert np.allclose(r, [np.log(2.0)])


def test_log_returns_too_short():
    with pytest.raises(vi.DegenerateSeriesError):
        log_returns([5.0])


def test_normalization_example():
    # |R| = [0, 2]: mean 1, second moment 2, population variance 1
    r = log_returns([1.0, 1.0, np.exp(2.0)])
    assert np.allclose(normalize_volatility(r), [0.0, 2.0])


def test_constant_series_degenerate():
    with pytest.raises(vi.DegenerateSeriesError):
        volatility([2.0, 2.0, 2.0, 2.0])


def test_geometric_series_degenerate():
    # constant ratio means constant return, zero spread
    x = 3.0 * 1.5 ** np.arange(50)
    with pytest.raises(vi.DegenerateSeriesError):
        volatility(x)


def test_all_zero_volume_degenerate():
    with pytest.raises(vi.DegenerateSeriesError):
        volatility([0.0, 0.0, 0.0, 0.0])


def test_scale_invariance():
    rng = np.random.default_rng(11)
    x = rng.lognormal(0.0, 1.0, 300)
    a = volatility(x)
    b = volatility(7.0 * x)
    assert np.allclose(a, b)


def test_population_normalization_identity():
    rng = np.random.default_rng(12)
    x = rng.lognormal(0.0, 0.7, 5000)
    v = volatility(x)
    # nu = |R| / std(|R|) with the population convention, so the
    # normalized magnitudes have unit population variance
    assert abs((np.mean(v ** 2) - np.mean(v) ** 2) - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 5.0))
def test_scale_invariance_property(seed, factor):
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.0, 1.0, 64)
    a = volatility(x)
    b = volatility(factor * x)
    assert np.allclose(a, b, rtol=1e-10, atol=1e-10)


def test_volatility_nonnegative():
    rng = np.random.default_rng(13)
    v = volatility(rng.lognormal(0.0, 1.0, 200))
    assert np.all(v >= 0)
    assert v.size == 199
