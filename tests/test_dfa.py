import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import volint as vi
from dfa_reference import reference_dfa
from volint.dfa import default_windows, dfa


def test_white_noise_alpha_half():
    rng = np.random.default_rng(61)
    c = dfa(rng.standard_normal(8192))
    assert abs(c.alpha - 0.5) < 0.05
    assert not c.alpha_flagged


def test_fgn_alpha_tracks_hurst():
    x = vi.generate(vi.GeneratorSpec("fgn", 16384,
                                     {"hurst": 0.8, "vol_scale": 0.0}, 62))
    assert abs(dfa(x).alpha - 0.8) < 0.07


def test_random_walk_increment_vs_profile():
    # feeding an already integrated series doubles the slope and trips
    # the nonstationarity flag
    rng = np.random.default_rng(63)
    walk = np.cumsum(rng.standard_normal(8192))
    c = dfa(walk)
    assert c.alpha > 1.2
    assert c.alpha_flagged


def test_linear_trend_is_annihilated():
    # a pure ramp has zero residual under linear detrending, so every
    # fluctuation is ~0 and no slope is defined
    c = dfa(np.linspace(0.0, 5.0, 4096), integrate=False)
    assert np.all(c.fluctuations < 1e-8)
    assert np.isnan(c.alpha)


def test_quadratic_profile_annihilated_by_order_two():
    t = np.linspace(0.0, 1.0, 4096)
    c1 = dfa(t * t, order=1, integrate=False)
    c2 = dfa(t * t, order=2, integrate=False)
    assert np.all(c2.fluctuations < 1e-10)
    assert c1.fluctuations.max() > 1e-6


def test_fluctuations_grow_with_window():
    rng = np.random.default_rng(64)
    c = dfa(rng.standard_normal(8192))
    f = c.fluctuations
    # noise makes tiny local dips possible, never large ones
    assert np.all(f[1:] > 0.95 * f[:-1])


def test_shuffled_volatility_alpha_half():
    corpus, _ = vi.synth_corpus(1, vi.homogeneous_rule(
        "fgn", 16384, {"hurst": 0.85, "vol_scale": 0.5, "noise_df": 3.0}, 65))
    s = corpus.stocks[0]
    v = vi.volatility(s.volume)
    assert dfa(v).alpha > 0.6
    sh = vi.shuffle_control(v, 66)
    assert abs(dfa(sh).alpha - 0.5) < 0.05


def test_default_windows_shape():
    w = default_windows(8192)
    assert w[0] == 8
    assert w[-1] == 2048
    assert np.all(np.diff(w) > 0)
    with pytest.raises(vi.DataError):
        default_windows(20)


def test_too_short_series_rejected():
    with pytest.raises(vi.DataError, match="length"):
        dfa(np.ones(16))


def test_bad_order_and_windows_rejected():
    rng = np.random.default_rng(67)
    x = rng.standard_normal(1024)
    with pytest.raises(vi.ConfigError):
        dfa(x, order=0)
    with pytest.raises(vi.ConfigError):
        dfa(x, order=3, windows=[4, 8, 16])   # 4 < order + 2
    with pytest.raises(vi.ConfigError, match="integers"):
        dfa(x, windows=[8.7, 16.2, 40])
    with pytest.raises(vi.ConfigError, match="fit range"):
        dfa(x, fit_range=(100, 10))


def test_fit_range_restricts_slope_estimate():
    rng = np.random.default_rng(68)
    x = rng.standard_normal(8192)
    full = dfa(x)
    sub = dfa(x, fit_range=(16, 256))
    assert sub.fit_range == (16, 256)
    assert abs(sub.alpha - 0.5) < 0.07
    assert sub.alpha != full.alpha


def test_alpha_by_factor_flat_for_iid():
    corpus, _ = vi.synth_corpus(40, vi.homogeneous_rule(
        "iid", 2500, {"dist": "student_t", "df": 3.0}, 69))
    fvs = vi.compute_factors(corpus)
    binning = vi.bin_stocks(fvs, "volume", vi.make_edges(fvs, "volume", 4))
    alphas = {r.ticker: r.curve.alpha for r in vi.map_stocks(corpus, order=1)}
    bins = vi.alpha_by_factor(binning, alphas)
    assert len(bins) == 4
    assert sum(b.count for b in bins) == 40
    means = [b.mean_alpha for b in bins if b.count > 0]
    assert max(means) - min(means) < 0.05
    for b in bins:
        if b.count > 0:
            assert abs(b.mean_alpha - 0.5) < 0.05


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_series_rejected(bad):
    x = np.random.default_rng(70).standard_normal(1024)
    x[[3, 500, 1000]] = bad
    with pytest.raises(vi.DataError, match="3 non-finite"):
        dfa(x)


def test_first_dfa_call_imports_no_numpy_module():
    # every pool worker makes a first call; numpy.polynomial (polyfit) and
    # numpy.ma (np.unique under numpy 2) each cost milliseconds to import
    code = ("import sys, numpy as np, volint; "
            "x = np.random.default_rng(0).standard_normal(4096); "
            "before = set(sys.modules); volint.dfa(x, windows=[16, 8, 16, 64]); "
            "volint.dfa(x); "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.startswith('numpy')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "[]"


# the projection against the per-box polyfit it replaced (tests/dfa_reference.py)

@st.composite
def dfa_case(draw):
    """(order, integrate, n, windows or None) over every legal shape,
    down to the smallest window order + 2 and up to n == 4 * max(window)."""
    order = draw(st.integers(1, 3))
    integrate = draw(st.booleans())
    n = draw(st.integers(4 * (order + 2), 5000))
    if n >= 32 and draw(st.booleans()):
        return order, integrate, n, None
    sizes = st.integers(order + 2, n // 4)
    windows = draw(st.lists(sizes, min_size=1, max_size=6))
    windows += draw(st.sampled_from([[], [order + 2], [n // 4],
                                     [order + 2, n // 4]]))
    return order, integrate, n, windows


@settings(max_examples=150, deadline=None)
@given(dfa_case(), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-3, 1e6), st.floats(-1e6, 1e6))
def test_projection_matches_polyfit_reference(case, seed, scale, offset):
    order, integrate, n, windows = case
    x = offset + scale * np.random.default_rng(seed).standard_normal(n)
    got = dfa(x, order=order, windows=windows, integrate=integrate)
    w, f, alpha, _ = reference_dfa(x, order, windows, integrate=integrate)
    assert np.array_equal(got.window_sizes, w)
    np.testing.assert_allclose(got.fluctuations, f, rtol=1e-12, atol=0)
    if np.isnan(alpha):
        assert np.isnan(got.alpha)
    else:
        assert abs(got.alpha - alpha) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(dfa_case(), st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_detrendable_input_agrees_with_reference(case, coefs):
    # input of degree <= order whose profile is a polynomial of degree
    # <= order: every F(n) is rounding noise, which the floor rule drops
    order, integrate, n, windows = case
    degree = order - int(integrate)
    x = np.polynomial.polynomial.polyval(np.arange(n, dtype=np.float64),
                                         coefs[:degree + 1])
    got = dfa(x, order=order, windows=windows, integrate=integrate)
    _, f, alpha, floor = reference_dfa(x, order, windows, integrate=integrate)
    kept, ref_kept = got.fluctuations > floor, f > floor
    if not ref_kept.any():
        assert not kept.any()
        assert np.isnan(got.alpha) and np.isnan(alpha)
    else:
        assert np.array_equal(kept, ref_kept)
