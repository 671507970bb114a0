import numpy as np
import pytest

import volint as vi
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
    assert dfa(v.values).alpha > 0.6
    sh = vi.shuffle_control(v, 66)
    assert abs(dfa(sh.values).alpha - 0.5) < 0.05


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
