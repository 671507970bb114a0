import numpy as np
import pytest

import volint as vi
from volint.factors import (FACTORS, FactorVector, bin_stocks, compute_factors,
                            factor_correlations, factor_value, gamma_by_factor,
                            make_edges)


def fv(ticker="T", lifetime=500, cap=1.0e6, vol=1.0e5, tv=2.0e6):
    return FactorVector(ticker=ticker, lifetime=lifetime,
                        mean_capitalization=cap, mean_volume=vol,
                        mean_trading_value=tv)


def intervals_at(corpus, q):
    """ticker -> IntervalSeries at q of every non-degenerate stock."""
    return {r.ticker: r.by_q[q] for r in vi.map_stocks(corpus, qs=(q,))
            if not r.degenerate}


def test_compute_factors_matches_lifetime_averages():
    corpus, _ = vi.synth_corpus(4, vi.homogeneous_rule(
        "iid", 600, {"dist": "normal"}, 71))
    for s, f in zip(corpus, compute_factors(corpus)):
        assert f.ticker == s.ticker
        assert f.lifetime == len(s.dates)
        assert f.mean_volume == np.mean(s.volume.astype(float))
        assert f.mean_trading_value == np.mean(s.close * s.volume)
        assert f.mean_capitalization == np.mean(s.close * s.shares_outstanding)


def test_compute_factors_examples():
    dates = np.datetime64("2001-01-01", "D") + np.arange(2)
    s = vi.DailySeries(ticker="A", dates=dates,
                       volume=np.array([1, 3], dtype=np.int64),
                       close=np.array([2.0, 2.0]),
                       shares_outstanding=np.full(2, np.nan))
    [f] = compute_factors([s])
    assert f.mean_volume == 2.0
    assert f.mean_trading_value == (2.0 * 1 + 2.0 * 3) / 2
    assert f.mean_capitalization is None

    s2 = vi.DailySeries(ticker="B", dates=dates,
                        volume=np.array([1, 1], dtype=np.int64),
                        close=np.array([2.0, 4.0]),
                        shares_outstanding=np.array([np.nan, 5.0]))
    [f2] = compute_factors([s2])
    # capitalization averages only the rows where shares are present
    assert f2.mean_capitalization == 4.0 * 5.0
    assert f2.lifetime == 2


def test_factor_value_undefined_cases():
    f = fv(cap=None, vol=0.0)
    assert factor_value(f, "capitalization") is None
    assert factor_value(f, "volume") is None
    assert factor_value(f, "lifetime") == 500.0
    with pytest.raises(vi.ConfigError):
        factor_value(f, "sector")


def test_make_edges_lifetime_linear_and_covering():
    rows = [fv(ticker=f"T{i}", lifetime=n) for i, n in
            enumerate((400, 700, 1000))]
    edges = make_edges(rows, "lifetime", 3)
    assert np.allclose(edges, np.linspace(400, 1001, 4))
    binning = bin_stocks(rows, "lifetime", edges)
    assert binning.unbinned == ()
    assert sorted(sum(binning.members.values(), [])) == ["T0", "T1", "T2"]


def test_make_edges_size_geometric():
    rows = [fv(ticker=f"T{i}", vol=v) for i, v in
            enumerate((1.0e3, 1.0e5, 1.0e7))]
    edges = make_edges(rows, "volume", 4)
    assert np.allclose(edges[1:] / edges[:-1], edges[1] / edges[0])
    binning = bin_stocks(rows, "volume", edges)
    assert binning.unbinned == ()


def test_bin_boundary_goes_to_upper_bin():
    rows = [fv(ticker="A", lifetime=500), fv(ticker="B", lifetime=600)]
    binning = bin_stocks(rows, "lifetime", np.array([400.0, 600.0, 800.0]))
    assert binning.members[0] == ["A"]
    assert binning.members[1] == ["B"]


def test_binning_partitions_the_corpus():
    rng = np.random.default_rng(72)
    rows = [fv(ticker=f"T{i:03d}", lifetime=int(n),
               cap=None if i % 5 == 0 else 1.0e6)
            for i, n in enumerate(rng.integers(400, 2000, 60))]
    edges = np.array([500.0, 900.0, 1300.0])
    b = bin_stocks(rows, "lifetime", edges)
    n_binned = sum(len(v) for v in b.members.values())
    assert n_binned + len(b.unbinned) == 60
    assert b.undefined == ()
    bc = bin_stocks(rows, "capitalization", np.array([1.0, 1.0e9]))
    assert len(bc.undefined) == 12


def test_correlations_identity_and_constant_close():
    rng = np.random.default_rng(73)
    n = 1000
    vol = np.exp(rng.normal(10.0, 1.0, n))
    rows = [fv(ticker=f"T{i:04d}", lifetime=int(500 + i % 7),
               cap=float(np.exp(rng.normal(12.0, 1.0))),
               vol=float(v), tv=float(2.5 * v)) for i, v in enumerate(vol)]
    rep = factor_correlations(rows)
    assert rep.labels == FACTORS
    assert np.allclose(np.diag(rep.log), 1.0)
    assert np.allclose(rep.log, rep.log.T)
    # constant close: log trading value = const + log volume
    iv, itv = FACTORS.index("volume"), FACTORS.index("trading_value")
    assert rep.log[iv, itv] == pytest.approx(1.0)
    assert rep.n_stocks == n


def test_correlations_recover_planted_coefficient():
    rng = np.random.default_rng(74)
    n = 10_000
    a = rng.normal(0.0, 1.0, n)
    b = 0.7 * a + np.sqrt(1.0 - 0.49) * rng.normal(0.0, 1.0, n)
    rows = [fv(ticker=f"T{i:05d}", lifetime=int(400 + i % 11),
               cap=float(np.exp(a[i])), vol=float(np.exp(b[i])),
               tv=float(np.exp(rng.normal()))) for i in range(n)]
    rep = factor_correlations(rows)
    ic, iv = FACTORS.index("capitalization"), FACTORS.index("volume")
    assert abs(rep.log[ic, iv] - 0.7) < 0.02


def test_correlations_flag_zero_variance():
    rows = [fv(ticker=f"T{i}", vol=5.0e4) for i in range(10)]
    rep = factor_correlations(rows)
    assert "volume" in rep.degenerate
    iv = FACTORS.index("volume")
    assert np.isnan(rep.log[iv, iv])


def test_correlations_need_three_defined_stocks():
    rows = [fv(ticker="A"), fv(ticker="B"), fv(ticker="C", cap=None)]
    with pytest.raises(vi.InsufficientStatisticsError):
        factor_correlations(rows)


def test_gamma_by_factor_homogeneous_bins_agree():
    corpus, _ = vi.synth_corpus(80, vi.homogeneous_rule(
        "fgn", 4096, {"hurst": 0.8, "vol_scale": 0.5, "noise_df": 2.5}, 75))
    fvs = compute_factors(corpus)
    edges = make_edges(fvs, "volume", 2)
    binning = bin_stocks(fvs, "volume", edges)
    bins = gamma_by_factor(binning, intervals_at(corpus, 2.0))
    assert len(bins) == 2
    filled = [b for b in bins if b.gamma is not None]
    assert len(filled) == 2
    # same generator everywhere: bins must agree within fit noise
    spread = abs(filled[0].gamma - filled[1].gamma)
    assert spread < 3.0 * (filled[0].stderr + filled[1].stderr)
    assert sum(b.n_stocks for b in bins) == 80


def test_gamma_by_factor_empty_bin_emitted():
    corpus, _ = vi.synth_corpus(6, vi.homogeneous_rule(
        "fgn", 2048, {"hurst": 0.8, "vol_scale": 0.5, "noise_df": 2.5}, 76))
    fvs = compute_factors(corpus)
    lifetimes = [f.lifetime for f in fvs]
    assert len(set(lifetimes)) == 1
    # second bin cannot contain any stock
    edges = np.array([float(lifetimes[0]), lifetimes[0] + 1.0,
                      lifetimes[0] + 2.0])
    binning = bin_stocks(fvs, "lifetime", edges)
    bins = gamma_by_factor(binning, intervals_at(corpus, 2.0))
    assert len(bins) == 2
    assert bins[0].n_stocks == 6
    assert bins[1].n_stocks == 0
    assert bins[1].gamma is None
