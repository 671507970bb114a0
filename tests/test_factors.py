import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import volint as vi
from factor_reference import factor_value, factor_vector, reference_bin
from volint.factors import (FACTORS, MAX_FACTOR, MIN_FACTOR, bin_stocks,
                            factor_correlations, gamma_by_factor, make_edges,
                            stock_factors)


def row(lifetime=500, cap=1.0e6, vol=1.0e5, tv=2.0e6):
    """A factor row; None is undefined (NaN)."""
    return np.array([lifetime, cap, vol, tv], dtype=np.float64)


def column(factor, rows):
    return np.array(rows, dtype=np.float64)[:, FACTORS.index(factor)]


def intervals_at(corpus, q):
    """ticker -> IntervalSeries at q of every non-degenerate stock."""
    return {r.ticker: r.by_q[q] for r in vi.map_stocks(corpus, qs=(q,))
            if not r.degenerate}


def stage_factors(corpus):
    """(tickers, table) of the stage's factor rows, ticker order."""
    results = vi.map_stocks(corpus, factors=True)
    return [r.ticker for r in results], np.array([r.factors for r in results])


def series(volume, close, shares, ticker="A"):
    n = len(volume)
    return vi.DailySeries(ticker=ticker,
                          dates=np.datetime64("2001-01-01", "D") + np.arange(n),
                          volume=np.asarray(volume, dtype=np.int64),
                          close=np.asarray(close, dtype=np.float64),
                          shares_outstanding=np.asarray(shares, dtype=np.float64))


def test_stage_factors_match_lifetime_averages():
    corpus, _ = vi.synth_corpus(4, vi.homogeneous_rule(
        "iid", 600, {"dist": "normal"}, 71))
    tickers, table = stage_factors(corpus)
    assert tickers == corpus.tickers
    for s, f in zip(corpus, table):
        assert f.dtype == np.float64 and f.shape == (len(FACTORS),)
        assert f[0] == len(s.dates)
        assert f[1] == np.mean(s.close * s.shares_outstanding)
        assert f[2] == np.mean(s.volume.astype(float))
        assert f[3] == np.mean(s.close * s.volume)


def test_stock_factors_examples():
    f = stock_factors(series([1, 3], [2.0, 2.0], [np.nan, np.nan]))
    assert f[2] == 2.0
    assert f[3] == (2.0 * 1 + 2.0 * 3) / 2
    assert np.isnan(f[1])

    f2 = stock_factors(series([1, 1], [2.0, 4.0], [np.nan, 5.0], "B"))
    # capitalization averages only the rows where shares are present
    assert f2[1] == 4.0 * 5.0
    assert f2[0] == 2


def test_stock_factors_undefined_cases():
    # no shares and no volume: only lifetime is defined
    f = stock_factors(series([0] * 5, [1.0] * 5, [np.nan] * 5))
    assert f[0] == 5.0 and np.isnan(f[1:]).all()
    # an overflowing mean is undefined, not an inf that binning spreads
    f = stock_factors(series([10 ** 6] * 3, [1e305] * 3, [10 ** 6] * 3))
    assert f[2] == 1e6 and np.isnan(f[[1, 3]]).all()
    # finite, but too large for its nudged bin edges to stay finite
    big = np.finfo(np.float64).max
    f = stock_factors(series([1], [big], [np.nan]))
    assert f[2] == 1.0 and np.isnan(f[3]) and big > MAX_FACTOR
    # positive, but subnormal: too small for increasing geometric edges
    tiny = np.finfo(np.float64).tiny
    f = stock_factors(series([1] * 3, [1e-320] * 3, [1.0] * 3))
    assert f[2] == 1.0 and np.isnan(f[[1, 3]]).all() and 1e-320 < MIN_FACTOR
    f = stock_factors(series([1] * 3, [tiny] * 3, [1.0] * 3))
    assert f[1] == f[3] == tiny == MIN_FACTOR


def test_unknown_factor_is_a_config_error():
    for call in (lambda: make_edges([1.0, 2.0], "sector"),
                 lambda: make_edges([1.0, 2.0], "sector", 3),
                 lambda: bin_stocks(["A"], [1.0], "sector", [0.0, 2.0])):
        with pytest.raises(vi.ConfigError, match="unknown factor"):
            call()


@st.composite
def stocks(draw):
    """A DailySeries with zero-volume days, all-zero volume, shares missing
    on some or all rows, and closes up to the largest double."""
    n = draw(st.integers(1, 12))
    volume = draw(st.one_of(
        st.just([0] * n),
        st.lists(st.one_of(st.just(0), st.integers(1, 2 ** 63 - 1)),
                 min_size=n, max_size=n)))
    close = draw(st.lists(st.one_of(
        st.floats(1e-3, 1e6),
        st.floats(1e300, np.finfo(np.float64).max)), min_size=n, max_size=n))
    shares = draw(st.one_of(
        st.just([np.nan] * n),
        st.lists(st.one_of(st.just(np.nan), st.integers(1, 2 ** 63 - 1)),
                 min_size=n, max_size=n)))
    return series(volume, close, [float(x) for x in shares])


@settings(max_examples=300, deadline=None)
@given(stocks())
def test_stock_factors_row_matches_the_per_factor_rule(s):
    f = stock_factors(s)
    fv = factor_vector(s)
    for value, factor in zip(f, FACTORS):
        want = factor_value(fv, factor)
        if want is not None and want > MAX_FACTOR:
            # the one change: a finite factor too large for its edges
            assert math.isnan(value), factor
        elif want is None:
            assert math.isnan(value), factor
        else:
            assert value == want, factor


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bin_stocks_matches_the_per_stock_loop(data):
    edges = np.cumsum(data.draw(st.lists(
        st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=2, max_size=6)))
    # values on the edges, between them, outside them and undefined
    pool = [*edges, *(edges[:-1] + 0.25), edges[0] - 1.0, edges[-1] + 1.0,
            np.nan]
    values = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=20)))
    tickers = [f"T{i:02d}" for i in range(len(values))]
    got = bin_stocks(tickers, values, "volume", edges)
    want = reference_bin(tickers, values, "volume", edges)
    assert got.members == want.members
    assert got.unbinned == want.unbinned
    assert got.undefined == want.undefined


def test_make_edges_lifetime_linear_and_covering():
    values = np.array([400.0, 700.0, 1000.0])
    edges = make_edges(values, "lifetime", 3)
    assert np.allclose(edges, np.linspace(400, 1001, 4))
    binning = bin_stocks(["T0", "T1", "T2"], values, "lifetime", edges)
    assert binning.unbinned == ()
    assert sorted(sum(binning.members.values(), [])) == ["T0", "T1", "T2"]


def test_make_edges_size_geometric():
    values = np.array([1.0e3, np.nan, 1.0e5, 1.0e7])
    edges = make_edges(values, "volume", 4)
    assert np.allclose(edges[1:] / edges[:-1], edges[1] / edges[0])
    assert edges[0] == 1.0e3
    binning = bin_stocks(["T0", "T1", "T2", "T3"], values, "volume", edges)
    assert binning.unbinned == ()
    assert binning.undefined == ("T1",)
    with pytest.raises(vi.InsufficientStatisticsError):
        make_edges([np.nan, np.nan], "volume")


@pytest.mark.parametrize("factor", FACTORS[1:])
@pytest.mark.parametrize("value", [np.finfo(np.float64).tiny, 1.0, 3.7e5, MAX_FACTOR])
def test_make_edges_size_factor_every_stock_equal(factor, value):
    # no range: the top is nudged above the one value, so it is binned
    edges = make_edges([value] * 3, factor)
    assert edges.size == vi.DEFAULT_BIN_COUNTS[factor] + 1
    assert np.isfinite(edges).all() and (np.diff(edges) > 0).all()
    assert edges[0] == value
    binning = bin_stocks(["A", "B", "C"], [value] * 3, factor, edges)
    assert binning.unbinned == () and binning.undefined == ()
    assert binning.members == {0: ["A", "B", "C"]}


def test_bin_boundary_goes_to_upper_bin():
    binning = bin_stocks(["A", "B"], [500.0, 600.0], "lifetime",
                         np.array([400.0, 600.0, 800.0]))
    assert binning.members[0] == ["A"]
    assert binning.members[1] == ["B"]


@pytest.mark.parametrize("edges", [[400.0, np.nan, 700.0],
                                   [np.nan, 500.0], [400.0, 400.0],
                                   [400.0]])
def test_bin_stocks_rejects_edges_not_strictly_increasing(edges):
    with pytest.raises(vi.ConfigError, match="strictly increasing"):
        bin_stocks(["A", "B"], [450.0, 650.0], "lifetime", edges)


def test_binning_partitions_the_corpus():
    rng = np.random.default_rng(72)
    rows = [row(lifetime=int(n), cap=np.nan if i % 5 == 0 else 1.0e6)
            for i, n in enumerate(rng.integers(400, 2000, 60))]
    tickers = [f"T{i:03d}" for i in range(60)]
    edges = np.array([500.0, 900.0, 1300.0])
    b = bin_stocks(tickers, column("lifetime", rows), "lifetime", edges)
    n_binned = sum(len(v) for v in b.members.values())
    assert n_binned + len(b.unbinned) == 60
    assert b.undefined == ()
    bc = bin_stocks(tickers, column("capitalization", rows), "capitalization",
                    np.array([1.0, 1.0e9]))
    assert len(bc.undefined) == 12


def test_correlations_identity_and_constant_close():
    rng = np.random.default_rng(73)
    n = 1000
    vol = np.exp(rng.normal(10.0, 1.0, n))
    rows = [row(lifetime=int(500 + i % 7),
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
    rows = [row(lifetime=int(400 + i % 11),
                cap=float(np.exp(a[i])), vol=float(np.exp(b[i])),
                tv=float(np.exp(rng.normal()))) for i in range(n)]
    rep = factor_correlations(rows)
    ic, iv = FACTORS.index("capitalization"), FACTORS.index("volume")
    assert abs(rep.log[ic, iv] - 0.7) < 0.02


def test_correlations_flag_zero_variance():
    rows = [row(vol=5.0e4) for _ in range(10)]
    rep = factor_correlations(rows)
    assert "volume" in rep.degenerate
    iv = FACTORS.index("volume")
    assert np.isnan(rep.log[iv, iv])


def test_correlations_need_three_defined_stocks():
    rows = [row(), row(), row(cap=None)]
    with pytest.raises(vi.InsufficientStatisticsError):
        factor_correlations(rows)


def test_gamma_by_factor_homogeneous_bins_agree():
    corpus, _ = vi.synth_corpus(80, vi.homogeneous_rule(
        "fgn", 4096, {"hurst": 0.8, "vol_scale": 0.5, "noise_df": 2.5}, 75))
    tickers, table = stage_factors(corpus)
    volume = column("volume", table)
    binning = bin_stocks(tickers, volume, "volume", make_edges(volume, "volume", 2))
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
    tickers, table = stage_factors(corpus)
    lifetimes = column("lifetime", table)
    assert len(set(lifetimes)) == 1
    # second bin cannot contain any stock
    edges = np.array([float(lifetimes[0]), lifetimes[0] + 1.0,
                      lifetimes[0] + 2.0])
    binning = bin_stocks(tickers, lifetimes, "lifetime", edges)
    bins = gamma_by_factor(binning, intervals_at(corpus, 2.0))
    assert len(bins) == 2
    assert bins[0].n_stocks == 6
    assert bins[1].n_stocks == 0
    assert bins[1].gamma is None
