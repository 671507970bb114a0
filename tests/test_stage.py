import numpy as np
import pytest

import volint as vi


def test_map_stocks_gives_degenerate_stock_no_curve():
    dates = np.datetime64("2001-01-01", "D") + np.arange(400)
    flat = vi.DailySeries(ticker="F", dates=dates,
                          volume=np.full(400, 9, dtype=np.int64),
                          close=np.full(400, 1.0),
                          shares_outstanding=np.full(400, np.nan))
    [r] = vi.map_stocks([flat], qs=(2.0,), order=1)
    assert r.degenerate
    assert r.curve is None and r.by_q == {}


def test_map_stocks_rejects_unknown_series_kind():
    corpus, _ = vi.synth_corpus(1, vi.homogeneous_rule(
        "iid", 600, {"dist": "normal"}, 71))
    with pytest.raises(vi.ConfigError):
        vi.map_stocks(corpus, "prices", order=1)


def test_map_stocks_matches_the_library_steps_in_a_pool():
    corpus, _ = vi.synth_corpus(5, vi.homogeneous_rule(
        "fgn", 1024, {"hurst": 0.8, "vol_scale": 0.4}, 72))
    serial = vi.map_stocks(corpus, seed=3, qs=(2.0,), shuffled_qs=(2.0,),
                           order=1)
    pooled = vi.map_stocks(corpus, seed=3, jobs=2, qs=(2.0,),
                           shuffled_qs=(2.0,), order=1)
    assert [r.ticker for r in serial] == corpus.tickers
    for s, r, p in zip(corpus, serial, pooled):
        v = vi.volatility(s.volume)
        sv = vi.shuffle_control(v, vi.derive_seed(3, s.ticker, "shuffle"))
        np.testing.assert_array_equal(
            r.by_q[2.0].taus, vi.extract_intervals(v, 2.0).taus)
        np.testing.assert_array_equal(
            r.shuffled_by_q[2.0].taus, vi.extract_intervals(sv, 2.0).taus)
        assert r.curve.alpha == vi.dfa(v.values).alpha
        np.testing.assert_array_equal(r.by_q[2.0].taus, p.by_q[2.0].taus)
        np.testing.assert_array_equal(r.shuffled_by_q[2.0].taus,
                                      p.shuffled_by_q[2.0].taus)
        assert r.curve.alpha == p.curve.alpha


def test_map_stocks_starts_at_most_one_worker_per_stock(monkeypatch):
    import concurrent.futures

    pools = []

    class RecordingPool:
        """Records the pool's size and maps in this process."""

        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            pools.append((self.max_workers, chunksize))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    corpus, _ = vi.synth_corpus(2, vi.homogeneous_rule(
        "iid", 600, {"dist": "normal"}, 73))
    serial = vi.map_stocks(corpus, qs=(2.0,))
    for jobs in (2, 4):
        pooled = vi.map_stocks(corpus, jobs=jobs, qs=(2.0,))
        assert [r.by_q[2.0].taus.tolist() for r in pooled] == [
            r.by_q[2.0].taus.tolist() for r in serial]
    assert pools == [(2, 1), (2, 1)]
