import dataclasses

import numpy as np
import pytest

import volint as vi
from volint import cli


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
        assert r.curve.alpha == vi.dfa(v).alpha
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

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

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


# ---------------------------------------------------------------------------
# the worker-side source against the library path: load_corpus or
# synth_corpus in the parent, then map_stocks over the corpus

STAGE = {"qs": (2.0,), "shuffled_qs": (2.5,), "order": 1}


def _plain(x):
    """x with dataclasses as dicts, arrays as bytes and floats as their
    repr, so that == compares every value, NaN included."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    return repr(x) if isinstance(x, float) else x


def _library(corpus, **stage):
    """map_stocks over an in-memory corpus, with compute_factors' vectors."""
    return [dataclasses.replace(r, factors=f) for r, f in zip(
        vi.map_stocks(corpus, seed=5, **stage), vi.compute_factors(corpus))]


def _stage(root, jobs, *flags):
    """The CLI's stage over a CSV tree: (accepted results, LoadSummary)."""
    cfg = cli._configure(cli.build_parser().parse_args(
        ["intervals", "--data-dir", str(root), "--out", str(root / "out"),
         "--seed", "5", "--min-lifetime", "300", "--jobs", str(jobs),
         *flags]))
    results, summary, _ = cli._stage(cfg, factors=True, **STAGE)
    return results, summary


def _dirty_tree(root):
    """Five fgn stocks as CSV plus a bad header, a short file, duplicate
    dates, malformed rows (one in the short file), and tickers whose file
    order is not their sorted order ("A-.csv" sorts before "A.csv", "A"
    before "A-")."""
    corpus, _ = vi.synth_corpus(5, vi.homogeneous_rule(
        "fgn", 600, {"hurst": 0.8, "vol_scale": 0.4}, 74))
    vi.write_corpus(corpus, root)
    names = dict(zip(corpus.tickers, ("A", "A-", "C", "D", "E")))
    for old, new in names.items():
        (root / f"{old}.csv").rename(root / f"{new}.csv")
    with open(root / "C.csv", "a") as fh:       # malformed rows
        fh.write("2001/01/01,5,1.0,\r\n1990-01-05,x,1.0,\r\n")
    with open(root / "D.csv", "a") as fh:       # duplicate dates
        fh.write("1990-01-02,7,1.0,\r\n1990-01-09,8,1.0,\r\n")
    (root / "BAD.csv").write_text("date,vol,close,shares_outstanding\n")
    lines = (root / "E.csv").read_text().splitlines()
    (root / "SHORT.csv").write_text("\n".join(lines[:100] + ["x,1,1,"]) + "\n")


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_reads_csv_like_load_corpus_then_map_stocks(tmp_path, jobs):
    _dirty_tree(tmp_path)
    corpus = vi.load_corpus(tmp_path, min_lifetime=300)
    results, summary = _stage(tmp_path, jobs)
    assert summary == corpus.summary
    assert dataclasses.asdict(summary) == {
        "n_files": 7, "n_accepted": 5, "n_rejected_short": 1,
        "n_rejected_error": 1, "n_rows_skipped": 3, "n_duplicate_rows": 2}
    assert [r.ticker for r in results] == corpus.tickers == [
        "A", "A-", "C", "D", "E"]
    assert [r.load.disposition for r in results] == ["ok"] * 5
    assert [_plain(dataclasses.replace(r, load=None)) for r in results] == [
        _plain(dataclasses.replace(r, load=None))
        for r in _library(corpus, **STAGE)]


def test_strict_names_the_first_bad_file_in_sorted_order(tmp_path, capsys):
    _dirty_tree(tmp_path)
    # a second bad file, before BAD.csv in sorted order
    with open(tmp_path / "A-.csv", "a") as fh:
        fh.write("1999-13-01,5,1.0,\r\n")
    with pytest.raises(vi.DataError) as library:
        vi.load_corpus(tmp_path, min_lifetime=300, strict=True)
    with pytest.raises(vi.DataError) as stage:
        _stage(tmp_path, 2, "--strict")
    assert str(stage.value) == str(library.value)
    assert str(stage.value).startswith(f"{tmp_path / 'A-.csv'}:")
    out = tmp_path / "out"
    assert cli.main(["intervals", "--data-dir", str(tmp_path), "--strict",
                     "--jobs", "2", "--out", str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {stage.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_generates_like_synth_corpus_then_map_stocks(jobs):
    rule = vi.homogeneous_rule("fgn", 700, {"hurst": 0.7, "vol_scale": 0.5,
                                            "noise_df": 3.0}, 75)
    corpus, _ = vi.synth_corpus(4, rule)
    results = vi.map_stocks([(rule(i), i) for i in range(4)], seed=5,
                            jobs=jobs, factors=True, min_lifetime=10 ** 6,
                            **STAGE)
    assert [_plain(r) for r in results] == [
        _plain(r) for r in _library(corpus, **STAGE)]
