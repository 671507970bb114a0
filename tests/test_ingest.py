import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import volint as vi
from volint.ingest import CSV_HEADER, DailySeries, load_corpus, write_corpus


HEADER = ",".join(CSV_HEADER)


def make_series(ticker="AAA", n=4, volume=None, close=None, shares=None):
    dates = np.datetime64("2001-01-01", "D") + np.arange(n)
    volume = np.asarray(volume if volume is not None else [10] * n, dtype=np.int64)
    close = np.asarray(close if close is not None else [1.0] * n, dtype=np.float64)
    if shares is None:
        shares = [np.nan] * n
    return DailySeries(ticker=ticker, dates=dates, volume=volume,
                       close=close, shares_outstanding=np.asarray(shares, dtype=np.float64))


def write_csv(path, lines):
    path.write_text("\n".join([HEADER] + lines) + "\n")


def test_roundtrip_is_exact(tmp_path):
    corpus, _ = vi.synth_corpus(3, vi.homogeneous_rule(
        "iid", 400, {"dist": "student_t", "df": 3.0}, 7))
    write_corpus(corpus, tmp_path)
    back = load_corpus(tmp_path, min_lifetime=400)
    assert back.tickers == corpus.tickers
    for a, b in zip(corpus, back):
        assert a == b


def test_lifetime_filter_boundary(tmp_path):
    for ticker, n in (("SHORT", 349), ("KEPT", 350)):
        rows = [f"{np.datetime64('2001-01-01') + i},5,1.0," for i in range(n)]
        write_csv(tmp_path / f"{ticker}.csv", rows)
    corpus = load_corpus(tmp_path, min_lifetime=350)
    assert corpus.tickers == ["KEPT"]
    assert corpus.summary.n_accepted == 1
    assert corpus.summary.n_rejected_short == 1
    assert corpus.summary.n_files == 2
    assert corpus.summary.n_accepted + corpus.summary.n_rejected == 2


def test_missing_path_raises():
    with pytest.raises(vi.DataError):
        load_corpus("/no/such/dir")


def test_empty_directory_gives_empty_corpus(tmp_path):
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 0
    assert corpus.summary.n_files == 0


def test_empty_file_rejected_short(tmp_path):
    (tmp_path / "E.csv").write_text("")
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 0
    assert corpus.summary.n_rejected_short == 1


def test_tickers_sorted_regardless_of_write_order(tmp_path):
    for t in ("ZZZ", "MMM", "AAA"):
        write_csv(tmp_path / f"{t}.csv",
                  [f"{np.datetime64('2001-01-01') + i},1,1.0," for i in range(5)])
    corpus = load_corpus(tmp_path, min_lifetime=1)
    assert corpus.tickers == ["AAA", "MMM", "ZZZ"]


def test_bad_header_raises(tmp_path):
    (tmp_path / "B.csv").write_text("date,volume,price\n2001-01-01,1,1.0\n")
    with pytest.raises(vi.DataError, match="bad header"):
        load_corpus(tmp_path, strict=True)


def test_bad_header_rejects_only_that_file_when_lenient(tmp_path):
    write_csv(tmp_path / "A.csv", ["2001-01-01,1,1.0,", "2001-01-02,2,1.0,"])
    (tmp_path / "B.csv").write_text("date,volume,price\n2001-01-01,1,1.0\n")
    corpus = load_corpus(tmp_path, min_lifetime=1)
    assert corpus.tickers == ["A"]
    assert corpus.summary.n_rejected_error == 1
    assert corpus.summary.n_accepted + corpus.summary.n_rejected == 2


def test_unreadable_file_rejected_when_lenient_fatal_when_strict(tmp_path):
    write_csv(tmp_path / "A.csv", ["2001-01-01,1,1.0,"])
    (tmp_path / "U.csv").write_bytes(HEADER.encode() + b"\n\xff\xfe,1,1.0,\n")
    corpus = load_corpus(tmp_path, min_lifetime=1)
    assert corpus.tickers == ["A"]
    assert corpus.summary.n_rejected_error == 1
    with pytest.raises(vi.DataError, match="cannot read"):
        load_corpus(tmp_path, min_lifetime=1, strict=True)


def test_corpus_get_unknown_ticker_raises_key_error(tmp_path):
    write_csv(tmp_path / "A.csv", ["2001-01-01,1,1.0,"])
    corpus = load_corpus(tmp_path, min_lifetime=1)
    assert corpus.get("A").ticker == "A"
    with pytest.raises(KeyError):
        corpus.get("B")


def test_malformed_rows_skipped_and_counted(tmp_path):
    rows = ["2001-01-01,5,1.0,",
            "2001-01-02,-3,1.0,",      # negative volume
            "2001-01-03,5,0.0,",       # nonpositive close
            "not-a-date,5,1.0,",
            "2001-01-04,5,1.0,"]
    write_csv(tmp_path / "M.csv", rows)
    corpus = load_corpus(tmp_path, min_lifetime=1)
    assert corpus.summary.n_rows_skipped == 3
    assert corpus.get("M").lifetime_days == 2


def test_strict_promotes_malformed_row(tmp_path):
    write_csv(tmp_path / "M.csv", ["2001-01-01,5,1.0,", "2001-01-02,x,1.0,"])
    with pytest.raises(vi.DataError, match=r"M\.csv:3"):
        load_corpus(tmp_path, min_lifetime=1, strict=True)


def test_duplicate_dates_keep_first(tmp_path):
    rows = ["2001-01-02,2,1.0,",
            "2001-01-01,1,1.0,",
            "2001-01-02,9,9.0,"]   # later file row, same date: dropped
    write_csv(tmp_path / "D.csv", rows)
    corpus = load_corpus(tmp_path, min_lifetime=1)
    s = corpus.get("D")
    assert corpus.summary.n_duplicate_rows == 1
    assert s.lifetime_days == 2
    assert list(s.volume) == [1, 2]
    assert s.close[1] == 1.0


def test_duplicate_dates_reject_ticker_under_strict(tmp_path):
    write_csv(tmp_path / "D.csv", ["2001-01-01,1,1.0,", "2001-01-01,2,1.0,"])
    corpus = load_corpus(tmp_path, min_lifetime=1, strict=True)
    assert len(corpus) == 0
    assert corpus.summary.n_rejected_error == 1


def test_zero_volume_rows_are_valid(tmp_path):
    write_csv(tmp_path / "Z.csv", ["2001-01-01,0,1.0,", "2001-01-02,3,1.0,"])
    corpus = load_corpus(tmp_path, min_lifetime=1)
    assert list(corpus.get("Z").volume) == [0, 3]


def test_unsorted_input_dates_sorted_on_load(tmp_path):
    write_csv(tmp_path / "U.csv", ["2001-01-03,3,1.0,",
                                   "2001-01-01,1,1.0,",
                                   "2001-01-02,2,1.0,"])
    s = load_corpus(tmp_path, min_lifetime=1).get("U")
    assert list(s.volume) == [1, 2, 3]
    assert np.all(s.dates[1:] > s.dates[:-1])


def test_corpus_rejects_understated_lifetime():
    s = make_series(n=3)
    with pytest.raises(vi.DataError):
        vi.Corpus(stocks=[s], min_lifetime=10)


def test_daily_series_validates_shape():
    with pytest.raises(vi.DataError):
        DailySeries(ticker="X",
                    dates=np.array(["2001-01-01"], dtype="datetime64[D]"),
                    volume=np.array([1, 2], dtype=np.int64),
                    close=np.array([1.0]),
                    shares_outstanding=np.array([np.nan]))


def test_column_maps_series_kind():
    s = make_series(volume=[1, 2, 3, 4], close=[5.0, 6.0, 7.0, 8.0])
    assert s.column("volume") is s.volume
    assert s.column("price") is s.close
    with pytest.raises(vi.ConfigError):
        s.column("close")


@st.composite
def daily_series(draw, ticker):
    days = sorted(draw(st.sets(st.integers(0, 20000), min_size=1, max_size=40)))
    n = len(days)
    shares = draw(st.lists(st.none() | st.integers(1, 2 ** 53),
                           min_size=n, max_size=n))
    return DailySeries(
        ticker=ticker,
        dates=np.datetime64("1970-01-01", "D") + np.array(days),
        volume=np.array(draw(st.lists(st.integers(0, 2 ** 63 - 1),
                                      min_size=n, max_size=n)),
                        dtype=np.int64),
        close=np.array(draw(st.lists(
            st.floats(0, exclude_min=True, allow_infinity=False),
            min_size=n, max_size=n)), dtype=np.float64),
        shares_outstanding=np.array(
            [np.nan if x is None else float(x) for x in shares]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=3,
                unique=True).flatmap(
    lambda ts: st.tuples(*(daily_series(t) for t in ts))))
def test_write_then_load_round_trips_any_valid_series(stocks):
    corpus = vi.Corpus(stocks=list(stocks), min_lifetime=1)
    with tempfile.TemporaryDirectory() as out:
        write_corpus(corpus, out)
        back = load_corpus(out, min_lifetime=1, strict=True)
    assert back.tickers == corpus.tickers
    assert all(a == b for a, b in zip(back, corpus))
    assert back.summary.n_accepted == len(corpus)
