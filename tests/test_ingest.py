import re
import tempfile
import unicodedata
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import volint as vi
import csv_oracle
from csv_oracle import expected_load
from volint import ingest
from volint.ingest import (CSV_HEADER, DailySeries, FileLoad, load_corpus,
                           read_stock, write_corpus)


HEADER = ",".join(CSV_HEADER)


def make_series(ticker="AAA", n=4, volume=None, close=None, shares=None):
    dates = np.datetime64("2001-01-01", "D") + np.arange(n)
    volume = np.asarray(volume if volume is not None else [10] * n, dtype=np.int64)
    close = np.asarray(close if close is not None else [1.0] * n, dtype=np.float64)
    if shares is None:
        shares = [np.nan] * n
    return DailySeries(ticker=ticker, dates=dates, volume=volume,
                       close=close, shares_outstanding=np.asarray(shares, dtype=np.float64))


def stock(corpus, ticker):
    """The one stock of corpus with this ticker."""
    (s,) = [s for s in corpus if s.ticker == ticker]
    return s


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


def test_a_file_is_not_a_corpus(tmp_path):
    write_csv(tmp_path / "T.csv", ["2001-01-02,5,1.0,"])
    for call in (vi.corpus_files, load_corpus):
        with pytest.raises(vi.DataError,
                           match=re.escape(f"not a directory: {tmp_path / 'T.csv'}")):
            call(tmp_path / "T.csv")
    assert load_corpus(tmp_path, min_lifetime=1).tickers == ["T"]


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


def test_ticker_without_control_characters_or_error(tmp_path):
    # checked before the file is opened, so no file needs to exist; the
    # names "." and ".csv" without ".csv" are empty
    control = [c for c in map(chr, range(0x110000))
               if unicodedata.category(c) == "Cc"]
    for path in [tmp_path / f"x{c}y.csv" for c in control] + [
            Path("."), tmp_path / ".csv"]:
        assert read_stock(path, min_lifetime=1) == (None, FileLoad("error"))
        with pytest.raises(vi.DataError, match="no ticker") as err:
            read_stock(path, min_lifetime=1, strict=True)
        assert repr(str(path)) in str(err.value)


def test_ticker_next_to_the_control_characters_is_kept(tmp_path):
    names = ["a b", "a~b", "a\xa0b", "a\u200bb"]      # Zs, Po, Zs, Cf
    for name in names:
        try:
            write_csv(tmp_path / f"{name}.csv", ["2001-01-01,1,1.0,"])
        except OSError as exc:
            pytest.skip(f"the filesystem refuses {name!r}: {exc}")
    assert load_corpus(tmp_path, min_lifetime=1, strict=True).tickers == sorted(names)


def test_malformed_rows_skipped_and_counted(tmp_path):
    rows = ["2001-01-01,5,1.0,",
            "2001-01-02,-3,1.0,",      # negative volume
            "2001-01-03,5,0.0,",       # nonpositive close
            "not-a-date,5,1.0,",
            "2001-01-04,5,1.0,"]
    write_csv(tmp_path / "M.csv", rows)
    corpus = load_corpus(tmp_path, min_lifetime=1)
    assert corpus.summary.n_rows_skipped == 3
    assert stock(corpus, "M").lifetime_days == 2


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
    s = stock(corpus, "D")
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
    assert list(stock(corpus, "Z").volume) == [0, 3]


def test_unsorted_input_dates_sorted_on_load(tmp_path):
    write_csv(tmp_path / "U.csv", ["2001-01-03,3,1.0,",
                                   "2001-01-01,1,1.0,",
                                   "2001-01-02,2,1.0,"])
    s = stock(load_corpus(tmp_path, min_lifetime=1), "U")
    assert list(s.volume) == [1, 2, 3]
    assert np.all(s.dates[1:] > s.dates[:-1])


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
    corpus = vi.Corpus(stocks=list(stocks))
    with tempfile.TemporaryDirectory() as out:
        write_corpus(corpus, out)
        back = load_corpus(out, min_lifetime=1, strict=True)
    assert back.tickers == corpus.tickers
    assert all(a == b for a, b in zip(back, corpus))
    assert back.summary.n_accepted == len(corpus)
    assert back.summary.n_rows_skipped == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    st.lists(st.floats() | st.sampled_from((0.0, -0.0, 1.5)), min_size=n, max_size=n),
    st.lists(st.none() | st.sampled_from((1, 7, 2 ** 53)), min_size=n, max_size=n))))
def test_write_corpus_formats_each_value_as_one_line_at_a_time_would(columns):
    # the reference writes every line with one format call, closes by repr
    close, shares = columns
    s = make_series(n=len(close), volume=range(len(close)), close=close,
                    shares=[np.nan if x is None else x for x in shares])
    lines = ["{},{},{!r},{}".format(d, v, c, "" if x is None else x) for d, v, c, x in
             zip(np.datetime_as_string(s.dates).tolist(), s.volume.tolist(), close, shares)]
    with tempfile.TemporaryDirectory() as out:
        write_corpus(vi.Corpus(stocks=[s]), out)
        data = (Path(out) / "AAA.csv").read_bytes()
    assert data == "\r\n".join([HEADER, *lines, ""]).encode()


def dated(ticker, *dates):
    s = make_series(ticker=ticker, n=len(dates))
    return vi.DailySeries(s.ticker, np.array(dates, dtype="datetime64[D]"),
                          s.volume, s.close, s.shares_outstanding)


@pytest.mark.parametrize("dates", [
    ("-001-06-01", "0001-01-01", "10000-01-01"),
    ("-001-12-31", "0000-01-01"),
    ("9999-12-31", "10000-01-01"),
])
def test_write_corpus_rejects_dates_the_grammar_cannot_write(tmp_path, dates):
    with pytest.raises(vi.DataError, match="^BAD: dates"):
        write_corpus([dated("BAD", *dates)], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_write_corpus_writes_the_first_and_last_four_digit_years(tmp_path):
    s = dated("EDGE", "0000-01-01", "0000-02-29", "9999-12-31")
    write_corpus([s], tmp_path)
    back = load_corpus(tmp_path, min_lifetime=1, strict=True)
    assert back.summary.n_rows_skipped == 0 and stock(back, "EDGE") == s


@pytest.mark.parametrize("strict", [False, True])
def test_volume_overflowing_int64_is_a_malformed_row(tmp_path, strict):
    write_csv(tmp_path / "O.csv", ["2001-01-01,5,1.0,",
                                   f"2001-01-02,{2 ** 63},1.0,",
                                   f"2001-01-03,{2 ** 63 - 1},1.0,"])
    if strict:
        with pytest.raises(vi.DataError, match=r"O\.csv:3: volume"):
            load_corpus(tmp_path, min_lifetime=1, strict=True)
        return
    corpus = load_corpus(tmp_path, min_lifetime=1)
    assert corpus.summary.n_rows_skipped == 1
    assert list(stock(corpus, "O").volume) == [5, 2 ** 63 - 1]


def test_impossible_date_in_a_long_file_is_skipped_not_fatal(tmp_path):
    # numpy can crash when a long bytes array holding an impossible date
    # is cast to datetime64; the loader must never do that
    dates = np.datetime_as_string(np.datetime64("1990-01-01") + np.arange(5000))
    rows = [f"{d},{i},1.5," for i, d in enumerate(dates)]
    rows.insert(2500, "2001-02-30,7,1.5,")
    write_csv(tmp_path / "F.csv", rows)
    corpus = load_corpus(tmp_path, min_lifetime=1)
    assert corpus.summary.n_rows_skipped == 1
    assert stock(corpus, "F").lifetime_days == 5000


# rows outside the grammar, each with the field it breaks; the first nine
# are spellings that Python's int() and float() accept
@pytest.mark.parametrize("row, field", [
    ("2001-01-02,1_000,1.0,", "volume"),
    ("2001-01-02,5,1_0.5,", "close"),
    ("2001-01-02,+5,1.0,", "volume"),
    ("2001-01-02,\u0663,1.0,", "volume"),
    ("2001-01-02,5,1.0,0_7", "shares_outstanding"),
    ("2001-01-02, 7 ,1.0,", "volume"),
    ('"2001-01-02",5,1.0,', "date"),
    (f"2001-01-02,5,1.0,{2 ** 63}", "shares_outstanding"),
    ("2001-01-02,5,1.0,99999999999999999999", "shares_outstanding"),
    ("2001-01-02,5,1.0", "field count"),
    ("2001-02-30,5,1.0,", "date"),
    ("2001-01-02,5,0.0,", "close"),
    ("2001-01-02,5,1.0,0", "shares_outstanding"),
])
def test_row_outside_the_grammar_skipped_when_lenient_named_when_strict(
        tmp_path, row, field):
    lines = [HEADER, "2001-01-01,5,1.0,", row, "2001-01-03,6,1.0,"]
    (tmp_path / "T.csv").write_bytes(("\n".join(lines) + "\n").encode())
    corpus = load_corpus(tmp_path, min_lifetime=1)
    assert corpus.summary.n_rows_skipped == 1
    assert list(stock(corpus, "T").volume) == [5, 6]
    with pytest.raises(vi.DataError, match=rf"T\.csv:3: {field} "):
        load_corpus(tmp_path, min_lifetime=1, strict=True)


def test_strict_names_the_first_bad_file_in_sorted_order(tmp_path):
    write_csv(tmp_path / "A.csv", ["2001-01-01,1,1.0,"])
    write_csv(tmp_path / "Z.csv", ["2001-01-01,x,1.0,"])
    write_csv(tmp_path / "M.csv", ["2001-01-01,1,1.0,", "2001-01-02,1,1.0,0"])
    with pytest.raises(vi.DataError, match=r"M\.csv:3: shares_outstanding "):
        load_corpus(tmp_path, min_lifetime=1, strict=True)


# ---------------------------------------------------------------------------
# load_corpus against the grammar oracle (tests/csv_oracle.py)

# the malformed row shapes the benchmark injects, then other shapes outside
# the grammar, among them the spellings Python's int() and float() accept
MALFORMED = (
    "{d},{v}",
    "{d},{v},{c},{s},9",
    "1990/01/02,{v},{c},{s}",
    "2001-02-30,{v},{c},{s}",
    "{d},-5,{c},{s}",
    "{d},1.5e3,{c},{s}",
    "{d},{v},abc,{s}",
    "{d},{v},0.0,{s}",
    "{d},{v},{c},-3",
)
ODD = (
    "",                                     # blank line
    " {d},{v},{c},{s}",                     # padded fields
    "{d}, {v} ,{c} ,{s}",
    '"{d}",{v},"{c}",{s}',                  # quoted fields
    "# {d},{v},{c},{s}",
    "{d},{v},{c},{s}#",
    "{d},\u0663{v},{c},{s}",                # a non-ASCII digit
    "{d},+{v},{c},{s}",
    "{d},{v},+{c},{s}",
    "{d},{v},{c},+5",
    "{d},9223372036854775808,{c},{s}",      # int64 overflow
    "{d},{v},{c},99999999999999999999",
    "{d},{v},{c},9223372036854775808",
    "{d},1000000000000000000000000000000000000005,{c},{s}",     # 41 digits
    "{d},{v},{c},0000000000000000000000000000000000000000",
    "{d},1_000,{c},{s}",                    # underscores
    "{d},{v},1_0.5,{s}",
    "{d},{v},{c},0_7",
    "{d},{v},1e999,{s}",
    "{d},{v},1e-400,{s}",
    "{d},{v},inf,{s}",
    "{d},{v},nan,{s}",
    "{d},{v},.,{s}",
    "{d},{v},.e1,{s}",
    "{d},{v},1e,{s}",
    "{d},{v},1e+,{s}",
    "{d},{v},1.5.5,{s}",
    "{d},{v},1e5.5,{s}",
    "{d},{v},1.5\r,{s}",                    # a stray carriage return
    "{d},{v},{c},0",
    "1900-02-29,{v},{c},{s}",
    "2001-13-01,{v},{c},{s}",
    "2001-00-10,{v},{c},{s}",
    "2001-01-00,{v},{c},{s}",
    "2001-1-01,{v},{c},{s}",
    "2001+02-27,{v},{c},{s}",
    "2001-02.27,{v},{c},{s}",
    "{d},,{c},{s}",
    "{d},{v},,{s}",
)
# other well-formed spellings
VARIANTS = (
    "{d},{v},.5e1,{s}",
    "{d},{v},5.,{s}",
    "{d},{v},5.e-1,{s}",
    "{d},{v},1E+2,{s}",
    "{d},{v},25e-1,{s}",
    "{d},007,{c},0042",
    "{d},0000000000000000000009223372036854775807,{c},{s}",
    "{d},{v},{c},0000000000000000000009223372036854775807",
    "{d},0,{c},",
    "0000-02-29,{v},{c},{s}",
    "2000-02-29,{v},{c},{s}",
)


VOLUMES = st.integers(0, 2 ** 20) | st.integers(0, 2 ** 63 - 1)
CLOSES = st.floats(0, exclude_min=True, allow_infinity=False).map(repr)
SHARES = st.just("") | st.integers(1, 2 ** 63 - 1).map(str)


@st.composite
def csv_files(draw, regular=False):
    """(bytes of one file, whether every row is valid).

    Each row is written from a template. A malformed or odd shape
    replaces the template of one row; a duplicate repeats a row's date, a
    swap puts two rows out of order and a variant spells one row in
    another valid way. A regular file has none of the first two and no
    stray "\\r" at its end, so that every line holds three commas.
    """
    n = draw(st.integers(1, 30))
    # the rows cycle through a few drawn values of each field and date
    # gap; a draw per row and field took most of the test's time
    gap, v, c, s = (draw(st.lists(values, min_size=1, max_size=4))
                    for values in (st.integers(1, 1000), VOLUMES, CLOSES, SHARES))
    day = draw(st.integers(-5000, 20000)) + np.cumsum([gap[i % len(gap)] for i in range(n)])
    rows = [{"d": np.datetime_as_string(np.datetime64(int(d), "D")),
             "v": v[i % len(v)], "c": c[i % len(c)], "s": s[i % len(s)]}
            for i, d in enumerate(day)]
    templates = ["{d},{v},{c},{s}"] * n
    clean = True
    kinds = ("duplicate", "swap", "variant")
    kinds = kinds if regular else ("malformed", "odd", *kinds)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(kinds))
        clean &= kind not in ("malformed", "odd")
        if kind == "duplicate":
            rows.insert(i + 1, {**rows[i], "v": rows[i]["v"] ^ 1})    # stays in range
            templates.insert(i + 1, templates[i])
        elif kind == "swap":
            j = min(i + 1, len(rows) - 1)
            rows[i], rows[j] = rows[j], rows[i]
            templates[i], templates[j] = templates[j], templates[i]
        else:
            shapes = {"malformed": MALFORMED, "odd": ODD, "variant": VARIANTS}[kind]
            templates[i] = draw(st.sampled_from(shapes))
    end = draw(st.sampled_from(("\n", "\r\n")))
    lines = [t.format(**row) for t, row in zip(templates, rows)]
    # a "\r" with no line end after it stays in the last field
    tail = draw(st.sampled_from((end, "") if regular else (end, "", "\r")))
    clean &= tail != "\r"
    return (end.join([HEADER, *lines]) + tail).encode(), clean


def load_one(directory, strict: bool):
    """load_corpus on a directory holding one file, T.csv, in the form
    csv_oracle.expected_load gives."""
    try:
        corpus = load_corpus(directory, min_lifetime=1, strict=strict)
    except vi.DataError as exc:
        row = re.search(r"T\.csv:(\d+): (field count|\w+) ", str(exc))
        if row:
            return "error", int(row[1]), row[2]
        return "error", re.search("cannot read|bad header", str(exc))[0]
    rows = [list(zip(np.datetime_as_string(s.dates).tolist(), s.volume.tolist(),
                     s.close.tolist(),
                     [None if x != x else x for x in s.shares_outstanding.tolist()]))
            for s in corpus]
    return corpus.summary._asdict(), rows[0] if rows else []


def check_loader_agrees_with_oracle(data):
    """load_corpus gives what the oracle reads from the grammar, lenient
    and strict: summaries, series and the line of the first fault."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "T.csv").write_bytes(data)
        for strict in (False, True):
            assert load_one(tmp, strict) == expected_load(data, strict)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("template", MALFORMED + ODD + VARIANTS)
def test_each_row_shape_parses_alike_on_both_paths(template, end):
    # load_corpus and the oracle; the first and last dates bound every
    # date a template can hold
    row = template.format(d="2001-02-27", v=12, c="1.25", s=7)
    lines = [HEADER, "0000-01-01,1,2.5,", row, "9999-12-31,3,4.5,100"]
    data = (end.join(lines) + end).encode()
    check_loader_agrees_with_oracle(data)
    assert expected_load(data, strict=False)[0]["n_rows_skipped"] == \
        (template not in VARIANTS)


@settings(max_examples=300, deadline=None)
@given(csv_files())
def test_loader_agrees_with_grammar_oracle(file):
    data, clean = file
    check_loader_agrees_with_oracle(data)
    if clean:
        summary, _ = expected_load(data, strict=False)
        assert summary["n_rows_skipped"] == 0


def splits(data):
    """(the regular-line split, None unless every line holds three
    commas, and the split that searches each line end among the commas)
    of a file's bytes."""
    b = np.frombuffer(data, dtype=np.uint8)
    _, starts, ends, stops = ingest._lines(b)
    commas = np.flatnonzero(b == ord(","))
    return (ingest._regular_split(commas, starts, stops),
            ingest._split(commas, ends, stops))


@st.composite
def broken_lines(draw):
    """(a file whose every line holds three commas, the same file with one
    line changed at a drawn place, and the change). A moved comma leaves
    one line and joins another, so the file keeps its number of commas."""
    data, _ = draw(csv_files(regular=True))
    head = data.index(b"\n") + 1
    lines = data[head:].split(b"\n")
    n = len(lines) - (lines[-1] == b"")
    i = draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(("fourth comma", "missing comma", "moved comma",
                                   "carriage return", "no last line end")))
    to = i
    if change == "moved comma":
        assume(n > 1)
        to = draw(st.sampled_from([j for j in range(n) if j != i]))
    if change in ("missing comma", "moved comma"):
        at = draw(st.sampled_from([j for j, c in enumerate(lines[i]) if c == ord(",")]))
        lines[i] = lines[i][:at] + lines[i][at + 1:]
    if change in ("fourth comma", "moved comma"):
        at = draw(st.integers(0, len(lines[to])))
        lines[to] = lines[to][:at] + b"," + lines[to][at:]
    if change == "carriage return":
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + b"\r" + lines[i][at:]
    if change == "no last line end" and lines[-1] == b"":
        lines.pop()
        lines[-1] = lines[-1].removesuffix(b"\r")
    return data, data[:head] + b"\n".join(lines), change


def assert_same_split(regular, general):
    assert regular is not None
    for a, b in zip(regular, general):
        assert a.tolist() == b.tolist()


@settings(max_examples=200, deadline=None)
@given(broken_lines())
def test_regular_files_split_alike_on_both_paths_and_load_as_the_oracle_reads(file):
    data, changed, change = file
    assert_same_split(*splits(data))
    check_loader_agrees_with_oracle(data)
    regular, general = splits(changed)
    if "comma" in change:
        # a line without three commas: the file is no longer regular
        assert regular is None
        assert not general[0].all()
    else:
        assert_same_split(regular, general)
    check_loader_agrees_with_oracle(changed)


def test_long_file_keeps_the_first_of_scattered_duplicate_dates():
    # long enough that an unstable sort would reorder equal dates
    days = np.random.default_rng(0).integers(0, 300, 1000)
    dates = np.datetime_as_string(np.datetime64("2001-01-01") + days)
    lines = [HEADER, *(f"{d},{i},1.0," for i, d in enumerate(dates))]
    check_loader_agrees_with_oracle(("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# line ends found in place and closes read on the exact fast path

@pytest.mark.parametrize("data, summary", [
    # a "\r" ends the header only before "\n"
    (HEADER.encode() + b"\r", {"n_rejected_error": 1}),
    (HEADER.encode() + b"\r\n", {"n_rejected_short": 1}),
    # a "\r" at the end of a file with no final line end stays in the
    # last field, and that row is malformed
    (f"{HEADER}\n2001-01-01,1,1.0,\r".encode(),
     {"n_rejected_short": 1, "n_rows_skipped": 1}),
    (f"{HEADER}\r\n2001-01-02,2,2.0,\r\n2001-01-01,1,1.0,\r".encode(),
     {"n_accepted": 1, "n_rows_skipped": 1}),
    (f"{HEADER}\r\n2001-01-01,1,1.0,7\r".encode(),
     {"n_rejected_short": 1, "n_rows_skipped": 1}),
    (f"{HEADER}\r\n2001-01-01,1,1.0,7\r\r\n".encode(),
     {"n_rejected_short": 1, "n_rows_skipped": 1}),
    (f"{HEADER}\r\n\r\n2001-01-01,1,1.0,7".encode(),
     {"n_accepted": 1, "n_rows_skipped": 1}),
])
def test_carriage_returns_end_a_line_only_before_a_line_feed(data, summary):
    check_loader_agrees_with_oracle(data)
    want = {**dict(n_files=1, n_accepted=0, n_rejected_short=0, n_rejected_error=0,
                   n_rows_skipped=0, n_duplicate_rows=0), **summary}
    assert expected_load(data, strict=False)[0] == want


def decimal_text(m: int, k: int, zeros: int, point: str) -> str:
    """m / 10**k written with k fraction digits after `zeros` leading
    zeros; point "5." keeps a point after a whole number and ".5" drops
    a lone 0 before the point."""
    digits = str(m).rjust(k + 1, "0")
    whole, fraction = "0" * zeros + digits[:len(digits) - k], digits[len(digits) - k:]
    if k == 0:
        return whole + "." if point == "5." else whole
    if point == ".5" and whole.strip("0") == "":
        whole = ""
    return f"{whole}.{fraction}"


DECIMALS = st.builds(
    decimal_text,
    st.integers(1, 2 ** 53 - 1) | st.integers(2 ** 53 - 64, 2 ** 53 + 64)
    | st.integers(1, 10 ** 25) | st.integers(1, 10 ** 4),
    st.integers(0, 24) | st.sampled_from((21, 22, 23)),
    st.integers(0, 3), st.sampled_from(("5.", ".5", "")))
REPRS = (st.floats(0, exclude_min=True, allow_infinity=False)
         | st.floats(1e-3, 1e6) | st.floats(0.01, 1000).map(lambda x: round(x, 2))
         ).map(repr)


def is_fast(text: str) -> bool:
    """Whether Clinger's fast path reads this close: no exponent, a
    significand below 2**53 and at most 22 fraction digits."""
    if "e" in text.lower():
        return False
    whole, _, fraction = text.partition(".")
    return int(whole + fraction) < 2 ** 53 and len(fraction) <= 22


def read_closes(texts, tmp):
    """The close column read_stock gives for a file of these closes, in
    order, and the fields it handed to float."""
    path = Path(tmp) / "C.csv"
    dates = np.datetime_as_string(np.datetime64("2001-01-01") + np.arange(len(texts)))
    write_csv(path, [f"{d},1,{c}," for d, c in zip(dates, texts)])
    sent = []

    def spy(text):
        sent.append(text)
        return float(text)

    with mock.patch.object(ingest, "float", spy, create=True):
        series, load = read_stock(path, min_lifetime=1, strict=True)
    assert load == FileLoad("ok")
    return series.close, sent


@settings(max_examples=200, deadline=None)
@given(st.lists(DECIMALS | REPRS, min_size=1, max_size=40))
def test_closes_equal_float_bit_for_bit_and_only_slow_ones_reach_float(texts):
    with tempfile.TemporaryDirectory() as tmp:
        close, sent = read_closes(texts, tmp)
    want = np.array([float(t) for t in texts])
    assert close.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert sent == [t for t in texts if not is_fast(t)]


@pytest.mark.parametrize("text, fast", [
    ("71.09", True), ("007.50", True), ("5.", True), (".5", True),
    (f"{2 ** 53 - 1}", True), (f"{2 ** 53}", False),
    (f"{2 ** 53 - 1}".rjust(40, "0"), True),
    ("0." + "0" * 21 + "1", True), ("0." + "0" * 22 + "1", False),
    ("9007199.254740991", True), ("9007199.254740992", False),
    ("0.30000000000000004", False), ("1e5", False), ("1.5E-3", False),
    ("1" * 400, False), ("0." + "1" * 400, False), ("1" * 400 + "." + "1" * 400, False),
])
def test_close_fast_path_boundaries(tmp_path, text, fast):
    assert is_fast(text) == fast
    if float(text) == np.inf:
        # valid by its spelling, malformed by its value
        write_csv(tmp_path / "C.csv", [f"2001-01-01,1,{text},"])
        assert load_corpus(tmp_path, min_lifetime=1).summary.n_rows_skipped == 1
        return
    close, sent = read_closes([text], tmp_path)
    assert close.view(np.int64)[0] == np.float64(float(text)).view(np.int64)
    assert sent == ([] if fast else [text])


def test_clean_file_reads_every_close_on_the_fast_path(tmp_path):
    # the shape of the benchmark's files: 8192 rows, "\n" line ends and
    # two-decimal closes
    rng = np.random.default_rng(5)
    n = 8192
    dates = np.datetime_as_string(np.datetime64("1990-01-02") + np.arange(n))
    volume = rng.integers(0, 10 ** 8, n)
    closes = [f"{x:.2f}" for x in rng.uniform(0.01, 500.0, n)]
    shares = rng.integers(1, 10 ** 10, n)
    write_csv(tmp_path / "B.csv", [f"{d},{v},{c},{s}" for d, v, c, s in
                                   zip(dates, volume.tolist(), closes, shares.tolist())])
    with mock.patch.object(ingest, "float", side_effect=AssertionError("slow path"),
                           create=True):
        series, load = read_stock(tmp_path / "B.csv", strict=True)
    assert load == FileLoad("ok") and series.lifetime_days == n
    assert series.close.tolist() == [float(c) for c in closes]
    assert series.volume.tolist() == volume.tolist()
    assert series.shares_outstanding.tolist() == shares.astype(float).tolist()


# ---------------------------------------------------------------------------
# one byte matrix per field kind: the work grows with the bytes of a file,
# not with its rows times the widths of its fields

def rows_file(fields) -> bytes:
    """A file of one row per (volume, close, shares) on consecutive days."""
    dates = np.datetime_as_string(np.datetime64("2001-01-01") + np.arange(len(fields)))
    return "".join([HEADER + "\n", *(f"{d},{v},{c},{s}\n" for d, (v, c, s)
                                      in zip(dates.tolist(), fields))]).encode()


# a thousand rows, each close as wide as its row number and more
WIDTHS_FILE = rows_file([(i, "0" * i + f"{i % 97 + 1}.{i % 13}", "") for i in range(1000)])
MEGA = 10 ** 6
MEGABYTE_FIELDS = [
    ("7", "1" * MEGA, ""),                          # valid spelling, overflows
    ("7", "1." + "0" * MEGA, ""),
    ("7", "0" * MEGA + "1.5", ""),
    ("7", "0" * MEGA, ""),                          # zero
    ("0" * MEGA + "7", "2.5", "0" * MEGA + "42"),
    ("0" * MEGA, "2.5", "0" * MEGA),                # zero shares are malformed
    ("0" * MEGA + "9223372036854775807", "2.5", "0" * MEGA + "9223372036854775808"),
    ("0" * MEGA + "1" + "0" * 19, "2.5", ""),
    ("0" * MEGA + "x7", "2.5", ""),
    ("7", "2.5", "1" + "0" * 4000 + "1"),          # int() of a million digits is slow
]
# closes of widths 24 and 25, bare and after leading zeros: a field is
# read from its last leading zero, and one wider than 24 after that by
# float, which it then must reach
WIDTH_24_25 = [
    "0." + "0" * 21 + "1", "0." + "0" * 22 + "1", "00." + "0" * 21 + "1",
    "0" * 10 + "." + "0" * 13 + "1", ".5" + "0" * 22, ".5" + "0" * 23,
    "1" * 24, "1" * 25, "0" + "1" * 24, "0" * 9 + "1" * 16,
    "9" * 16 + "." + "9" * 7, "0" * 8 + "9" * 15 + "." + "9", "0" * 8 + "9" * 16 + ".",
    "1e" + "0" * 21 + "5", "1e" + "0" * 22 + "5", "0" * 22 + "1e5", "0" * 24 + "1.",
]
# wide fields outside the grammar, or in it with a value that is not
BROKEN_WIDE = ["0" * 30 + "1.5.5", "0" * 30 + "e5", "1" * 30 + "x", "0" * 30 + "1x",
               "+" + "0" * 30 + "1", "0" * 30 + "1e5.5", "." + "1" * 30 + "e",
               "0" * 30 + ".", "0" * 30 + ".e1", "0" * 30 + "-1", "1" * 30 + "e+",
               "0" * 30 + "1e-400", "1" * 30 + "e999", "0" * 30 + "1,5"]


def test_many_close_widths_load_as_the_oracle_reads():
    check_loader_agrees_with_oracle(WIDTHS_FILE)


@pytest.mark.parametrize("fields", MEGABYTE_FIELDS, ids=range(len(MEGABYTE_FIELDS)))
def test_megabyte_fields_load_as_the_oracle_reads(fields):
    check_loader_agrees_with_oracle(rows_file([("1", "2.5", ""), fields, ("3", "4.5", "")]))


# digit fields around the int64 bound, after up to 40 bytes of leading zeros
DIGIT_FIELDS = st.one_of(
    st.text("0123456789", min_size=1, max_size=40),
    st.builds(lambda zeros, x: "0" * zeros + str(x), st.integers(0, 20),
              st.integers(0, 2 ** 64) | st.integers(2 ** 63 - 3, 2 ** 63 + 3)),
).filter(lambda text: len(text) <= 40)


@settings(max_examples=300, deadline=None)
@given(DIGIT_FIELDS, DIGIT_FIELDS)
def test_oracle_reads_digit_fields_as_int_does(volume, shares):
    # the oracle judges a field of over 19 digits after its leading zeros
    # out of range without int(), which would reject over 4300 digits; up
    # to 40 bytes int() can read every field, so the verdicts must agree
    row = csv_oracle.parse_row(f"2001-01-01,{volume},2.5,{shares}")
    if int(volume) > csv_oracle.INT64_MAX:
        assert row == "volume"
    elif not 0 < int(shares) <= csv_oracle.INT64_MAX:
        assert row == "shares_outstanding"
    else:
        assert row == ("2001-01-01", int(volume), 2.5, float(int(shares)))


def test_closes_24_and_25_bytes_wide_load_as_the_oracle_reads(tmp_path):
    check_loader_agrees_with_oracle(rows_file([(1, c, "") for c in WIDTH_24_25]))
    close, sent = read_closes(WIDTH_24_25, tmp_path)
    assert close.tolist() == [float(c) for c in WIDTH_24_25]
    assert sent == [t for t in WIDTH_24_25 if not is_fast(t)]


@pytest.mark.parametrize("close", BROKEN_WIDE)
def test_wide_closes_outside_the_grammar_load_as_the_oracle_reads(close):
    data = rows_file([(1, "2.5", ""), (1, close, ""), (1, "4.5", "")])
    check_loader_agrees_with_oracle(data)
    assert expected_load(data, strict=False)[0]["n_rows_skipped"] == 1


def test_byte_matrices_per_file_do_not_depend_on_field_widths(tmp_path):
    files = {"regular": rows_file([(i, "1.5", 7) for i in range(1000)]),
             "widths": WIDTHS_FILE,
             "wide": rows_file([(1, c, "") for c in WIDTH_24_25 + BROKEN_WIDE]),
             "megabyte": rows_file(MEGABYTE_FIELDS[:5])}
    calls = {}
    for name, data in files.items():
        (tmp_path / f"{name}.csv").write_bytes(data)
        with mock.patch.object(ingest, "_matrix", wraps=ingest._matrix) as spy:
            series, load = read_stock(tmp_path / f"{name}.csv", min_lifetime=1)
        assert load.disposition == "ok"
        calls[name] = spy.call_count
    assert set(calls.values()) == {calls["regular"]}, calls
