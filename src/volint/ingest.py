"""CSV corpus loading and the canonical in-memory data model.

One CSV file per ticker, read under the one row grammar the README
states: the exact header ``date,volume,close,shares_outstanding``,
``\\n`` or ``\\r\\n`` line ends, and four unpadded, unquoted ASCII fields
per line (a real ``YYYY-MM-DD`` date, a volume of digits up to 2**63 - 1,
a finite positive decimal close, and shares_outstanding empty or digits
from 1 to 2**63 - 1). Every line of a file is checked at once, in numpy
passes over its bytes.

Loading is lossless where possible: zero-volume days are retained (the
volatility step decides their treatment) and a stock is only rejected for
being shorter than ``min_lifetime``, for a bad header, an unreadable
file or a file name that makes no printable ticker, or, under strict
mode, for containing bad rows. Non-trading calendar gaps are not
special: consecutive records are treated as successive days.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

CSV_HEADER = ("date", "volume", "close", "shares_outstanding")
DEFAULT_MIN_LIFETIME = 350

_HEADER = ",".join(CSV_HEADER).encode()
_INT64_MAX = np.uint64(2 ** 63 - 1)     # a Python int would compare as float on numpy 1.x
# Unicode category Cc; a ticker holding one would break TSV rows and the
# names of per-ticker output files
_CONTROL = frozenset(map(chr, [*range(0x20), *range(0x7F, 0xA0)]))
# what the checks of one line test, in the order they are made
_FIELDS = ("field count", "date", "volume", "close", "shares_outstanding")

# the close grammar, [0-9]+(.[0-9]*)?([eE][+-]?[0-9]+)? or
# .[0-9]+([eE][+-]?[0-9]+)?, as a table automaton. Byte classes: 0 digit,
# 1 ".", 2 "e" or "E", 3 sign, 4 other. States: 0 start, 1 digits, 2 digits
# and ".", 3 a leading ".", 4 fraction digits, 5 exponent mark, 6 exponent
# sign, 7 exponent digits, 8 dead. Row s, column k of _CLOSE_STEP: the
# state after a byte of class k in state s.
_BYTE_CLASS = np.full(256, 4, dtype=np.uint8)
_BYTE_CLASS[list(b"0123456789")] = 0
_BYTE_CLASS[list(b".")] = 1
_BYTE_CLASS[list(b"eE")] = 2
_BYTE_CLASS[list(b"+-")] = 3
_CLOSE_EXPONENT = 7
_CLOSE_STEP = np.array([list(map(int, row)) for row in (
    "13888", "12588", "48588", "48888", "48588", "78868", "78888", "78888", "88888")],
    dtype=np.intp)
_CLOSE_ACCEPT = np.isin(np.arange(9), (1, 2, 4, 7))
# The automaton indexed by 257 * state + byte, with the significand m and
# divisor p that each step makes: a digit read into state 1 gives m * 10 +
# digit, one read into state 4 also p * 10. Byte 256 stands for the bytes
# before a field and leaves state, m and p as they were. _CLOSE_NEXT holds
# 257 * state.
_next = np.c_[_CLOSE_STEP[:, _BYTE_CLASS], np.arange(9)]
_significant = np.isin(_next, (1, 4)) & np.append(_BYTE_CLASS == 0, False)
_CLOSE_NEXT = (257 * _next).ravel()
_CLOSE_M_SCALE = np.where(_significant, 10.0, 1.0).ravel()
_CLOSE_M_DIGIT = np.where(_significant, np.arange(257) - ord("0"), 0.0).ravel()
_CLOSE_P_SCALE = np.where(_significant & (_next == 4), 10.0, 1.0).ravel()
del _next, _significant
# the widest close m / p reads exactly, "0." and 22 fraction digits (the
# repr of a positive double is at most 23 bytes), and the grammar for wider
_CLOSE_WIDTH = 24
_CLOSE_TEXT = re.compile(rb"[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?|\.[0-9]+([eE][+-]?[0-9]+)?")
_ZERO = np.uint8(ord("0"))
# a date field less "0000-00-00", bytewise: each byte at most its _DATE_TOP
_DATE_ZERO = np.frombuffer(b"0000-00-00", dtype=np.uint8)
_DATE_TOP = np.array([[9], [9], [9], [9], [0], [9], [9], [0], [9], [9]], dtype=np.uint8)
# the days of months 1 to 12 in a common year, 0 for months 0 and 13+
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0], dtype=np.int32)
# the first and last date a four-digit year can write
_DATE_SPAN = np.array(["0000-01-01", "9999-12-31"], dtype="datetime64[D]")


@dataclass(frozen=True)
class DailySeries:
    """Date-sorted daily records for one ticker.

    shares_outstanding is stored as a float array with NaN marking rows
    where the field was empty; it is None-like (all NaN) when no row had it.
    """

    ticker: str
    dates: np.ndarray                 # datetime64[D], strictly increasing
    volume: np.ndarray                # int64, >= 0
    close: np.ndarray                 # float64, > 0
    shares_outstanding: np.ndarray    # float64, NaN where absent

    def __post_init__(self):
        n = len(self.dates)
        if not (len(self.volume) == len(self.close) == len(self.shares_outstanding) == n):
            raise DataError(f"{self.ticker}: column lengths disagree")
        if n > 1 and not np.all(self.dates[1:] > self.dates[:-1]):
            raise DataError(f"{self.ticker}: dates not strictly increasing")

    @property
    def lifetime_days(self) -> int:
        return len(self.dates)

    def column(self, series_kind: str) -> np.ndarray:
        """The column a series kind is computed from: volume or close."""
        if series_kind == "volume":
            return self.volume
        if series_kind == "price":
            return self.close
        raise ConfigError(f"unknown series kind {series_kind!r}; "
                          "choose volume or price")

    def __eq__(self, other):
        if not isinstance(other, DailySeries):
            return NotImplemented
        return (self.ticker == other.ticker
                and np.array_equal(self.dates, other.dates)
                and np.array_equal(self.volume, other.volume)
                and np.array_equal(self.close, other.close)
                and np.array_equal(self.shares_outstanding,
                                   other.shares_outstanding, equal_nan=True))


@dataclass(frozen=True)
class FileLoad:
    """How one file loaded: disposition "ok" (accepted), "short" (below the
    lifetime filter) or "error" (unreadable, a bad header, or duplicate
    dates under strict), with its skipped and duplicate row counts."""

    disposition: str = "ok"
    n_rows_skipped: int = 0
    n_duplicate_rows: int = 0


@dataclass
class LoadSummary:
    """Bookkeeping for one corpus load.

    accepted + rejected == total files encountered.
    """

    n_files: int = 0
    n_accepted: int = 0
    n_rejected_short: int = 0
    n_rejected_error: int = 0
    n_rows_skipped: int = 0
    n_duplicate_rows: int = 0

    @classmethod
    def of(cls, loads) -> LoadSummary:
        """The summary of the FileLoads of every file encountered."""
        loads = list(loads)
        n = Counter(load.disposition for load in loads)
        return cls(n_files=len(loads), n_accepted=n["ok"],
                   n_rejected_short=n["short"], n_rejected_error=n["error"],
                   n_rows_skipped=sum(x.n_rows_skipped for x in loads),
                   n_duplicate_rows=sum(x.n_duplicate_rows for x in loads))

    @property
    def n_rejected(self) -> int:
        return self.n_rejected_short + self.n_rejected_error

    def as_dict(self) -> dict:
        """dataclasses.asdict of the summary; bench/test_bench.py calls it."""
        return asdict(self)


@dataclass
class Corpus:
    """A ticker-sorted collection of DailySeries."""

    stocks: list[DailySeries]
    summary: LoadSummary = field(default_factory=LoadSummary)

    def __post_init__(self):
        self.stocks = sorted(self.stocks, key=lambda s: s.ticker)

    def __len__(self):
        return len(self.stocks)

    def __iter__(self):
        return iter(self.stocks)

    @property
    def tickers(self) -> list[str]:
        return [s.ticker for s in self.stocks]


def _matrix(b: np.ndarray, start: np.ndarray, width: int) -> np.ndarray:
    """The bytes b[start:start + width] of each start as a (len(start),
    width) uint8 matrix, gathered as width-byte strings in one pass."""
    strings = np.ndarray((max(len(b) - width + 1, 0),), dtype=f"S{width}", buffer=b,
                         strides=(1,))
    return strings[start].view(np.uint8).reshape(-1, width)


def _uints(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(int64 values, ok) of the fields b[start:stop]: ok where a field is
    one or more ASCII digits with a value of at most 2**63 - 1. The values
    mean nothing where a field is not ok.

    At most 19 digits fit a uint64: the last 19 bytes of the fields are
    read right-aligned, one row of a byte matrix per digit place, and
    the bytes of a longer field before those must all be "0".
    """
    width = stop - start
    w = int(np.clip(width.max(initial=1), 1, 19))
    # uint8 arithmetic: the bytes below "0" wrap above 9
    digits = (_matrix(b, stop - w, w) - _ZERO).T.copy()
    digits[np.arange(w)[:, None] < w - width] = 0       # the bytes before a field
    ok = (width > 0) & (digits.max(axis=0) <= 9)
    value = np.zeros(len(start), dtype=np.uint64)
    for place in digits:
        value = value * 10 + place
    ok &= value <= _INT64_MAX
    # a longer field must be padded with "0" before its last 19 bytes
    rows = np.flatnonzero(width > 19)
    ok[rows] &= np.array([not b[i:j].tobytes().strip(b"0") for i, j in
                          zip(start[rows].tolist(), (stop[rows] - 19).tolist())], dtype=bool)
    return value.view(np.int64), ok


def _days(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(days since 1970-01-01 as int64, ok) of the fields b[start:stop]:
    ok where a field is a real date written ``YYYY-MM-DD``.

    Digit arithmetic on one (n, 10) byte matrix, not a cast of the text:
    casting a bytes array of a thousand or more dates that holds an
    impossible one (``2001-02-30``) to datetime64 can crash numpy.
    """
    ok = stop - start == 10
    # one row per byte; uint8 arithmetic: the bytes below "0" or "-" wrap
    # above 9
    d = (_matrix(b, np.where(ok, start, 0), 10) - _DATE_ZERO).T.copy()
    ok &= (d <= _DATE_TOP).all(axis=0)
    d = d.astype(np.int32)
    year = d[0] * 1000 + d[1] * 100 + d[2] * 10 + d[3]
    month = d[5] * 10 + d[6]
    day = d[8] * 10 + d[9]
    # Gregorian: every 4th year, but of the centuries (the multiples of 4
    # that are multiples of 25) only the multiples of 16
    leap = (year & 3 == 0) & ((year - year // 25 * 25 != 0) | (year & 15 == 0))
    ok &= (day >= 1) & (day <= _MONTH_DAYS[np.minimum(month, 13)] + (leap & (month == 2)))
    # H. Hinnant's days_from_civil: counted from March 1, a year ends with
    # its leap day; an era is 400 years of 146097 days
    jan_feb = month <= 2
    year = year - jan_feb
    era = year // 400
    year_of_era = year - era * 400
    day_of_year = (153 * (month + np.where(jan_feb, 9, -3)) + 2) // 5 + day - 1
    days = (era * 146097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100
            + day_of_year - 719468)         # 719468: 0000-03-01 to 1970-01-01
    return days.astype(np.int64), ok


def _closes(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(float64 values, ok) of the fields b[start:stop]: ok where a field
    matches the close grammar and its value is finite and positive.

    The grammar is checked by a table automaton, which also reads the
    decimal significand m and the power of ten p that divides it, on one
    right-aligned byte matrix _CLOSE_WIDTH wide; a wider field is read
    from its last leading zero, and one still wider is checked by
    _CLOSE_TEXT. Where there is no exponent, m < 2**53 and p <= 10**22,
    both are exact doubles and m / p is the correctly rounded value (W.
    D. Clinger, "How to read floating point numbers accurately", PLDI
    1990); only the other accepted fields are read by float, which the
    grammar keeps from raising (an overflow reads as inf).
    """
    width = stop - start
    wide = np.flatnonzero(width > _CLOSE_WIDTH)
    texts = [b[i:j].tobytes() for i, j in zip(start[wide].tolist(), stop[wide].tolist())]
    # leading zeros change nothing after the first
    width[wide] = [min(len(text.lstrip(b"0")) + 1, len(text)) for text in texts]
    w = int(np.clip(width.max(initial=1), 1, _CLOSE_WIDTH))
    # one row per byte place
    byte = _matrix(b, stop - w, w).T.astype(np.intp, order="C")
    byte[np.arange(w)[:, None] < w - width] = 256       # the bytes before a field
    n = len(start)
    state, m, p = np.zeros(n, dtype=np.intp), np.zeros(n), np.ones(n)   # 257 * state
    # m or p may overflow, and m / p be nan, where the slow path reads
    with np.errstate(over="ignore", invalid="ignore"):
        for place in byte:
            at = state + place
            state = _CLOSE_NEXT[at]
            m = m * _CLOSE_M_SCALE[at] + _CLOSE_M_DIGIT[at]
            p *= _CLOSE_P_SCALE[at]
        value = m / p
    state //= 257
    ok = _CLOSE_ACCEPT[state]
    slow = ok & ((state == _CLOSE_EXPONENT) | (m >= 2.0 ** 53) | (p > 1e22))
    # wider still: checked by the grammar's regular expression, read by float
    wider = width[wide] > _CLOSE_WIDTH
    ok[wide[wider]] = slow[wide[wider]] = [
        _CLOSE_TEXT.fullmatch(text) is not None for text, w in zip(texts, wider) if w]
    for i in np.flatnonzero(slow).tolist():
        value[i] = float(b[start[i]:stop[i]].tobytes().decode())
    return value, ok & (value > 0) & np.isfinite(value)


def ticker_of(path) -> str:
    """The ticker a CSV file names: its file name without ``.csv`` (for
    which ``Path.stem`` would keep the name ``.csv`` whole)."""
    return Path(path).name.removesuffix(".csv")


def _read_series(path: Path, strict: bool):
    """One file's (series | None, n_skipped, n_dup).

    Every line after the header is checked against the row grammar at
    once; a line that breaks it is skipped, and the valid rows are sorted
    by date with the first of duplicate dates kept. The series is None
    for duplicate dates under strict. Raises DataError for a ticker
    (ticker_of) that is empty or holds a control character, an unreadable
    file or a bad header, and under strict at the first malformed line.
    """
    ticker = ticker_of(path)
    if not ticker or not _CONTROL.isdisjoint(ticker):
        raise DataError(f"{str(path)!r}: the file name gives no ticker or "
                        f"one with a control character")
    try:
        data = path.read_bytes()
        data.decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    b = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(b == ord("\n"))
    # the header ends at the first line end; a "\r" ends it only before "\n"
    head = int(newlines[0]) if len(newlines) else len(data)
    header = data[:head]
    if head < len(data) and header.endswith(b"\r"):
        header = header[:-1]
    if data and header != _HEADER:
        raise DataError(f"{path}: bad header {header[:80]!r}, "
                        f"expected {_HEADER.decode()}")
    # each line ends at a line end, the last one also at the end of the
    # file; a "\r" before a line end is not part of the last field
    ends = newlines[1:]
    stops = ends - (b[ends - 1] == ord("\r"))
    if head + 1 < len(data) and data[-1:] != b"\n":
        ends, stops = np.append(ends, len(data)), np.append(stops, len(data))
    starts = np.append(head + 1, ends[:-1] + 1)[:len(ends)]
    commas = np.flatnonzero(b == ord(","))       # the header's three first
    before = np.searchsorted(commas, ends)       # commas before each line end
    three = np.diff(before, prepend=3) == 3
    # a line's three commas, or its stop for each where it has not three
    c0, c1, c2 = (np.where(three, commas.take(before - i, mode="clip"), stops)
                  for i in (3, 2, 1))
    days, date_ok = _days(b, starts, c0)
    n = len(ends)
    ints, ints_ok = _uints(b, np.append(c0, c2) + 1, np.append(c1, stops))
    volume, volume_ok, shares, shares_ok = ints[:n], ints_ok[:n], ints[n:], ints_ok[n:]
    close, close_ok = _closes(b, c1 + 1, c2)
    has_shares = c2 + 1 < stops
    checks = (three, date_ok, volume_ok, close_ok,
              ~has_shares | (shares_ok & (shares > 0)))
    valid = np.logical_and.reduce(checks)
    if strict and not valid.all():
        i = int(np.argmin(valid))
        name = next(f for f, ok in zip(_FIELDS, checks) if not ok[i])
        raise DataError(f"{path}:{i + 2}: {name} breaks the row grammar")
    rows = np.flatnonzero(valid)
    rows = rows[np.argsort(days[rows], kind="stable")]
    dup = np.zeros(len(rows), dtype=bool)
    dup[1:] = days[rows[1:]] == days[rows[:-1]]
    n_skipped, n_dup = n - len(rows), int(dup.sum())
    if n_dup and strict:
        return None, n_skipped, n_dup
    rows = rows[~dup]
    return DailySeries(
        ticker=ticker, dates=days[rows].astype("datetime64[D]"), volume=volume[rows],
        close=close[rows], shares_outstanding=np.where(
            has_shares[rows], shares[rows], np.nan),
    ), n_skipped, n_dup


def corpus_files(path) -> list[Path]:
    """The CSV files of a corpus: the sorted ``*.csv`` files of a directory,
    or a single file. Raises DataError when path is neither."""
    path = Path(path)
    if path.is_dir():
        return sorted(path.glob("*.csv"))
    if path.is_file():
        return [path]
    raise DataError(f"no such file or directory: {path}")


def read_stock(path, min_lifetime: int = DEFAULT_MIN_LIFETIME,
               strict: bool = False) -> tuple[DailySeries | None, FileLoad]:
    """One CSV file's series, None unless accepted, and its FileLoad.

    A file whose ticker (ticker_of) is empty or holds a control character,
    that has a bad header or that cannot be read is an "error", and so is
    one with duplicate dates under strict; a series shorter than
    min_lifetime (or empty) is "short". Under strict, a bad ticker, a bad
    header, an unreadable file or a malformed row raises DataError
    instead.
    """
    try:
        series, skipped, n_dup = _read_series(Path(path), strict)
    except DataError:
        if strict:
            raise
        return None, FileLoad("error")
    if series is None:                          # duplicate dates under strict
        return None, FileLoad("error", skipped, n_dup)
    if series.lifetime_days < max(min_lifetime, 1):     # no row is short
        return None, FileLoad("short", skipped, n_dup)
    return series, FileLoad("ok", skipped, n_dup)


def load_corpus(path, min_lifetime: int = DEFAULT_MIN_LIFETIME,
                strict: bool = False) -> Corpus:
    """Load a corpus from a directory of per-ticker CSV files (or one file).

    Parameters
    ----------
    path : str or Path
        Directory containing ``<TICKER>.csv`` files, or a single CSV file.
    min_lifetime : int
        Minimum record count for a stock to enter the corpus.
    strict : bool
        Promote malformed rows, bad headers and unreadable files to fatal
        errors and duplicate dates to per-ticker rejection. Default skips
        and counts malformed rows, rejects a file with a bad header or
        that cannot be read (n_rejected_error) and keeps the first of
        duplicate dates.

    Returns
    -------
    Corpus
        Ticker-sorted stocks with lifetime >= min_lifetime plus a
        LoadSummary accounting for every file encountered.
    """
    read = [read_stock(fp, min_lifetime, strict) for fp in corpus_files(path)]
    return Corpus(stocks=[s for s, _ in read if s is not None],
                  summary=LoadSummary.of(load for _, load in read))


def _texts(column: np.ndarray, form) -> np.ndarray:
    """form(x) for each x of a float column, as an object array; each
    distinct value (bit pattern) is formatted once."""
    bits, inverse = np.unique(np.asarray(column, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    return np.array([form(x) for x in bits.view(np.float64).tolist()],
                    dtype=object)[inverse]


def write_corpus(corpus: Corpus, out_dir) -> None:
    """Write a corpus back to the per-ticker CSV schema (loader inverse).

    Lines end in ``\\r\\n`` and close prices are written with ``repr``, so
    every file reads back, under strict mode too, to the same arrays.
    Each column is formatted once, and a repeated close or
    shares_outstanding value (a synth stock has one of each) only once.
    Raises DataError, before its file is opened, for a stock with a date
    outside the years 0000 to 9999, which the row grammar cannot write.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s in corpus:
        if len(s.dates) and not _DATE_SPAN[0] <= s.dates[0] <= s.dates[-1] <= _DATE_SPAN[1]:
            raise DataError(f"{s.ticker}: dates {s.dates[0]} to {s.dates[-1]} leave "
                            f"the years 0000 to 9999 that the CSV schema writes")
        columns = (np.datetime_as_string(s.dates).tolist(), map(str, s.volume.tolist()),
                   _texts(s.close, repr),
                   _texts(s.shares_outstanding, lambda x: "" if x != x else str(int(x))))
        with open(out / f"{s.ticker}.csv", "w", newline="") as fh:
            fh.write("\r\n".join([",".join(CSV_HEADER), *map(",".join, zip(*columns)), ""]))
