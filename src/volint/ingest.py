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

import io
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
_CLOSE_DEAD = 8
_CLOSE_STEP = np.array([list(map(int, row)) for row in (
    "13888", "12588", "48588", "48888", "48588", "78868", "78888", "78888", "88888")],
    dtype=np.uint8)
_CLOSE_ACCEPT = np.isin(np.arange(9), (1, 2, 4, 7))


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
        self._by_ticker = {s.ticker: s for s in self.stocks}

    def __len__(self):
        return len(self.stocks)

    def __iter__(self):
        return iter(self.stocks)

    @property
    def tickers(self) -> list[str]:
        return [s.ticker for s in self.stocks]

    def get(self, ticker: str) -> DailySeries:
        return self._by_ticker[ticker]


def _uints(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(values, ok) of the fields b[start:stop]: ok where a field is one or
    more ASCII digits with a value of at most 2**63 - 1. The uint64 values
    mean nothing where a field is not ok."""
    width = stop - start
    ok = width > 0
    value = np.zeros(len(start), dtype=np.uint64)
    for k in range(int(width.max(initial=0))):
        live = ok & (k < width)
        if not live.any():
            break
        # uint8 arithmetic: the bytes below "0" wrap above 9
        digit = (b[np.where(live, start + k, 0)] - ord("0")).astype(np.uint64)
        ok &= ~live | ((digit <= 9) & (value <= (_INT64_MAX - digit) // 10))
        value = np.where(live & ok, value * 10 + digit, value)
    return value, ok


def _dates(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(datetime64[D] values, ok) of the fields b[start:stop]: ok where a
    field is a real date written ``YYYY-MM-DD``.

    Digit arithmetic, not a cast of the text: casting a bytes array of a
    thousand or more dates that holds an impossible one (``2001-02-30``)
    to datetime64 can crash numpy.
    """
    ok = stop - start == 10
    s = start[ok]
    (year, y_ok), (month, m_ok), (day, d_ok) = (
        _uints(b, s + i, s + j) for i, j in ((0, 4), (5, 7), (8, 10)))
    year, month, day = (p.astype(np.int64) for p in (year, month, day))
    first = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    first_day = first.astype("datetime64[D]")
    month_days = ((first + 1).astype("datetime64[D]") - first_day).astype(np.int64)
    dates = np.zeros(len(start), dtype="datetime64[D]")
    dates[ok] = first_day + (day - 1)
    ok[ok] = (y_ok & m_ok & d_ok & (b[s + 4] == ord("-")) & (b[s + 7] == ord("-"))
              & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days))
    return dates, ok


def _closes(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(float64 values, ok) of the fields b[start:stop], each followed by
    a comma: ok where a field matches the close grammar and its value is
    finite and positive.

    The grammar is checked by a table automaton; only the fields it
    accepts are handed to numpy's text parser.
    """
    width = stop - start
    state = np.zeros(len(start), dtype=np.uint8)
    for k in range(int(width.max(initial=0))):
        live = (k < width) & (state != _CLOSE_DEAD)
        if not live.any():
            break
        cls = _BYTE_CLASS[b[np.where(live, start + k, 0)]]
        state = np.where(live, _CLOSE_STEP[state, cls], state)
    ok = _CLOSE_ACCEPT[state]
    value = np.full(len(start), np.nan)
    if ok.any():
        # the accepted fields, each with the comma after it as a line end
        n = stop[ok] - start[ok] + 1
        end = np.cumsum(n)
        text = b[np.arange(end[-1]) + np.repeat(start[ok] - end + n, n)]
        text[end - 1] = ord("\n")
        value[ok] = np.loadtxt(io.StringIO(text.tobytes().decode()), ndmin=1)
    return value, ok & (value > 0) & np.isfinite(value)


def _read_series(path: Path, strict: bool):
    """One file's (series | None, n_skipped, n_dup).

    Every line after the header is checked against the row grammar at
    once; a line that breaks it is skipped, and the valid rows are sorted
    by date with the first of duplicate dates kept. The series is None
    for duplicate dates under strict. Raises DataError for a file stem
    that is empty or holds a control character (it becomes the ticker),
    an unreadable file or a bad header, and under strict at the first
    malformed line.
    """
    if not path.stem or not _CONTROL.isdisjoint(path.stem):
        raise DataError(f"{str(path)!r}: the file name gives no ticker or "
                        f"one with a control character")
    try:
        data = path.read_bytes()
        data.decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header, _, body = data.replace(b"\r\n", b"\n").partition(b"\n")
    if data and header != _HEADER:
        raise DataError(f"{path}: bad header {header[:80]!r}, "
                        f"expected {_HEADER.decode()}")
    if body and not body.endswith(b"\n"):
        body += b"\n"
    b = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))[:len(ends)]
    commas = np.flatnonzero(b == ord(","))
    line = np.searchsorted(ends, commas)
    three = np.bincount(line, minlength=len(ends)) == 3
    c = np.repeat(ends[:, None], 3, axis=1)     # lines failing the count check
    c[three] = commas[three[line]].reshape(-1, 3)
    dates, date_ok = _dates(b, starts, c[:, 0])
    volume, volume_ok = _uints(b, c[:, 0] + 1, c[:, 1])
    close, close_ok = _closes(b, c[:, 1] + 1, c[:, 2])
    shares, shares_ok = _uints(b, c[:, 2] + 1, ends)
    has_shares = c[:, 2] + 1 < ends
    checks = (three, date_ok, volume_ok, close_ok,
              ~has_shares | (shares_ok & (shares > 0)))
    valid = np.logical_and.reduce(checks)
    if strict and not valid.all():
        i = int(np.argmin(valid))
        name = next(f for f, ok in zip(_FIELDS, checks) if not ok[i])
        raise DataError(f"{path}:{i + 2}: {name} breaks the row grammar")
    rows = np.flatnonzero(valid)
    rows = rows[np.argsort(dates[rows], kind="stable")]
    dup = np.zeros(len(rows), dtype=bool)
    dup[1:] = dates[rows[1:]] == dates[rows[:-1]]
    n_skipped, n_dup = len(ends) - len(rows), int(dup.sum())
    if n_dup and strict:
        return None, n_skipped, n_dup
    rows = rows[~dup]
    return DailySeries(
        ticker=path.stem, dates=dates[rows], volume=volume[rows].astype(np.int64),
        close=close[rows], shares_outstanding=np.where(
            has_shares[rows], shares[rows].astype(np.int64), np.nan),
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

    A file whose stem (the ticker) is empty or holds a control character,
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


def write_corpus(corpus: Corpus, out_dir) -> None:
    """Write a corpus back to the per-ticker CSV schema (loader inverse).

    Lines end in ``\\r\\n`` and close prices are written with ``repr``, so
    every file reads back, under strict mode too, to the same arrays.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s in corpus:
        shares = ["" if x != x else int(x) for x in s.shares_outstanding.tolist()]
        lines = map("{},{},{!r},{}".format, np.datetime_as_string(s.dates).tolist(),
                    s.volume.tolist(), s.close.tolist(), shares)
        with open(out / f"{s.ticker}.csv", "w", newline="") as fh:
            fh.write("\r\n".join([",".join(CSV_HEADER), *lines, ""]))
