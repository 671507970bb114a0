"""CSV corpus loading and the canonical in-memory data model.

One CSV file per ticker with header ``date,volume,close,shares_outstanding``.
Loading is lossless where possible: zero-volume days are retained (the
volatility step decides their treatment) and a stock is only rejected for
being shorter than ``min_lifetime``, for a bad header or an unreadable
file, or, under strict mode, for containing bad rows. Non-trading
calendar gaps are not special: consecutive records are treated as
successive days.

Each file is first offered to a whole-file parser (_parse_fast) that
accepts only clean files and parses them with a few numpy passes; any
file it does not accept whole goes to the per-row parser (_parse_rows,
_build_series), which decides what is skipped, kept or rejected.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

CSV_HEADER = ("date", "volume", "close", "shares_outstanding")
DEFAULT_MIN_LIFETIME = 350

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_INT64_MAX = 2 ** 63 - 1
_HEADER_LINE = ",".join(CSV_HEADER).encode() + b"\n"
# the bytes a file body may hold on the whole-file path: digits, the two
# separators and the other characters of a decimal float
_FAST_BYTES = b"0123456789,\n.eE+-"


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

    def has_capitalization(self) -> bool:
        return bool(np.any(np.isfinite(self.shares_outstanding)))

    def __eq__(self, other):
        if not isinstance(other, DailySeries):
            return NotImplemented
        return (self.ticker == other.ticker
                and np.array_equal(self.dates, other.dates)
                and np.array_equal(self.volume, other.volume)
                and np.array_equal(self.close, other.close)
                and np.array_equal(self.shares_outstanding,
                                   other.shares_outstanding, equal_nan=True))


@dataclass
class LoadSummary:
    """Bookkeeping for one load_corpus call.

    accepted + rejected == total files encountered.
    """

    n_files: int = 0
    n_accepted: int = 0
    n_rejected_short: int = 0
    n_rejected_error: int = 0
    n_rows_skipped: int = 0
    n_duplicate_rows: int = 0

    @property
    def n_rejected(self) -> int:
        return self.n_rejected_short + self.n_rejected_error

    def as_dict(self) -> dict:
        return {
            "n_files": self.n_files,
            "n_accepted": self.n_accepted,
            "n_rejected_short": self.n_rejected_short,
            "n_rejected_error": self.n_rejected_error,
            "n_rows_skipped": self.n_rows_skipped,
            "n_duplicate_rows": self.n_duplicate_rows,
        }


@dataclass
class Corpus:
    """A ticker-sorted collection of DailySeries passing the lifetime filter."""

    stocks: list[DailySeries]
    min_lifetime: int
    summary: LoadSummary = field(default_factory=LoadSummary)

    def __post_init__(self):
        self.stocks = sorted(self.stocks, key=lambda s: s.ticker)
        for s in self.stocks:
            if s.lifetime_days < self.min_lifetime:
                raise DataError(
                    f"{s.ticker}: lifetime {s.lifetime_days} below corpus minimum "
                    f"{self.min_lifetime}")
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


def _parse_rows(data: bytes, path: Path, strict: bool):
    """Parse one file's bytes row by row. Returns (rows, n_skipped) or
    raises DataError."""
    try:
        with io.TextIOWrapper(io.BytesIO(data), newline="") as text:
            return _parse_reader(csv.reader(text), path, strict)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _parse_reader(reader, path: Path, strict: bool):
    """Header check, then every row of one file; see _parse_rows."""
    try:
        header = next(reader)
    except StopIteration:
        return [], 0
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DataError(f"{path}: bad header {header!r}, expected {','.join(CSV_HEADER)}")
    rows, skipped = [], 0
    for lineno, rec in enumerate(reader, start=2):
        try:
            if len(rec) != 4:
                raise ValueError("wrong field count")
            d, v, c, so = (s.strip() for s in rec)
            if not _DATE_RE.match(d):
                raise ValueError(f"bad date {d!r}")
            date = np.datetime64(d, "D")
            volume = int(v)
            if volume < 0:
                raise ValueError("negative volume")
            if volume > _INT64_MAX:
                raise ValueError("volume does not fit in int64")
            close = float(c)
            if not (close > 0) or not np.isfinite(close):
                raise ValueError("close must be positive")
            shares = float("nan") if so == "" else float(int(so))
            if shares == shares and shares <= 0:
                raise ValueError("shares_outstanding must be positive")
            rows.append((date, volume, close, shares))
        except (ValueError, OverflowError) as exc:
            if strict:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            skipped += 1
    return rows, skipped


def _build_series(ticker: str, rows, strict: bool):
    """Sort rows by date, resolve duplicates. Returns (series | None, n_dups)."""
    dates = np.array([r[0] for r in rows], dtype="datetime64[D]")
    order = np.argsort(dates, kind="stable")
    dates = dates[order]
    dup = np.zeros(len(dates), dtype=bool)
    dup[1:] = dates[1:] == dates[:-1]
    n_dup = int(dup.sum())
    if n_dup and strict:
        return None, n_dup
    keep = order[~dup]
    return DailySeries(
        ticker=ticker,
        dates=dates[~dup],
        volume=np.array([rows[i][1] for i in keep], dtype=np.int64),
        close=np.array([rows[i][2] for i in keep], dtype=np.float64),
        shares_outstanding=np.array([rows[i][3] for i in keep], dtype=np.float64),
    ), n_dup


def _dates(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """datetime64[D] of the ``YYYY-MM-DD`` fields b[start:stop], or None
    if any field is not a real date in that form.

    Digit arithmetic, not a cast of the text: casting a bytes array of a
    thousand or more dates that holds an impossible one (``2001-02-30``)
    to datetime64 can crash numpy.
    """
    if np.any(stop - start != 10) or np.any(b[start + 4] != ord("-")) \
            or np.any(b[start + 7] != ord("-")):
        return None
    parts = [_uints(b, start + i, start + j) for i, j in ((0, 4), (5, 7), (8, 10))]
    if any(p is None for p in parts):
        return None
    year, month, day = (p.astype(np.int64) for p in parts)
    if np.any((month < 1) | (month > 12)):
        return None
    first = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    first_day = first.astype("datetime64[D]")
    month_days = ((first + 1).astype("datetime64[D]") - first_day).astype(np.int64)
    if np.any((day < 1) | (day > month_days)):
        return None
    return first_day + (day - 1)


def _uints(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """uint64 values of the digit-only fields b[start:stop], 0 where a
    field is empty; None if a field holds another byte or more than 19
    digits (19 always fit in uint64)."""
    width = stop - start
    longest = int(width.max())
    if longest > 19:
        return None
    value = np.zeros(len(start), dtype=np.uint64)
    for k in range(longest):
        live = k < width
        digit = b[np.where(live, start + k, 0)] - ord("0")   # uint8: "+-." wrap above 9
        if np.any(live & (digit > 9)):
            return None
        value = np.where(live, value * 10 + digit, value)
    return value


def _parse_fast(ticker: str, data: bytes) -> DailySeries | None:
    """The series of a file whose every row is valid, parsed in whole-file
    numpy passes; None for any file it does not accept whole.

    It accepts the exact header, ``\\n`` or ``\\r\\n`` line ends, three
    commas on every line, ``YYYY-MM-DD`` dates, unsigned decimal integers
    that fit in int64, and strictly increasing dates: no blank line,
    padding, quote, sign on an integer or non-ASCII byte. Such a file
    parses to exactly the series _parse_rows and _build_series give.
    """
    data = data.replace(b"\r\n", b"\n")
    if not data.startswith(_HEADER_LINE):
        return None
    body = data[len(_HEADER_LINE):]
    if not body.endswith(b"\n"):
        body += b"\n"
    if body.translate(None, _FAST_BYTES):        # some other byte is left
        return None
    b = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    commas = np.flatnonzero(b == ord(","))
    if len(commas) != 3 * len(ends):
        return None
    commas = commas.reshape(-1, 3)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if np.any(commas[:, 0] < starts) or np.any(commas[:, 2] > ends):
        return None                 # some line has other than three commas
    dates = _dates(b, starts, commas[:, 0])
    volume = _uints(b, commas[:, 0] + 1, commas[:, 1])
    shares = _uints(b, commas[:, 2] + 1, ends)
    if dates is None or volume is None or shares is None:
        return None
    has_shares = commas[:, 2] + 1 < ends
    big = np.uint64(_INT64_MAX)     # a Python int would compare as float on numpy 1.x
    if np.any(commas[:, 1] == commas[:, 0] + 1) or np.any(volume > big) \
            or np.any(has_shares & ((shares == 0) | (shares > big))) \
            or np.any(dates[1:] <= dates[:-1]):
        return None
    try:
        close = np.loadtxt(io.StringIO(body.decode("ascii")), delimiter=",",
                           comments=None, usecols=2, ndmin=1)
    except ValueError:
        return None
    if not (np.all(close > 0) and np.all(np.isfinite(close))):
        return None
    return DailySeries(
        ticker=ticker, dates=dates, volume=volume.astype(np.int64), close=close,
        shares_outstanding=np.where(has_shares, shares.astype(np.int64), np.nan))


def _read_series(path: Path, strict: bool):
    """One file's (series | None, n_skipped, n_dup).

    The whole-file parser takes the file if it can; otherwise the per-row
    parser does. The series is None for duplicate dates under strict.
    Raises DataError for an unreadable file or a bad header, and under
    strict for a malformed row.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    series = _parse_fast(path.stem, data)
    if series is not None:
        return series, 0, 0
    rows, skipped = _parse_rows(data, path, strict)
    series, n_dup = _build_series(path.stem, rows, strict)
    return series, skipped, n_dup


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
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.csv"))
    elif path.is_file():
        files = [path]
    else:
        raise DataError(f"no such file or directory: {path}")

    summary = LoadSummary(n_files=len(files))
    stocks = []
    for fp in files:
        try:
            series, skipped, n_dup = _read_series(fp, strict)
        except DataError:
            if strict:
                raise
            summary.n_rejected_error += 1
            continue
        summary.n_rows_skipped += skipped
        summary.n_duplicate_rows += n_dup
        if series is None:                      # duplicate dates under strict
            summary.n_rejected_error += 1
        elif series.lifetime_days < max(min_lifetime, 1):   # no row is short
            summary.n_rejected_short += 1
        else:
            stocks.append(series)
            summary.n_accepted += 1
    return Corpus(stocks=stocks, min_lifetime=min_lifetime, summary=summary)


def write_corpus(corpus: Corpus, out_dir) -> None:
    """Write a corpus back to the per-ticker CSV schema (loader inverse).

    Lines end in ``\\r\\n`` and close prices are written with ``repr``, so
    every file read back takes the whole-file parser and gives the same
    arrays.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s in corpus:
        shares = ["" if x != x else int(x) for x in s.shares_outstanding.tolist()]
        lines = map("{},{},{!r},{}".format, np.datetime_as_string(s.dates).tolist(),
                    s.volume.tolist(), s.close.tolist(), shares)
        with open(out / f"{s.ticker}.csv", "w", newline="") as fh:
            fh.write("\r\n".join([",".join(CSV_HEADER), *lines, ""]))
