"""CSV corpus loading and the canonical in-memory data model.

One CSV file per ticker with header ``date,volume,close,shares_outstanding``.
Loading is lossless where possible: zero-volume days are retained (the
volatility step decides their treatment) and a stock is only rejected for
being shorter than ``min_lifetime``, for a bad header or an unreadable
file, or, under strict mode, for containing bad rows. Non-trading
calendar gaps are not special: consecutive records are treated as
successive days.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

CSV_HEADER = ("date", "volume", "close", "shares_outstanding")
DEFAULT_MIN_LIFETIME = 350

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


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


def _parse_rows(path: Path, strict: bool):
    """Parse one CSV file. Returns (rows, n_skipped) or raises DataError."""
    try:
        with open(path, newline="") as fh:
            return _parse_reader(csv.reader(fh), path, strict)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
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
            rows, skipped = _parse_rows(fp, strict)
        except DataError:
            if strict:
                raise
            summary.n_rejected_error += 1
            continue
        summary.n_rows_skipped += skipped
        if not rows:
            summary.n_rejected_short += 1
            continue
        series, n_dup = _build_series(fp.stem, rows, strict)
        summary.n_duplicate_rows += n_dup
        if series is None:                      # duplicate dates under strict
            summary.n_rejected_error += 1
            continue
        if series.lifetime_days < min_lifetime:
            summary.n_rejected_short += 1
            continue
        stocks.append(series)
        summary.n_accepted += 1
    return Corpus(stocks=stocks, min_lifetime=min_lifetime, summary=summary)


def write_corpus(corpus: Corpus, out_dir) -> None:
    """Write a corpus back to the per-ticker CSV schema (loader inverse)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s in corpus:
        with open(out / f"{s.ticker}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            for i in range(s.lifetime_days):
                so = s.shares_outstanding[i]
                w.writerow([
                    str(s.dates[i]),
                    int(s.volume[i]),
                    repr(float(s.close[i])),
                    "" if so != so else int(so),
                ])
