"""A stock's daily series, how its file loaded, a corpus and its load
summary: named tuples and plain classes, not dataclasses, whose generated
code every cold run would compile."""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_MIN_LIFETIME = 350


class Frozen:
    """A record of __slots__ that __init__ sets once, in order: assigning
    or deleting a field raises AttributeError, and a pickle or a copy
    builds the record anew from its fields."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a "
                             f"frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


class DailySeries(Frozen):
    """Date-sorted daily records for one ticker.

    shares_outstanding is stored as a float array with NaN marking rows
    where the field was empty; it is None-like (all NaN) when no row had it.
    """

    # dates: datetime64[D], strictly increasing; volume: int64, >= 0;
    # close: float64, > 0; shares_outstanding: float64, NaN where absent
    __slots__ = ("ticker", "dates", "volume", "close", "shares_outstanding")

    def __init__(self, ticker, dates, volume, close, shares_outstanding):
        super().__init__(ticker, dates, volume, close, shares_outstanding)
        n = len(dates)
        if not (len(volume) == len(close) == len(shares_outstanding) == n):
            raise DataError(f"{ticker}: column lengths disagree")
        if n > 1 and not np.all(dates[1:] > dates[:-1]):
            raise DataError(f"{ticker}: dates not strictly increasing")

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


class FileLoad(NamedTuple):
    """How one file loaded: disposition "ok" (accepted), "short" (below the
    lifetime filter) or "error" (unreadable, a bad header, or duplicate
    dates under strict), with its skipped and duplicate row counts."""

    disposition: str = "ok"
    n_rows_skipped: int = 0
    n_duplicate_rows: int = 0


class LoadSummary(NamedTuple):
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
        """The summary's fields by name; bench/test_bench.py calls it."""
        return self._asdict()


class Corpus:
    """A ticker-sorted collection of DailySeries."""

    __slots__ = ("stocks", "summary")

    def __init__(self, stocks: list[DailySeries],
                 summary: LoadSummary = LoadSummary()):
        self.stocks = sorted(stocks, key=lambda s: s.ticker)
        self.summary = summary

    def __len__(self):
        return len(self.stocks)

    def __iter__(self):
        return iter(self.stocks)

    @property
    def tickers(self) -> list[str]:
        return [s.ticker for s in self.stocks]
