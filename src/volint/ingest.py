"""Reading and writing CSV corpora.

One CSV file per ticker, read under the one row grammar the README
states: the exact header ``date,volume,close,shares_outstanding``,
``\\n`` or ``\\r\\n`` line ends, and four unpadded, unquoted ASCII fields
per line (a real ``YYYY-MM-DD`` date, a volume of digits up to 2**63 - 1,
a finite positive decimal close, and shares_outstanding empty or digits
from 1 to 2**63 - 1). Every line of a file is checked at once, in numpy
passes over its bytes. A file whose every line holds three commas, as
almost every clean file does, takes its field bounds from its commas
three at a time; any other file is split by searching each line end
among its commas. Dates, integers and closes are then each gathered
once, and read eight bytes at a time.

Loading is lossless where possible: zero-volume days are retained (the
volatility step decides their treatment) and a stock is only rejected for
being shorter than ``min_lifetime``, for a bad header, an unreadable
file or a file name that makes no printable ticker, or, under strict
mode, for containing bad rows. Non-trading calendar gaps are not
special: consecutive records are treated as successive days.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path

import numpy as np

from .errors import DataError
from .records import (DEFAULT_MIN_LIFETIME, Corpus, DailySeries, FileLoad,
                      LoadSummary)

CSV_HEADER = ("date", "volume", "close", "shares_outstanding")

_HEADER = ",".join(CSV_HEADER).encode()
# Unicode category Cc; a ticker holding one would break TSV rows and the
# names of per-ticker output files
_CONTROL = frozenset(map(chr, [*range(0x20), *range(0x7F, 0xA0)]))
# what the checks of one line test, in the order they are made
_FIELDS = ("field count", "date", "volume", "close", "shares_outstanding")

# Integer and close fields are read eight bytes at a time (SWAR): the
# bytes before a field's stop, in whole words up to _FIELD_WIDTH bytes,
# which hold the 19 digits of 2**63 - 1 and the 23 bytes of the longest
# repr of a double. A word is read little-endian, its first byte lowest,
# and XOR "0", so that a digit holds its value and every other byte one
# above 9. _KEEP_LAST[k] zeroes all but the last k bytes of a word, and
# _KEEP[size][k] all but the last k of the words of size bytes. numpy 1.x
# computes a uint64 array and a Python int in float64, so every constant
# a uint64 array meets is a uint64.
_WORD, _FIELD_WIDTH = 8, 24
_KEEP_LAST = np.array([(1 << 64) - (1 << 8 * (_WORD - k)) for k in range(_WORD + 1)],
                      dtype=np.uint64)
_KEEP = {size: _KEEP_LAST[np.clip(np.arange(size + 1)[:, None]
                                  - np.arange(size - _WORD, -1, -_WORD), 0, _WORD)]
         for size in range(_WORD, _FIELD_WIDTH + 1, _WORD)}
# a byte in every place: "0", "." XOR "0", 1, the low and the high bit,
# and 118, which carries a byte of 10 to 137 into its high bit
_ZEROS, _POINTS, _ONES, _LOW_BITS, _HIGH_BITS, _TEN_UP = (
    np.uint64(byte * 0x0101010101010101)
    for byte in (ord("0"), ord(".") ^ ord("0"), 1, 0x7F, 0x80, 118))
# the bytes of the digit pairs, quads and octets of a word, and the
# multipliers that join them
_PAIRS, _QUADS, _OCTETS = (np.uint64(m) for m in (
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF))
_TEN, _HUNDRED, _TEN_THOUSAND, _OCTET = (np.uint64(10 ** k) for k in (1, 2, 4, 8))
_U7, _U8, _U16, _U32, _U48, _U56 = (np.uint64(n) for n in (7, 8, 16, 32, 48, 56))
_ONE, _ALL = np.uint64(1), np.uint64(2 ** 64 - 1)
# the largest int64 and exact double significand, and the largest number
# whose next eight digits cannot pass them
_INT64_MAX, _EXACT = np.uint64(2 ** 63 - 1), np.uint64(2 ** 53)
_INT64_HIGH, _EXACT_HIGH = _INT64_MAX // _OCTET, _EXACT // _OCTET
_POW10 = 10.0 ** np.arange(_FIELD_WIDTH)
_LEADING_ZEROS = re.compile(rb"0*")
_CLOSE_TEXT = re.compile(rb"[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?|\.[0-9]+([eE][+-]?[0-9]+)?")
# the dashes of "YY-MM-DD", bytes 2 and 5, XOR "0"
_DASH_BYTES = np.uint64(0xFF * (1 << 16 | 1 << 40))
_DASHES = np.uint64((ord("-") ^ ord("0")) * (1 << 16 | 1 << 40))
# the first and last date a four-digit year can write
_DATE_SPAN = np.array(["0000-01-01", "9999-12-31"], dtype="datetime64[D]")


def _matrix(b: np.ndarray, start: np.ndarray, width: int) -> np.ndarray:
    """The bytes b[start:start + width] of each start as a (len(start),
    width) uint8 matrix, gathered as width-byte strings in one pass."""
    strings = np.ndarray((max(len(b) - width + 1, 0),), dtype=f"S{width}", buffer=b,
                         strides=(1,))
    return strings[start].view(np.uint8).reshape(-1, width)


def _field_words(b: np.ndarray, stop: np.ndarray, width: np.ndarray | int,
                 size: int) -> np.ndarray:
    """The size bytes before each stop, XOR "0", as (n, size // 8) uint64
    words read little-endian, with the bytes before each field (width)
    zeroed: a digit holds its value and every other byte of a field one
    above 9."""
    x = _matrix(b, stop - size, size).view("<u8").astype(np.uint64, copy=False) ^ _ZEROS
    return x & _KEEP[size].take(width, axis=0, mode="clip")


def _digits(x: np.ndarray):
    """(value, high, ok) of words from _field_words: ok where every byte
    is a digit, value the number the bytes spell, and high the number all
    but the last word spell (0 for one word), below 10**16. value is
    exact where high * 10**8 + 10**8 <= 2**64 and means nothing where
    not ok.

    Eight digits at a time: each step joins neighbouring digit groups
    of a word, pairs, then quads, then octets (SWAR).
    """
    # a byte of 10 or more, or with its high bit set, sets a high bit
    ok = (((x + _TEN_UP) | x) & _HIGH_BITS == 0).all(axis=1)
    x = (x * _TEN + (x >> _U8)) & _PAIRS
    x = (x * _HUNDRED + (x >> _U16)) & _QUADS
    x = (x * _TEN_THOUSAND + (x >> _U32)) & _OCTETS
    high = np.zeros(len(x), dtype=np.uint64)
    for octet in x.T[:-1]:
        high = high * _OCTET + octet
    return high * _OCTET + x[:, -1], high, ok


def _words_for(width: np.ndarray) -> int:
    """The bytes, whole words up to _FIELD_WIDTH, that the widest field
    needs."""
    return -(-min(max(int(width.max(initial=1)), 1), _FIELD_WIDTH) // _WORD) * _WORD


def _uints(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(int64 values, ok) of the fields b[start:stop]: ok where a field is
    one or more ASCII digits with a value of at most 2**63 - 1. The values
    mean nothing where a field is not ok.

    The last 24 bytes of a field are read by _digits; the bytes of a
    longer field before those must all be "0".
    """
    width = stop - start
    value, high, ok = _digits(_field_words(b, stop, width, _words_for(width)))
    ok &= (width > 0) & (high <= _INT64_HIGH) & (value <= _INT64_MAX)
    rows = np.flatnonzero(width > _FIELD_WIDTH)
    ok[rows] &= np.array([_LEADING_ZEROS.match(b, i, j).end() == j for i, j in zip(
        start[rows].tolist(), (stop[rows] - _FIELD_WIDTH).tolist())], dtype=bool)
    return value.view(np.int64), ok


@functools.cache
def _calendar():
    """(year_start, leap, day_of_year): the days from 1970-01-01 to
    January 1 of the years 0000 to 9999, whether each is a leap year, and
    at (leap * 14 + month) * 256 + day, for months to 13 and days to 255,
    the day of the year from 0, or -1 where there is no such day. Built
    on first use: a process that reads no date never holds them."""
    year_start = np.arange(-1970, 8031).astype("datetime64[Y]").astype("datetime64[D]") \
        .view(np.int64)
    month_days = (np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])
                  + np.outer([0, 1], np.arange(14) == 2))[:, :, None]
    day = np.arange(256)
    day_of_year = np.where((day >= 1) & (day <= month_days),
                           np.cumsum(month_days, axis=1) - month_days + day - 1, -1)
    tables = year_start, np.diff(year_start) == 366, day_of_year.ravel()
    for table in tables:            # shared by every call
        table.flags.writeable = False
    return tables


def _days(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(days since 1970-01-01 as int64, ok) of the fields b[start:stop]:
    ok where a field is a real date written ``YYYY-MM-DD``.

    A date is read as the two words of _field_words that end with it:
    six zeroed bytes and "YY", then "YY-MM-DD". The days are looked up
    by year and month; the text is never cast: casting a bytes array of a
    thousand or more dates that holds an impossible one (``2001-02-30``)
    to datetime64 can crash numpy.
    """
    ok = stop - start == 10
    words = _field_words(b, np.where(ok, stop, 16), 10, 16)
    century, rest = words[:, 0] >> _U48, words[:, 1]
    ok &= rest & _DASH_BYTES == _DASHES
    rest = rest & ~_DASH_BYTES
    ok &= ((century + _TEN_UP) | century | (rest + _TEN_UP) | rest) & _HIGH_BITS == 0
    # each byte joined with the next: a two-digit number at bytes 0, 3 and 6
    century = (century * _TEN + (century >> _U8)).view(np.int64)
    rest = (rest * _TEN + (rest >> _U8)).view(np.int64)
    year = np.minimum((century & 0xFF) * 100 + (rest & 0xFF), 9999)
    month = np.minimum(rest >> 24 & 0xFF, 13)
    year_start, leap, day_of_year = _calendar()
    day_of_year = day_of_year.take((leap[year] * 14 + month << 8) + (rest >> 48 & 0xFF))
    ok &= day_of_year >= 0
    return year_start[year] + day_of_year, ok


def _closes(b: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(float64 values, ok) of the fields b[start:stop]: ok where a field
    matches the close grammar and its value is finite and positive.

    A field of digits with at most one point, the common case, is read
    by _digits with the point taken out: its significand m, and its
    fraction digits k. Where m < 2**53 and k <= 22, m and p = 10**k are
    exact doubles and m / p is the correctly rounded value (W. D.
    Clinger, "How to read floating point numbers accurately", PLDI 1990).
    A field is read from its last leading zero, which changes nothing.
    Every other field, and one still wider than _FIELD_WIDTH, is checked
    by _CLOSE_TEXT, and the accepted fields not read on the fast path are
    read by float, which the grammar keeps from raising (an overflow
    reads as inf).
    """
    width = stop - start
    wide = np.flatnonzero(width > _FIELD_WIDTH)
    width[wide] = [j - max(_LEADING_ZEROS.match(b, i, j).end() - 1, i)
                   for i, j in zip(start[wide].tolist(), stop[wide].tolist())]
    size = _words_for(width)
    x = _field_words(b, stop, width, size)
    # the point of a field: the byte that XOR "." makes 0, which leaves
    # its high bit in z
    v = x ^ _POINTS
    z = ~(((v & _LOW_BITS) + _LOW_BITS) | v) & _HIGH_BITS
    # the bytes up to the point: in its word, and every word before it
    upto = ((z >> _U7) << _U8) - np.minimum(z, _ONE)
    for i in range(upto.shape[1] - 2, -1, -1):
        upto[:, i] |= (upto[:, i + 1] != 0) * _ALL
    # move one place right, over the point
    moved = x << _U8
    moved[:, 1:] |= x[:, :-1] >> _U56
    # a second point stays, and is not a digit
    significand, high, ok = _digits((moved & upto) | (x & ~upto))
    ok &= width > (upto[:, 0] != 0)             # a digit
    # the fraction digits: the bytes after the point, summed per word
    k = (((~upto & _ONES) * _ONES) >> _U56).sum(axis=1) * (upto[:, 0] != 0)
    value = significand.astype(np.float64) / _POW10.take(k)
    slow = ok & ((high > _EXACT_HIGH) | (significand >= _EXACT) | (k > 22))
    # the rest: by the grammar's regular expression
    rows = np.flatnonzero(~ok & (width > 0) | (width > _FIELD_WIDTH))
    ok[rows] = slow[rows] = [_CLOSE_TEXT.fullmatch(b, i, j) is not None
                             for i, j in zip(start[rows].tolist(), stop[rows].tolist())]
    for i in np.flatnonzero(slow).tolist():
        value[i] = float(b[start[i]:stop[i]].tobytes().decode())
    return value, ok & (value > 0) & np.isfinite(value)


def ticker_of(path) -> str:
    """The ticker a CSV file names: its file name without ``.csv`` (for
    which ``Path.stem`` would keep the name ``.csv`` whole)."""
    return Path(path).name.removesuffix(".csv")


def _lines(b: np.ndarray):
    """(head, starts, ends, stops) of a file's bytes: the end of its
    header line and, for each line after it, where it starts, ends and
    where its last field stops.

    The header ends at the first line end, each line at a line end, the
    last one also at the end of the file; a "\\r" before a line end is
    not part of the last field (nor of the header).
    """
    newlines = np.flatnonzero(b == ord("\n"))
    head = int(newlines[0]) if len(newlines) else len(b)
    ends = newlines[1:]
    stops = ends - (b[ends - 1] == ord("\r"))
    if head + 1 < len(b) and b[-1] != ord("\n"):
        ends, stops = np.append(ends, len(b)), np.append(stops, len(b))
    starts = np.append(head + 1, ends[:-1] + 1)[:len(ends)]
    return head, starts, ends, stops


def _regular_split(commas: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """_split of a file whose every line holds three commas, the common
    case, or None for any other file.

    Such a file has three commas per line after the header's three, and
    then the line's are the next three: they are its own if the first
    is not before its start and the last is before its stop, because
    the lines do not overlap.
    """
    n = len(starts)
    if len(commas) != 3 * n + 3:
        return None
    c0, c1, c2 = commas[3:].reshape(n, 3).T
    if not ((c0 >= starts) & (c2 < stops)).all():
        return None
    return np.ones(n, dtype=bool), c0, c1, c2


def _split(commas: np.ndarray, ends: np.ndarray, stops: np.ndarray):
    """(three, c0, c1, c2): whether each line holds three commas, and its
    three commas, or its stop for each where it does not."""
    before = np.searchsorted(commas, ends)       # commas before each line end
    three = np.diff(before, prepend=3) == 3
    return (three, *(np.where(three, commas.take(before - i, mode="clip"), stops)
                     for i in (3, 2, 1)))


def corpus_files(path) -> list[Path]:
    """The CSV files of a corpus: the sorted ``*.csv`` files of a directory.
    Raises DataError when path is not a directory."""
    path = Path(path)
    if not path.is_dir():
        raise DataError(f"not a directory: {path}")
    return sorted(path.glob("*.csv"))


def read_stock(path, min_lifetime: int = DEFAULT_MIN_LIFETIME,
               strict: bool = False) -> tuple[DailySeries | None, FileLoad]:
    """One CSV file's series, None unless accepted, and its FileLoad.

    Every line after the header is checked against the row grammar at
    once; a line that breaks it is skipped, and the valid rows are sorted
    by date with the first of duplicate dates kept. A file whose ticker
    (ticker_of) is empty or holds a control character, that cannot be
    read or that has a bad header is an "error", and so is one with
    duplicate dates under strict; one left with fewer than min_lifetime
    rows (or none) is "short". Neither builds a series. Under strict, a bad
    ticker, an unreadable file, a bad header or a malformed row raises
    DataError instead.
    """
    path, ticker = Path(path), ticker_of(path)
    try:
        if not ticker or not _CONTROL.isdisjoint(ticker):
            raise DataError(f"{str(path)!r}: the file name gives no ticker or "
                            f"one with a control character")
        try:
            data = path.read_bytes()
            data.decode()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        b = np.frombuffer(data, dtype=np.uint8)
        head, starts, ends, stops = _lines(b)
        header = data[:head]
        if head < len(data) and header.endswith(b"\r"):
            header = header[:-1]
        if data and header != _HEADER:
            raise DataError(f"{path}: bad header {header[:80]!r}, "
                            f"expected {_HEADER.decode()}")
    except DataError:
        if strict:
            raise
        return None, FileLoad("error")
    commas = np.flatnonzero(b == ord(","))       # the header's three first
    three, c0, c1, c2 = (_regular_split(commas, starts, stops)
                         or _split(commas, ends, stops))
    days, date_ok = _days(b, starts, c0)
    volume, volume_ok = _uints(b, c0 + 1, c1)
    shares, shares_ok = _uints(b, c2 + 1, stops)
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
    n_skipped, n_dup = len(valid) - len(rows), 0
    if (np.diff(days[rows]) <= 0).any():
        # sorted by date, stably: the first of duplicate dates is kept
        rows = rows[np.argsort(days[rows], kind="stable")]
        first = np.append(True, np.diff(days[rows]) != 0)
        n_dup = len(rows) - int(np.count_nonzero(first))
        if n_dup and strict:
            return None, FileLoad("error", n_skipped, n_dup)
        rows = rows[first]
    elif not n_skipped:
        rows = slice(None)                      # every line, in order
    if len(valid) - n_skipped - n_dup < max(min_lifetime, 1):
        return None, FileLoad("short", n_skipped, n_dup)
    return DailySeries(
        ticker=ticker, dates=days[rows].view("datetime64[D]"), volume=volume[rows],
        close=close[rows], shares_outstanding=np.where(
            has_shares[rows], shares[rows], np.nan),
    ), FileLoad("ok", n_skipped, n_dup)


def load_corpus(path, min_lifetime: int = DEFAULT_MIN_LIFETIME,
                strict: bool = False) -> Corpus:
    """The Corpus of a directory's ``*.csv`` files (corpus_files): the
    stocks read_stock accepts under min_lifetime and strict, sorted by
    ticker, and the LoadSummary of every file's FileLoad. read_stock
    decides each file's fate, and raises under strict."""
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
