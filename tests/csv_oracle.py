"""A reference reading of one per-ticker CSV file, written straight from the
row grammar in the README ("Input CSV schema"): one regular expression per
field, one line at a time, Python integers and floats. It shares no code
with volint.ingest; tests/test_ingest.py checks load_corpus against it.
"""

import math
import re

HEADER = "date,volume,close,shares_outstanding"
INT64_MAX = 2 ** 63 - 1
DATE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")
DIGITS = re.compile(r"[0-9]+")
CLOSE = re.compile(r"[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?|\.[0-9]+([eE][+-]?[0-9]+)?")


def is_date(text: str) -> bool:
    """A real proleptic Gregorian date written YYYY-MM-DD (year 0000 too)."""
    m = DATE.fullmatch(text)
    if not m:
        return False
    year, month, day = map(int, m.groups())
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    month_days = (31, 29 if leap else 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
    return 1 <= month <= 12 and 1 <= day <= month_days[month - 1]


def uint(text: str):
    """The value of a field of digits, or None when it is above INT64_MAX;
    one with more than 19 digits after its leading zeros is, and is judged
    so before int(), which refuses a string of over 4300 digits."""
    digits = text.lstrip("0") or "0"
    if len(digits) > 19 or int(digits) > INT64_MAX:
        return None
    return int(digits)


def parse_row(line: str):
    """(date, volume, close, shares) of one valid line, shares None when
    empty; for a malformed line, the name of the first field that breaks
    the grammar."""
    fields = line.split(",")
    if len(fields) != 4:
        return "field count"
    date, volume, close, shares = fields
    if not is_date(date):
        return "date"
    volume = uint(volume) if DIGITS.fullmatch(volume) else None
    if volume is None:
        return "volume"
    if not (CLOSE.fullmatch(close) and 0 < float(close) < math.inf):
        return "close"
    if shares:
        shares = uint(shares) if DIGITS.fullmatch(shares) else None
        if not shares:
            return "shares_outstanding"
    return date, volume, float(close), float(shares) if shares else None


def expected_load(data: bytes, strict: bool):
    """What loading a directory that holds only this file, with
    min_lifetime 1, must give.

    Under strict, a fault is ("error", "cannot read"), ("error", "bad
    header") or ("error", lineno, field) for the first malformed line.
    Otherwise (summary as a dict, the stock's rows sorted by date), rows
    empty when the file is rejected.
    """
    summary = dict(n_files=1, n_accepted=0, n_rejected_short=0,
                   n_rejected_error=0, n_rows_skipped=0, n_duplicate_rows=0)
    try:
        lines = re.split("\r?\n", data.decode("utf-8"))
    except UnicodeDecodeError:
        lines = None
    if lines is not None and lines[-1] == "":
        lines.pop()                     # after the last line end, or an empty file
    fault = "cannot read" if lines is None else \
        "bad header" if lines and lines[0] != HEADER else None
    if fault:
        if strict:
            return "error", fault
        summary["n_rejected_error"] = 1
        return summary, []
    rows = {}
    for lineno, line in enumerate(lines[1:], start=2):
        row = parse_row(line)
        if isinstance(row, str):
            if strict:
                return "error", lineno, row
            summary["n_rows_skipped"] += 1
        elif row[0] in rows:
            summary["n_duplicate_rows"] += 1
        else:
            rows[row[0]] = row
    if strict and summary["n_duplicate_rows"]:
        summary["n_rejected_error"] = 1
        return summary, []
    if not rows:
        summary["n_rejected_short"] = 1
        return summary, []
    summary["n_accepted"] = 1
    return summary, sorted(rows.values())
