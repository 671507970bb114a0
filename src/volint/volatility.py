"""Log returns and normalized volatility.

Both operations are column-agnostic: feed the volume column for volume
volatility or the close column for price volatility. Normalization divides
absolute returns by their standard deviation taken with the population
convention (divide by N), so the output has unit standard deviation by
construction.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSeriesError


def log_returns(x) -> np.ndarray:
    """r[t] = ln(x[t] / x[t-1]) over consecutive defined pairs.

    Steps where either endpoint is zero (or negative, which the CSV schema
    forbids but defensive code tolerates) are undefined for ln and dropped,
    not imputed: x.size - 1 - r.size steps were dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise DegenerateSeriesError(f"need at least 2 points, got {x.size}")
    ok = (x[1:] > 0) & (x[:-1] > 0)
    return np.log(x[1:][ok] / x[:-1][ok])


def normalize_volatility(r) -> np.ndarray:
    """nu(t) = |r(t)| / sqrt(mean(|r|^2) - mean(|r|)^2).

    Moments are taken over the full defined-return series, population
    convention. A series whose absolute returns are all equal has zero
    variance and no meaningful volatility scale; it raises
    DegenerateSeriesError so the caller can exclude and count the stock.
    """
    a = np.abs(np.asarray(r, dtype=np.float64))
    if a.size < 2:
        raise DegenerateSeriesError(f"need at least 2 returns, got {a.size}")
    m = a.mean()
    m2 = np.mean(a * a)
    var = m2 - m * m
    # zero variance up to float cancellation noise
    if not np.isfinite(var) or var <= m2 * 1e-13:
        raise DegenerateSeriesError("absolute returns have zero variance")
    return a / np.sqrt(var)


def volatility(x) -> np.ndarray:
    """Convenience composition: normalize_volatility(log_returns(x))."""
    return normalize_volatility(log_returns(x))
