"""Detrended fluctuation analysis.

The estimator integrates the mean-subtracted series into a profile, splits
the profile into non-overlapping boxes of size n taken once from the start
and once from the end (so the tail remainder is used), removes a
least-squares polynomial per box, and reports the RMS residual F(n). The
exponent alpha is the log-log slope of F(n). alpha = 0.5 marks an
uncorrelated series, larger values persistence; values above 1 indicate
nonstationary scaling and are flagged, not clamped.

Every box of one size shares its design matrix, so the least-squares fit
is one projection: with q an orthonormal basis (from the QR factorization
of the Vandermonde matrix of 0..n-1) of the polynomials of degree <= order,
the residuals of all boxes are boxes - (boxes @ q) @ q.T. The basis is
cached per (n, order); stocks of one length share their windows.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .constants import DEFAULT_ORDER, MAX_ORDER
from .errors import ConfigError, DataError
from .fitting import linregress

DEFAULT_N_WINDOWS = 20
# an order-k fit needs windows of k + 2 points
DEFAULT_MIN_WINDOW = MAX_ORDER + 2


class DfaCurve(NamedTuple):
    """F(n) over window sizes plus the fitted exponent."""

    window_sizes: np.ndarray
    fluctuations: np.ndarray
    alpha: float
    alpha_flagged: bool = False     # alpha > 1, nonstationary scaling


def default_windows(n: int) -> np.ndarray:
    """About DEFAULT_N_WINDOWS geometrically spaced sizes from
    DEFAULT_MIN_WINDOW to n//4, rounded, distinct and sorted."""
    largest = n // 4
    if largest < DEFAULT_MIN_WINDOW:
        raise DataError(
            f"series of length {n} supports windows up to {largest}, "
            f"smaller than the minimum window {DEFAULT_MIN_WINDOW}")
    sizes = np.rint(np.geomspace(DEFAULT_MIN_WINDOW, largest, DEFAULT_N_WINDOWS))
    # not np.unique, which imports numpy.ma in every forked worker
    return np.array(sorted(set(sizes.tolist())), dtype=np.int64)


@functools.lru_cache(maxsize=128)
def _detrend_basis(w: int, order: int) -> np.ndarray:
    """Orthonormal basis, shape (w, order + 1), of the polynomials of
    degree <= order on 0..w-1; read-only, since every box of size w and
    every stock with this window shares the one array."""
    t = np.arange(w, dtype=np.float64)
    q = np.linalg.qr(np.vander(t, order + 1, increasing=True))[0]
    q.flags.writeable = False
    return q


def dfa(series, order: int = DEFAULT_ORDER) -> DfaCurve:
    """Detrended fluctuation analysis of a one-dimensional series.

    The profile is detrended by a polynomial of the given order (1 =
    linear, at most MAX_ORDER) in each box of default_windows(len(series)),
    and alpha is fitted over every window whose F(n) is above the noise
    floor.

    Returns
    -------
    DfaCurve
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError("series must be one-dimensional")
    if not 1 <= order <= MAX_ORDER:
        raise ConfigError(f"order must be from 1 to {MAX_ORDER}, got {order}")
    n = x.size
    windows = default_windows(n)
    n_bad = int(np.count_nonzero(~np.isfinite(x)))
    if n_bad:
        raise DataError(f"series has {n_bad} non-finite values of {n}")

    y = np.cumsum(x - x.mean())
    fluct = np.empty(windows.size, dtype=np.float64)
    for i, w in enumerate(windows):
        w = int(w)
        k = n // w
        segs = np.concatenate([
            y[:k * w].reshape(k, w),
            y[n - k * w:].reshape(k, w),
        ])
        q = _detrend_basis(w, order)
        resid = segs - (segs @ q) @ q.T
        fluct[i] = np.sqrt(np.mean(resid * resid))

    # residuals below numerical noise (exactly detrendable input) carry
    # no slope information; the threshold scales with the profile itself
    floor = 1e-10 * (np.abs(y).max() + np.finfo(np.float64).tiny)
    sel = fluct > floor
    alpha = float("nan")
    if int(sel.sum()) >= 2:
        alpha = linregress(np.log(windows[sel]), np.log(fluct[sel])).slope
    return DfaCurve(window_sizes=windows, fluctuations=fluct, alpha=alpha,
                    alpha_flagged=bool(alpha > 1.0))
