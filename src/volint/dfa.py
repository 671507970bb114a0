"""Detrended fluctuation analysis.

The estimator integrates the mean-subtracted series into a profile, splits
the profile into non-overlapping boxes of size n taken once from the start
and once from the end (so the tail remainder is used), removes a
least-squares polynomial per box, and reports the RMS residual F(n). The
exponent alpha is the log-log slope of F(n). alpha = 0.5 marks an
uncorrelated series, larger values persistence; values above 1 indicate
nonstationary scaling and are flagged, not clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .fitting import linregress

DEFAULT_ORDER = 1
DEFAULT_N_WINDOWS = 20
DEFAULT_MIN_WINDOW = 8


@dataclass(frozen=True)
class DfaCurve:
    """F(n) over window sizes plus the fitted exponent."""

    window_sizes: np.ndarray
    fluctuations: np.ndarray
    alpha: float
    fit_range: tuple[int, int]
    stderr: float
    alpha_flagged: bool = False     # alpha > 1, nonstationary scaling


def default_windows(n: int, n_windows: int = DEFAULT_N_WINDOWS,
                    smallest: int = DEFAULT_MIN_WINDOW) -> np.ndarray:
    """About n_windows geometrically spaced sizes from smallest to n//4."""
    largest = n // 4
    if largest < smallest:
        raise DataError(
            f"series of length {n} supports windows up to {largest}, "
            f"smaller than the minimum window {smallest}")
    sizes = np.unique(np.rint(np.geomspace(smallest, largest,
                                           n_windows)).astype(np.int64))
    return sizes


def dfa(series, order: int = DEFAULT_ORDER, windows=None, fit_range=None,
        integrate: bool = True) -> DfaCurve:
    """Detrended fluctuation analysis of a one-dimensional series.

    Parameters
    ----------
    series : array-like
    order : int
        Detrending polynomial order per box (1 = linear).
    windows : array-like of int, optional
        Box sizes; defaults to ~20 geometric sizes in [8, N/4].
    fit_range : (n_min, n_max), optional
        Window range for the alpha fit; defaults to all windows.
    integrate : bool
        Work on the cumulative-sum profile (standard). With False the
        detrending applies to the series itself, which is the mode where a
        polynomial trend of degree <= order is annihilated exactly.

    Returns
    -------
    DfaCurve
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError("series must be one-dimensional")
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
    n = x.size
    if windows is None:
        windows = default_windows(n)
    windows = np.unique(np.asarray(windows, dtype=np.int64))
    if windows.size == 0:
        raise ConfigError("no window sizes given")
    if int(windows[0]) < order + 2:
        raise ConfigError(
            f"smallest window {windows[0]} cannot fit an order-{order} "
            f"polynomial, need >= {order + 2}")
    if n < 4 * int(windows[-1]):
        raise DataError(
            f"series of length {n} too short for window {windows[-1]}; "
            f"feasible windows are {order + 2}..{n // 4}")

    y = np.cumsum(x - x.mean()) if integrate else x - x.mean()
    fluct = np.empty(windows.size, dtype=np.float64)
    for i, w in enumerate(windows):
        w = int(w)
        k = n // w
        segs = np.concatenate([
            y[:k * w].reshape(k, w),
            y[n - k * w:].reshape(k, w),
        ])
        t = np.arange(w, dtype=np.float64)
        coef = np.polynomial.polynomial.polyfit(t, segs.T, order)
        resid = segs.T - np.polynomial.polynomial.polyvander(t, order) @ coef
        fluct[i] = np.sqrt(np.mean(resid * resid))

    if fit_range is None:
        fit_range = (int(windows[0]), int(windows[-1]))
    # residuals below numerical noise (exactly detrendable input) carry
    # no slope information; the threshold scales with the profile itself
    floor = 1e-10 * (np.abs(y).max() + np.finfo(np.float64).tiny)
    sel = (windows >= fit_range[0]) & (windows <= fit_range[1]) & (fluct > floor)
    if int(sel.sum()) < 2:
        alpha, stderr = float("nan"), float("nan")
    else:
        res = linregress(np.log(windows[sel]), np.log(fluct[sel]))
        alpha, stderr = float(res.slope), float(res.stderr)
    return DfaCurve(window_sizes=windows, fluctuations=fluct, alpha=alpha,
                    fit_range=(int(fit_range[0]), int(fit_range[1])),
                    stderr=stderr, alpha_flagged=bool(alpha > 1.0))
