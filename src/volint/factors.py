"""Financial factors, stock binning, per-bin tail and DFA exponents,
correlations.

The four factors are lifetime (record count), mean capitalization
(close * shares_outstanding averaged; absent when shares are missing),
mean volume, and mean trading value (close * volume averaged). Size
factors span decades, so their default bin edges are geometric and their
headline Pearson coefficients are computed on logs; lifetime stays linear
and raw. Raw-space coefficients are emitted alongside for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, InsufficientStatisticsError
from .fitting import (DEFAULT_BINS_PER_DECADE, DEFAULT_X_MIN,
                      InsufficientTailError, fit_power_tail, log_bin)
from .intervals import pool_scaled

FACTORS = ("lifetime", "capitalization", "volume", "trading_value")
DEFAULT_BIN_COUNTS = {"lifetime": 10, "capitalization": 8,
                      "volume": 11, "trading_value": 9}
DEFAULT_Q = 2.0


@dataclass(frozen=True)
class FactorVector:
    ticker: str
    lifetime: int
    mean_capitalization: float | None
    mean_volume: float
    mean_trading_value: float


@dataclass
class FactorBinning:
    """Half-open bins [e_i, e_{i+1}); boundary values go to the upper bin."""

    factor: str
    edges: np.ndarray
    members: dict = field(default_factory=dict)     # bin index -> [tickers]
    unbinned: tuple = ()                            # outside the edge range
    undefined: tuple = ()                           # factor not defined


@dataclass(frozen=True)
class GammaBin:
    lo: float
    hi: float
    gamma: float | None
    stderr: float | None
    r2: float | None
    n_stocks: int
    n_intervals: int


@dataclass(frozen=True)
class AlphaBin:
    lo: float
    hi: float
    mean_alpha: float
    std_alpha: float
    count: int


@dataclass(frozen=True)
class CorrelationReport:
    labels: tuple[str, ...]
    log: np.ndarray             # size factors logged, lifetime raw
    raw: np.ndarray
    n_stocks: int
    degenerate: tuple[str, ...] = ()    # zero-variance factors


def stock_factors(s) -> FactorVector:
    """The FactorVector of one DailySeries.

    Trading value is close * volume per day, averaged; capitalization is
    close * shares_outstanding averaged over the rows where shares are
    present, None when no row has them. A mean that overflows is inf,
    which factor_value reads as undefined.
    """
    if s.lifetime_days == 0:
        raise DataError(f"{s.ticker}: empty series")
    vol = s.volume.astype(np.float64)
    mask = np.isfinite(s.shares_outstanding)
    with np.errstate(over="ignore"):
        cap = (float(np.mean(s.close[mask] * s.shares_outstanding[mask]))
               if mask.any() else None)
        trading_value = float(np.mean(s.close * vol))
    return FactorVector(
        ticker=s.ticker, lifetime=s.lifetime_days,
        mean_capitalization=cap, mean_volume=float(vol.mean()),
        mean_trading_value=trading_value)


def factor_value(fv: FactorVector, factor: str):
    """Numeric factor value or None when undefined for this stock: a
    capitalization without shares, a zero volume or trading value, or a
    value that is not finite."""
    if factor == "lifetime":
        value = float(fv.lifetime)
    elif factor == "capitalization":
        value = fv.mean_capitalization
    elif factor == "volume":
        value = fv.mean_volume if fv.mean_volume > 0 else None
    elif factor == "trading_value":
        value = fv.mean_trading_value if fv.mean_trading_value > 0 else None
    else:
        raise ConfigError(f"unknown factor {factor!r}; choose from {FACTORS}")
    return value if value is not None and math.isfinite(value) else None


def make_edges(factors, factor: str, n_bins: int | None = None) -> np.ndarray:
    """Default edges: linear for lifetime, geometric for size factors.

    Edges cover the observed value range; the top edge is nudged past the
    maximum so the largest stock lands in the last half-open bin.
    """
    if n_bins is None:
        n_bins = DEFAULT_BIN_COUNTS[factor]
    vals = np.array([v for v in (factor_value(f, factor) for f in factors)
                     if v is not None], dtype=np.float64)
    if vals.size == 0:
        raise InsufficientStatisticsError(f"no stock defines factor {factor}")
    lo, hi = float(vals.min()), float(vals.max())
    if factor == "lifetime":
        return np.linspace(lo, hi + 1.0, n_bins + 1)
    if lo == hi:
        hi = lo * (1 + 1e-9)
    return np.geomspace(lo, hi * (1 + 1e-9), n_bins + 1)


def bin_stocks(factors, factor: str, edges) -> FactorBinning:
    """Partition stocks into half-open factor bins.

    Stocks whose value falls outside [edges[0], edges[-1]) are reported as
    unbinned; stocks without a defined value as undefined. Together with
    the members this is a partition of the input.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ConfigError("edges must be strictly increasing, length >= 2")
    members: dict = {}
    unbinned, undefined = [], []
    for fv in factors:
        v = factor_value(fv, factor)
        if v is None:
            undefined.append(fv.ticker)
            continue
        k = int(np.searchsorted(edges, v, side="right")) - 1
        if k < 0 or k >= edges.size - 1:
            unbinned.append(fv.ticker)
            continue
        members.setdefault(k, []).append(fv.ticker)
    return FactorBinning(factor=factor, edges=edges, members=members,
                         unbinned=tuple(unbinned), undefined=tuple(undefined))


def gamma_by_factor(binning: FactorBinning, intervals: dict,
                    x_min: float = DEFAULT_X_MIN,
                    bins_per_decade: int = DEFAULT_BINS_PER_DECADE
                    ) -> list[GammaBin]:
    """Tail exponent of the pooled scaled interval PDF per factor bin.

    Parameters
    ----------
    binning : FactorBinning
    intervals : dict ticker -> IntervalSeries
        One threshold's intervals per stock, e.g. from stage.map_stocks;
        members missing from it (degenerate stocks) are skipped.

    Returns
    -------
    list[GammaBin]
        Bins whose pooled statistics cannot support a fit carry gamma None.
    """
    rows = []
    for b in range(len(binning.edges) - 1):
        items = [(t, intervals[t]) for t in binning.members.get(b, [])
                 if t in intervals]
        pooled = pool_scaled(items)
        gamma = stderr = r2 = None
        if len(pooled):
            try:
                f = fit_power_tail(log_bin(pooled.values, bins_per_decade), x_min)
                gamma, stderr, r2 = f.gamma, f.stderr, f.r2
            except InsufficientTailError:
                pass
        rows.append(GammaBin(
            lo=float(binning.edges[b]), hi=float(binning.edges[b + 1]),
            gamma=gamma, stderr=stderr, r2=r2,
            n_stocks=len(pooled.tickers), n_intervals=len(pooled)))
    return rows


def alpha_by_factor(binning: FactorBinning, alphas: dict) -> list[AlphaBin]:
    """Mean and spread of per-stock DFA exponents per factor bin.

    alphas maps ticker -> alpha, e.g. from the curves of
    stage.map_stocks; members missing from it are skipped. Every bin is
    emitted, an empty one with count 0 and NaN statistics.
    """
    rows = []
    for b in range(len(binning.edges) - 1):
        vals = np.array([alphas[t] for t in binning.members.get(b, [])
                         if t in alphas], dtype=np.float64)
        rows.append(AlphaBin(
            lo=float(binning.edges[b]), hi=float(binning.edges[b + 1]),
            mean_alpha=float(vals.mean()) if vals.size else float("nan"),
            std_alpha=float(vals.std()) if vals.size else float("nan"),
            count=int(vals.size)))
    return rows


def factor_correlations(factors) -> CorrelationReport:
    """Pairwise Pearson coefficients across the four factors.

    Only stocks with every factor defined enter. The log matrix applies
    log to the three size factors and leaves lifetime raw; the raw matrix
    transforms nothing. Zero-variance factors yield NaN coefficients and
    are listed in degenerate.
    """
    rows = [f for f in factors
            if all(factor_value(f, name) is not None for name in FACTORS)]
    if len(rows) < 3:
        raise InsufficientStatisticsError(
            f"{len(rows)} stocks with all factors defined, need 3")
    raw = np.array([[factor_value(f, name) for name in FACTORS]
                    for f in rows], dtype=np.float64)
    logged = raw.copy()
    logged[:, 1:] = np.log(logged[:, 1:])   # size factors span decades
    deg_idx = [i for i in range(len(FACTORS)) if np.std(raw[:, i]) == 0]
    degenerate = tuple(FACTORS[i] for i in deg_idx)

    def corr(m):
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.corrcoef(m, rowvar=False)
        # a constant column has no correlation; rounding in the mean can
        # otherwise leave a 1-ulp residue that reads as +-1 after log
        if deg_idx:
            c[deg_idx, :] = np.nan
            c[:, deg_idx] = np.nan
        return c

    return CorrelationReport(labels=FACTORS, log=corr(logged), raw=corr(raw),
                             n_stocks=len(rows), degenerate=degenerate)
