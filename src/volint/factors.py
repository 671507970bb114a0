"""Financial factors, stock binning, per-bin tail and DFA exponents,
correlations.

The four factors are lifetime (record count), mean capitalization
(close * shares_outstanding averaged; absent when shares are missing),
mean volume, and mean trading value (close * volume averaged). A stock's
factors are one float64 row in FACTORS order, NaN where undefined; the
rows of a run stack into one table, whose columns are binned and whose
complete rows are correlated. stock_factors alone decides what is
undefined. Size factors span decades, so their default bin edges are
geometric and their headline Pearson coefficients are computed on logs;
lifetime stays linear and raw. Raw-space coefficients are emitted
alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, InsufficientStatisticsError
from .fitting import (DEFAULT_BINS_PER_DECADE, DEFAULT_X_MIN,
                      InsufficientTailError, fit_power_tail, increasing_edges,
                      log_bin)
from .intervals import pool_scaled

FACTORS = ("lifetime", "capitalization", "volume", "trading_value")
DEFAULT_BIN_COUNTS = {"lifetime": 10, "capitalization": 8,
                      "volume": 11, "trading_value": 9}
DEFAULT_Q = 2.0
# the largest defined factor: past it, the top bin edge nudged above it,
# or a geometric edge below that, may overflow to inf
MAX_FACTOR = np.finfo(np.float64).max / 2
# the smallest: below it, a subnormal, the top edge nudged above it may
# round back to it, and the geometric edges need not increase
MIN_FACTOR = np.finfo(np.float64).tiny


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


def stock_factors(s) -> np.ndarray:
    """The factor row of one DailySeries: FACTORS' four values, float64.

    Trading value is close * volume per day, averaged; capitalization is
    close * shares_outstanding averaged over the rows where shares are
    present. A factor is defined where it is finite and from MIN_FACTOR to
    MAX_FACTOR, and NaN elsewhere: a capitalization without shares, a
    zero volume or trading value, a mean that overflows or is too large
    for its bin edges to stay finite, or one so small (subnormal) that
    they need not increase. This is the one place that decides it.
    """
    if s.lifetime_days == 0:
        raise DataError(f"{s.ticker}: empty series")
    vol = s.volume.astype(np.float64)
    mask = np.isfinite(s.shares_outstanding)
    with np.errstate(over="ignore"):
        cap = (np.mean(s.close[mask] * s.shares_outstanding[mask])
               if mask.any() else np.nan)
        row = np.array([s.lifetime_days, cap, vol.mean(),
                        np.mean(s.close * vol)], dtype=np.float64)
    row[~((row >= MIN_FACTOR) & (row <= MAX_FACTOR))] = np.nan
    return row


def _check_factor(factor: str) -> None:
    if factor not in FACTORS:
        raise ConfigError(f"unknown factor {factor!r}; choose from {FACTORS}")


def make_edges(values, factor: str, n_bins: int | None = None) -> np.ndarray:
    """Default edges of one factor column: linear for lifetime, geometric
    for size factors.

    Edges cover the range of the defined (non-NaN) values; the top edge is
    nudged past the maximum so the largest stock lands in the last
    half-open bin.
    """
    _check_factor(factor)
    if n_bins is None:
        n_bins = DEFAULT_BIN_COUNTS[factor]
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        raise InsufficientStatisticsError(f"no stock defines factor {factor}")
    lo, hi = float(vals.min()), float(vals.max())
    if factor == "lifetime":
        return np.linspace(lo, hi + 1.0, n_bins + 1)
    if lo == hi:
        hi = lo * (1 + 1e-9)
    return np.geomspace(lo, hi * (1 + 1e-9), n_bins + 1)


def bin_stocks(tickers, values, factor: str, edges) -> FactorBinning:
    """Partition stocks into half-open bins of one factor column.

    values[i] is the factor of tickers[i], NaN where undefined. Stocks
    whose value falls outside [edges[0], edges[-1]) are reported as
    unbinned; stocks without a defined value as undefined. Together with
    the members this is a partition of the input.
    """
    _check_factor(factor)
    edges = increasing_edges(edges)
    values = np.asarray(values, dtype=np.float64)
    tickers = np.asarray(tickers, dtype=object)
    undefined = np.isnan(values)
    k = np.searchsorted(edges, values, side="right") - 1
    inside = ~undefined & (k >= 0) & (k < edges.size - 1)
    # a set, not np.unique, which imports numpy.ma (about 1 MB of RSS)
    members = {b: tickers[inside & (k == b)].tolist()
               for b in sorted(set(k[inside].tolist()))}
    return FactorBinning(factor=factor, edges=edges, members=members,
                         unbinned=tuple(tickers[~undefined & ~inside]),
                         undefined=tuple(tickers[undefined]))


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


def factor_correlations(table) -> CorrelationReport:
    """Pairwise Pearson coefficients across the four factors.

    table holds one factor row per stock (columns in FACTORS order, NaN
    where undefined); only rows with every factor defined enter. The log
    matrix applies log to the three size factors and leaves lifetime raw;
    the raw matrix transforms nothing. Zero-variance factors yield NaN
    coefficients and are listed in degenerate.
    """
    table = np.asarray(table, dtype=np.float64)
    raw = table[~np.isnan(table).any(axis=1)]
    if len(raw) < 3:
        raise InsufficientStatisticsError(
            f"{len(raw)} stocks with all factors defined, need 3")
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
                             n_stocks=len(raw), degenerate=degenerate)
