"""Threshold return intervals, per-stock scaling, pooling, shuffle controls.

An interval is the gap in days between consecutive volatility values
strictly above a threshold q (ties are measure zero for continuous data,
strictness is documented for reproducibility). Only complete
between-exceedance intervals are used: nothing before the first exceedance
or after the last one counts, which slightly censors the largest intervals
at high q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .volatility import VolatilitySeries

DEFAULT_THRESHOLDS = (2.0, 2.5, 3.0, 3.5, 4.0)


@dataclass(frozen=True)
class IntervalSeries:
    """Ordered return intervals of one series at one threshold."""

    q: float
    taus: np.ndarray              # int64, each >= 1, in temporal order
    n_exceedances: int
    first_index: int | None = None

    @property
    def insufficient(self) -> bool:
        """True when fewer than 2 exceedances produced no interval."""
        return self.taus.size == 0

    @property
    def mean_tau(self) -> float:
        return float(self.taus.mean()) if self.taus.size else float("nan")


@dataclass
class PooledIntervals:
    """Per-stock scaled intervals tau/<tau> pooled across stocks.

    values are ordered by (ticker, temporal position), so pooling is
    schedule-independent.
    """

    q: float
    values: np.ndarray                      # float64 scaled intervals
    tickers: tuple[str, ...]
    per_stock_means: dict[str, float] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()           # insufficient at this q

    def __len__(self):
        return len(self.values)


def extract_intervals(v, q: float) -> IntervalSeries:
    """Collect intervals between consecutive exceedances nu > q.

    Parameters
    ----------
    v : VolatilitySeries or array-like
        Volatility values (any non-negative series works).
    q : float
        Threshold in units of the volatility standard deviation.

    Returns
    -------
    IntervalSeries
        taus are successive differences of exceedance positions. With
        fewer than 2 exceedances the result is empty and flagged
        insufficient; callers skip and count such stocks.
    """
    if not q > 0:
        raise ConfigError(f"threshold must be positive, got {q}")
    vals = v.values if isinstance(v, VolatilitySeries) else np.asarray(v, dtype=np.float64)
    idx = np.flatnonzero(vals > q)
    taus = np.diff(idx).astype(np.int64)
    return IntervalSeries(
        q=float(q), taus=taus, n_exceedances=int(idx.size),
        first_index=int(idx[0]) if idx.size else None)


def pool_scaled(items) -> PooledIntervals:
    """Pool per-stock scaled intervals tau / <tau>_stock.

    Parameters
    ----------
    items : iterable of (ticker, IntervalSeries)
        One entry per stock at a common threshold. Members flagged
        insufficient are skipped and recorded, not an error.

    Notes
    -----
    Scaling is per stock, by that stock's own mean interval; pooling raw
    intervals and scaling by a global mean is a different (wrong) rule for
    a per-series scaling law.
    """
    items = sorted(items, key=lambda kv: kv[0])
    q = None
    tickers, chunks, means, skipped = [], [], {}, []
    for ticker, iv in items:
        if q is None:
            q = iv.q
        elif iv.q != q:
            raise ConfigError(f"mixed thresholds in pool: {q} vs {iv.q}")
        if iv.insufficient:
            skipped.append(ticker)
            continue
        mean = iv.taus.mean()
        means[ticker] = float(mean)
        tickers.append(ticker)
        chunks.append(iv.taus / mean)
    values = (np.concatenate(chunks) if chunks
              else np.empty(0, dtype=np.float64))
    return PooledIntervals(
        q=float(q) if q is not None else float("nan"),
        values=values, tickers=tuple(tickers), per_stock_means=means,
        skipped=tuple(skipped))


def shuffle_control(v: VolatilitySeries, seed: int) -> VolatilitySeries:
    """Uniform random permutation of the volatility values.

    Destroys all temporal structure while preserving the value multiset
    exactly. Deterministic in the seed; derive per-stock seeds with
    seeds.derive_seed(master, ticker, "shuffle") so parallel order cannot
    change results.
    """
    rng = np.random.default_rng(seed)
    vals = v.values if isinstance(v, VolatilitySeries) else np.asarray(v, dtype=np.float64)
    out = vals[rng.permutation(vals.size)]
    std = v.norm_std if isinstance(v, VolatilitySeries) else float("nan")
    return VolatilitySeries(values=out, norm_std=std)
