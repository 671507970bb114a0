"""Threshold return intervals, per-stock scaling, pooling, shuffle controls.

An interval is the gap in days between consecutive volatility values
strictly above a threshold q (ties are measure zero for continuous data,
strictness is documented for reproducibility). Only complete
between-exceedance intervals are used: nothing before the first exceedance
or after the last one counts, which slightly censors the largest intervals
at high q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_THRESHOLDS = (2.0, 2.5, 3.0, 3.5, 4.0)


@dataclass(frozen=True)
class IntervalSeries:
    """Ordered return intervals of one series at one threshold."""

    q: float
    # each >= 1, in temporal order, in the narrowest unsigned dtype that
    # holds the series length (uint16 up to 65,535 days); take float64
    # before any arithmetic on them
    taus: np.ndarray
    n_exceedances: int

    @property
    def insufficient(self) -> bool:
        """True when fewer than 2 exceedances produced no interval."""
        return self.taus.size == 0


@dataclass
class PooledIntervals:
    """Per-stock scaled intervals tau/<tau> pooled across stocks.

    values are ordered by (ticker, temporal position), so pooling is
    schedule-independent; sizes[i] of them belong to tickers[i].
    """

    values: np.ndarray                      # float64 scaled intervals
    tickers: tuple[str, ...]
    sizes: tuple[int, ...]
    skipped: tuple[str, ...] = ()           # insufficient at this q

    def __len__(self):
        return len(self.values)


def extract_intervals(v, q: float) -> IntervalSeries:
    """Collect intervals between consecutive exceedances nu > q.

    Parameters
    ----------
    v : array-like
        Volatility values (any non-negative series works).
    q : float
        Threshold in units of the volatility standard deviation.

    Returns
    -------
    IntervalSeries
        taus are successive differences of exceedance positions, held in
        the narrowest unsigned dtype that holds len(v): every interval is
        shorter than the series, so none can wrap. With fewer than 2
        exceedances the result is empty and flagged insufficient; callers
        skip and count such stocks.
    """
    if not q > 0:
        raise ConfigError(f"threshold must be positive, got {q}")
    v = np.asarray(v, dtype=np.float64)
    idx = np.flatnonzero(v > q)
    return IntervalSeries(q=float(q),
                          taus=np.diff(idx).astype(np.min_scalar_type(v.size)),
                          n_exceedances=int(idx.size))


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
    a per-series scaling law. The values are one float64 array, sized from
    the members up front and filled stock by stock: the mean of integer
    taus is taken in float64, and each tau is cast to float64 before it is
    divided, so the dtype of taus never changes a value.
    """
    items = sorted(items, key=lambda kv: kv[0])
    qs = sorted({iv.q for _, iv in items})
    if len(qs) > 1:
        raise ConfigError(f"mixed thresholds in pool: {qs}")
    used = [(t, iv.taus) for t, iv in items if not iv.insufficient]
    sizes = tuple(taus.size for _, taus in used)
    values = np.empty(sum(sizes), dtype=np.float64)
    end = 0
    for (_, taus), size in zip(used, sizes):
        np.divide(taus, taus.mean(), out=values[end:end + size])
        end += size
    return PooledIntervals(values=values, tickers=tuple(t for t, _ in used),
                           sizes=sizes,
                           skipped=tuple(t for t, iv in items if iv.insufficient))


def shuffle_control(v, seed: int) -> np.ndarray:
    """Uniform random permutation of the volatility values.

    Destroys all temporal structure while preserving the value multiset
    exactly. Deterministic in the seed; derive per-stock seeds with
    seeds.derive_seed(master, ticker, "shuffle") so parallel order cannot
    change results.
    """
    # permutation shuffles a copy of v in place; v itself is left as it was
    return np.random.default_rng(seed).permutation(np.asarray(v, dtype=np.float64))
