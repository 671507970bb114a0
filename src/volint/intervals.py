"""Threshold return intervals, per-stock scaling, pooling, shuffle controls.

An interval is the gap in days between consecutive volatility values
strictly above a threshold q (ties are measure zero for continuous data,
strictness is documented for reproducibility). Only complete
between-exceedance intervals are used: nothing before the first exceedance
or after the last one counts, which slightly censors the largest intervals
at high q.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError

DEFAULT_THRESHOLDS = (2.0, 2.5, 3.0, 3.5, 4.0)


class IntervalSeries(NamedTuple):
    """Ordered return intervals of one series at one threshold."""

    # each >= 1, in temporal order, in the narrowest unsigned dtype that
    # holds the series length (uint16 up to 65,535 days); take float64
    # before any arithmetic on them
    taus: np.ndarray
    n_exceedances: int

    @property
    def insufficient(self) -> bool:
        """True when fewer than 2 exceedances produced no interval."""
        return self.taus.size == 0


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
    return IntervalSeries(np.diff(idx).astype(np.min_scalar_type(v.size)),
                          int(idx.size))


def pool_scaled(samples) -> np.ndarray:
    """Per-stock scaled intervals tau / <tau>_stock, pooled in one array.

    Parameters
    ----------
    samples : iterable of taus arrays
        One stock's intervals at a common threshold per entry, pooled in
        the order given and not sorted; an empty array adds nothing.

    Notes
    -----
    Scaling is per stock, by that stock's own mean interval; pooling raw
    intervals and scaling by a global mean is a different (wrong) rule for
    a per-series scaling law. The values are one float64 array, sized from
    the samples up front and filled stock by stock: the mean of integer
    taus is taken in float64, and each tau is cast to float64 before it is
    divided, so the dtype of taus never changes a value.
    """
    used = [taus for taus in samples if taus.size]
    values = np.empty(sum(taus.size for taus in used), dtype=np.float64)
    end = 0
    for taus in used:
        np.divide(taus, taus.mean(), out=values[end:end + taus.size])
        end += taus.size
    return values


def shuffle_control(v, seed: int) -> np.ndarray:
    """Uniform random permutation of the volatility values.

    Destroys all temporal structure while preserving the value multiset
    exactly. Deterministic in the seed; stage.map_stocks shuffles each
    stock's volatility with a seed it derives from its master seed and
    the ticker, so parallel order cannot change results.
    """
    # permutation shuffles a copy of v in place; v itself is left as it was
    return np.random.default_rng(seed).permutation(np.asarray(v, dtype=np.float64))
