"""The per-stock factor record and binning loop that the factor table
replaced, kept as the reference of its tests.

factor_vector is a stock's factors as a record, with None for a
capitalization without shares; factor_value reads one factor of it, None
where undefined (no shares, a zero volume or trading value, or a value
that is not finite). reference_bin bins stocks one at a time, a NaN
value being undefined.
"""

import math
from dataclasses import dataclass

import numpy as np

from volint.factors import FactorBinning


@dataclass(frozen=True)
class FactorVector:
    ticker: str
    lifetime: int
    mean_capitalization: float | None
    mean_volume: float
    mean_trading_value: float


def factor_vector(s) -> FactorVector:
    vol = s.volume.astype(np.float64)
    mask = np.isfinite(s.shares_outstanding)
    with np.errstate(over="ignore"):
        cap = (float(np.mean(s.close[mask] * s.shares_outstanding[mask]))
               if mask.any() else None)
        trading_value = float(np.mean(s.close * vol))
    return FactorVector(ticker=s.ticker, lifetime=s.lifetime_days,
                        mean_capitalization=cap, mean_volume=float(vol.mean()),
                        mean_trading_value=trading_value)


def factor_value(fv: FactorVector, factor: str):
    if factor == "lifetime":
        value = float(fv.lifetime)
    elif factor == "capitalization":
        value = fv.mean_capitalization
    elif factor == "volume":
        value = fv.mean_volume if fv.mean_volume > 0 else None
    elif factor == "trading_value":
        value = fv.mean_trading_value if fv.mean_trading_value > 0 else None
    else:
        raise ValueError(factor)
    return value if value is not None and math.isfinite(value) else None


def reference_bin(tickers, values, factor: str, edges) -> FactorBinning:
    edges = np.asarray(edges, dtype=np.float64)
    members: dict = {}
    unbinned, undefined = [], []
    for ticker, v in zip(tickers, values):
        if math.isnan(v):
            undefined.append(ticker)
            continue
        k = int(np.searchsorted(edges, v, side="right")) - 1
        if k < 0 or k >= edges.size - 1:
            unbinned.append(ticker)
            continue
        members.setdefault(k, []).append(ticker)
    return FactorBinning(factor=factor, edges=edges, members=members,
                         unbinned=tuple(unbinned), undefined=tuple(undefined))

