"""The per-stock stage: one source -> series -> volatility -> intervals, DFA.

Every analysis maps this stage over its sources and reduces the results;
it is the one place that turns a stock's column into volatility. A
worker reads or generates its own stock, so a caller that passes CSV
paths or generator specs never holds a per-day array. Results depend on
the master seed and the ticker only, so the pool size can never change
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dfa import DfaCurve, dfa
from .errors import DataError, DegenerateSeriesError
from .factors import stock_factors
from .ingest import (DEFAULT_MIN_LIFETIME, DailySeries, FileLoad, read_stock,
                     ticker_of)
from .intervals import extract_intervals, shuffle_control
from .seeds import derive_seed
from .synth import synth_stock
from .volatility import log_returns, normalize_volatility


@dataclass(frozen=True, eq=False)
class StockResult:
    """Everything the analyses need from one stock; no per-day arrays.

    by_q and shuffled_by_q map a threshold to the IntervalSeries of the
    volatility and of its shuffle control; curve is the DFA of one of
    them, factors the stock's factor row when asked for (FACTORS' four
    values, NaN where undefined, from factors.stock_factors). A degenerate
    stock has no volatility and carries no intervals or curve. load is how
    the stock's file loaded; a file that was not accepted carries nothing
    else. Results compare by identity: their arrays have no one truth value.
    """

    ticker: str
    n_dropped: int = 0
    degenerate: bool = False
    by_q: dict = field(default_factory=dict)
    shuffled_by_q: dict = field(default_factory=dict)
    curve: DfaCurve | None = None
    factors: np.ndarray | None = None
    load: FileLoad = FileLoad()


def _open(source, min_lifetime: int, strict: bool):
    """(ticker, DailySeries or None when not accepted, FileLoad) of one
    source."""
    if isinstance(source, DailySeries):
        return source.ticker, source, FileLoad()
    if isinstance(source, tuple):
        stock, _ = synth_stock(*source)
        return stock.ticker, stock, FileLoad()
    stock, load = read_stock(source, min_lifetime, strict)
    return ticker_of(source), stock, load


def _stock(source, seed: int, series: str = "volume", qs=(), shuffled_qs=(),
           order=None, shuffled_dfa=False, factors=False,
           min_lifetime=DEFAULT_MIN_LIFETIME, strict=False) -> StockResult:
    """Volatility of one source's column once, then what was asked of it.

    qs and shuffled_qs are the thresholds to extract intervals at from the
    volatility and from its shuffle control; order, when given, runs DFA
    on the volatility, or on the control with shuffled_dfa; factors adds
    the stock's factor row. A series too short for DFA gets no curve.
    """
    ticker, stock, load = _open(source, min_lifetime, strict)
    if stock is None:
        return StockResult(ticker, load=load)
    fv = stock_factors(stock) if factors else None
    column = stock.column(series)
    n_dropped = 0
    try:
        r = log_returns(column)
        n_dropped = column.size - 1 - r.size
        v = normalize_volatility(r)
    except DegenerateSeriesError:
        return StockResult(ticker, n_dropped, degenerate=True, factors=fv,
                           load=load)
    by_q = {q: extract_intervals(v, q) for q in qs}
    sv = None
    if shuffled_qs or (order is not None and shuffled_dfa):
        sv = shuffle_control(v, derive_seed(seed, ticker, "shuffle"))
    shuffled_by_q = {q: extract_intervals(sv, q) for q in shuffled_qs}
    curve = None
    if order is not None:
        try:
            curve = dfa(sv if shuffled_dfa else v, order=order)
        except DataError:
            pass
    return StockResult(ticker, n_dropped, False, by_q, shuffled_by_q, curve,
                       fv, load)


def map_stocks(sources, series: str = "volume", *, seed: int = 0,
               jobs: int = 1, qs=(), shuffled_qs=(), order=None,
               shuffled_dfa: bool = False, factors: bool = False,
               min_lifetime: int = DEFAULT_MIN_LIFETIME,
               strict: bool = False) -> list[StockResult]:
    """_stock over sources, one StockResult per source in their order.

    A source is a DailySeries (so a Corpus maps in ticker order), the path
    of a CSV file, which the worker reads as ingest.read_stock does under
    min_lifetime and strict, or a (GeneratorSpec, index) pair, which it
    realizes with synth.synth_stock and does not filter. series picks the
    column ("volume" or "price"), seed is the master seed of the shuffle
    controls, and jobs > 1 maps in a process pool of that size, or of one
    worker per source when there are fewer; the other arguments go to
    _stock. Under strict, the first file in source order that breaks the
    grammar raises its DataError.
    """
    sources = list(sources)
    worker = partial(_stock, seed=seed, series=series, qs=qs,
                     shuffled_qs=shuffled_qs, order=order,
                     shuffled_dfa=shuffled_dfa, factors=factors,
                     min_lifetime=min_lifetime, strict=strict)
    if jobs <= 1 or len(sources) <= 1:
        return [worker(s) for s in sources]
    # imported only for a pool: loading multiprocessing with the package
    # made `import volint` about 40% slower
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(sources) // (jobs * 4))
    # a fork-started pool forks all max_workers at once
    with ProcessPoolExecutor(max_workers=min(jobs, len(sources))) as ex:
        try:
            return list(ex.map(worker, sources, chunksize=chunk))
        finally:
            # after a raise, start none of the sources still queued
            ex.shutdown(cancel_futures=True)
