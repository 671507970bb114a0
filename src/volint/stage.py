"""The per-stock stage: one column -> volatility -> intervals, DFA.

Every analysis maps this stage over a corpus and reduces its
ticker-ordered results; it is the one place that turns a stock's column
into volatility. Results depend on the master seed and the ticker only,
so the pool size can never change them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .dfa import DfaCurve, dfa
from .errors import DataError, DegenerateSeriesError
from .intervals import extract_intervals, shuffle_control
from .seeds import derive_seed
from .volatility import log_returns, normalize_volatility


@dataclass(frozen=True)
class StockResult:
    """Everything the analyses need from one stock; no per-day arrays.

    by_q and shuffled_by_q map a threshold to the IntervalSeries of the
    volatility and of its shuffle control; curve is the DFA of one of
    them. A degenerate stock has no volatility and carries nothing else.
    """

    ticker: str
    n_dropped: int = 0
    degenerate: bool = False
    by_q: dict = field(default_factory=dict)
    shuffled_by_q: dict = field(default_factory=dict)
    curve: DfaCurve | None = None


def _stock(item, seed: int, qs=(), shuffled_qs=(), order=None,
           shuffled_dfa=False) -> StockResult:
    """Volatility of one (ticker, column) once, then what was asked of it.

    qs and shuffled_qs are the thresholds to extract intervals at from the
    volatility and from its shuffle control; order, when given, runs DFA
    on the volatility, or on the control with shuffled_dfa. A series too
    short for DFA gets no curve.
    """
    ticker, column = item
    n_dropped = 0
    try:
        r = log_returns(column)
        n_dropped = r.n_dropped
        v = normalize_volatility(r)
    except DegenerateSeriesError:
        return StockResult(ticker, n_dropped, degenerate=True)
    by_q = {q: extract_intervals(v, q) for q in qs}
    sv = None
    if shuffled_qs or (order is not None and shuffled_dfa):
        sv = shuffle_control(v, derive_seed(seed, ticker, "shuffle"))
    shuffled_by_q = {q: extract_intervals(sv, q) for q in shuffled_qs}
    curve = None
    if order is not None:
        try:
            curve = dfa((sv if shuffled_dfa else v).values, order=order)
        except DataError:
            pass
    return StockResult(ticker, n_dropped, False, by_q, shuffled_by_q, curve)


def map_stocks(corpus, series: str = "volume", *, seed: int = 0,
               jobs: int = 1, qs=(), shuffled_qs=(), order=None,
               shuffled_dfa: bool = False) -> list[StockResult]:
    """_stock over a corpus, one StockResult per stock in ticker order.

    series picks the column ("volume" or "price"), seed is the master seed
    of the shuffle controls, and jobs > 1 maps in a process pool of that
    size, or of one worker per stock when there are fewer stocks; the
    other arguments go to _stock.
    """
    items = [(s.ticker, s.column(series)) for s in corpus]
    worker = partial(_stock, seed=seed, qs=qs, shuffled_qs=shuffled_qs,
                     order=order, shuffled_dfa=shuffled_dfa)
    if jobs <= 1 or len(items) <= 1:
        return [worker(it) for it in items]
    # imported only for a pool: loading multiprocessing with the package
    # made `import volint` about 40% slower
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(items) // (jobs * 4))
    # a fork-started pool forks all max_workers at once
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as ex:
        return list(ex.map(worker, items, chunksize=chunk))
