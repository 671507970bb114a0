"""The per-stock stage: one source -> series -> volatility -> intervals, DFA.

Every analysis maps this stage over its sources and reduces the results;
it is the one place that turns a stock's column into volatility. A
worker reads or generates its own stock, so a caller that passes CSV
paths or generator specs never holds a per-day array. Results depend on
the master seed and the ticker only, so the number of workers can never
change them. Forked workers send their results back as one pickle
stream each, which the parent reads in source order. The CSV reader, DFA,
factor and generator modules load only for a source or a request that
uses them.
"""

from __future__ import annotations

import importlib
import os
import pickle
from functools import partial

import numpy as np

from .errors import ConfigError, DataError, DegenerateSeriesError
from .intervals import extract_intervals, shuffle_control
from .records import DEFAULT_MIN_LIFETIME, DailySeries, FileLoad, Frozen
from .seeds import derive_seed
from .volatility import log_returns, normalize_volatility


class StockResult(Frozen):
    """Everything the analyses need from one stock; no per-day arrays.

    by_q and shuffled_by_q map a threshold to the taus (extract_intervals'
    narrow array, nothing more) of the volatility and of its shuffle
    control; curve is the DFA of one of them, factors the stock's factor
    row when asked for (FACTORS' four values, NaN where undefined, from
    factors.stock_factors). A degenerate stock has no volatility and
    carries no intervals or curve. load is how the stock's file loaded; a
    file that was not accepted carries nothing else. Results compare by
    identity: their arrays have no one truth value.
    """

    __slots__ = ("ticker", "n_dropped", "degenerate", "by_q",
                 "shuffled_by_q", "curve", "factors", "load")

    def __init__(self, ticker: str, n_dropped: int = 0, degenerate=False,
                 by_q=None, shuffled_by_q=None, curve=None, factors=None,
                 load: FileLoad = FileLoad()):
        super().__init__(ticker, n_dropped, degenerate, by_q or {},
                         shuffled_by_q or {}, curve, factors, load)


def _open(source, min_lifetime: int, strict: bool):
    """(ticker, DailySeries or None when not accepted, FileLoad) of one
    source."""
    if isinstance(source, DailySeries):
        return source.ticker, source, FileLoad()
    if isinstance(source, tuple):
        from .synth import synth_stock
        stock, _ = synth_stock(*source)
        return stock.ticker, stock, FileLoad()
    from .ingest import read_stock, ticker_of
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
    fv = None
    if factors:
        from .factors import stock_factors
        fv = stock_factors(stock)
    column = stock.column(series)
    n_dropped = 0
    try:
        r = log_returns(column)
        n_dropped = column.size - 1 - r.size
        v = normalize_volatility(r)
    except DegenerateSeriesError:
        return StockResult(ticker, n_dropped, degenerate=True, factors=fv,
                           load=load)
    by_q = {q: extract_intervals(v, q).taus for q in qs}
    sv = None
    if shuffled_qs or (order is not None and shuffled_dfa):
        sv = shuffle_control(v, derive_seed(seed, ticker, "shuffle"))
    shuffled_by_q = {q: extract_intervals(sv, q).taus for q in shuffled_qs}
    curve = None
    if order is not None:
        from .dfa import dfa
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

    Nothing sorts them: the reducers pool their taus in the order given. A
    source is a DailySeries (so a Corpus maps in ticker order), the path
    of a CSV file, which the worker reads as ingest.read_stock does under
    min_lifetime and strict, or a (GeneratorSpec, index) pair, which it
    realizes with synth.synth_stock and does not filter. series picks the
    column ("volume" or "price"), seed is the master seed of the shuffle
    controls, and jobs > 1 maps in that many forked workers, or in one
    worker per source when there are fewer (in this process where the
    platform has no os.fork); the other arguments go to _stock. The
    parent reads the results in source order, so a worker runs ahead of
    the slowest only by what its pipe holds. The exception of the first
    source in source order that raises is raised: under strict, the first
    file that breaks the grammar raises its DataError. A forked worker
    that dies before it has reported its share raises a RuntimeError
    naming it, a pipe or a fork that fails raises ConfigError, and no
    worker outlives the call.
    """
    sources = list(sources)
    worker = partial(_stock, seed=seed, series=series, qs=qs,
                     shuffled_qs=shuffled_qs, order=order,
                     shuffled_dfa=shuffled_dfa, factors=factors,
                     min_lifetime=min_lifetime, strict=strict)
    # glibc raises its mmap threshold to the size of a mapped block when
    # that is freed, and trims the heap top only beyond twice it; one 2 MB
    # block freed first keeps a stock's buffers (fGn's, a CSV file's byte
    # matrices) in the heap, instead of mapped or trimmed and faulted in
    # anew for every stock, wherever earlier work left the heap top; forked
    # workers inherit the raised threshold
    np.empty(1 << 18)
    if jobs <= 1 or len(sources) <= 1 or not hasattr(os, "fork"):
        return [worker(s) for s in sources]
    # what the workers import, each loads once here rather than once in
    # every child: the steps this request runs, the reader of CSV
    # sources, and numpy.random where shuffle controls or generators draw
    generated = any(isinstance(s, tuple) for s in sources)
    paths = any(not isinstance(s, (tuple, DailySeries)) for s in sources)
    for module, used in (("dfa", order is not None), ("factors", factors),
                         ("synth", generated), ("ingest", paths)):
        if used:
            importlib.import_module(f".{module}", __package__)
    if shuffled_qs or shuffled_dfa or generated:
        import numpy.random  # noqa: F401
    return _fork_map(worker, sources, min(jobs, len(sources)))


def _frame(value, start: int) -> bytes:
    """The pickle of a result or an exception; an exception that does not
    survive a pickle round trip becomes a RuntimeError that names its
    type."""
    try:
        # protocol 5 would rebuild each array as a view of its own
        # bytearray: about 10 MB more in the parent at 2000 stocks
        data = pickle.dumps(value, 4)
        if isinstance(value, BaseException):
            pickle.loads(data)
    except Exception as exc:
        data = pickle.dumps(RuntimeError(
            f"worker {start} raised {type(value).__module__}."
            f"{type(value).__qualname__}: {value}, which cannot be sent "
            f"to the parent ({type(exc).__name__}: {exc})"))
    return data


def _child(worker, sources, start: int, step: int, r: int, w: int):
    """A forked worker: the pickle of each of sources[start::step] in
    order, up to and including the first that raises, onto the pipe's
    write end w; then the process exits, with 0 when every pickle was
    written. It never returns into the parent's code, and pickles still
    buffered when it dies are lost. The parent reads the pickles in
    source order, so a worker runs ahead of the one the parent waits for
    only by what its pipe and the two 64 KB buffers hold; then its write
    blocks until the parent reaches it."""
    code = 1
    try:
        os.close(r)
        # pickles go out 64 KB at a time: a write per stock woke the
        # parent once per stock, which cost it about 0.2 s of CPU over
        # 2000 stocks
        with open(w, "wb", buffering=1 << 16) as out:
            for i in range(start, len(sources), step):
                try:
                    value = worker(sources[i])
                except Exception as exc:
                    value = exc
                out.write(_frame(value, start))
                if isinstance(value, Exception):
                    break
        code = 0
    finally:
        os._exit(code)


def _fork_map(worker, sources, n: int) -> list:
    """worker over sources in n forked children, child k taking sources
    k, k + n, ...; the results in source order, or the exception of the
    smallest source index that failed. The parent reads source i from
    child i % n, so the first failure it reads is the first in source
    order; a child whose pipe ends before source i fails there."""
    pipes = []
    pids = {}       # child -> pid, until reaped
    try:
        for k in range(n):
            try:
                # the pipe fails where the open-file limit is reached, the
                # fork where the process limit is
                r, w = os.pipe()
                try:
                    pipes.append(open(r, "rb", buffering=1 << 16))
                    pids[k] = os.fork()
                    if pids[k] == 0:
                        _child(worker, sources, k, n, r, w)
                finally:
                    os.close(w)
            except OSError as exc:
                raise ConfigError(f"cannot fork worker {k} of {n} ({exc}); "
                                  f"lower --jobs") from None
        results = []
        for i in range(len(sources)):
            k = i % n
            try:
                value = pickle.load(pipes[k])
            except (EOFError, pickle.UnpicklingError):
                pid = pids.pop(k)
                _, status = os.waitpid(pid, 0)
                raise RuntimeError(
                    f"worker {k} (pid {pid}) {_exit_text(status)} before "
                    f"it reported source {i}") from None
            if isinstance(value, BaseException):
                raise value
            results.append(value)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        # imported here: a map in process kills nothing
        import signal
        for pid in pids.values():
            # not reaped yet, so the pid is still the child's own
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _exit_text(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"was killed by signal {os.WTERMSIG(status)}"
    return f"exited with status {os.waitstatus_to_exitcode(status)}"
