"""Shared fixtures: the long-memory synthetic corpus used by several
acceptance gates is expensive enough to build once per session."""
import time

import numpy as np
import pytest

import volint as vi


def pooled_intervals(corpus, q, series_kind="volume"):
    """(items, pooled) at threshold q; degenerate stocks are skipped."""
    items = [(r.ticker, r.by_q[q])
             for r in vi.map_stocks(corpus, series_kind, qs=(q,))
             if not r.degenerate]
    return items, vi.pool_scaled(items)


@pytest.fixture(scope="session")
def fgn_corpus():
    """400 persistent stocks (H=0.8) plus the seconds it took to build."""
    t0 = time.monotonic()
    corpus, _ = vi.synth_corpus(400, vi.homogeneous_rule(
        "fgn", 8192, {"hurst": 0.8, "vol_scale": 0.3, "noise_df": 2.2}, 202))
    return corpus, time.monotonic() - t0


@pytest.fixture(scope="session")
def fgn_pools(fgn_corpus):
    """Per-threshold interval extractions for the shared corpus.

    Returns (items, pools, raws, build_seconds): items and pools are keyed
    by threshold, raws holds the unscaled pooled taus as float arrays.
    """
    corpus, dt = fgn_corpus
    t0 = time.monotonic()
    items, pools, raws = {}, {}, {}
    for q in (2.0, 2.5, 3.0):
        items[q], pools[q] = pooled_intervals(corpus, q)
        raws[q] = np.concatenate(
            [iv.taus for _, iv in items[q] if iv.taus.size]).astype(np.float64)
    return items, pools, raws, dt + (time.monotonic() - t0)
