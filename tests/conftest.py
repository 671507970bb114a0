"""Shared fixtures: the long-memory synthetic corpus used by several
acceptance gates is expensive enough to build once per session."""
import time

import numpy as np
import pytest

import volint as vi


def pooled_intervals(corpus, q, series_kind="volume"):
    """(samples, pooled) at threshold q: each stock's taus in the corpus'
    ticker order, and their scaled pool; degenerate stocks are skipped."""
    samples = [r.by_q[q] for r in vi.map_stocks(corpus, series_kind, qs=(q,))
               if not r.degenerate]
    return samples, vi.pool_scaled(samples)


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

    Returns (samples, pools, raws, build_seconds): samples (each stock's
    taus) and pools (their scaled pool) are keyed by threshold, raws holds
    the unscaled pooled taus as float arrays.
    """
    corpus, dt = fgn_corpus
    t0 = time.monotonic()
    samples, pools, raws = {}, {}, {}
    for q in (2.0, 2.5, 3.0):
        samples[q], pools[q] = pooled_intervals(corpus, q)
        raws[q] = np.concatenate(samples[q]).astype(np.float64)
    return samples, pools, raws, dt + (time.monotonic() - t0)
