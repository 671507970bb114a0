"""Short-term memory: conditional interval statistics over tau0 octiles.

Each interval (except the first of every stock) is paired with its
immediate predecessor tau0 within the same stock; the conditional PDF of
tau given the octile of tau0 separates for persistent series and collapses
for shuffled ones. Octile bounds default to a fixed geometric ladder; a
quantile mode partitions pairs into eight equal-population subsets instead.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .fitting import DEFAULT_BINS_PER_DECADE, BinnedPdf, log_bin, spearman
from .intervals import pool_scaled

N_OCTILES = 8
GEOMETRIC_BOUNDARIES = np.array(
    [0.0, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, np.inf])
LOW_STATISTICS_PAIRS = 50


class ConditionalPdf(NamedTuple):
    """Scaled-interval PDF restricted to one preceding-interval octile."""

    octile: int                 # 1..8
    pdf: BinnedPdf
    n_pairs: int
    mean_scaled_tau: float      # nan when empty
    low_statistics: bool


def consecutive_pairs(samples):
    """Pooled (tau0, tau) consecutive pairs, scaled per stock.

    Parameters
    ----------
    samples : iterable of taus arrays
        One threshold's intervals per stock, pooled by pool_scaled in the
        order given. Pairs never cross stock boundaries; a stock with
        fewer than two intervals contributes nothing.

    Returns
    -------
    (tau0, tau) : two aligned float arrays in (stock, position) order.
    """
    samples = [taus for taus in samples if taus.size]
    values = pool_scaled(samples)
    # false at the last interval of each stock, which starts no pair
    first = np.ones(values.size, dtype=bool)
    first[np.cumsum([taus.size for taus in samples], dtype=np.intp) - 1] = False
    return values[first], values[1:][first[:-1]]


def octile_boundaries(tau0, mode: str = "geometric") -> np.ndarray:
    """Nine boundaries defining Q1..Q8 on scaled tau0.

    geometric: fixed ladder {0, 0.2, 0.4, ..., 12.8, inf} (ratio 2).
    quantile: population octiles of the supplied tau0 sample, the literal
    eight-equal-sized-subsets reading.
    """
    if mode == "geometric":
        return GEOMETRIC_BOUNDARIES.copy()
    if mode == "quantile":
        tau0 = np.sort(np.asarray(tau0, dtype=np.float64))
        if tau0.size < N_OCTILES:
            raise DataError(f"{tau0.size} pairs cannot fill {N_OCTILES} octiles")
        # np.quantile's default "linear" rule, written out because
        # np.quantile imports numpy.ma on its first call: the sample at
        # (n - 1) * q, interpolated as numpy's _lerp does, from the nearer end
        index = (tau0.size - 1) * (np.arange(1, N_OCTILES) / N_OCTILES)
        below = np.floor(index).astype(np.intp)
        gamma = index - below
        lo, hi = tau0[below], tau0[below + 1]
        qs = np.where(gamma >= 0.5, hi - (hi - lo) * (1 - gamma), lo + (hi - lo) * gamma)
        bounds = np.concatenate([[0.0], qs, [np.inf]])
        if np.any(np.diff(bounds) <= 0):
            raise DataError("tau0 quantiles are not distinct; use geometric mode")
        return bounds
    raise ConfigError(f"unknown octile mode {mode!r}")


def assign_octiles(tau0, boundaries) -> np.ndarray:
    """Octile label 1..8 per tau0; values on a boundary go to the upper bin."""
    boundaries = np.asarray(boundaries, dtype=np.float64)
    if boundaries.size != N_OCTILES + 1:
        raise ConfigError(f"need {N_OCTILES + 1} boundaries, got {boundaries.size}")
    lab = np.searchsorted(boundaries, np.asarray(tau0, dtype=np.float64),
                          side="right")
    return np.clip(lab, 1, N_OCTILES).astype(np.int64)


def conditional_pdfs(tau0, tau, boundaries,
                     bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
                     edges=None):
    """One BinnedPdf and mean of scaled tau per octile of scaled tau0.

    All octiles share one bin grid (derived from the full tau sample when
    edges is not given) so that the pair-count-weighted mixture of the
    eight conditional densities reproduces the unconditional density
    bin-for-bin. Octiles below LOW_STATISTICS_PAIRS pairs are still computed
    but flagged.
    """
    tau0 = np.asarray(tau0, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if tau0.size != tau.size:
        raise ConfigError("tau0 and tau must align")
    if tau.size == 0:
        raise DataError("no pairs")
    if edges is None:
        edges = log_bin(tau, bins_per_decade).edges
    labels = assign_octiles(tau0, boundaries)
    out = []
    for k in range(1, N_OCTILES + 1):
        sel = tau[labels == k]
        n = int(sel.size)
        out.append(ConditionalPdf(
            octile=k, pdf=log_bin(sel, edges=edges), n_pairs=n,
            mean_scaled_tau=float(sel.mean()) if n else float("nan"),
            low_statistics=n < LOW_STATISTICS_PAIRS))
    return out


def memory_summary(pdfs) -> float:
    """Spearman coefficient of octile index against mean scaled tau over the
    populated octiles: near zero for independent series, near one for
    persistent ones."""
    pop = [cp for cp in pdfs if cp.n_pairs]
    return spearman([cp.octile for cp in pop],
                    [cp.mean_scaled_tau for cp in pop])
