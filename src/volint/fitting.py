"""Log-binned density estimation, tail fits, and the collapse metric.

Binning uses geometric edges with a constant ratio 10**(1/bins_per_decade).
Bin centers are geometric means of the edges; on noiseless power-law data
the bin-averaged density is then an exact power law of the center with the
same exponent, which is what makes the least-squares fit exact and is
relied on by the calibration tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DataError, FitShapeError,
                     InsufficientTailError)

DEFAULT_BINS_PER_DECADE = 8
DEFAULT_X_MIN = 1.0
DEFAULT_X_MIN_GRID = (0.5, 0.71, 1.0, 1.41, 2.0, 2.83, 4.0)


class BinnedPdf(NamedTuple):
    """Histogram density on geometric bins.

    densities[i] = counts[i] / (counts.sum() * (edges[i + 1] - edges[i]));
    zero-count bins carry zero density and are excluded from any fit.
    """

    edges: np.ndarray
    densities: np.ndarray
    counts: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return np.sqrt(self.edges[:-1] * self.edges[1:])


class TailFit(NamedTuple):
    """Power-law tail fit f(x) ~ x**(-gamma) from log-log least squares."""

    gamma: float
    x_min: float
    stderr: float
    n_tail: int
    r2: float


class ExpFit(NamedTuple):
    """Exponential fit f(x) ~ exp(-a x) from lin-log least squares."""

    a: float
    stderr: float
    r2: float


class Line(NamedTuple):
    """Least-squares line through (x, y): its slope, the slope's standard
    error and the Pearson r."""

    slope: float
    stderr: float
    rvalue: float


def linregress(x, y) -> Line:
    """Ordinary least-squares line of y on x.

    The arithmetic is that of scipy.stats.linregress (biased covariance
    matrix, r clipped to [-1, 1], stderr 0 for two points), so fitted
    numbers are bit-for-bit the same. r is NaN when y is constant.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n < 2 or y.size != n:
        raise DataError(f"need two or more aligned points, got {n} and {y.size}")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0:
        raise DataError("all x values are identical")
    if ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        # ssxm * ssym may underflow to 0: r is then +-1 or NaN, as scipy's
        with np.errstate(divide="ignore", invalid="ignore"):
            r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    stderr = 0.0 if n == 2 else np.sqrt((1 - r**2) * ssym / ssxm / (n - 2))
    return Line(float(slope), float(stderr), float(r))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a, ties sharing the mean of the ranks they span."""
    order = np.argsort(a, kind="mergesort")
    s = a[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1], True])
    mean_rank = (first[:-1] + first[1:] + 1) / 2.0
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(mean_rank, np.diff(first))
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation of two aligned samples.

    Ranks are averaged over ties, then correlated as in
    scipy.stats.spearmanr. Fewer than two points, a constant sample or
    any NaN gives NaN, without a warning.
    """
    a = np.column_stack((np.asarray(x, dtype=np.float64),
                         np.asarray(y, dtype=np.float64)))
    if (a.shape[0] < 2 or np.isnan(a).any()
            or (a[0] == a).all(axis=0).any()):
        return float("nan")
    ranked = np.column_stack([_average_ranks(c) for c in a.T])
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def geometric_edges(lo: float, hi: float, bins_per_decade: int) -> np.ndarray:
    """Constant-ratio edges starting at lo, strictly covering hi."""
    ratio = 10.0 ** (1.0 / bins_per_decade)
    k = max(1, int(np.ceil(np.log(hi / lo) / np.log(ratio))))
    while lo * ratio ** k <= hi:
        k += 1
    return lo * ratio ** np.arange(k + 1)


def increasing_edges(edges) -> np.ndarray:
    """edges as a float64 array; ConfigError unless it has at least two
    values and each is larger than the one before (so none is NaN)."""
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ConfigError("edges must be strictly increasing, length >= 2")
    return edges


def log_bin(samples, bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
            edges=None) -> BinnedPdf:
    """Log-binned probability density of positive samples.

    Parameters
    ----------
    samples : array-like of finite positive floats
        May be empty only when edges is given: every count is then zero.
    bins_per_decade : int
        Resolution of the geometric grid (ignored when edges is given).
    edges : array-like, optional
        Use these bin edges instead of deriving them from the data range.
        Needed when several sample sets must share one grid (conditional
        PDF mixtures). Samples outside the edges are dropped and the
        density renormalizes over the in-range count.

    Returns
    -------
    BinnedPdf
        sum(densities * np.diff(edges)) == 1 exactly (up to float error).
        Derived edges of a constant sample lo are the one bin
        [lo, lo * 10**(1/bins_per_decade)).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0 and edges is None:
        raise DataError("no samples to bin")
    if not np.all(np.isfinite(x) & (x > 0)):
        raise DataError("samples must all be finite and positive")
    if edges is not None:
        edges = increasing_edges(edges)
    else:
        if bins_per_decade < 1:
            raise ConfigError(f"bins_per_decade must be >= 1, got {bins_per_decade}")
        # derived edges cover every sample, so n below is x.size
        edges = geometric_edges(float(x.min()), float(x.max()), bins_per_decade)
    counts, _ = np.histogram(x, bins=edges)
    n = int(counts.sum())
    widths = np.diff(edges)
    dens = counts / (n * widths) if n else np.zeros_like(widths)
    return BinnedPdf(edges=edges, densities=dens, counts=counts.astype(np.int64))


def fit_power_tail(pdf: BinnedPdf, x_min: float = DEFAULT_X_MIN,
                   x_max: float | None = None) -> TailFit:
    """Least squares on (log center, log density) over bins past x_min.

    gamma is minus the slope. Zero-count bins never enter; fewer than 5
    usable bins raises InsufficientTailError. x_max optionally caps the
    fit window (used for tail-stability scans).
    """
    c = pdf.centers
    mask = (pdf.counts > 0) & (c >= x_min)
    if x_max is not None:
        mask &= c <= x_max
    if int(mask.sum()) < 5:
        raise InsufficientTailError(
            f"{int(mask.sum())} usable bins past x_min={x_min}, need 5")
    res = linregress(np.log(c[mask]), np.log(pdf.densities[mask]))
    return TailFit(gamma=float(-res.slope), x_min=float(x_min),
                   stderr=float(res.stderr), n_tail=int(mask.sum()),
                   r2=float(res.rvalue ** 2))


def fit_exponential(pdf: BinnedPdf) -> ExpFit:
    """Least squares on (center, log density); a is minus the slope.

    A non-positive rate means the data is not exponentially decaying and
    raises FitShapeError.
    """
    mask = pdf.counts > 0
    if int(mask.sum()) < 5:
        raise InsufficientTailError(
            f"{int(mask.sum())} non-empty bins, need 5")
    res = linregress(pdf.centers[mask], np.log(pdf.densities[mask]))
    a = float(-res.slope)
    if a <= 0:
        raise FitShapeError(f"fitted rate {a:.4g} is not positive")
    return ExpFit(a=a, stderr=float(res.stderr), r2=float(res.rvalue ** 2))


def collapse_distance(samples_a, samples_b) -> float:
    """Two-sample Kolmogorov-Smirnov distance between two sample sets.

    Symmetric, in [0, 1]; 0 for identical samples, 1 for disjoint
    supports. Used as the scaling-collapse metric.
    """
    a = np.sort(np.asarray(samples_a, dtype=np.float64))
    b = np.sort(np.asarray(samples_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise DataError("both sample sets must be non-empty")
    xs = np.concatenate([a, b])
    ca = np.searchsorted(a, xs, side="right") / a.size
    cb = np.searchsorted(b, xs, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))


def hill_gamma(samples, x_min: float = DEFAULT_X_MIN) -> float:
    """Hill-type MLE for the density exponent; diagnostic cross-check only.

    For f(x) ~ x**(-gamma) above x_min: gamma = 1 + n / sum(ln(x/x_min)).
    The headline estimator stays the least-squares fit for comparability.
    """
    if not (math.isfinite(x_min) and x_min > 0):
        raise ConfigError(f"x_min must be finite and > 0, got {x_min}")
    x = np.asarray(samples, dtype=np.float64)
    tail = x[x >= x_min]
    if tail.size < 5:
        raise InsufficientTailError(f"{tail.size} tail samples, need 5")
    log_sum = np.sum(np.log(tail / x_min))
    if log_sum == 0:
        raise InsufficientTailError("every tail sample equals x_min")
    return float(1.0 + tail.size / log_sum)


def power_fit_sensitivity(pdf: BinnedPdf):
    """fit_power_tail's fields across DEFAULT_X_MIN_GRID; None where it
    fails."""
    rows = []
    for xm in DEFAULT_X_MIN_GRID:
        try:
            rows.append(fit_power_tail(pdf, x_min=xm)._asdict())
        except InsufficientTailError:
            rows.append({"x_min": float(xm), "gamma": None,
                         "stderr": None, "r2": None, "n_tail": 0})
    return rows


def _cell(x) -> str:
    """One TSV cell: text as is, integers exactly, floats to 10 digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float("nan") if x is None else float(x)
    return "nan" if math.isnan(x) else f"{x:.10g}"


def write_tsv(path, rows) -> None:
    """Tab-separated rows, one cell per value; None is written as nan."""
    with open(path, "w") as fh:
        fh.writelines("\t".join(map(_cell, row)) + "\n" for row in rows)


def write_pdf_tsv(pdf: BinnedPdf, path) -> None:
    """bin_center <TAB> density <TAB> count, one row per bin."""
    write_tsv(path, zip(pdf.centers, pdf.densities, pdf.counts))
