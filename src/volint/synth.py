"""Synthetic series and corpus generators with analytic oracles.

Three families:

iid      independent draws; the geometric interval law is exact here.
fgn      fractional Gaussian noise by circulant embedding of the exact
         autocovariance (no burn-in, O(N log N)). With vol_scale > 0 the
         output is noise modulated by exp(vol_scale * fgn), a
         stochastic-volatility series with linear long memory in its
         magnitudes.
cascade  dyadic multiplicative cascade with log-normal weights; signed
         output modulates independent noise by the cascade measure, giving
         the nonlinear (multifractal) correlations regime.

All randomness comes from numpy's PCG64 via default_rng(seed); identical
(spec, seed) gives bit-identical output on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError
from .ingest import Corpus, DailySeries, LoadSummary
from .seeds import derive_seed

KINDS = ("iid", "fgn", "cascade")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic series."""

    kind: str
    length: int
    params: Mapping = field(default_factory=dict)
    seed: int = 0


def fgn(n: int, hurst: float, rng) -> np.ndarray:
    """Fractional Gaussian noise, unit variance, exact autocovariance.

    Circulant (Davies-Harte type) embedding: the target autocovariance
    row is extended to a circulant whose eigenvalues are non-negative for
    the fGn covariance, complex normal amplitudes are shaped by the
    eigenvalue square roots, and one FFT returns n correlated samples.
    """
    if not 0 < hurst < 1:
        raise ConfigError(f"hurst must be in (0, 1), got {hurst}")
    k = np.arange(n + 1)
    rho = 0.5 * (np.abs(k - 1) ** (2 * hurst) - 2 * np.abs(k) ** (2 * hurst)
                 + np.abs(k + 1) ** (2 * hurst))
    row = np.concatenate([rho, rho[-2:0:-1]])
    lam = np.clip(np.fft.fft(row).real, 0.0, None)
    m = 2 * n
    a = rng.standard_normal(n + 1)
    b = rng.standard_normal(n + 1)
    w = np.empty(m, dtype=complex)
    w[0] = np.sqrt(lam[0] / m) * a[0]
    w[1:n] = np.sqrt(lam[1:n] / (2 * m)) * (a[1:n] + 1j * b[1:n])
    w[n] = np.sqrt(lam[n] / m) * a[n]
    w[n + 1:] = np.conj(w[n - 1:0:-1])
    return np.fft.fft(w)[:n].real


def cascade_log_weights(levels: int, sigma: float, rng) -> np.ndarray:
    """Log-weights of a dyadic multiplicative cascade, length 2**levels.

    Each level splits every segment in two and adds an independent
    N(0, sigma^2) increment to the log-weight of each half.
    """
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    n = 2 ** levels
    logw = np.zeros(n)
    for lev in range(1, levels + 1):
        m = 2 ** lev
        logw += np.repeat(rng.normal(0.0, sigma, m), n // m)
    return logw


def _noise(rng, n: int, df=None) -> np.ndarray:
    return rng.standard_t(df, n) if df is not None else rng.standard_normal(n)


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Realize a GeneratorSpec into a float series of spec.length.

    iid params:      dist in {normal, student_t, powered_normal};
                     student_t takes df, powered_normal takes kappa
                     (x = sign(z) |z|**kappa).
    fgn params:      hurst (required); vol_scale (default 0 = plain fGn);
                     noise_df (heavy-tailed modulated noise when vol_scale
                     is on, Gaussian otherwise).
    cascade params:  levels (default log2 of length, rounded up), sigma
                     (default 0.4), signed (default True: noise modulated
                     by the cascade measure; False: the positive measure
                     itself), noise_df as above.
    """
    if spec.kind not in KINDS:
        raise ConfigError(f"unknown generator kind {spec.kind!r}")
    if spec.length < 2:
        raise ConfigError(f"length must be >= 2, got {spec.length}")
    p = dict(spec.params)
    rng = np.random.default_rng(spec.seed)
    n = int(spec.length)

    if spec.kind == "iid":
        dist = p.pop("dist", "normal")
        if dist == "normal":
            out = rng.standard_normal(n)
        elif dist == "student_t":
            df = float(p.pop("df"))
            if df <= 0:
                raise ConfigError(f"df must be positive, got {df}")
            out = rng.standard_t(df, n)
        elif dist == "powered_normal":
            kappa = float(p.pop("kappa"))
            if kappa <= 0:
                raise ConfigError(f"kappa must be positive, got {kappa}")
            z = rng.standard_normal(n)
            out = np.sign(z) * np.abs(z) ** kappa
        else:
            raise ConfigError(f"unknown iid dist {dist!r}")

    elif spec.kind == "fgn":
        if "hurst" not in p:
            raise ConfigError("fgn requires a hurst parameter")
        hurst = float(p.pop("hurst"))
        vol_scale = float(p.pop("vol_scale", 0.0))
        noise_df = p.pop("noise_df", None)
        if vol_scale < 0:
            raise ConfigError(f"vol_scale must be >= 0, got {vol_scale}")
        g = fgn(n, hurst, rng)
        if vol_scale == 0.0:
            out = g
        else:
            out = _noise(rng, n, None if noise_df is None else float(noise_df)) \
                * np.exp(vol_scale * g)

    else:   # cascade
        levels = int(p.pop("levels", math.ceil(math.log2(n))))
        sigma = float(p.pop("sigma", 0.4))
        signed = bool(p.pop("signed", True))
        noise_df = p.pop("noise_df", None)
        if sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {sigma}")
        if n > 2 ** levels:
            raise ConfigError(
                f"length {n} exceeds cascade capacity 2**{levels}")
        logw = cascade_log_weights(levels, sigma, rng)
        omega = logw - logw.mean()
        if signed:
            out = _noise(rng, 2 ** levels,
                         None if noise_df is None else float(noise_df)) \
                * np.exp(omega)
        else:
            out = np.exp(omega)
        out = out[:n]

    if p:
        raise ConfigError(f"unused {spec.kind} params: {sorted(p)}")
    return out


# ---------------------------------------------------------------------------
# analytic oracles

def normal_abs_moment(p: float) -> float:
    """E|Z|^p for standard normal Z: 2^(p/2) Gamma((p+1)/2) / sqrt(pi)."""
    return math.exp(0.5 * p * math.log(2.0)
                    + math.lgamma(0.5 * (p + 1.0))) / math.sqrt(math.pi)


def iid_exceedance_probability(q: float, dist: str = "normal",
                               kappa: float | None = None) -> float:
    """Analytic P(nu > q) for normalized iid absolute values.

    nu = |x| / sqrt(E x^2 - (E|x|)^2) with population moments. Available
    for the normal and powered-normal marginals; heavy-tailed Student-t
    has no finite normalization at the df used here, so no closed form is
    offered.
    """
    if dist == "normal":
        sigma = math.sqrt(1.0 - 2.0 / math.pi)
        thr = q * sigma
    elif dist == "powered_normal":
        if kappa is None:
            raise ConfigError("powered_normal needs kappa")
        m1 = normal_abs_moment(kappa)
        m2 = normal_abs_moment(2 * kappa)
        sigma = math.sqrt(m2 - m1 * m1)
        thr = (q * sigma) ** (1.0 / kappa)
    else:
        raise ConfigError(f"no analytic exceedance for dist {dist!r}")
    return math.erfc(thr / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# corpus synthesis

def volume_from_series(x, lo: float = 1e4, hi: float = 1e7) -> np.ndarray:
    """Map a series to integer daily volumes.

    The series is integrated, affinely rescaled so its log-volume path
    spans [log lo, log hi], exponentiated, and rounded to whole shares.
    Positivity makes every log return defined; the affine map is a
    per-stock constant scale, to which normalized volatility is invariant
    up to rounding noise.
    """
    y = np.cumsum(np.asarray(x, dtype=np.float64))
    ymin, ymax = float(y.min()), float(y.max())
    z = np.full(y.size, 0.5) if ymax == ymin else (y - ymin) / (ymax - ymin)
    logv = math.log(lo) + z * (math.log(hi) - math.log(lo))
    return np.maximum(np.rint(np.exp(logv)), 1.0).astype(np.int64)


def synth_corpus(n_stocks: int, spec_rule: Callable[[int], GeneratorSpec],
                 ticker_prefix: str = "S", start_date: str = "1990-01-02",
                 close_rule: Callable[[int], float] | None = None,
                 shares_rule: Callable[[int], int | None] | None = None,
                 min_lifetime: int | None = None):
    """Synthesize a corpus plus its planted ground truth.

    Parameters
    ----------
    n_stocks : int
    spec_rule : int -> GeneratorSpec
        Per-stock generator recipe (index runs 0..n_stocks-1). Planted
        factor sweeps couple parameters to the index here.
    close_rule, shares_rule : optional int -> scalar
        Constant per-stock close price and shares outstanding; defaults
        draw log-normal values from a stream derived from each stock's
        seed. shares_rule may return None for an absent column.

    Returns
    -------
    (Corpus, dict)
        The corpus and a planted mapping ticker -> generator parameters
        and size attributes, the oracle side of factor-recovery tests.
    """
    if n_stocks < 1:
        raise ConfigError(f"n_stocks must be >= 1, got {n_stocks}")
    stocks, planted = [], {}
    day0 = np.datetime64(start_date, "D")
    for i in range(n_stocks):
        spec = spec_rule(i)
        ticker = f"{ticker_prefix}{i:05d}"
        x = generate(spec)
        vol = volume_from_series(x)
        n = vol.size
        attrs = np.random.default_rng(derive_seed(spec.seed, "attrs"))
        close = (close_rule(i) if close_rule is not None
                 else round(float(attrs.lognormal(math.log(20.0), 1.0)), 2))
        shares = (shares_rule(i) if shares_rule is not None
                  else int(attrs.lognormal(math.log(5e6), 1.0)))
        stocks.append(DailySeries(
            ticker=ticker,
            dates=day0 + np.arange(n),
            volume=vol,
            close=np.full(n, float(close)),
            shares_outstanding=np.full(
                n, float("nan") if shares is None else float(shares)),
        ))
        planted[ticker] = {
            "kind": spec.kind, "length": spec.length, "seed": int(spec.seed),
            "params": {k: v for k, v in spec.params.items()},
            "close": close, "shares_outstanding": shares,
        }
    lifetimes = [s.lifetime_days for s in stocks]
    ml = min(lifetimes) if min_lifetime is None else min_lifetime
    corpus = Corpus(stocks=stocks, min_lifetime=ml,
                    summary=LoadSummary(n_files=n_stocks, n_accepted=n_stocks))
    return corpus, planted


def homogeneous_rule(kind: str, length: int, params: Mapping,
                     master_seed: int, ticker_prefix: str = "S"):
    """spec_rule where every stock shares parameters, seeds derived per ticker."""
    frozen = dict(params)

    def rule(i: int) -> GeneratorSpec:
        return GeneratorSpec(kind=kind, length=length, params=dict(frozen),
                             seed=derive_seed(master_seed,
                                              f"{ticker_prefix}{i:05d}"))
    return rule
