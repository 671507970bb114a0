"""Synthetic series and corpus generators with analytic oracles.

Three families:

iid      independent draws; the geometric interval law is exact here.
fgn      fractional Gaussian noise by circulant embedding of the exact
         autocovariance (no burn-in, O(N log N)). With vol_scale > 0 the
         output is noise modulated by exp(vol_scale * fgn), a
         stochastic-volatility series with linear long memory in its
         magnitudes.
cascade  dyadic multiplicative cascade with log-normal weights; the
         output modulates independent noise by the cascade measure, giving
         the nonlinear (multifractal) correlations regime.

All randomness comes from numpy's PCG64 via default_rng(seed); identical
(spec, seed) gives bit-identical draws on any platform. numpy's power and
exp loops round differently on CPUs with and without AVX-512, so a series
built from them can differ there in its last bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, DataError
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
    row is extended to a circulant of size 2n whose eigenvalues are
    non-negative for the fGn covariance, complex normal amplitudes are
    shaped by the eigenvalue square roots, and one real inverse FFT of
    the n + 1 point half spectrum returns n correlated samples.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if not 0 < hurst < 1:
        raise ConfigError(f"hurst must be in (0, 1), got {hurst}")
    amp = _amplitudes(int(n), float(hurst))
    a = rng.standard_normal(n + 1)
    b = rng.standard_normal(n + 1)
    # the half spectrum w[k] = amp[k] * (a[k] - i b[k]), real at 0 and n:
    # the unscaled inverse FFT of its Hermitian extension is the forward
    # FFT of the Hermitian extension of amp * (a + i b), which is real
    w = np.empty(n + 1, dtype=complex)
    np.multiply(amp, a, out=w.real)
    np.multiply(amp, b, out=w.imag)
    np.negative(w.imag, out=w.imag)
    w.imag[0] = w.imag[n] = 0.0
    return np.fft.irfft(w, 2 * n, norm="forward")[:n]


@functools.lru_cache(maxsize=4)
def _amplitudes(n: int, hurst: float) -> np.ndarray:
    """The n + 1 scales of fgn's normal draws, sqrt(lam / m) at 0 and n and
    sqrt(lam / 2m) between, for the eigenvalues lam, clipped at 0, of the
    circulant embedding of size m = 2n of the fGn autocovariance of n
    samples; read-only, since every stock of a corpus with this
    (n, hurst) shares the one array."""
    k = np.arange(n + 1)
    rho = 0.5 * (np.abs(k - 1) ** (2 * hurst) - 2 * np.abs(k) ** (2 * hurst)
                 + np.abs(k + 1) ** (2 * hurst))
    m = 2 * n
    # the circulant's first row is rho and its mirror, real and symmetric,
    # so its eigenvalues are the real inverse FFT of rho as a half spectrum
    lam = np.clip(np.fft.irfft(rho, m, norm="forward")[:n + 1], 0.0, None)
    amp = np.sqrt(lam / (2 * m))
    amp[[0, n]] = np.sqrt(lam[[0, n]] / m)
    amp.flags.writeable = False
    return amp


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


DISTS = ("normal", "student_t", "powered_normal")
# (parameters taken, parameters required) per kind, iid's per dist
PARAMS = {"iid normal": (("dist",), ()),
          "iid student_t": (("dist", "df"), ("df",)),
          "iid powered_normal": (("dist", "kappa"), ("kappa",)),
          "fgn": (("hurst", "vol_scale", "noise_df"), ("hurst",)),
          "cascade": (("sigma", "noise_df"), ())}
# the range of each value, which check_spec also asks to be finite
RANGES = {"hurst": (lambda x: 0 < x < 1, "in (0, 1)"),
          "df": (lambda x: x > 0, "> 0"),
          "kappa": (lambda x: x > 0, "> 0"),
          "noise_df": (lambda x: x > 0, "> 0"),
          "vol_scale": (lambda x: x >= 0, ">= 0"),
          "sigma": (lambda x: x >= 0, ">= 0")}


def check_spec(spec: GeneratorSpec) -> None:
    """Raise ConfigError unless generate can realize spec.

    The kind is known, the length at least 2, every parameter one that the
    kind (for iid: its dist) takes, every required one given, every value
    finite and in range, and an fgn noise_df only with vol_scale > 0
    (plain fGn has no noise to shape).
    """
    if spec.kind not in KINDS:
        raise ConfigError(f"unknown generator kind {spec.kind!r}")
    if spec.length < 2:
        raise ConfigError(f"length must be >= 2, got {spec.length}")
    p = spec.params
    name = (f"iid {p.get('dist', 'normal')}" if spec.kind == "iid"
            else spec.kind)
    if name not in PARAMS:
        raise ConfigError(f"unknown iid dist {p['dist']!r}")
    takes, required = PARAMS[name]
    for what, keys in (("takes no", set(p) - set(takes)),
                       ("needs", set(required) - set(p))):
        if keys:
            raise ConfigError(f"{name} {what} {', '.join(sorted(keys))}")
    for key, (ok, text) in RANGES.items():
        if key in p and not (math.isfinite(p[key]) and ok(p[key])):
            raise ConfigError(f"{name} {key} must be finite and {text}, "
                              f"got {p[key]}")
    if spec.kind == "fgn" and "noise_df" in p and not p.get("vol_scale", 0) > 0:
        raise ConfigError("fgn noise_df needs vol_scale > 0")


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Realize a GeneratorSpec into a float series of spec.length.

    iid params:      dist in {normal, student_t, powered_normal};
                     student_t takes df, powered_normal takes kappa
                     (x = sign(z) |z|**kappa).
    fgn params:      hurst (required); vol_scale (default 0 = plain fGn);
                     noise_df (heavy-tailed modulated noise; only with
                     vol_scale > 0, Gaussian noise when absent).
    cascade params:  sigma (default 0.4), noise_df as above; noise
                     modulated by the measure of a cascade of
                     ceil(log2(length)) levels, the fewest whose 2**levels
                     values cover the series.

    check_spec states which params each kind takes and their ranges.
    """
    check_spec(spec)
    p = spec.params
    rng = np.random.default_rng(spec.seed)
    n = int(spec.length)
    noise_df = None if "noise_df" not in p else float(p["noise_df"])

    if spec.kind == "iid":
        dist = p.get("dist", "normal")
        if dist == "normal":
            out = rng.standard_normal(n)
        elif dist == "student_t":
            out = rng.standard_t(float(p["df"]), n)
        else:
            z = rng.standard_normal(n)
            out = np.sign(z) * np.abs(z) ** float(p["kappa"])

    elif spec.kind == "fgn":
        vol_scale = float(p.get("vol_scale", 0.0))
        g = fgn(n, float(p["hurst"]), rng)
        out = (g if vol_scale == 0.0
               else _noise(rng, n, noise_df) * np.exp(vol_scale * g))

    else:   # cascade
        levels = math.ceil(math.log2(n))
        logw = cascade_log_weights(levels, float(p.get("sigma", 0.4)), rng)
        omega = logw - logw.mean()
        out = (_noise(rng, 2 ** levels, noise_df) * np.exp(omega))[:n]
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

def volume_from_series(x) -> np.ndarray:
    """Map a series to integer daily volumes.

    The series is integrated, affinely rescaled so its log-volume path
    spans [log 1e4, log 1e7], exponentiated, and rounded to whole shares.
    Positivity makes every log return defined; the affine map is a
    per-stock constant scale, to which normalized volatility is invariant
    up to rounding noise. Raises DataError when the integrated series has
    no finite span (a non-finite value, or an overflow).
    """
    y = np.cumsum(np.asarray(x, dtype=np.float64))
    ymin, ymax = float(y.min()), float(y.max())
    if not math.isfinite(ymax - ymin):
        raise DataError(f"the series overflows: its running sum spans "
                        f"{ymin} to {ymax}")
    z = np.full(y.size, 0.5) if ymax == ymin else (y - ymin) / (ymax - ymin)
    lo, hi = math.log(1e4), math.log(1e7)
    logv = lo + z * (hi - lo)
    return np.maximum(np.rint(np.exp(logv)), 1.0).astype(np.int64)


def _ticker(index: int) -> str:
    """The ticker of stock number index of a synthetic corpus."""
    return f"S{index:05d}"


def synth_stock(spec: GeneratorSpec, index: int):
    """Synthesize stock number index of a corpus plus its planted truth.

    The series of spec becomes the daily volume (volume_from_series) from
    1990-01-02 on. The constant close price and shares outstanding are
    log-normal draws from a stream derived from spec's seed.

    Returns
    -------
    (DailySeries, dict)
        The stock and its generator parameters and size attributes.

    Raises DataError, naming the stock's ticker and kind, when parameters
    that check_spec accepts are extreme enough (say a kappa of 1e300) to
    overflow the series.
    """
    # the overflow is reported by volume_from_series, not as a warning
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            vol = volume_from_series(generate(spec))
    except DataError as exc:
        raise DataError(f"{_ticker(index)} ({spec.kind}): {exc}") from None
    n = vol.size
    attrs = np.random.default_rng(derive_seed(spec.seed, "attrs"))
    close = round(float(attrs.lognormal(math.log(20.0), 1.0)), 2)
    shares = int(attrs.lognormal(math.log(5e6), 1.0))
    series = DailySeries(
        ticker=_ticker(index),
        dates=np.datetime64("1990-01-02", "D") + np.arange(n),
        volume=vol,
        close=np.full(n, close),
        shares_outstanding=np.full(n, float(shares)),
    )
    planted = {
        "kind": spec.kind, "length": spec.length, "seed": int(spec.seed),
        "params": {k: v for k, v in spec.params.items()},
        "close": close, "shares_outstanding": shares,
    }
    return series, planted


def synth_corpus(n_stocks: int, spec_rule: Callable[[int], GeneratorSpec]):
    """Synthesize a corpus plus its planted ground truth.

    Parameters
    ----------
    n_stocks : int
    spec_rule : int -> GeneratorSpec
        Per-stock generator recipe (index runs 0..n_stocks-1). Planted
        factor sweeps couple parameters to the index here.

    Returns
    -------
    (Corpus, dict)
        The corpus and a planted mapping ticker -> generator parameters
        and size attributes, the oracle side of factor-recovery tests.
    """
    if n_stocks < 1:
        raise ConfigError(f"n_stocks must be >= 1, got {n_stocks}")
    made = [synth_stock(spec_rule(i), i) for i in range(n_stocks)]
    corpus = Corpus(stocks=[s for s, _ in made],
                    summary=LoadSummary(n_files=n_stocks, n_accepted=n_stocks))
    return corpus, {s.ticker: truth for s, truth in made}


def homogeneous_rule(kind: str, length: int, params: Mapping,
                     master_seed: int):
    """spec_rule where every stock shares parameters, seeds derived per ticker."""
    frozen = dict(params)

    def rule(i: int) -> GeneratorSpec:
        return GeneratorSpec(kind=kind, length=length, params=dict(frozen),
                             seed=derive_seed(master_seed, _ticker(i)))
    return rule
