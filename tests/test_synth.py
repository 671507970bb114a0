import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import volint as vi
from volint.synth import (GeneratorSpec, cascade_log_weights, check_spec, fgn,
                          generate, iid_exceedance_probability,
                          normal_abs_moment, synth_corpus, volume_from_series)


def test_generate_is_deterministic():
    spec = GeneratorSpec("fgn", 2048, {"hurst": 0.7, "vol_scale": 0.3,
                                       "noise_df": 3.0}, 81)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a, b)
    c = generate(GeneratorSpec("fgn", 2048, {"hurst": 0.7, "vol_scale": 0.3,
                                             "noise_df": 3.0}, 82))
    assert not np.array_equal(a, c)


def test_iid_normal_moments():
    x = generate(GeneratorSpec("iid", 1 << 16, {"dist": "normal"}, 83))
    assert abs(x.mean()) < 0.02
    assert abs(x.std() - 1.0) < 0.02


def test_powered_normal_moments():
    # x = sign(z) |z|^kappa, so E x^2 = E|z|^(2 kappa)
    kappa = 1.5
    x = generate(GeneratorSpec("iid", 1 << 17,
                               {"dist": "powered_normal", "kappa": kappa}, 84))
    target = normal_abs_moment(2 * kappa)
    assert abs(np.mean(x * x) - target) / target < 0.05
    assert abs(np.mean(x)) < 0.05


def test_normal_abs_moment_known_values():
    assert normal_abs_moment(1.0) == pytest.approx(np.sqrt(2.0 / np.pi))
    assert normal_abs_moment(2.0) == pytest.approx(1.0)
    assert normal_abs_moment(4.0) == pytest.approx(3.0)


def test_iid_exceedance_probability_normal():
    # sigma of |Z| is sqrt(1 - 2/pi); P(nu > q) = erfc(q sigma / sqrt 2)
    from scipy import special
    q = 2.0
    sigma = np.sqrt(1.0 - 2.0 / np.pi)
    assert iid_exceedance_probability(q) == pytest.approx(
        special.erfc(q * sigma / np.sqrt(2.0)))
    x = generate(GeneratorSpec("iid", 1 << 20, {"dist": "normal"}, 85))
    emp = (np.abs(x) / np.sqrt(np.mean(x * x) - np.mean(np.abs(x)) ** 2) > q).mean()
    assert abs(emp - iid_exceedance_probability(q)) < 0.002


@settings(max_examples=100, deadline=None)
@given(st.floats(-26.0, 26.0))
def test_math_erfc_matches_scipy(x):
    # beyond 26 erfc is subnormal, where scipy flushes to zero
    from scipy import special
    assert math.isclose(math.erfc(x), special.erfc(x), rel_tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 6.0))
def test_iid_exceedance_probability_matches_scipy_erfc(q):
    from scipy import special
    sigma = math.sqrt(1.0 - 2.0 / math.pi)
    assert math.isclose(iid_exceedance_probability(q),
                        special.erfc(q * sigma / math.sqrt(2.0)), rel_tol=1e-12)


def test_iid_exceedance_probability_student_t_has_no_closed_form():
    with pytest.raises(vi.ConfigError):
        iid_exceedance_probability(2.0, "student_t")


def test_fgn_lag_one_autocorrelation():
    # rho(1) = 2^(2H-1) - 1 for fractional Gaussian noise
    for hurst, target in ((0.6, 2.0 ** 0.2 - 1.0), (0.8, 2.0 ** 0.6 - 1.0)):
        rng = np.random.default_rng(86)
        x = fgn(1 << 16, hurst, rng)
        r = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r - target) < 0.02
        assert abs(x.std() - 1.0) < 0.02


def test_fgn_validates_hurst():
    rng = np.random.default_rng(87)
    with pytest.raises(vi.ConfigError):
        fgn(128, 1.0, rng)
    # and its length, before any arithmetic warns
    with pytest.raises(vi.ConfigError, match="n must be >= 1"):
        fgn(0, 0.7, rng)


def test_cascade_log_weights_structure():
    rng = np.random.default_rng(88)
    w = cascade_log_weights(3, 0.5, rng)
    assert w.size == 8
    # replay the dyadic refinement: each level adds one N(0, sigma)
    # increment per segment, broadcast over the segment
    ref = np.random.default_rng(88)
    expect = np.zeros(8)
    for lev in (1, 2, 3):
        m = 2 ** lev
        expect += np.repeat(ref.normal(0.0, 0.5, m), 8 // m)
    assert np.array_equal(w, expect)


def test_cascade_modulates_signed_noise():
    x = generate(GeneratorSpec("cascade", 1024, {"sigma": 0.4,
                                                 "noise_df": 3.0}, 89))
    assert (x < 0).any() and (x > 0).any()


def test_cascade_magnitudes_cluster_but_signs_do_not():
    x = generate(GeneratorSpec("cascade", 8192,
                               {"sigma": 0.4, "noise_df": 3.0}, 90))
    a_sign = vi.dfa(x).alpha
    a_abs = vi.dfa(np.abs(x)).alpha
    assert abs(a_sign - 0.5) < 0.07
    assert a_abs > a_sign + 0.1


def test_fgn_magnitudes_forget_weak_linear_memory():
    # |fGn| at H=0.7 has Hurst max(0.5, 2H-1) = 0.5; the linear memory
    # lives in the signs
    rng = np.random.default_rng(91)
    x = fgn(1 << 15, 0.7, rng)
    assert abs(vi.dfa(x).alpha - 0.7) < 0.05
    assert abs(vi.dfa(np.abs(x)).alpha - 0.5) < 0.05


def _fgn_uncached(n, hurst, rng):
    """fgn as it was before its amplitudes were cached and before it took
    a real inverse FFT of the half spectrum: the complex construction, the
    reference."""
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


# the two constructions are equal in exact arithmetic; in floating point
# their samples differ by a few 1e-15
FGN_ATOL = 1e-12


@pytest.mark.parametrize("n, hurst", [(2, 0.5), (3, 0.3), (100, 0.7),
                                      (1000, 0.8), (4096, 0.95)])
def test_fgn_matches_the_uncached_formula_within_1e_12(n, hurst):
    for seed in (1, 2):
        got = fgn(n, hurst, np.random.default_rng(seed))
        want = _fgn_uncached(n, hurst, np.random.default_rng(seed))
        np.testing.assert_allclose(got, want, rtol=0, atol=FGN_ATOL)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5000), st.floats(0.01, 0.99), st.integers(0, 2**32))
def test_fgn_equals_the_complex_construction(n, hurst, seed):
    got = fgn(n, hurst, np.random.default_rng(seed))
    want = _fgn_uncached(n, hurst, np.random.default_rng(seed))
    np.testing.assert_allclose(got, want, rtol=0, atol=FGN_ATOL)


def test_fgn_eigenvalue_cache_is_read_only_and_keyed_by_n_and_hurst():
    from volint.synth import _amplitudes
    amp = _amplitudes(256, 0.8)
    assert not amp.flags.writeable
    with pytest.raises(ValueError):
        amp[0] = 0.0
    # corpora with different (n, hurst), their stocks interleaved; more
    # shapes than the cache holds, so entries are evicted and recomputed
    shapes = [(256, 0.8), (300, 0.6), (64, 0.3), (65, 0.3), (64, 0.31),
              (2, 0.5)] * 2
    for i, (n, hurst) in enumerate(shapes):
        got = fgn(n, hurst, np.random.default_rng(i))
        want = _fgn_uncached(n, hurst, np.random.default_rng(i))
        np.testing.assert_allclose(got, want, rtol=0, atol=FGN_ATOL)
    for n, hurst in shapes:
        assert not _amplitudes(n, hurst).flags.writeable


@pytest.mark.parametrize("params, n_stocks", [
    ({"hurst": 0.8, "vol_scale": 0.3, "noise_df": 2.2}, 24),
    ({"hurst": 0.1}, 4), ({"hurst": 0.5}, 4), ({"hurst": 0.9}, 4)])
def test_fgn_volumes_equal_those_of_the_complex_construction(params, n_stocks):
    # what reaches the outputs is pinned bit for bit: the volumes of
    # synth_stock against volumes built in this process from the reference
    # and the same draws, so the pin holds on any CPU
    n = 8192
    rule = vi.homogeneous_rule("fgn", n, params, 1106)
    for i in range(n_stocks):
        spec = rule(i)
        got = vi.synth_stock(spec, i)[0].volume
        rng = np.random.default_rng(spec.seed)
        x = _fgn_uncached(n, params["hurst"], rng)
        if "vol_scale" in params:
            x = rng.standard_t(params["noise_df"], n) * np.exp(
                params["vol_scale"] * x)
        assert got.tobytes() == volume_from_series(x).tobytes()


def test_cascade_levels_follow_from_length():
    # the fewest levels whose 2**levels values cover the series: noise
    # modulated by a cascade of that depth, cut to the length
    for n in (2, 3, 64, 65, 1024, 1025):
        levels = (n - 1).bit_length()
        assert 2 ** (levels - 1) < n <= 2 ** levels
        rng = np.random.default_rng(92)
        logw = cascade_log_weights(levels, 0.4, rng)
        want = (rng.standard_normal(2 ** levels) * np.exp(logw - logw.mean()))[:n]
        got = generate(GeneratorSpec("cascade", n, {"sigma": 0.4}, 92))
        assert got.tobytes() == want.tobytes()


def test_invalid_specs_rejected():
    bad = [
        GeneratorSpec("brownian", 128, {}, 1),
        GeneratorSpec("iid", 1, {"dist": "normal"}, 1),
        GeneratorSpec("iid", 128, {"dist": "student_t", "df": 0.0}, 1),
        GeneratorSpec("iid", 128, {"dist": "powered_normal", "kappa": -1.0}, 1),
        GeneratorSpec("iid", 128, {"dist": "normal", "hurst": 0.5}, 1),
        GeneratorSpec("fgn", 128, {"vol_scale": 0.3}, 1),
        GeneratorSpec("fgn", 128, {"hurst": 0.7, "sigma": 1.0}, 1),
    ]
    for spec in bad:
        with pytest.raises(vi.ConfigError):
            generate(spec)


def test_volume_from_series_span_and_type():
    rng = np.random.default_rng(93)
    v = volume_from_series(rng.standard_normal(4096))
    assert v.dtype == np.int64
    assert v.min() == 10_000
    assert v.max() == 10_000_000
    assert np.all(v >= 1)


def test_volume_from_flat_series():
    v = volume_from_series(np.zeros(100))
    assert np.all(v == v[0])
    assert v[0] >= 1


def test_synth_corpus_shape_and_planted_truth():
    corpus, planted = synth_corpus(5, vi.homogeneous_rule(
        "fgn", 512, {"hurst": 0.8, "vol_scale": 0.3, "noise_df": 2.5}, 94))
    assert corpus.tickers == [f"S{i:05d}" for i in range(5)]
    assert len(planted) == 5
    for t in corpus.tickers:
        assert planted[t]["kind"] == "fgn"
        assert planted[t]["length"] == 512
        assert planted[t]["params"]["hurst"] == 0.8
    s = corpus.stocks[0]
    assert s.lifetime_days == 512
    assert np.all(s.volume >= 1)
    assert np.all(s.close > 0)
    assert np.isfinite(s.shares_outstanding).all()


def test_synth_corpus_roundtrips_through_pipeline():
    corpus, _ = synth_corpus(1, vi.homogeneous_rule(
        "iid", 400, {"dist": "student_t", "df": 3.0}, 96))
    v = vi.volatility(corpus.stocks[0].volume)
    assert v.size == 399
    iv = vi.extract_intervals(v, 2.0)
    assert iv.n_exceedances > 0


@pytest.mark.parametrize("spec, name", [
    # a required parameter missing: ConfigError, not KeyError
    (GeneratorSpec("iid", 100, {"dist": "student_t"}, 0), "df"),
    (GeneratorSpec("iid", 100, {"dist": "powered_normal"}, 0), "kappa"),
    # a parameter the kind (or iid's dist) does not take
    (GeneratorSpec("iid", 100, {"dist": "normal", "df": 3.0}, 0), "df"),
    (GeneratorSpec("iid", 100, {"dist": "student_t", "df": 3.0,
                                "kappa": 2.0}, 0), "kappa"),
    (GeneratorSpec("fgn", 100, {"hurst": 0.7, "levels": 3}, 0), "levels"),
    (GeneratorSpec("cascade", 100, {"hurst": 0.7}, 0), "hurst"),
    (GeneratorSpec("iid", 100, {"dist": "laplace"}, 0), "laplace"),
    # values out of range, NaN included: numpy would raise ValueError or
    # silently return NaN
    (GeneratorSpec("fgn", 100, {"hurst": 0.7, "vol_scale": 1.0,
                                "noise_df": 0.0}, 0), "noise_df"),
    (GeneratorSpec("cascade", 100, {"noise_df": -1.0}, 0), "noise_df"),
    (GeneratorSpec("cascade", 100, {"sigma": float("nan")}, 0), "sigma"),
    (GeneratorSpec("fgn", 100, {"hurst": 0.7,
                                "vol_scale": float("nan")}, 0), "vol_scale"),
    (GeneratorSpec("fgn", 100, {"hurst": float("nan")}, 0), "hurst"),
    (GeneratorSpec("iid", 100, {"dist": "student_t",
                                "df": float("nan")}, 0), "df"),
    # infinite values, which the command line rejects as not finite
    (GeneratorSpec("cascade", 100, {"sigma": float("inf")}, 0), "sigma"),
    (GeneratorSpec("iid", 100, {"dist": "powered_normal",
                                "kappa": float("inf")}, 0), "kappa"),
    (GeneratorSpec("fgn", 100, {"hurst": 0.7, "vol_scale": float("inf")}, 0),
     "vol_scale"),
    # a cascade's levels follow from its length
    (GeneratorSpec("cascade", 100, {"levels": 7}, 0), "levels"),
    # noise_df shapes the noise that only vol_scale > 0 draws
    (GeneratorSpec("fgn", 64, {"hurst": 0.7, "vol_scale": 0.0,
                               "noise_df": 3.0}, 0), "noise_df"),
    (GeneratorSpec("fgn", 64, {"hurst": 0.7, "noise_df": 3.0}, 0), "noise_df"),
    # the cascade output is always noise modulated by the measure
    (GeneratorSpec("cascade", 64, {"signed": False}, 0), "signed"),
])
def test_check_spec_names_the_bad_parameter(spec, name):
    for check in (check_spec, generate):
        with pytest.raises(vi.ConfigError, match=name):
            check(spec)


@pytest.mark.parametrize("kind, params", [
    ("iid", {"dist": "powered_normal", "kappa": 1e300}),
    ("iid", {"dist": "student_t", "df": 1e-300}),
    ("fgn", {"hurst": 0.5, "vol_scale": 1e300}),
    ("cascade", {"sigma": 1e300}),
])
def test_overflowing_parameters_raise_data_error_not_garbage(kind, params):
    # finite and in range, but the series overflows: no volume of
    # -2**63 is written, and no RuntimeWarning escapes
    spec = vi.homogeneous_rule(kind, 300, params, 0)(0)
    check_spec(spec)
    with pytest.raises(vi.DataError, match="overflows"):
        vi.synth_stock(spec, 0)


def test_check_spec_accepts_what_generate_realizes():
    for spec in (GeneratorSpec("iid", 64, {}, 0),
                 GeneratorSpec("iid", 64, {"dist": "student_t", "df": 3}, 0),
                 GeneratorSpec("fgn", 64, {"hurst": 0.7, "vol_scale": 0.0}, 0),
                 GeneratorSpec("fgn", 64, {"hurst": 0.7, "vol_scale": 0.5,
                                           "noise_df": 3.0}, 0),
                 GeneratorSpec("cascade", 64, {"sigma": 0.0}, 0)):
        check_spec(spec)
        x = generate(spec)
        assert x.size == 64 and np.isfinite(x).all()
