import subprocess
import sys
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import volint as vi
from dfa_reference import reference_dfa
from volint.dfa import DEFAULT_MIN_WINDOW, MAX_ORDER, default_windows, dfa


def test_white_noise_alpha_half():
    rng = np.random.default_rng(61)
    c = dfa(rng.standard_normal(8192))
    assert abs(c.alpha - 0.5) < 0.05
    assert not c.alpha_flagged


def test_fgn_alpha_tracks_hurst():
    x = vi.generate(vi.GeneratorSpec("fgn", 16384,
                                     {"hurst": 0.8, "vol_scale": 0.0}, 62))
    assert abs(dfa(x).alpha - 0.8) < 0.07


def test_random_walk_increment_vs_profile():
    # feeding an already integrated series doubles the slope and trips
    # the nonstationarity flag
    rng = np.random.default_rng(63)
    walk = np.cumsum(rng.standard_normal(8192))
    c = dfa(walk)
    assert c.alpha > 1.2
    assert c.alpha_flagged


def test_linear_trend_is_annihilated_by_order_two():
    # a ramp's profile is quadratic: order 2 leaves zero residual, so every
    # fluctuation is ~0 and no slope is defined, while order 1 does not
    ramp = np.linspace(0.0, 5.0, 4096)
    c1 = dfa(ramp, order=1)
    c2 = dfa(ramp, order=2)
    assert np.all(c2.fluctuations < 1e-8 * c1.fluctuations.max())
    assert np.isnan(c2.alpha)
    assert c1.fluctuations.min() > 1e-6
    assert np.isfinite(c1.alpha)


def test_quadratic_trend_is_annihilated_by_order_three():
    # the profile of t * t is cubic: order 3 leaves only rounding noise,
    # below the floor, while order 2 does not
    x = np.linspace(0.0, 1.0, 4096) ** 2
    c2 = dfa(x, order=2)
    c3 = dfa(x, order=3)
    assert np.all(c3.fluctuations < 1e-10 * np.abs(np.cumsum(x - x.mean())).max())
    assert np.isnan(c3.alpha)
    assert c2.fluctuations.max() > 1e-6
    assert np.isfinite(c2.alpha)


def test_fluctuations_grow_with_window():
    rng = np.random.default_rng(64)
    c = dfa(rng.standard_normal(8192))
    f = c.fluctuations
    # noise makes tiny local dips possible, never large ones
    assert np.all(f[1:] > 0.95 * f[:-1])


def test_shuffled_volatility_alpha_half():
    corpus, _ = vi.synth_corpus(1, vi.homogeneous_rule(
        "fgn", 16384, {"hurst": 0.85, "vol_scale": 0.5, "noise_df": 3.0}, 65))
    s = corpus.stocks[0]
    v = vi.volatility(s.volume)
    assert dfa(v).alpha > 0.6
    sh = vi.shuffle_control(v, 66)
    assert abs(dfa(sh).alpha - 0.5) < 0.05


def test_default_windows_shape():
    w = default_windows(8192)
    assert w[0] == 8
    assert w[-1] == 2048
    assert np.all(np.diff(w) > 0)
    with pytest.raises(vi.DataError):
        default_windows(20)


def test_too_short_series_rejected():
    with pytest.raises(vi.DataError, match="length"):
        dfa(np.ones(16))


def test_order_outside_1_to_6_rejected():
    rng = np.random.default_rng(67)
    x = rng.standard_normal(1024)
    for order in (0, 7):
        with pytest.raises(vi.ConfigError, match="from 1 to 6"):
            dfa(x, order=order)
    assert np.isfinite(dfa(x, order=6).alpha)


def test_alpha_by_factor_flat_for_iid():
    corpus, _ = vi.synth_corpus(40, vi.homogeneous_rule(
        "iid", 2500, {"dist": "student_t", "df": 3.0}, 69))
    results = vi.map_stocks(corpus, order=1, factors=True)
    volume = np.array([r.factors[vi.FACTORS.index("volume")] for r in results])
    binning = vi.bin_stocks([r.ticker for r in results], volume, "volume",
                            vi.make_edges(volume, "volume", 4))
    alphas = {r.ticker: r.curve.alpha for r in results}
    bins = vi.alpha_by_factor(binning, alphas)
    assert len(bins) == 4
    assert sum(b.count for b in bins) == 40
    means = [b.mean_alpha for b in bins if b.count > 0]
    assert max(means) - min(means) < 0.05
    for b in bins:
        if b.count > 0:
            assert abs(b.mean_alpha - 0.5) < 0.05


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_series_rejected(bad):
    x = np.random.default_rng(70).standard_normal(1024)
    x[[3, 500, 1000]] = bad
    with pytest.raises(vi.DataError, match="3 non-finite"):
        dfa(x)


def test_first_dfa_call_imports_no_numpy_module():
    # every forked worker makes a first call; numpy.polynomial (polyfit) and
    # numpy.ma (np.unique under numpy 2) each cost milliseconds to import;
    # at n = 128 the 20 geometric sizes from 8 to 32 collide, so the first
    # call removes duplicates
    assert default_windows(128).size < 20
    code = ("import sys, numpy as np, volint; "
            "x = np.random.default_rng(0).standard_normal(4096); "
            "before = set(sys.modules); volint.dfa(x[:128]); volint.dfa(x); "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.startswith('numpy')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "[]"


# the projection against the per-box polyfit it replaced (tests/dfa_reference.py)

@st.composite
def dfa_case(draw):
    """(order, n) over every legal shape: orders 1 to MAX_ORDER, and n
    from the shortest series with windows (32, a single window of 8) up."""
    order = draw(st.integers(1, MAX_ORDER))
    n = draw(st.integers(4 * DEFAULT_MIN_WINDOW, 5000))
    return order, n


@settings(max_examples=150, deadline=None)
@given(dfa_case(), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-3, 1e6), st.floats(-1e6, 1e6))
def test_projection_matches_polyfit_reference(case, seed, scale, offset):
    order, n = case
    x = offset + scale * np.random.default_rng(seed).standard_normal(n)
    got = dfa(x, order=order)
    w, f, alpha, _ = reference_dfa(x, order)
    assert np.array_equal(got.window_sizes, w)
    np.testing.assert_allclose(got.fluctuations, f, rtol=1e-12, atol=0)
    if np.isnan(alpha):
        assert np.isnan(got.alpha)
    else:
        assert abs(got.alpha - alpha) <= 1e-12


def residual_square_sum(basis, values):
    """The least-squares residual sum of squares of values on the columns
    of basis (a list of rows), exactly: Gauss-Jordan elimination of the
    normal equations, whose matrix is positive definite, in Fractions."""
    m = len(basis[0])
    rows = [[sum(b[i] * b[j] for b in basis) for j in range(m)]
            + [sum(b[i] * v for b, v in zip(basis, values))] for i in range(m)]
    for c in range(m):
        rows[c] = [a / rows[c][c] for a in rows[c]]
        for r in range(m):
            if r != c:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    coef = [row[m] for row in rows]
    return sum((v - sum(c * b for c, b in zip(coef, bs))) ** 2
               for v, bs in zip(values, basis))


def exact_alpha(x, order):
    """alpha of DFA on x as exact arithmetic gives it, for a series with
    two default windows: each box's residual in Fractions, on the float
    profile that dfa computes, then F(n) and the slope, one quotient of
    logarithms, to 40 digits."""
    n = x.size
    windows = default_windows(n).tolist()
    assert len(windows) == 2
    y = np.cumsum(x - x.mean())
    ctx = Context(prec=40)
    logs = []
    for w in windows:
        k = n // w
        basis = [[Fraction(t) ** j for j in range(order + 1)] for t in range(w)]
        boxes = np.concatenate([y[:k * w].reshape(k, w), y[n - k * w:].reshape(k, w)])
        mean = sum(residual_square_sum(basis, list(map(Fraction, box)))
                   for box in boxes.tolist()) / (2 * k * w)
        f = ctx.divide(Decimal(mean.numerator), Decimal(mean.denominator)).sqrt(ctx)
        logs.append((f.ln(ctx), Decimal(w).ln(ctx)))
    (f0, w0), (f1, w1) = logs
    return float(ctx.divide(f1 - f0, w1 - w0))


@pytest.fixture(scope="module")
def worst_conditioned():
    """(x, order, exact alpha): order 6 on the 36 points of default_rng(0),
    windows of 8 and 9 points, where an order-6 fit is conditioned worst."""
    x = np.random.default_rng(0).standard_normal(36)
    return x, 6, exact_alpha(x, 6)


def test_polyfit_reference_is_near_the_exact_alpha(worst_conditioned):
    x, order, exact = worst_conditioned
    assert abs(reference_dfa(x, order)[2] - exact) <= 1e-13     # 4.6e-14


@pytest.mark.xfail(strict=True, reason=(
    "the QR projection puts alpha 1.12e-12 from the exact alpha, against "
    "4.6e-14 for the polyfit reference; a fix changes DFA's output bytes"))
def test_projection_is_near_the_exact_alpha(worst_conditioned):
    x, order, exact = worst_conditioned
    assert abs(dfa(x, order=order).alpha - exact) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(dfa_case(), st.lists(st.floats(-10, 10), min_size=MAX_ORDER,
                            max_size=MAX_ORDER))
def test_detrendable_input_agrees_with_reference(case, coefs):
    # input of degree < order, whose profile is a polynomial of degree
    # <= order: every F(n) is rounding noise, which the floor rule drops
    order, n = case
    x = np.polynomial.polynomial.polyval(np.arange(n, dtype=np.float64),
                                         coefs[:order])
    got = dfa(x, order=order)
    _, f, alpha, floor = reference_dfa(x, order)
    kept, ref_kept = got.fluctuations > floor, f > floor
    if not ref_kept.any():
        assert not kept.any()
        assert np.isnan(got.alpha) and np.isnan(alpha)
    else:
        assert np.array_equal(kept, ref_kept)
