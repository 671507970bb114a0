import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import volint as vi
from volint.fitting import (BinnedPdf, collapse_distance, fit_exponential,
                            fit_power_tail, geometric_edges, hill_gamma,
                            linregress, log_bin, spearman, write_pdf_tsv)


def bin_averaged_power_pdf(g, lo=1.0, hi=1.0e3, bpd=8):
    """Exact bin-averaged densities of f(x) = C x^-g on a geometric grid."""
    edges = geometric_edges(lo, hi, bpd)
    a, b = edges[:-1], edges[1:]
    dens = (a ** (1 - g) - b ** (1 - g)) / ((g - 1) * (b - a))
    return BinnedPdf(edges=edges, densities=dens,
                     counts=np.ones(a.size, dtype=np.int64),
                     n_total=int(a.size), degenerate=False)


def test_geometric_edges_constant_ratio_and_cover():
    e = geometric_edges(1.0, 100.0, 4)
    r = 10.0 ** 0.25
    assert np.allclose(e[1:] / e[:-1], r)
    assert e[0] == 1.0
    assert e[-1] > 100.0          # strict cover, top sample falls inside
    assert e[-2] <= 100.0


def test_log_bin_decade_singletons():
    pdf = log_bin(np.array([1.0, 10.0, 100.0]), 1)
    assert pdf.counts.tolist() == [1, 1, 1]
    assert pdf.n_total == 3
    assert np.allclose(pdf.centers, np.sqrt(pdf.edges[:-1] * pdf.edges[1:]))
    # each density is 1/(3 * width)
    assert np.allclose(pdf.densities, 1.0 / (3.0 * pdf.widths))


def test_log_bin_rejects_nonpositive():
    with pytest.raises(vi.DataError):
        log_bin(np.array([0.0, 1.0]))


def test_log_bin_rejects_nonfinite():
    for bad in (np.inf, np.nan):
        with pytest.raises(vi.DataError):
            log_bin(np.array([1.0, bad]))
        with pytest.raises(vi.DataError):
            log_bin(np.array([1.0, bad]), edges=[0.5, 2.0])


def test_log_bin_single_value_degenerate():
    pdf = log_bin(np.full(10, 3.0))
    assert pdf.degenerate
    assert pdf.counts.sum() == 10


def test_log_bin_explicit_edges_drop_out_of_range():
    edges = geometric_edges(1.0, 10.0, 1)
    pdf = log_bin(np.array([0.5, 1.5, 20.0]), edges=edges)
    assert pdf.n_total == 2
    assert pdf.counts.tolist() == [1, 1]


def test_power_fit_exact_on_noiseless_bins():
    for g in (2.0, 3.2, 4.2):
        f = fit_power_tail(bin_averaged_power_pdf(g), x_min=1.0)
        assert abs(f.gamma - g) < 1e-6
        assert f.r2 > 1.0 - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(1.5, 5.0), st.integers(4, 12))
def test_power_fit_exact_property(g, bpd):
    # bin averaging a power law over a constant-ratio grid yields an
    # exact power law of the geometric centers, whatever the grid
    f = fit_power_tail(bin_averaged_power_pdf(g, bpd=bpd), x_min=1.0)
    assert abs(f.gamma - g) < 1e-6


def test_exponential_fit_exact_on_point_densities():
    edges = geometric_edges(0.1, 10.0, 8)
    c = np.sqrt(edges[:-1] * edges[1:])
    pdf = BinnedPdf(edges=edges, densities=np.exp(-c),
                    counts=np.ones(c.size, dtype=np.int64),
                    n_total=int(c.size), degenerate=False)
    f = fit_exponential(pdf)
    assert abs(f.a - 1.0) < 1e-12
    assert f.r2 > 1.0 - 1e-12


def test_exponential_fit_recovers_rate_on_samples():
    rng = np.random.default_rng(31)
    x = rng.exponential(1.0, 200_000)
    f = fit_exponential(log_bin(x[x >= 0.3], 8))
    assert abs(f.a - 1.0) < 0.05
    assert f.r2 > 0.99


def test_r_squared_ranks_the_right_model():
    rng = np.random.default_rng(32)
    pareto = (1.0 - rng.random(100_000)) ** (-1.0 / 2.0)
    expo = 1.0 + rng.exponential(1.0, 100_000)
    ppdf = log_bin(pareto[pareto <= 100], 8)
    epdf = log_bin(expo[expo <= 12], 8)
    assert (fit_power_tail(ppdf, x_min=1.0).r2
            > fit_exponential(ppdf).r2)
    assert (fit_exponential(epdf).r2
            > fit_power_tail(epdf, x_min=1.0).r2)


def test_power_fit_scale_invariance():
    rng = np.random.default_rng(33)
    x = (1.0 - rng.random(300_000)) ** (-1.0 / 2.2)
    g1 = fit_power_tail(log_bin(x, 8), x_min=1.0, x_max=50.0).gamma
    g2 = fit_power_tail(log_bin(5.0 * x, 8), x_min=5.0, x_max=250.0).gamma
    assert abs(g1 - g2) < 0.05


def test_rising_densities_rejected():
    edges = geometric_edges(1.0, 100.0, 4)
    c = np.sqrt(edges[:-1] * edges[1:])
    pdf = BinnedPdf(edges=edges, densities=c.copy(),
                    counts=np.ones(c.size, dtype=np.int64),
                    n_total=int(c.size), degenerate=False)
    with pytest.raises(vi.FitShapeError):
        fit_exponential(pdf)


def test_thin_tail_raises():
    pdf = log_bin(np.array([1.0, 10.0, 100.0]), 1)
    with pytest.raises(vi.InsufficientTailError):
        fit_power_tail(pdf, x_min=0.5)
    with pytest.raises(vi.InsufficientTailError):
        fit_exponential(pdf)


def test_x_min_prunes_the_head():
    f = fit_power_tail(bin_averaged_power_pdf(3.0, lo=0.25), x_min=1.0)
    assert f.n_tail < bin_averaged_power_pdf(3.0, lo=0.25).counts.size
    assert abs(f.gamma - 3.0) < 1e-6


def test_collapse_distance_properties():
    rng = np.random.default_rng(34)
    a = rng.normal(0.0, 1.0, 1000)
    b = rng.normal(0.2, 1.1, 800)
    d = collapse_distance(a, b)
    assert d == collapse_distance(b, a)
    assert collapse_distance(a, a) == 0.0
    assert collapse_distance(np.array([0.0, 1.0]), np.array([5.0, 6.0])) == 1.0
    # agrees with the reference implementation
    assert abs(d - stats.ks_2samp(a, b).statistic) < 1e-12


def test_hill_estimator_on_pareto():
    rng = np.random.default_rng(35)
    x = (1.0 - rng.random(200_000)) ** (-1.0 / 2.0)
    assert abs(hill_gamma(x, 1.0) - 3.0) < 0.05


def test_hill_tail_at_x_min_has_no_estimate():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(vi.InsufficientTailError):
            hill_gamma(np.ones(10))
        with pytest.raises(vi.InsufficientTailError):
            hill_gamma(np.full(10, 2.5), x_min=2.5)


@pytest.mark.parametrize("x_min", [0.0, -1.0, np.inf, np.nan])
def test_hill_rejects_x_min_outside_the_positive_reals(x_min):
    with pytest.raises(vi.ConfigError):
        hill_gamma(np.linspace(1.0, 10.0, 50), x_min)


def test_pdf_tsv_format(tmp_path):
    pdf = log_bin(np.array([1.0, 2.0, 4.0, 8.0]), 1)
    out = tmp_path / "pdf.tsv"
    write_pdf_tsv(pdf, out)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == pdf.centers.size
    c0, d0, n0 = lines[0].split("\t")
    assert float(c0) == pytest.approx(pdf.centers[0])
    assert float(d0) == pytest.approx(pdf.densities[0])
    assert int(n0) == pdf.counts[0]


# ---------------------------------------------------------------------------
# the numpy line and rank fits against the scipy reference

def agree(a, b, rel=1e-12):
    a, b = float(a), float(b)
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=rel)


def assert_matches_scipy(x, y):
    ref = stats.linregress(x, y)
    got = linregress(x, y)
    assert agree(got.slope, ref.slope)
    assert agree(got.stderr, ref.stderr)
    assert agree(got.rvalue, ref.rvalue)


coords = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=2, max_size=40))
def test_linregress_matches_scipy_on_random_points(points):
    x, y = np.array(points).T
    assume(np.ptp(x) > 1e-6)
    assert_matches_scipy(x, y)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(1e-15, 1e-6), st.integers(0, 2**32 - 1))
def test_linregress_matches_scipy_near_collinear(n, a, b, eps, seed):
    # r within rounding of +-1 exercises the clip; b == 0 a flat line
    x = np.log(np.geomspace(0.5, 500.0, n))
    y = a + b * x + eps * np.random.default_rng(seed).standard_normal(n)
    assert_matches_scipy(x, y)


@given(st.tuples(coords, coords), st.tuples(coords, coords))
def test_linregress_two_points_has_zero_stderr(p, q):
    assume(abs(p[0] - q[0]) > 1e-6)
    x, y = np.array([p, q]).T
    assert_matches_scipy(x, y)
    assert linregress(x, y).stderr == 0.0


def test_linregress_rejects_what_has_no_line():
    with pytest.raises(vi.DataError):
        linregress([1.0], [2.0])
    with pytest.raises(vi.DataError):
        linregress([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)),
                min_size=2, max_size=12))
def test_spearman_matches_scipy_with_ties(pairs):
    x, y = np.array(pairs, dtype=np.float64).T
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # scipy warns on constant input
        ref = stats.spearmanr(x, y).statistic
    assert agree(spearman(x, y), ref)


@pytest.mark.parametrize("x, y", [
    ([1, 2, 3], [5.0, 5.0, 5.0]),
    ([4, 4, 4], [1.0, 2.0, 3.0]),
    ([1, 2, 3], [1.0, np.nan, 3.0]),
    ([1], [2.0]),
])
def test_spearman_undefined_is_nan_without_warning(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(spearman(x, y))


def test_linregress_constant_y_has_nan_r_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = linregress([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert line.slope == 0.0
    assert math.isnan(line.rvalue)
