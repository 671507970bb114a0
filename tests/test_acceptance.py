"""Acceptance gates for the full pipeline, one test per criterion.

Every test prints a single pass/fail line with the measured numbers next
to their tolerances, so the complete gate status can be scraped from the
log. All seeds are frozen; the suite is deterministic.
"""
import os
import subprocess
import sys
import time

import numpy as np
from scipy import stats

import volint as vi

from conftest import pooled_intervals


def report(ok, label, detail):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {label}: {detail}"


def ks_to_geometric(scaled, p):
    """Two-sided sup distance between scaled intervals and the geometric
    law with per-step probability p, evaluated in scaled units (tau*p)."""
    x = np.sort(scaled)
    n = x.size
    k = np.floor(x / p + 1e-9)
    F = 1.0 - (1.0 - p) ** k
    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    return max(np.max(np.abs(hi - F)), np.max(np.abs(lo - F)))


def max_pairwise_ks(samples):
    worst = 0.0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            worst = max(worst, vi.collapse_distance(samples[i], samples[j]))
    return worst


def test_iid_control_is_memoryless():
    t0 = time.monotonic()
    corpus, _ = vi.synth_corpus(500, vi.homogeneous_rule(
        "iid", 5000, {"dist": "powered_normal", "kappa": 6.0}, 101))
    _, pooled = pooled_intervals(corpus, 2.0)
    x = pooled.values
    p = vi.iid_exceedance_probability(2.0, "powered_normal", kappa=6.0)
    ks = ks_to_geometric(x, p)
    # intervals are integers, so the scaled support is a lattice with
    # spacing ~p; below ~6 atoms the bins are narrower than the spacing
    # and the histogram combs. Fit the exponential past that region.
    pdf = vi.log_bin(x[x >= 0.1], 8)
    efit = vi.fit_exponential(pdf)
    dt = time.monotonic() - t0
    ok = efit.r2 > 0.99 and ks < 0.02 and dt < 60
    report(ok, "1 (iid control)",
           f"exp r2={efit.r2:.4f}>0.99, KS vs geometric={ks:.4f}<0.02, "
           f"n={x.size}, {dt:.1f}s<60s")


def test_scaling_collapse_across_thresholds(fgn_pools):
    t0 = time.monotonic()
    _, pools, raws, build = fgn_pools
    qs = (2.0, 2.5, 3.0)
    counts = [len(pools[q]) for q in qs]
    worst_scaled = max_pairwise_ks([pools[q].values for q in qs])
    raw_spread = vi.collapse_distance(raws[2.0], raws[3.0])
    dt = build + (time.monotonic() - t0)
    ok = (worst_scaled < 0.05 and raw_spread > 0.2
          and min(counts) >= 10_000 and dt < 120)
    report(ok, "2 (scaling collapse)",
           f"max scaled KS={worst_scaled:.4f}<0.05, raw KS q2 vs q3="
           f"{raw_spread:.3f}>0.2, counts={counts} all>=1e4, {dt:.1f}s<120s")


def test_regime_dichotomy_cascade_vs_fgn():
    t0 = time.monotonic()
    out = {}
    for name, kind, n, params, seed in (
            ("cascade", "cascade", 16384, {"sigma": 0.4, "noise_df": 2.2}, 303),
            ("fgn", "fgn", 8192,
             {"hurst": 0.8, "vol_scale": 0.5, "noise_df": 2.2}, 404)):
        corpus, _ = vi.synth_corpus(400, vi.homogeneous_rule(kind, n, params, seed))
        _, pooled = pooled_intervals(corpus, 2.0)
        vals = pooled.values
        tail = vi.log_bin(vals[vals >= 1.0], 8)
        r2_pow = vi.fit_power_tail(tail, x_min=1.0).r2
        r2_exp = vi.fit_exponential(tail).r2
        pdf = vi.log_bin(vals, 8)
        # same estimator on two staggered 1.5-decade windows: a true
        # power law gives the same slope, a bending tail drifts
        ga = vi.fit_power_tail(pdf, x_min=1.0, x_max=31.6)
        gb = vi.fit_power_tail(pdf, x_min=1.78, x_max=56.2)
        out[name] = (r2_pow, r2_exp, ga, gb)
    cr2p, cr2e, cga, cgb = out["cascade"]
    fr2p, fr2e, fga, fgb = out["fgn"]
    c_drift = abs(cga.gamma - cgb.gamma)
    f_drift = abs(fga.gamma - fgb.gamma)
    dt = time.monotonic() - t0
    cascade_ok = (cr2p > cr2e and np.isfinite(cga.gamma)
                  and cga.r2 > 0.97 and c_drift < 0.5)
    fgn_ok = fr2e > fr2p and f_drift > 0.6
    ok = cascade_ok and fgn_ok and dt < 300
    report(ok, "3 (regime dichotomy)",
           f"cascade tail r2 pow={cr2p:.3f}>exp={cr2e:.3f}, gamma="
           f"{cga.gamma:.2f} over [1,31.6] r2={cga.r2:.3f}, drift="
           f"{c_drift:.2f}<0.5; fgn exp={fr2e:.3f}>pow={fr2p:.3f}, drift="
           f"{f_drift:.2f}>0.6; {dt:.1f}s<300s")


def test_tail_estimator_exactness():
    # bin-averaged x^-g densities on a constant-ratio grid are an exact
    # power law of the geometric bin centers, so the fit must be exact
    worst = 0.0
    for g in (2.0, 3.2, 4.2):
        edges = vi.geometric_edges(1.0, 1.0e3, 8)
        lo, hi = edges[:-1], edges[1:]
        dens = (lo ** (1 - g) - hi ** (1 - g)) / ((g - 1) * (hi - lo))
        pdf = vi.BinnedPdf(edges=edges, densities=dens,
                           counts=np.ones(lo.size, dtype=np.int64),
                           n_total=int(lo.size), degenerate=False)
        worst = max(worst, abs(vi.fit_power_tail(pdf, x_min=1.0).gamma - g))
    rng = np.random.default_rng(424242)
    x = (1.0 - rng.random(1_000_000)) ** (-1.0 / 2.0)  # density ~ x^-3
    pdf = vi.log_bin(x, 8)
    # cap the window where bins still hold tens of samples; beyond that
    # 1-count bins scatter the log densities and bias the slope
    g_reg = vi.fit_power_tail(pdf, x_min=1.0, x_max=100.0).gamma
    g_hill = vi.hill_gamma(x, 1.0)
    ok = worst < 1e-6 and abs(g_reg - 3.0) < 0.1 and abs(g_hill - 3.0) < 0.1
    report(ok, "4 (estimator exactness)",
           f"noiseless worst |err|={worst:.2e}<1e-6, pareto MC regression="
           f"{g_reg:.3f}, hill={g_hill:.3f}, both within 0.1 of 3")


def test_dfa_calibration():
    t0 = time.monotonic()
    n, n_seeds = 1 << 16, 20
    fails = []
    lines = []
    for H in (None, 0.6, 0.7, 0.8, 0.9):
        alphas = []
        for s in range(n_seeds):
            if H is None:
                rng = np.random.default_rng(vi.derive_seed(505, "white", str(s)))
                x = rng.standard_normal(n)
            else:
                x = vi.generate(vi.GeneratorSpec(
                    "fgn", n, {"hurst": H, "vol_scale": 0.0},
                    vi.derive_seed(505, f"H{H}", str(s))))
            alphas.append(vi.dfa(x).alpha)
        a = np.asarray(alphas)
        target = 0.5 if H is None else H
        tol = 0.03 if H is None else 0.05
        err = abs(a.mean() - target)
        if err >= tol or np.abs(a - target).max() >= 0.08:
            fails.append(H)
        lines.append(f"{'white' if H is None else f'H={H}'}:"
                     f"{a.mean():.3f}")
    dt = time.monotonic() - t0
    ok = not fails and dt < 180
    report(ok, "5 (DFA calibration)",
           f"mean alpha {', '.join(lines)} (white tol 0.03, fgn tol 0.05), "
           f"{n_seeds} seeds each, {dt:.1f}s<180s")


def test_shuffling_destroys_memory(fgn_corpus, fgn_pools):
    corpus, _ = fgn_corpus
    items, _, _, _ = fgn_pools
    # long-term: shuffled volatility series must look uncorrelated
    alphas = []
    for s in corpus.stocks[:100]:
        v = vi.volatility(s.volume)
        sh = vi.shuffle_control(v, vi.derive_seed(909, s.ticker, "shuffle"))
        alphas.append(vi.dfa(sh).alpha)
    mean_alpha = float(np.mean(alphas))

    # short-term: octile curves order by tau0 only before shuffling
    tau0, tau = vi.consecutive_pairs(items[2.0])
    bounds = vi.octile_boundaries(tau0, "quantile")
    rho = vi.memory_summary(vi.conditional_pdfs(tau0, tau, bounds))

    sh_items = []
    for s in corpus:
        v = vi.volatility(s.volume)
        sh = vi.shuffle_control(v, vi.derive_seed(909, s.ticker, "shuffle"))
        sh_items.append((s.ticker, vi.extract_intervals(sh, 2.0)))
    s_tau0, s_tau = vi.consecutive_pairs(sh_items)
    s_bounds = vi.octile_boundaries(s_tau0, "quantile")
    s_oct = vi.assign_octiles(s_tau0, s_bounds)
    s_samples = [s_tau[s_oct == k] for k in range(1, 9)]
    worst_ks = max_pairwise_ks(s_samples)

    ok = (abs(mean_alpha - 0.5) < 0.03 and worst_ks < 0.05
          and rho > 0.8)
    report(ok, "6 (shuffle controls)",
           f"shuffled DFA alpha={mean_alpha:.3f} within 0.5+-0.03, shuffled "
           f"octile max KS={worst_ks:.4f}<0.05, unshuffled spearman(octile, "
           f"mean tau)={rho:.3f}>0.8")


def test_conditional_mixture_identity(fgn_pools):
    items, pools, _, _ = fgn_pools
    tau0, tau = vi.consecutive_pairs(items[2.0])
    bounds = vi.octile_boundaries(tau0, "quantile")
    unconditional = vi.log_bin(pools[2.0].values, 8)
    conds = vi.conditional_pdfs(tau0, tau, bounds, edges=unconditional.edges)
    n_pairs = sum(c.n_pairs for c in conds)
    mix = np.zeros_like(unconditional.densities)
    for c in conds:
        mix += c.pdf.densities * (c.n_pairs / n_pairs)
    # compare where the unconditional bin is well populated; the only
    # true discrepancy is each stock's pairless first interval
    mask = unconditional.counts >= 1000
    rel = np.abs(mix[mask] - unconditional.densities[mask])
    rel /= unconditional.densities[mask]
    ok = n_pairs >= 100_000 and rel.max() < 0.01
    report(ok, "7 (mixture identity)",
           f"n_pairs={n_pairs}>=1e5, max relative density error="
           f"{rel.max():.4f}<0.01 over {int(mask.sum())} bins with >=1000 counts")


PER_BIN = 400
LIFETIMES = (3600, 4200, 4800, 5400, 6000)
HURSTS = (0.60, 0.68, 0.76, 0.84, 0.92)


def _sweep_corpus(tag, hurst_of_group):
    def rule(i):
        g = i // PER_BIN
        return vi.GeneratorSpec(
            "fgn", LIFETIMES[g],
            {"hurst": hurst_of_group(g), "vol_scale": 0.8},
            vi.derive_seed(808, tag, f"{i:05d}"))
    corpus, _ = vi.synth_corpus(len(LIFETIMES) * PER_BIN, rule)
    return corpus


def _lifetime_trends(corpus):
    lifetimes = [vi.stock_factors(s)[vi.FACTORS.index("lifetime")]
                 for s in corpus]
    edges = vi.make_edges(lifetimes, "lifetime", 5)
    binning = vi.bin_stocks(corpus.tickers, lifetimes, "lifetime", edges)
    results = vi.map_stocks(corpus, qs=(2.0,), order=1)
    gbins = vi.gamma_by_factor(
        binning, {r.ticker: r.by_q[2.0] for r in results if not r.degenerate})
    abins = vi.alpha_by_factor(
        binning, {r.ticker: r.curve.alpha for r in results if r.curve})
    gammas = [b.gamma for b in gbins]
    alphas = [b.mean_alpha for b in abins]
    mids = [(b.lo + b.hi) / 2 for b in gbins]
    g_rho = stats.spearmanr(mids, gammas).statistic
    a_rho = stats.spearmanr(mids, alphas).statistic
    return gammas, alphas, g_rho, a_rho


def test_planted_factor_trends():
    planted = _sweep_corpus("planted", lambda g: HURSTS[g])
    exch = _sweep_corpus("exch", lambda g: 0.76)
    g, a, g_rho, a_rho = _lifetime_trends(planted)
    eg, ea, eg_rho, _ = _lifetime_trends(exch)
    ea_range = max(ea) - min(ea)
    # the exchangeable control must show neither the rank trend nor the
    # alpha spread; 5-point spearman is scale blind, hence the range bar
    ok = (len(g) >= 5 and all(x is not None for x in g)
          and g_rho < -0.8 and a_rho > 0.8
          and abs(eg_rho) < 0.8 and ea_range < 0.03)
    report(ok, "8 (planted factor trends)",
           f"planted spearman gamma={g_rho:.2f}<-0.8 over {len(g)} bins, "
           f"alpha={a_rho:.2f}>0.8; exchangeable |spearman gamma|="
           f"{abs(eg_rho):.2f}<0.8, alpha range={ea_range:.4f}<0.03")


def test_byte_identical_output_at_any_jobs(tmp_path):
    def run(out, jobs):
        cmd = [sys.executable, "-m", "volint", "intervals",
               "--synth-kind", "fgn", "--synth-n-stocks", "40",
               "--synth-length", "2048", "--synth-hurst", "0.8",
               "--synth-vol-scale", "0.3", "--synth-df", "2.2",
               "--thresholds", "2.0,2.5", "--seed", "99",
               "--out", str(out), "--jobs", str(jobs)]
        r = subprocess.run(cmd, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        tree = {}
        for root, _, files in os.walk(out):
            for f in files:
                p = os.path.join(root, f)
                with open(p, "rb") as fh:
                    tree[os.path.relpath(p, out)] = fh.read()
        return tree
    t1 = run(tmp_path / "j1", 1)
    t3 = run(tmp_path / "j3", 3)
    t3b = run(tmp_path / "j3b", 3)
    same_files = sorted(t1) == sorted(t3) == sorted(t3b)
    identical = same_files and all(t1[k] == t3[k] == t3b[k] for k in t1)
    report(identical, "9 (determinism)",
           f"{len(t1)} files byte-identical across --jobs 1/3 and repeat runs")
