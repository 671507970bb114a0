"""Interval statistics conditioned on stock-level factors.

Plants a corpus in which longer-lived stocks carry more persistent
volatility, bins stocks by lifetime, and checks that both the interval
tail exponent gamma and the DFA exponent alpha trend with the bin.
"""

import numpy as np

import volint as vi

PER_BIN = 60
LIFETIMES = (2500, 3800, 5000, 6300, 7600)
HURSTS = (0.60, 0.68, 0.76, 0.84, 0.92)


def planted_corpus():
    def rule(i):
        g = i // PER_BIN
        return vi.GeneratorSpec(
            "fgn", LIFETIMES[g],
            {"hurst": HURSTS[g], "vol_scale": 0.8},
            vi.derive_seed(77, f"{i:05d}"))
    corpus, _ = vi.synth_corpus(PER_BIN * len(LIFETIMES), rule)
    return corpus


def main():
    # one pass over the stocks: intervals at q=2, the DFA curve and the
    # factor row; the rows stack into one table, a column per factor
    results = vi.map_stocks(planted_corpus(), qs=(2.0,), order=1, factors=True)
    tickers = [r.ticker for r in results]
    table = np.array([r.factors for r in results])
    lifetimes = table[:, vi.FACTORS.index("lifetime")]
    edges = vi.make_edges(lifetimes, "lifetime", n_bins=len(LIFETIMES))
    binning = vi.bin_stocks(tickers, lifetimes, "lifetime", edges)
    intervals = {r.ticker: r.by_q[2.0] for r in results if not r.degenerate}
    alphas = {r.ticker: r.curve.alpha for r in results if r.curve}

    print("gamma by lifetime bin (q=2.0):")
    gcol = vi.gamma_by_factor(binning, intervals)
    for b in gcol:
        if b.gamma is None:
            continue
        print(f"  [{b.lo:6.0f}, {b.hi:6.0f}): gamma = {b.gamma:5.2f}"
              f" +- {b.stderr:.2f}  ({b.n_intervals} intervals)")

    print("\nalpha by lifetime bin:")
    acol = vi.alpha_by_factor(binning, alphas)
    for b in acol:
        print(f"  [{b.lo:6.0f}, {b.hi:6.0f}): alpha = {b.mean_alpha:.3f}"
              f" +- {b.std_alpha:.3f}  ({b.count} stocks)")

    g = [b.gamma for b in gcol if b.gamma is not None]
    a = [b.mean_alpha for b in acol if b.count]
    g_rho = vi.spearman(range(len(g)), g)
    a_rho = vi.spearman(range(len(a)), a)
    print(f"\nspearman(bin, gamma) = {g_rho:+.2f}   "
          f"spearman(bin, alpha) = {a_rho:+.2f}")
    print("more persistent stocks: heavier interval tails (smaller gamma),"
          "\nlarger DFA exponents")

    rep = vi.factor_correlations(table)
    iv, it = vi.FACTORS.index("volume"), vi.FACTORS.index("trading_value")
    print(f"\nlog-log corr(volume, trading value) = "
          f"{rep.log[iv, it]:.2f} over {rep.n_stocks} stocks")


if __name__ == "__main__":
    main()
