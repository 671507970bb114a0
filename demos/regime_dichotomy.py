"""Power-law vs exponential interval tails under two volatility regimes.

Multiplicative-cascade volatility produces scaled interval distributions
with a power-law tail; fractional-Gaussian volatility of comparable
persistence produces a stretched-exponential one. The two regimes are
told apart by comparing r2 of the competing fits on the same log-binned
PDF and by how the fitted exponent drifts as the fit window moves out.
"""

import volint as vi

LENGTH = 8192
N_STOCKS = 150
Q = 2.0


def scaled_pool(corpus):
    samples = []
    for stock in corpus:
        try:
            nu = vi.volatility(stock.volume)
        except vi.DegenerateSeriesError:
            continue
        samples.append(vi.extract_intervals(nu, Q).taus)
    return vi.pool_scaled(samples)


def describe(name, corpus):
    pool = scaled_pool(corpus)
    pdf = vi.log_bin(pool, bins_per_decade=8)
    print(f"\n{name}: {pool.size} scaled intervals")

    tail = vi.log_bin(pool[pool >= 1.0], bins_per_decade=8)
    pow_fit = vi.fit_power_tail(pdf, x_min=1.0)
    exp_fit = vi.fit_exponential(tail)
    better = "power" if pow_fit.r2 > exp_fit.r2 else "exponential"
    print(f"  tail x>=1: power r2={pow_fit.r2:.4f} "
          f"exp r2={exp_fit.r2:.4f}  ->  {better} wins")
    print(f"  gamma = {pow_fit.gamma:.2f} +- {pow_fit.stderr:.2f}")

    # exponent stability: refit over a shifted 1.5-decade window; a true
    # power law gives back the same gamma, an exponential keeps steepening
    a = vi.fit_power_tail(pdf, x_min=1.0, x_max=31.6)
    b = vi.fit_power_tail(pdf, x_min=1.78, x_max=56.2)
    drift = abs(b.gamma - a.gamma)
    print(f"  gamma over [1, 31.6] = {a.gamma:.2f}, "
          f"over [1.78, 56.2] = {b.gamma:.2f}  (drift {drift:.2f})")
    return drift


def main():
    cascade, _ = vi.synth_corpus(N_STOCKS, vi.homogeneous_rule(
        "cascade", LENGTH, {"sigma": 0.4, "noise_df": 2.2}, master_seed=31))
    fgn, _ = vi.synth_corpus(N_STOCKS, vi.homogeneous_rule(
        "fgn", LENGTH, {"hurst": 0.8, "vol_scale": 0.5, "noise_df": 2.2},
        master_seed=32))

    d1 = describe("cascade volatility", cascade)
    d2 = describe("fgn volatility", fgn)
    print(f"\nexponent drift: cascade {d1:.2f} vs fgn {d2:.2f}; the cascade"
          "\ntail keeps its slope while the stretched exponential does not")


if __name__ == "__main__":
    main()
