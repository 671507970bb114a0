"""Memoryless benchmark: intervals of an iid series are geometric.

For iid volatility every day exceeds the threshold independently with
the same probability p, so the interval law is geometric with mean 1/p
and the scaled PDF is exponential. This pins down the null against
which memory effects are measured, and the analytic p for the powered
normal gives an exact target.
"""

import numpy as np

import volint as vi

Q = 2.0
KAPPA = 6.0


def main():
    p = vi.iid_exceedance_probability(Q, dist="powered_normal", kappa=KAPPA)
    print(f"analytic exceedance probability at q={Q}: p = {p:.4f} "
          f"(mean interval {1 / p:.1f})")

    corpus, _ = vi.synth_corpus(200, vi.homogeneous_rule(
        "iid", 5000, {"dist": "powered_normal", "kappa": KAPPA},
        master_seed=5))
    items = []
    for stock in corpus:
        nu = vi.volatility(stock.volume)
        iv = vi.extract_intervals(nu, Q)
        if iv.taus.size:
            items.append((stock.ticker, iv))
    pool = vi.pool_scaled(items)

    taus = np.concatenate([iv.taus for _, iv in items])
    print(f"observed mean interval: {taus.mean():.1f} "
          f"({taus.size} intervals)")

    # geometric CV is sqrt(1-p); clustering would push it above 1.
    # check per stock, since pooling mixes stocks whose estimated
    # normalization (and hence effective p) differs
    ratios = []
    for _, iv in items:
        if iv.taus.size < 30:
            continue
        m = iv.taus.mean()
        ratios.append(iv.taus.std() / m / np.sqrt(1 - 1 / m))
    print(f"per-stock CV / geometric prediction: "
          f"{np.mean(ratios):.3f} +- {np.std(ratios):.3f}  (1 = memoryless)")

    pdf = vi.log_bin(pool.values[pool.values >= 0.1], bins_per_decade=8)
    fit = vi.fit_exponential(pdf)
    print(f"scaled PDF exponential fit: slope a = {fit.a:.3f}, "
          f"r2 = {fit.r2:.4f}")
    print("\nno memory in, no memory out: the scaled distribution is a"
          "\npure exponential and any structure beyond it needs correlations")


if __name__ == "__main__":
    main()
