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
    # each stock's intervals, in ticker order
    samples = [r.by_q[Q] for r in vi.map_stocks(corpus, qs=(Q,))
               if not r.degenerate]
    pool = vi.pool_scaled(samples)

    # taus are narrow unsigned integers: take float64 before arithmetic
    taus = np.concatenate(samples).astype(np.float64)
    print(f"observed mean interval: {taus.mean():.1f} "
          f"({taus.size} intervals)")

    # geometric CV is sqrt(1-p); clustering would push it above 1.
    # check per stock, since pooling mixes stocks whose estimated
    # normalization (and hence effective p) differs
    ratios = []
    for t in samples:
        if t.size < 30:
            continue
        t = t.astype(np.float64)
        m = t.mean()
        ratios.append(t.std() / m / np.sqrt(1 - 1 / m))
    print(f"per-stock CV / geometric prediction: "
          f"{np.mean(ratios):.3f} +- {np.std(ratios):.3f}  (1 = memoryless)")

    pdf = vi.log_bin(pool[pool >= 0.1], bins_per_decade=8)
    fit = vi.fit_exponential(pdf)
    print(f"scaled PDF exponential fit: slope a = {fit.a:.3f}, "
          f"r2 = {fit.r2:.4f}")
    print("\nno memory in, no memory out: the scaled distribution is a"
          "\npure exponential and any structure beyond it needs correlations")


if __name__ == "__main__":
    main()
