"""Short-term interval memory: does the last interval predict the next?

Forms consecutive (tau0, tau) pairs from per-stock scaled intervals,
splits on octiles of tau0, and compares the mean following interval per
octile. In a long-memory corpus short intervals follow short ones; a
shuffle control erases the effect.
"""

import volint as vi

Q = 2.0
SEED = 13


def pairs_from(corpus, shuffle_seed=None):
    samples = []
    for stock in corpus:
        try:
            nu = vi.volatility(stock.volume)
        except vi.DegenerateSeriesError:
            continue
        if shuffle_seed is not None:
            nu = vi.shuffle_control(
                nu, vi.derive_seed(shuffle_seed, stock.ticker, "shuffle"))
        samples.append(vi.extract_intervals(nu, Q).taus)
    return vi.consecutive_pairs(samples)


def show(label, tau0, tau):
    bounds = vi.octile_boundaries(tau0, mode="quantile")
    conds = vi.conditional_pdfs(tau0, tau, bounds)
    means = [cp.mean_scaled_tau for cp in conds]
    print(f"\n{label}: {tau0.size} pairs")
    for cp in conds:
        bar = "#" * int(round(cp.mean_scaled_tau * 20))
        print(f"  Q{cp.octile}: mean tau = {cp.mean_scaled_tau:5.2f} {bar}")
    print(f"  spearman(octile, mean) = {vi.memory_summary(conds):+.2f}, "
          f"mean range = {max(means) - min(means):.2f}")


def main():
    corpus, _ = vi.synth_corpus(150, vi.homogeneous_rule(
        "fgn", 4096, {"hurst": 0.8, "vol_scale": 0.4, "noise_df": 3.0},
        master_seed=SEED))

    tau0, tau = pairs_from(corpus)
    show("persistent volatility", tau0, tau)

    s_tau0, s_tau = pairs_from(corpus, shuffle_seed=99)
    show("same corpus, shuffled", s_tau0, s_tau)

    print("\nafter shuffling the octile means flatten: the memory lives in"
          "\nthe ordering of the volatility series, not in its distribution")


if __name__ == "__main__":
    main()
