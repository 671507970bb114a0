"""Scaling collapse of interval distributions across thresholds.

Builds a corpus of long-memory synthetic volume series, extracts the
intervals between volatility exceedances at several thresholds q, and
shows that the distributions of tau/<tau> fall onto a single curve even
though the raw tau distributions are very different.
"""

import numpy as np

import volint as vi

N_STOCKS = 120
LENGTH = 4096
THRESHOLDS = (2.0, 2.5, 3.0)
SEED = 7


def build_corpus():
    rule = vi.homogeneous_rule(
        "fgn", LENGTH, {"hurst": 0.8, "vol_scale": 0.3, "noise_df": 2.2},
        master_seed=SEED)
    corpus, _ = vi.synth_corpus(N_STOCKS, rule)
    return corpus


def intervals(corpus, q):
    """The taus at q of every stock with an interval there, in ticker
    order."""
    samples = []
    for stock in corpus:
        try:
            nu = vi.volatility(stock.volume)
        except vi.DegenerateSeriesError:
            continue
        taus = vi.extract_intervals(nu, q).taus
        if taus.size:
            samples.append(taus)
    return samples


def main():
    corpus = build_corpus()
    print(f"corpus: {len(corpus)} stocks x {LENGTH} days")

    samples = {q: intervals(corpus, q) for q in THRESHOLDS}
    pools = {q: vi.pool_scaled(samples[q]) for q in THRESHOLDS}
    for q in THRESHOLDS:
        raw_mean = np.mean([taus.mean() for taus in samples[q]])
        print(f"q={q}: {pools[q].size:6d} intervals, "
              f"mean raw tau per stock ~ {raw_mean:.1f}")

    # raw distributions are far apart: a high threshold stretches tau
    lo, hi = THRESHOLDS[0], THRESHOLDS[-1]
    raw = {q: np.concatenate(samples[q]) for q in (lo, hi)}
    ks_raw = vi.collapse_distance(raw[lo].astype(float), raw[hi].astype(float))
    print(f"\nKS(raw tau, q={lo} vs q={hi}) = {ks_raw:.3f}  (distinct)")

    # after dividing by the per-stock mean they collapse
    print("pairwise KS of scaled distributions:")
    qs = list(THRESHOLDS)
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            d = vi.collapse_distance(pools[qs[i]], pools[qs[j]])
            print(f"  q={qs[i]} vs q={qs[j]}: {d:.4f}")

    pdf = vi.log_bin(pools[2.0], bins_per_decade=8)
    fit = vi.fit_exponential(pdf)
    print(f"\nstretched tail at q=2.0: exponential fit r2 = {fit.r2:.3f}"
          f" (long memory bends it away from pure exponential)")


if __name__ == "__main__":
    main()
