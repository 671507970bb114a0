"""DFA exponent calibration on processes with known scaling.

White noise must come out at alpha = 0.5 and fractional Gaussian noise
at alpha = H. Averages a few seeds per case, then applies the same
estimator to synthetic volume volatility before and after shuffling.
"""

import numpy as np

import volint as vi

N = 2 ** 14
N_SEEDS = 8


def mean_alpha(series_factory):
    alphas = []
    for s in range(N_SEEDS):
        curve = vi.dfa(series_factory(s))
        alphas.append(curve.alpha)
    return np.mean(alphas), np.std(alphas)


def main():
    print(f"{N_SEEDS} seeds x N={N}")

    m, sd = mean_alpha(
        lambda s: np.random.default_rng(vi.derive_seed(1, "w", str(s)))
        .standard_normal(N))
    print(f"white noise      alpha = {m:.3f} +- {sd:.3f}  (expect 0.50)")

    for hurst in (0.6, 0.7, 0.8, 0.9):
        m, sd = mean_alpha(lambda s, h=hurst: vi.generate(vi.GeneratorSpec(
            "fgn", N, {"hurst": h, "vol_scale": 0.0},
            vi.derive_seed(1, f"h{h}", str(s)))))
        print(f"fgn H={hurst}        alpha = {m:.3f} +- {sd:.3f}  "
              f"(expect {hurst:.2f})")

    # volatility of a persistent corpus inherits the long memory;
    # shuffling destroys it and drives alpha back to 0.5
    corpus, _ = vi.synth_corpus(40, vi.homogeneous_rule(
        "fgn", N, {"hurst": 0.8, "vol_scale": 0.4, "noise_df": 3.0},
        master_seed=2))
    # the DFA of each stock's volatility, then of its shuffle control
    raw, shuf = (
        [r.curve.alpha for r in vi.map_stocks(
            corpus, seed=3, order=1, shuffled_dfa=shuffled) if r.curve]
        for shuffled in (False, True))
    print(f"\nvolume volatility        alpha = {np.mean(raw):.3f}")
    print(f"same series, shuffled    alpha = {np.mean(shuf):.3f}  "
          f"(memoryless benchmark)")


if __name__ == "__main__":
    main()
