import numpy as np
import pytest
from hypothesis import given, strategies as st

import volint as vi
from volint.intervals import extract_intervals, pool_scaled, shuffle_control


def vs(values):
    return np.asarray(values, dtype=np.float64)


def test_interval_extraction_example():
    iv = extract_intervals(vs([0, 3, 0, 0, 3, 3, 0]), 2.0)
    assert list(iv.taus) == [3, 1]
    assert iv.n_exceedances == 3
    assert not iv.insufficient


def test_threshold_is_strict():
    # values exactly at q do not count as exceedances
    iv = extract_intervals(vs([2.0, 2.0, 2.1]), 2.0)
    assert iv.n_exceedances == 1
    assert iv.insufficient


def test_insufficient_exceedances():
    for vals in ([0.1, 0.2, 0.3], [0.1, 5.0, 0.3]):
        iv = extract_intervals(vs(vals), 2.0)
        assert iv.insufficient
        assert iv.taus.size == 0


def test_nonpositive_threshold_rejected():
    with pytest.raises(vi.ConfigError):
        extract_intervals(vs([1.0, 2.0]), 0.0)


def test_interval_sum_bounded_by_length():
    rng = np.random.default_rng(21)
    v = vs(rng.exponential(1.0, 500))
    iv = extract_intervals(v, 2.0)
    assert iv.taus.sum() < 500


def test_exceedance_count_monotone_in_threshold():
    rng = np.random.default_rng(22)
    v = vs(rng.exponential(1.0, 2000))
    counts = [extract_intervals(v, q).n_exceedances for q in (1.0, 2.0, 3.0)]
    assert counts[0] >= counts[1] >= counts[2]


def test_pool_scaled_example():
    items = [("B", extract_intervals(vs([0, 3, 3, 0]), 2.0)),      # taus [1]
             ("A", extract_intervals(vs([0, 3, 0, 0, 3, 3, 0]), 2.0))]  # [3, 1]
    pooled = pool_scaled(items)
    # stocks are ordered by ticker, each divided by its own mean
    assert pooled.tickers == ("A", "B")
    assert np.allclose(pooled.values, [1.5, 0.5, 1.0])


def test_pool_scaled_skips_insufficient():
    items = [("A", extract_intervals(vs([0, 3, 0, 0, 3, 0]), 2.0)),
             ("B", extract_intervals(vs([0.1, 0.2]), 2.0))]
    pooled = pool_scaled(items)
    assert pooled.skipped == ("B",)
    assert pooled.tickers == ("A",)


def test_pool_scaled_rejects_mixed_thresholds():
    a = extract_intervals(vs([0, 3, 0, 3, 3]), 2.0)
    b = extract_intervals(vs([0, 3, 0, 3, 3]), 2.5)
    with pytest.raises(vi.ConfigError):
        pool_scaled([("A", a), ("B", b)])


def test_geometric_interval_law_for_iid_exceedances():
    # iid exceedance marks make the gaps geometric with mean 1/p
    rng = np.random.default_rng(23)
    p = 0.05
    v = vs((rng.random(200_000) < p).astype(np.float64) * 3.0)
    iv = extract_intervals(v, 2.0)
    assert abs(iv.taus.mean() - 1.0 / p) / (1.0 / p) < 0.05
    k = np.arange(1, 200)
    emp = np.array([(iv.taus == x).mean() for x in k])
    law = (1 - p) ** (k - 1) * p
    assert np.abs(np.cumsum(emp) - np.cumsum(law)).max() < 0.01


def test_shuffle_preserves_values_and_seed_determinism():
    rng = np.random.default_rng(24)
    v = vs(rng.exponential(1.0, 300))
    s1 = shuffle_control(v, 42)
    s2 = shuffle_control(v, 42)
    s3 = shuffle_control(v, 43)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)
    assert np.array_equal(np.sort(s1), np.sort(v))


def test_shuffling_removes_interval_clustering():
    # a geometric law has CV = sqrt(1-p); clustering inflates it. After
    # shuffling the scaled pooled intervals must drop back to the
    # memoryless value.
    corpus, _ = vi.synth_corpus(60, vi.homogeneous_rule(
        "fgn", 8192, {"hurst": 0.8, "vol_scale": 0.4, "noise_df": 3.0}, 25))
    cv = {}
    p_hat = None
    for shuffled in (False, True):
        items, exc, obs = [], 0, 0
        for s in corpus:
            v = vi.volatility(s.volume)
            if shuffled:
                v = shuffle_control(v, vi.derive_seed(25, s.ticker))
            iv = extract_intervals(v, 2.0)
            items.append((s.ticker, iv))
            exc += iv.n_exceedances
            obs += v.size
        x = pool_scaled(items).values
        cv[shuffled] = x.std() / x.mean()
        p_hat = exc / obs
    assert abs(cv[True] - np.sqrt(1.0 - p_hat)) < 0.01
    assert cv[False] > 1.05
    assert cv[False] - cv[True] > 0.1


@given(st.lists(st.floats(0, 10), max_size=300),
       st.floats(0, 10, exclude_min=True))
def test_taus_are_the_gaps_between_exceedances(values, q):
    iv = extract_intervals(np.array(values, dtype=np.float64), q)
    above = [i for i, x in enumerate(values) if x > q]
    assert iv.n_exceedances == len(above)
    assert iv.taus.tolist() == np.diff(above).tolist()
    assert iv.insufficient == (len(above) < 2)
