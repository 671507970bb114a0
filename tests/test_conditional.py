import numpy as np
import pytest

import volint as vi
from volint.conditional import (GEOMETRIC_BOUNDARIES, assign_octiles,
                                conditional_pdfs, consecutive_pairs,
                                memory_summary, octile_boundaries)
from volint.intervals import extract_intervals


def vs(values):
    return np.asarray(values, dtype=np.float64)


def items_for(corpus, q=2.0):
    return [(s.ticker, extract_intervals(vi.volatility(s.volume), q))
            for s in corpus]


def test_geometric_assignment_examples():
    lab = assign_octiles([0.05, 0.3, 0.4, 5.0, 100.0, 0.0], GEOMETRIC_BOUNDARIES)
    # a value on a boundary opens the upper octile
    assert lab.tolist() == [1, 2, 3, 6, 8, 1]


def test_quantile_boundaries_balance_population():
    rng = np.random.default_rng(51)
    tau0 = rng.lognormal(0.0, 1.0, 8000)
    b = octile_boundaries(tau0, "quantile")
    lab = assign_octiles(tau0, b)
    counts = np.bincount(lab, minlength=9)[1:]
    assert counts.sum() == 8000
    assert counts.max() - counts.min() <= 1


def test_quantile_boundaries_need_distinct_values():
    with pytest.raises(vi.DataError):
        octile_boundaries(np.full(100, 2.0), "quantile")
    with pytest.raises(vi.DataError):
        octile_boundaries(np.arange(5, dtype=float), "quantile")


def test_unknown_mode_rejected():
    with pytest.raises(vi.ConfigError):
        octile_boundaries([1.0] * 10, "decile")


def test_consecutive_pairs_example():
    iv = extract_intervals(vs([0, 3, 0, 0, 3, 3, 0, 0, 3]), 2.0)  # taus 3,1,3
    t0, t1 = consecutive_pairs([("A", iv)])
    scaled = np.array([3, 1, 3]) / (7 / 3)
    assert np.allclose(t0, scaled[:-1])
    assert np.allclose(t1, scaled[1:])


def test_pairs_do_not_cross_stocks_and_count_identity():
    corpus, _ = vi.synth_corpus(30, vi.homogeneous_rule(
        "iid", 900, {"dist": "student_t", "df": 3.0}, 52))
    items = items_for(corpus)
    t0, t1 = consecutive_pairs(items)
    expected = sum(iv.taus.size - 1 for _, iv in items if iv.taus.size >= 2)
    assert t0.size == t1.size == expected


def test_single_interval_stock_contributes_nothing():
    iv = extract_intervals(vs([0, 3, 0, 3]), 2.0)   # one interval
    t0, t1 = consecutive_pairs([("A", iv)])
    assert t0.size == 0


def test_mixture_reassembles_pair_pdf_exactly():
    corpus, _ = vi.synth_corpus(40, vi.homogeneous_rule(
        "fgn", 2048, {"hurst": 0.8, "vol_scale": 0.4, "noise_df": 3.0}, 53))
    t0, t1 = consecutive_pairs(items_for(corpus))
    b = octile_boundaries(t0, "quantile")
    base = vi.log_bin(t1, 8)
    conds = conditional_pdfs(t0, t1, b, edges=base.edges)
    assert sum(c.n_pairs for c in conds) == t1.size
    mix = sum(c.pdf.densities * c.n_pairs for c in conds) / t1.size
    assert np.allclose(mix, base.densities, rtol=1e-12, atol=1e-15)


def test_empty_octiles_are_flagged_zero_count():
    # every tau0 below 0.2 lands in Q1 of the geometric ladder
    t0 = np.full(200, 0.1)
    t1 = np.linspace(0.5, 2.0, 200)
    conds = conditional_pdfs(t0, t1, GEOMETRIC_BOUNDARIES)
    assert conds[0].n_pairs == 200
    for c in conds[1:]:
        assert c.n_pairs == 0
        assert c.low_statistics
        assert c.pdf.counts.sum() == 0


def test_low_statistics_flag_threshold():
    rng = np.random.default_rng(54)
    t0 = np.concatenate([np.full(49, 0.1), np.full(1000, 1.0)])
    t1 = rng.lognormal(0.0, 0.5, t0.size)
    conds = conditional_pdfs(t0, t1, GEOMETRIC_BOUNDARIES)
    assert conds[0].n_pairs == 49 and conds[0].low_statistics
    assert conds[3].n_pairs == 1000 and not conds[3].low_statistics


def test_misaligned_pairs_rejected():
    with pytest.raises(vi.ConfigError):
        conditional_pdfs(np.ones(3), np.ones(4), GEOMETRIC_BOUNDARIES)
    with pytest.raises(vi.DataError):
        conditional_pdfs(np.empty(0), np.empty(0), GEOMETRIC_BOUNDARIES)


def test_memory_summary_shape_and_degenerate_spearman():
    t0 = np.full(100, 0.1)     # single populated octile
    t1 = np.linspace(0.5, 2.0, 100)
    conds = conditional_pdfs(t0, t1, GEOMETRIC_BOUNDARIES)
    assert len(conds) == 8
    assert sum(cp.n_pairs for cp in conds) == 100
    assert conds[0].mean_scaled_tau == t1.mean()
    assert np.isnan(memory_summary(conds))
    assert np.isnan(conds[3].mean_scaled_tau)


def test_persistence_orders_octile_means_iid_stays_flat():
    fgn, _ = vi.synth_corpus(60, vi.homogeneous_rule(
        "fgn", 4096, {"hurst": 0.8, "vol_scale": 0.4, "noise_df": 3.0}, 42))
    t0, t1 = consecutive_pairs(items_for(fgn))
    conds = conditional_pdfs(t0, t1, octile_boundaries(t0, "quantile"))
    means = [cp.mean_scaled_tau for cp in conds]
    assert memory_summary(conds) > 0.8
    assert max(means) - min(means) > 0.15

    iid, _ = vi.synth_corpus(100, vi.homogeneous_rule(
        "iid", 2000, {"dist": "student_t", "df": 3.0}, 41))
    t0, t1 = consecutive_pairs(items_for(iid))
    conds = conditional_pdfs(t0, t1, octile_boundaries(t0, "quantile"))
    means = [cp.mean_scaled_tau for cp in conds]
    # an 8-point rank statistic is blind to scale, so flatness is the
    # right independence check, not spearman
    assert max(means) - min(means) < 0.08
