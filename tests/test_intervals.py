import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import volint as vi
from volint.fitting import log_bin
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
    b = extract_intervals(vs([0, 3, 3, 0]), 2.0).taus              # [1]
    a = extract_intervals(vs([0, 3, 0, 0, 3, 3, 0]), 2.0).taus     # [3, 1]
    # stocks are pooled in the order given, each divided by its own mean
    pooled = pool_scaled([b, a])
    assert pooled.dtype == np.float64
    assert pooled.tolist() == [1.0, 1.5, 0.5]


def test_pool_scaled_skips_insufficient():
    a = extract_intervals(vs([0, 3, 0, 0, 3, 0]), 2.0).taus
    b = extract_intervals(vs([0.1, 0.2]), 2.0).taus
    assert b.size == 0
    assert pool_scaled([b, a, b]).tolist() == [1.0]
    assert pool_scaled([b]).size == 0
    assert pool_scaled([]).dtype == np.float64


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
        samples, exc, obs = [], 0, 0
        for s in corpus:
            v = vi.volatility(s.volume)
            if shuffled:
                v = shuffle_control(v, vi.derive_seed(25, s.ticker))
            iv = extract_intervals(v, 2.0)
            samples.append(iv.taus)
            exc += iv.n_exceedances
            obs += v.size
        x = pool_scaled(samples)
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


# ---------------------------------------------------------------------------
# the fast paths against the expressions they replaced, bit for bit

def _taus_int64(v, q):
    """extract_intervals' taus as they were before they were held narrow."""
    return np.diff(np.flatnonzero(np.asarray(v, dtype=np.float64) > q)).astype(np.int64)


def _pool_concatenate(samples):
    """pool_scaled as it was before it filled one preallocated array: the
    scaled chunks of int64 taus, concatenated in the order given."""
    chunks = [taus / taus.mean() for taus in samples if taus.size]
    return (np.concatenate(chunks) if chunks
            else np.empty(0, dtype=np.float64))


def _shuffle_gather(v, seed):
    """shuffle_control as it was: a gather through permutation(v.size)."""
    v = np.asarray(v, dtype=np.float64)
    return v[np.random.default_rng(seed).permutation(v.size)]


def _dump(ticker, tag, taus):
    """One stock's --dump-intervals rows, as cmd_intervals writes them."""
    return (f"{ticker}\t{tag}\t" + f"\n{ticker}\t{tag}\t".join(map(str, taus.tolist()))
            + "\n")


# series lengths on both sides of the uint8/uint16 and uint16/uint32 edges
LENGTHS = st.one_of(st.integers(2, 600),
                    st.sampled_from([255, 256, 257, 65535, 65536, 65537]),
                    st.integers(2, 70_000))
# q = 6 on exponential values leaves intervals of about 400 days
QS = st.sampled_from([0.5, 2.0, 4.0, 6.0, 8.0])


def _volatility(length, seed):
    return np.random.default_rng(seed).exponential(1.0, length)


@settings(max_examples=60, deadline=None)
@given(LENGTHS, st.integers(0, 2**32), QS)
def test_narrow_taus_equal_the_int64_differences(length, seed, q):
    v = _volatility(length, seed)
    taus = extract_intervals(v, q).taus
    assert taus.dtype == np.min_scalar_type(length)
    assert taus.dtype.kind == "u"
    assert taus.astype(np.int64).tobytes() == _taus_int64(v, q).tobytes()


@pytest.mark.parametrize("length, dtype", [
    (2, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16),
    (65536, np.uint32)])
def test_the_longest_interval_fits_its_dtype(length, dtype):
    # exceedances at the first and last day only: the one interval is
    # length - 1, the largest a series of this length can have
    v = np.zeros(length)
    v[[0, -1]] = 3.0
    taus = extract_intervals(v, 2.0).taus
    assert taus.dtype == dtype
    assert taus.tolist() == [length - 1]


def test_an_8192_day_stock_holds_uint16_taus():
    stock, _ = vi.synth_stock(vi.homogeneous_rule(
        "fgn", 8192, {"hurst": 0.8, "vol_scale": 0.4, "noise_df": 3.0}, 3)(0), 0)
    iv = extract_intervals(vi.volatility(stock.volume), 2.0)
    assert iv.taus.size > 0
    assert iv.taus.dtype == np.uint16


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(LENGTHS, st.integers(0, 2**32)), min_size=1,
                max_size=5),
       QS, st.randoms(use_true_random=False))
def test_pool_mean_pdf_and_dump_of_narrow_taus_equal_int64(stocks, q, rnd):
    narrow, wide = [], []
    for i, (length, seed) in enumerate(stocks):
        v = _volatility(length, seed)
        ticker = f"S{i:02d}"
        narrow.append((ticker, extract_intervals(v, q).taus))
        wide.append((ticker, _taus_int64(v, q)))
    # empty stocks among the others, all given out of ticker order
    empty = (np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64))
    for i in range(rnd.randint(0, 2)):
        narrow.append((f"E{i}", empty[0]))
        wide.append((f"E{i}", empty[1]))
    order = list(range(len(narrow)))
    rnd.shuffle(order)
    narrow = [narrow[k] for k in order]
    wide = [wide[k] for k in order]
    pooled = pool_scaled(taus for _, taus in narrow)
    values = _pool_concatenate(taus for _, taus in wide)
    assert pooled.dtype == np.float64
    assert pooled.tobytes() == values.tobytes()
    # cmd_intervals' raw pool, its mean, its PDF and its dump rows
    if not pooled.size:
        return
    raw = np.concatenate([taus for _, taus in narrow if taus.size])
    raw64 = np.concatenate([taus for _, taus in wide if taus.size])
    assert raw.dtype.kind == "u"
    assert np.float64(raw.mean()).tobytes() == np.float64(raw64.mean()).tobytes()
    got, want = log_bin(raw), log_bin(raw64.astype(np.float64))
    for field in ("edges", "densities", "counts"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert ([_dump(t, "2", taus) for t, taus in narrow if taus.size]
            == [_dump(t, "2", taus) for t, taus in wide if taus.size])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 2**64 - 1))
def test_shuffle_control_equals_the_gather(length, seed):
    v = _volatility(length, seed % 1000)
    before = v.copy()
    assert shuffle_control(v, seed).tobytes() == _shuffle_gather(v, seed).tobytes()
    assert v.tobytes() == before.tobytes()      # the input is not shuffled
