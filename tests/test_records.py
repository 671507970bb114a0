"""The records the stages pass: which are frozen, how results compare and
travel back from a forked worker, what a series validates, and that no
default is a dict two records share."""

import pickle

import numpy as np
import pytest

import volint as vi
from volint import cli, stage


def _frozen_records():
    """(record, a field) of each record that cannot be changed."""
    series, _ = vi.synth_stock(vi.GeneratorSpec("iid", 64, {}, 1), 0)
    edges = np.array([1.0, 2.0, 4.0])
    pdf = vi.BinnedPdf(edges, np.array([0.5, 0.1]), np.array([5, 2]))
    return [
        (series, "close"),
        (vi.FileLoad(), "disposition"),
        (vi.IntervalSeries(np.array([1, 3], dtype=np.uint16), 3), "taus"),
        (pdf, "edges"),
        (vi.TailFit(2.5, 1.0, 0.1, 6, 0.9), "gamma"),
        (vi.ExpFit(1.0, 0.1, 0.9), "a"),
        (vi.DfaCurve(np.array([8, 16]), np.array([1.0, 2.0]), 1.0), "alpha"),
        (vi.ConditionalPdf(1, pdf, 7, 1.0, True), "pdf"),
        (vi.GammaBin(1.0, 2.0, 2.5, 0.1, 0.9, 3, 40), "gamma"),
        (vi.AlphaBin(1.0, 2.0, 0.6, 0.1, 3), "mean_alpha"),
        (vi.CorrelationReport(vi.FACTORS, np.eye(4), np.eye(4), 5), "log"),
        (vi.StockResult("A"), "by_q"),
        (vi.GeneratorSpec("iid", 64), "params"),
        (cli.OPTIONS[0], "default"),
    ]


@pytest.mark.parametrize("record, name", _frozen_records(),
                         ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_a_frozen_record_refuses_assignment(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert getattr(record, name) is before


def test_a_result_compares_by_identity_and_survives_the_worker_pickle():
    corpus, _ = vi.synth_corpus(1, vi.homogeneous_rule(
        "fgn", 600, {"hurst": 0.8, "vol_scale": 0.4}, 81))
    [result] = vi.map_stocks(corpus, qs=(2.0,), shuffled_qs=(2.0,), order=1,
                             factors=True)
    back = pickle.loads(stage._frame(result, 0))
    assert type(back) is vi.StockResult
    assert result == result and back == back and back != result
    assert (back.ticker, back.n_dropped, back.degenerate, back.load) == (
        result.ticker, result.n_dropped, result.degenerate, result.load)
    for got, want in ((back.by_q, result.by_q),
                      (back.shuffled_by_q, result.shuffled_by_q)):
        assert list(got) == list(want) == [2.0]
        assert np.array_equal(got[2.0], want[2.0])
        assert got[2.0].dtype == want[2.0].dtype
    assert back.curve.alpha == result.curve.alpha
    assert np.array_equal(back.curve.fluctuations, result.curve.fluctuations)
    assert np.array_equal(back.factors, result.factors, equal_nan=True)


def test_a_series_rejects_ragged_columns_and_unordered_dates():
    dates = np.array(["2001-01-02", "2001-01-03"], dtype="datetime64[D]")
    columns = (np.array([1, 2]), np.array([1.0, 2.0]), np.full(2, np.nan))
    vi.DailySeries("A", dates, *columns)
    with pytest.raises(vi.DataError, match="column lengths disagree"):
        vi.DailySeries("A", dates, np.array([1]), *columns[1:])
    with pytest.raises(vi.DataError, match="not strictly increasing"):
        vi.DailySeries("A", dates[::-1], *columns)
    with pytest.raises(vi.DataError, match="not strictly increasing"):
        vi.DailySeries("A", dates[[0, 0]], *columns)


def test_no_two_default_records_share_a_dict():
    a, b = vi.GeneratorSpec("iid", 64), vi.GeneratorSpec("iid", 64)
    try:
        a.params["dist"] = "student_t"
    except TypeError:               # a read-only mapping
        pass
    assert dict(b.params) == {}
    r, s = vi.StockResult("A"), vi.StockResult("B")
    r.by_q[2.0] = r.shuffled_by_q[2.0] = None
    assert s.by_q == s.shuffled_by_q == {}
