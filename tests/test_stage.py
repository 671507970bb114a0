import io
import os
import pickle
import re
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import volint as vi
from volint import cli, stage


def test_map_stocks_gives_degenerate_stock_no_curve():
    dates = np.datetime64("2001-01-01", "D") + np.arange(400)
    flat = vi.DailySeries(ticker="F", dates=dates,
                          volume=np.full(400, 9, dtype=np.int64),
                          close=np.full(400, 1.0),
                          shares_outstanding=np.full(400, np.nan))
    [r] = vi.map_stocks([flat], qs=(2.0,), order=1)
    assert r.degenerate
    assert r.curve is None and r.by_q == {}


def test_results_compare_by_identity_without_raising():
    # a generated __eq__ would compare the interval arrays and raise
    corpus, _ = vi.synth_corpus(2, vi.homogeneous_rule(
        "iid", 600, {"dist": "normal"}, 71))
    a = vi.map_stocks(corpus, qs=(2.0,), factors=True)
    b = vi.map_stocks(corpus, qs=(2.0,), factors=True)
    assert a != b
    assert a == a and a[0] == a[0]
    assert len({*a, *b}) == 4


def test_map_stocks_rejects_unknown_series_kind():
    corpus, _ = vi.synth_corpus(1, vi.homogeneous_rule(
        "iid", 600, {"dist": "normal"}, 71))
    with pytest.raises(vi.ConfigError):
        vi.map_stocks(corpus, "prices", order=1)


def test_map_stocks_matches_the_library_steps_in_a_pool():
    corpus, _ = vi.synth_corpus(5, vi.homogeneous_rule(
        "fgn", 1024, {"hurst": 0.8, "vol_scale": 0.4}, 72))
    serial = vi.map_stocks(corpus, seed=3, qs=(2.0,), shuffled_qs=(2.0,),
                           order=1)
    pooled = vi.map_stocks(corpus, seed=3, jobs=2, qs=(2.0,),
                           shuffled_qs=(2.0,), order=1)
    assert [r.ticker for r in serial] == corpus.tickers
    for s, r, p in zip(corpus, serial, pooled):
        v = vi.volatility(s.volume)
        sv = vi.shuffle_control(v, vi.derive_seed(3, s.ticker, "shuffle"))
        # the narrow taus themselves, not a record around them
        assert type(r.by_q[2.0]) is np.ndarray
        assert r.by_q[2.0].dtype == r.shuffled_by_q[2.0].dtype == np.uint16
        np.testing.assert_array_equal(
            r.by_q[2.0], vi.extract_intervals(v, 2.0).taus)
        np.testing.assert_array_equal(
            r.shuffled_by_q[2.0], vi.extract_intervals(sv, 2.0).taus)
        assert r.curve.alpha == vi.dfa(v).alpha
        np.testing.assert_array_equal(r.by_q[2.0], p.by_q[2.0])
        np.testing.assert_array_equal(r.shuffled_by_q[2.0], p.shuffled_by_q[2.0])
        assert r.curve.alpha == p.curve.alpha


def test_map_stocks_starts_at_most_one_worker_per_stock(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    corpus, _ = vi.synth_corpus(2, vi.homogeneous_rule(
        "iid", 600, {"dist": "normal"}, 73))
    serial = vi.map_stocks(corpus, qs=(2.0,))
    assert forks == []
    for jobs in (2, 4):
        pooled = vi.map_stocks(corpus, jobs=jobs, qs=(2.0,))
        assert [r.by_q[2.0].tolist() for r in pooled] == [
            r.by_q[2.0].tolist() for r in serial]
    assert len(forks) == 4
    _assert_no_child_left()


def test_map_stocks_runs_in_process_without_fork(monkeypatch):
    corpus, _ = vi.synth_corpus(3, vi.homogeneous_rule(
        "iid", 600, {"dist": "normal"}, 73))
    serial = vi.map_stocks(corpus, qs=(2.0,))
    monkeypatch.delattr(os, "fork")
    pooled = vi.map_stocks(corpus, jobs=2, qs=(2.0,))
    assert [_plain(r) for r in pooled] == [_plain(r) for r in serial]


# ---------------------------------------------------------------------------
# a worker that fails: the fork map raises the failure of the first source
# in source order, and leaves no child behind


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test whose map waits 60 s, instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("the fork map did not return in 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _failing_at(monkeypatch, failures):
    """Make the stage's worker call failures[i]() on the source of index i
    of a six-stock corpus, and return that corpus."""
    corpus, _ = vi.synth_corpus(6, vi.homogeneous_rule(
        "iid", 600, {"dist": "normal"}, 76))
    index = {s.ticker: i for i, s in enumerate(corpus)}
    stock = stage._stock

    def worker(source, **kwargs):
        failures.get(index[source.ticker], lambda: None)()
        return stock(source, **kwargs)

    monkeypatch.setattr(stage, "_stock", worker)
    return corpus


def _die():
    os._exit(1)


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("die, how", [(_die, "exited with status 1"),
                                      (_kill, "was killed by signal 9")],
                         ids=["exit", "sigkill"])
def test_worker_that_dies_unreported_is_named(monkeypatch, deadline, die, how):
    # worker 1 dies on source 3 with source 1's frame still buffered, so
    # source 1 is the first that the parent has not received
    corpus = _failing_at(monkeypatch, {3: die})
    with pytest.raises(RuntimeError, match=rf"^worker 1 \(pid \d+\) {how} "
                                           r"before it reported source 1$"):
        vi.map_stocks(corpus, jobs=2, qs=(2.0,))
    _assert_no_child_left()


class Unloadable(Exception):
    """Pickles, but its constructor cannot take its own args back."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


class Unpicklable(Exception):
    """Cannot be pickled at all: it holds a lambda."""

    def __init__(self):
        super().__init__("holds a lambda")
        self.f = lambda: None


@pytest.mark.parametrize("exc", [lambda: Unloadable(1, 2), Unpicklable],
                         ids=["unloadable", "unpicklable"])
def test_worker_exception_that_cannot_be_sent_names_its_type(monkeypatch,
                                                            deadline, exc):
    def fail():
        raise exc()

    corpus = _failing_at(monkeypatch, {4: fail})
    name = type(exc()).__qualname__
    with pytest.raises(RuntimeError, match=rf"^worker 0 raised "
                                           rf"test_stage\.{name}: "):
        vi.map_stocks(corpus, jobs=2, qs=(2.0,))
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_first_failure_in_source_order_is_raised(monkeypatch, deadline, jobs):
    # failures in every child's share; the later ones, in any child, do
    # not change which is raised
    def fail(i):
        def raise_():
            raise vi.DataError(f"source {i}")
        return raise_

    corpus = _failing_at(monkeypatch, {i: fail(i) for i in range(1, 6)})
    with pytest.raises(vi.DataError, match="^source 1$"):
        vi.map_stocks(corpus, jobs=jobs, qs=(2.0,))
    _assert_no_child_left()


def test_fork_that_fails_is_a_config_error_naming_jobs(monkeypatch, tmp_path,
                                                      capsys):
    # the second fork fails as it does when the process limit is reached;
    # the first worker is killed and reaped, and nothing is written
    fork = os.fork
    calls = []

    def fork_once():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    out = tmp_path / "out"
    assert cli.main(["intervals", "--synth-kind", "iid", "--synth-n-stocks",
                     "4", "--synth-length", "600", "--jobs", "2",
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: cannot fork worker 1 of 2 ([Errno 11] "
        "Resource temporarily unavailable); lower --jobs\n")
    assert len(calls) == 2
    assert not out.exists()
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_pipe_that_fails_is_a_config_error_naming_jobs(tmp_path):
    # in a process whose own open-file limit of 12 runs out after about 8
    # of its 16 workers' pipes, the workers forked by then are killed and
    # reaped, and nothing is written
    pytest.importorskip("resource")
    out = tmp_path / "out"
    code = textwrap.dedent(f"""
        import os, resource
        from volint import cli
        hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
        resource.setrlimit(resource.RLIMIT_NOFILE, (12, hard))
        rc = cli.main(["intervals", "--synth-kind", "iid", "--synth-n-stocks",
                       "30", "--synth-length", "600", "--jobs", "16",
                       "--out", {str(out)!r}])
        try:
            os.waitpid(-1, os.WNOHANG)
            print(rc, "a child is left")
        except ChildProcessError:
            print(rc, "no child is left")
        """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(vi.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.stdout == f"{cli.EXIT_CONFIG} no child is left\n"
    assert re.fullmatch(r"configuration error: cannot fork worker \d+ of 16 "
                        r"\(\[Errno 24\] [^)]*\); lower --jobs\n", res.stderr)
    assert not out.exists()


@pytest.mark.parametrize("jobs", [2, 3])
def test_no_worker_deadlocks_ahead_of_a_slow_one(monkeypatch, deadline, jobs):
    # source 0's worker sleeps while the others run ahead, and source 1's
    # result (about 0.9 MB pickled) alone is more than its pipe holds
    small, _ = vi.synth_corpus(39, vi.homogeneous_rule(
        "iid", 600, {"dist": "normal"}, 77))
    big, _ = vi.synth_corpus(1, vi.homogeneous_rule(
        "iid", 300_000, {"dist": "normal"}, 78))
    sources = [*small][:1] + [*big] + [*small][1:]
    serial = vi.map_stocks(sources, qs=(0.5,))
    assert len(pickle.dumps(serial[1], 4)) > 1 << 18
    stock = stage._stock

    def worker(source, **kwargs):
        if source is sources[0]:
            time.sleep(0.3)
        return stock(source, **kwargs)

    monkeypatch.setattr(stage, "_stock", worker)
    pooled = vi.map_stocks(sources, jobs=jobs, qs=(0.5,))
    assert [_plain(r) for r in pooled] == [_plain(r) for r in serial]
    _assert_no_child_left()


@pytest.mark.parametrize("kind", ["result", "exception"])
def test_a_pickle_cut_short_never_loads(kind):
    # the parent reports a worker that died before source i when source
    # i's pickle does not load: a worker that dies mid-write leaves a
    # proper prefix of it, which must raise and never return a value
    if kind == "result":
        corpus, _ = vi.synth_corpus(1, vi.homogeneous_rule(
            "iid", 600, {"dist": "normal"}, 79))
        [value] = vi.map_stocks(corpus, factors=True, **STAGE)
    else:
        value = vi.DataError("A.csv:3: date breaks the row grammar")
    data = stage._frame(value, 0)
    for end in range(len(data)):
        with pytest.raises((EOFError, pickle.UnpicklingError)):
            pickle.load(io.BytesIO(data[:end]))
    assert repr(_plain(pickle.loads(data))) == repr(_plain(value))


# ---------------------------------------------------------------------------
# the worker-side source against the library path: load_corpus or
# synth_corpus in the parent, then map_stocks over the corpus

STAGE = {"qs": (2.0,), "shuffled_qs": (2.5,), "order": 1}


def _plain(x):
    """x with records as dicts, arrays as bytes and floats as their
    repr, so that == compares every value, NaN included."""
    fields = getattr(x, "_fields", None) or getattr(x, "__slots__", None)
    if fields:
        return {f: _plain(getattr(x, f)) for f in fields}
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    return repr(x) if isinstance(x, float) else x


def _library(corpus, **stage):
    """map_stocks over an in-memory corpus, with factor vectors."""
    return vi.map_stocks(corpus, seed=5, factors=True, **stage)


def _stage(root, jobs, *flags):
    """The CLI's stage over a CSV tree: (accepted results, LoadSummary)."""
    cfg = cli._configure(cli.build_parser().parse_args(
        ["intervals", "--data-dir", str(root), "--out", str(root / "out"),
         "--seed", "5", "--min-lifetime", "300", "--jobs", str(jobs),
         *flags]))
    results, summary, _ = cli._stage(cfg, factors=True, **STAGE)
    return results, summary


def _dirty_tree(root):
    """Five fgn stocks as CSV plus a bad header, a short file, duplicate
    dates, malformed rows (one in the short file), and tickers whose file
    order is not their sorted order ("A-.csv" sorts before "A.csv", "A"
    before "A-")."""
    corpus, _ = vi.synth_corpus(5, vi.homogeneous_rule(
        "fgn", 600, {"hurst": 0.8, "vol_scale": 0.4}, 74))
    vi.write_corpus(corpus, root)
    names = dict(zip(corpus.tickers, ("A", "A-", "C", "D", "E")))
    for old, new in names.items():
        (root / f"{old}.csv").rename(root / f"{new}.csv")
    with open(root / "C.csv", "a") as fh:       # malformed rows
        fh.write("2001/01/01,5,1.0,\r\n1990-01-05,x,1.0,\r\n")
    with open(root / "D.csv", "a") as fh:       # duplicate dates
        fh.write("1990-01-02,7,1.0,\r\n1990-01-09,8,1.0,\r\n")
    (root / "BAD.csv").write_text("date,vol,close,shares_outstanding\n")
    lines = (root / "E.csv").read_text().splitlines()
    (root / "SHORT.csv").write_text("\n".join(lines[:100] + ["x,1,1,"]) + "\n")


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_reads_csv_like_load_corpus_then_map_stocks(tmp_path, jobs):
    _dirty_tree(tmp_path)
    corpus = vi.load_corpus(tmp_path, min_lifetime=300)
    results, summary = _stage(tmp_path, jobs)
    assert summary == corpus.summary
    assert summary._asdict() == {
        "n_files": 7, "n_accepted": 5, "n_rejected_short": 1,
        "n_rejected_error": 1, "n_rows_skipped": 3, "n_duplicate_rows": 2}
    assert [r.ticker for r in results] == corpus.tickers == [
        "A", "A-", "C", "D", "E"]
    assert [r.load.disposition for r in results] == ["ok"] * 5
    assert [{**_plain(r), "load": None} for r in results] == [
        {**_plain(r), "load": None}
        for r in _library(corpus, **STAGE)]


def test_strict_names_the_first_bad_file_in_sorted_order(tmp_path, capsys):
    _dirty_tree(tmp_path)
    # a second bad file, before BAD.csv in sorted order
    with open(tmp_path / "A-.csv", "a") as fh:
        fh.write("1999-13-01,5,1.0,\r\n")
    with pytest.raises(vi.DataError) as library:
        vi.load_corpus(tmp_path, min_lifetime=300, strict=True)
    with pytest.raises(vi.DataError) as stage:
        _stage(tmp_path, 2, "--strict")
    assert str(stage.value) == str(library.value)
    assert str(stage.value).startswith(f"{tmp_path / 'A-.csv'}:")
    out = tmp_path / "out"
    assert cli.main(["intervals", "--data-dir", str(tmp_path), "--strict",
                     "--jobs", "2", "--out", str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {stage.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", [2, 3])
def test_strict_bad_files_in_two_shares_raise_the_first(tmp_path, jobs):
    # A.csv (source 1) and BAD.csv (source 2) break the grammar and are in
    # different children's shares; A.csv, in the later child, is first
    _dirty_tree(tmp_path)
    with open(tmp_path / "A.csv", "a") as fh:
        fh.write("1999-13-01,5,1.0,\r\n")
    with pytest.raises(vi.DataError) as library:
        vi.load_corpus(tmp_path, min_lifetime=300, strict=True)
    with pytest.raises(vi.DataError) as stage:
        _stage(tmp_path, jobs, "--strict")
    assert str(stage.value) == str(library.value)
    assert str(stage.value).startswith(f"{tmp_path / 'A.csv'}:")
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_generates_like_synth_corpus_then_map_stocks(jobs):
    rule = vi.homogeneous_rule("fgn", 700, {"hurst": 0.7, "vol_scale": 0.5,
                                            "noise_df": 3.0}, 75)
    corpus, _ = vi.synth_corpus(4, rule)
    results = vi.map_stocks([(rule(i), i) for i in range(4)], seed=5,
                            jobs=jobs, factors=True, min_lifetime=10 ** 6,
                            **STAGE)
    assert [_plain(r) for r in results] == [
        _plain(r) for r in _library(corpus, **STAGE)]
