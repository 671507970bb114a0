import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import volint as vi
from volint.cli import MAX_JOBS, build_parser, main
from volint.synth import check_spec


SYNTH = ["--synth-kind", "fgn", "--synth-n-stocks", "12",
         "--synth-length", "1024", "--synth-hurst", "0.8",
         "--synth-vol-scale", "0.4", "--synth-df", "3.0"]


def read_report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


def test_intervals_outputs(tmp_path):
    out = tmp_path / "iv"
    rc = main(["intervals", *SYNTH, "--thresholds", "2.0,2.5", "--seed", "5",
               "--out", str(out), "--jobs", "1", "--dump-intervals"])
    assert rc == 0
    for q in ("2", "2.5"):
        assert (out / f"pdf_q{q}.tsv").exists()
        assert (out / f"pdf_scaled_q{q}.tsv").exists()
        assert (out / f"pdf_shuffled_q{q}.tsv").exists()
    rows = (out / "intervals.tsv").read_text().strip().split("\n")
    ticker, q, tau = rows[0].split("\t")
    assert ticker.startswith("S")
    assert float(q) == 2.0
    assert int(tau) >= 1
    rep = read_report(out)
    assert "out" not in rep["config"] and "jobs" not in rep["config"]
    assert rep["config"]["thresholds"] == [2.0, 2.5]
    fits = rep["intervals"]["2"]["fits"]
    assert {"exponential", "power", "hill_gamma"} <= set(fits)
    assert fits["n_samples"] > 100


def test_conditional_outputs(tmp_path):
    out = tmp_path / "cond"
    rc = main(["conditional", *SYNTH, "--thresholds", "2.0", "--seed", "5",
               "--out", str(out), "--jobs", "1", "--octiles", "quantile"])
    assert rc == 0
    for k in range(1, 9):
        assert (out / f"cond_q2_Q{k}.tsv").exists()
    rep = read_report(out)
    block = rep["conditional"]["2"]
    assert len(block["octiles"]) == 8
    assert block["boundaries"][0] == 0.0
    assert block["boundaries"][-1] is None          # inf is not valid JSON
    counts = [row["count"] for row in block["octiles"]]
    assert sum(counts) == block["n_pairs"]
    assert min(counts) > 0                          # quantile mode populates all


def test_dfa_outputs(tmp_path):
    out = tmp_path / "dfa"
    rc = main(["dfa", *SYNTH, "--seed", "5", "--out", str(out), "--jobs", "1",
               "--dump-fluctuations"])
    assert rc == 0
    rep = read_report(out)
    assert rep["dfa"]["n_computed"] == 12
    assert 0.0 < rep["dfa"]["mean_alpha"] < 1.2
    assert (out / "dfa_alpha_by_lifetime.tsv").exists()
    assert (out / "dfa_alpha_by_volume.tsv").exists()
    fl = (out / "dfa_fluct_S00000.tsv").read_text().strip().split("\n")
    n0, f0 = fl[0].split("\t")
    assert int(n0) >= 4
    assert float(f0) > 0


def test_factors_outputs(tmp_path):
    out = tmp_path / "fac"
    rc = main(["factors", *SYNTH, "--q", "2.0", "--seed", "5",
               "--out", str(out), "--jobs", "1"])
    assert rc == 0
    rep = read_report(out)
    corr = rep["factors"]["correlations"]
    assert corr["n_stocks"] == 12
    # every synthetic stock has the same lifetime, so that factor is
    # constant and its correlation row must be masked out
    assert "lifetime" in corr["degenerate"]
    assert corr["log"][0][2] is None
    assert (out / "gamma_by_lifetime.tsv").exists()
    assert (out / "gamma_by_volume.tsv").exists()
    assert (out / "scatter_volume_vs_trading_value.tsv").exists()
    header_free = (out / "gamma_by_volume.tsv").read_text().strip().split("\n")
    assert len(header_free[0].split("\t")) == 6


def test_synth_roundtrip(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = main(["synth", "--kind", "cascade", "--n-stocks", "3",
               "--length", "512", "--sigma", "0.4", "--df", "3.0",
               "--seed", "9", "--out", str(out)])
    assert rc == 0
    assert "wrote 3 stocks" in capsys.readouterr().out
    with open(out / "planted.json") as fh:
        planted = json.load(fh)
    assert set(planted) == {"S00000", "S00001", "S00002"}
    corpus = vi.load_corpus(out, min_lifetime=512)
    assert len(corpus) == 3


def test_synth_data_error_leaves_no_output_directory(tmp_path, capsys):
    # every stock overflows; the run made out and its parent, and removes both
    out = tmp_path / "new" / "corpus"
    rc = main(["synth", "--kind", "iid", "--dist", "powered_normal",
               "--kappa", "1e300", "--n-stocks", "2", "--length", "300",
               "--out", str(out)])
    assert rc == 3
    assert "S00000 (iid): the series overflows" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_data_error_removes_only_the_files_it_wrote(tmp_path, capsys):
    # at kappa 600 and seed 0, S00000 is written and S00001 overflows
    out = tmp_path / "corpus"
    out.mkdir()
    (out / "OTHER.csv").write_text("kept\n")
    rc = main(["synth", "--kind", "iid", "--dist", "powered_normal",
               "--kappa", "600", "--n-stocks", "4", "--length", "300",
               "--seed", "0", "--out", str(out)])
    assert rc == 3
    assert "S00001 (iid): the series overflows" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["OTHER.csv"]
    assert (out / "OTHER.csv").read_text() == "kept\n"


def test_conflicting_sources_exit_2(tmp_path, capsys):
    rc = main(["intervals", *SYNTH, "--data-dir", str(tmp_path),
               "--out", str(tmp_path / "x"), "--jobs", "1"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_no_source_exit_2(tmp_path):
    assert main(["intervals", "--out", str(tmp_path / "x"), "--jobs", "1"]) == 2


@pytest.mark.parametrize("out", ["file", "file/sub"])
@pytest.mark.parametrize("command", ["intervals", "synth"])
def test_out_that_cannot_be_a_directory_exit_2_before_any_data(
        tmp_path, capsys, out, command):
    # a missing --data-dir would exit 3 once read: exit 2 shows --out was
    # rejected at configuration, before the source was touched
    (tmp_path / "file").write_text("kept\n")
    source = (["--kind", "iid", "--n-stocks", "2", "--length", "300"]
              if command == "synth" else
              ["--data-dir", str(tmp_path / "nope"), "--jobs", "1"])
    assert main([command, *source, "--out", str(tmp_path / out)]) == 2
    assert "--out must be a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


def test_missing_data_dir_exit_3(tmp_path):
    rc = main(["intervals", "--data-dir", str(tmp_path / "nope"),
               "--out", str(tmp_path / "x"), "--jobs", "1"])
    assert rc == 3


@pytest.mark.parametrize("files, text", [
    ({}, "no *.csv file in"),
    ({"BAD.csv": "date,vol,close,shares_outstanding\n2001-01-01,1,1.0,\n"},
     "1 file(s), 0 shorter than --min-lifetime 350, 1 unreadable or malformed"),
    ({"A.csv": "date,volume,close,shares_outstanding\n2001-01-01,1,1.0,\n",
      "B.csv": "date,volume,close,shares_outstanding\n"},
     "2 file(s), 2 shorter than --min-lifetime 350, 0 unreadable or malformed"),
], ids=["empty-dir", "bad-header", "short"])
def test_no_accepted_stock_exit_3_says_why(tmp_path, capsys, files, text):
    src = tmp_path / "src"
    src.mkdir()
    for name, body in files.items():
        (src / name).write_text(body)
    rc = main(["intervals", "--data-dir", str(src), "--out",
               str(tmp_path / "x"), "--jobs", "1"])
    assert rc == 3
    assert text in capsys.readouterr().err


def test_tied_quantile_octiles_empty_one_threshold_not_the_run(tmp_path):
    # q=1's tau0 quantiles tie on this corpus; q=2 and q=3 have distinct ones
    args = ["conditional", "--synth-kind", "iid", "--synth-n-stocks", "2",
            "--synth-length", "1000", "--octiles", "quantile", "--jobs", "1"]
    out = tmp_path / "all"
    assert main([*args, "--thresholds", "1,2,3", "--out", str(out)]) == 0
    blocks = read_report(out)["conditional"]
    assert blocks["1"] == {"empty": True, "n_pairs": blocks["1"]["n_pairs"],
                           "reason": "tau0 quantiles are not distinct; "
                                     "use geometric mode"}
    assert blocks["1"]["n_pairs"] > 0
    assert not any(out.glob("cond_q1_*"))
    for q in ("2", "3"):
        assert not blocks[q]["empty"]
        assert sorted(p.name for p in out.glob(f"cond_q{q}_*")) == [
            f"cond_q{q}_Q{k}.tsv" for k in range(1, 9)]
    # with no threshold left that produced octiles the run exits 4
    only = tmp_path / "only"
    assert main([*args, "--thresholds", "1", "--out", str(only)]) == 4
    assert read_report(only)["conditional"] == {"1": blocks["1"]}


def test_hill_gamma_null_without_warning_when_every_tail_sample_is_x_min(
        tmp_path):
    # 10-day bursts of ten-fold volume: every interval is 10 days long,
    # so every scaled interval equals x_min = 1
    t = np.arange(1000)
    volume = (1000 + t % 2) * np.where((t // 10) % 2 == 1, 10, 1)
    data = tmp_path / "data"
    data.mkdir()
    days = np.datetime64("2001-01-01") + t
    (data / "X.csv").write_text("date,volume,close,shares_outstanding\n" + "".join(
        f"{d},{v},10.0,100\n" for d, v in zip(days, volume)))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["intervals", "--data-dir", str(data), "--thresholds", "2,3",
                   "--jobs", "1", "--out", str(out)])
    assert rc == 0
    for block in read_report(out)["intervals"].values():
        assert block["fits"]["hill_gamma"] is None


def write_stock(path, volume, close=None):
    """A CSV file of consecutive days with these volumes and closes."""
    close = 10.0 + np.arange(len(volume)) % 7 if close is None else close
    days = np.datetime64("2001-01-01") + np.arange(len(volume))
    path.write_text("date,volume,close,shares_outstanding\n" + "".join(
        f"{d},{v},{c:.2f},100\n" for d, v, c in zip(days, volume, close)))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_n_returns_dropped_counts_every_undefined_step(tmp_path, jobs):
    # a zero volume leaves both of its steps undefined; a stock with no
    # nonzero volume is degenerate, and its 399 steps still count
    data = tmp_path / "data"
    data.mkdir()
    volume = np.random.default_rng(3).integers(1000, 5000, 400)
    write_stock(data / "B.csv", volume)
    volume[[0, 10, 11, 12, 100]] = 0    # steps: 1 + 4 + 2
    write_stock(data / "A.csv", volume)
    write_stock(data / "C.csv", np.zeros(400, dtype=np.int64))
    out = tmp_path / "out"
    assert main(["intervals", "--data-dir", str(data), "--thresholds", "2",
                 "--jobs", jobs, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["n_returns_dropped"] == 7 + 399
    assert rep["n_degenerate"] == 1


@pytest.mark.parametrize("argv, block, key, prefix, rc", [
    # every stock is degenerate and no stock defines all four factors:
    # no gamma and no correlations, so factors reports no statistics
    (["factors"], "factors", "gamma_by_factor", "gamma", 4),
    (["dfa", "--series", "price"], "dfa", "by_factor", "dfa_alpha", 0),
], ids=["factors", "dfa"])
def test_factor_no_stock_defines_is_left_out_of_the_tables(
        tmp_path, argv, block, key, prefix, rc):
    # volume 0 on every row: no stock defines volume or trading value
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(4)
    for k in range(4):
        write_stock(data / f"T{k}.csv", np.zeros(400, dtype=np.int64),
                    rng.uniform(5.0, 15.0, 400))
    out = tmp_path / "out"
    assert main([*argv, "--data-dir", str(data), "--jobs", "1",
                 "--out", str(out)]) == rc
    assert sorted(read_report(out)[block][key]) == ["capitalization",
                                                     "lifetime"]
    assert sorted(p.name for p in out.glob("*_by_*.tsv")) == [
        f"{prefix}_by_capitalization.tsv", f"{prefix}_by_lifetime.tsv"]


@pytest.mark.parametrize("argv, block, key", [
    (["factors"], "factors", "gamma_by_factor"),
    (["dfa"], "dfa", "by_factor"),
], ids=["factors", "dfa"])
def test_factor_that_overflows_is_undefined_not_a_warning(tmp_path, argv, block, key):
    # a close of 1e300 is valid, but its mean capitalization and trading
    # value overflow: that stock leaves both undefined, as a zero volume
    # does, and no bin edge or coefficient is inf or NaN
    corpus, _ = vi.synth_corpus(6, vi.homogeneous_rule(
        "fgn", 600, {"hurst": 0.8, "vol_scale": 0.5, "noise_df": 2.5}, 7))
    s = corpus.stocks[0]
    corpus.stocks[0] = dataclasses.replace(s, close=np.full(len(s.dates), 1e300))
    vi.write_corpus(corpus, tmp_path / "data")
    out = tmp_path / "out"
    assert main([*argv, "--data-dir", str(tmp_path / "data"), "--min-lifetime", "100",
                 "--jobs", "1", "--out", str(out)]) == 0
    report = read_report(out)
    rows = [r for bins in report[block][key].values() for r in bins]
    assert len(report[block][key]) == 4
    assert all(r["lo"] is not None and r["hi"] is not None for r in rows)
    assert not any("inf" in p.read_text() for p in out.glob("*_by_*.tsv"))
    if block == "factors":
        correlations = report["factors"]["correlations"]
        assert correlations["n_stocks"] == 5
        assert correlations["degenerate"] == ["lifetime"]
        assert all(c is not None for row in correlations["log"][1:] for c in row[1:])


@pytest.mark.parametrize("argv, block, key", [
    (["factors"], "factors", "gamma_by_factor"),
    (["dfa"], "dfa", "by_factor"),
], ids=["factors", "dfa"])
def test_factor_too_large_for_its_edges_is_undefined(tmp_path, argv, block, key):
    # a one-day stock whose trading value is the largest double: finite,
    # but the top edge nudged past it would be inf and so would every
    # geometric edge after the first; that value is undefined instead
    corpus, _ = vi.synth_corpus(6, vi.homogeneous_rule(
        "fgn", 600, {"hurst": 0.8, "vol_scale": 0.5, "noise_df": 2.5}, 7))
    data = tmp_path / "data"
    vi.write_corpus(corpus, data)
    (data / "BIG.csv").write_text("date,volume,close,shares_outstanding\n"
                                  "1990-01-02,1,1.7976931348623157e308,\n")
    out = tmp_path / "out"
    assert main([*argv, "--data-dir", str(data), "--min-lifetime", "1",
                 "--jobs", "1", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["load_summary"]["n_accepted"] == 7
    rows = [r for bins in report[block][key].values() for r in bins]
    assert len(report[block][key]) == 4
    assert all(r["lo"] is not None and r["hi"] is not None for r in rows)
    assert not any("inf" in p.read_text() for p in out.glob("*_by_*.tsv"))


def test_jobs_above_max_jobs_exit_2_before_any_pool(tmp_path, capsys,
                                                    monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "x"
    assert main(["intervals", *SYNTH, "--jobs", str(MAX_JOBS + 1),
                 "--out", str(out)]) == 2
    assert "--jobs must be from 1 to" in capsys.readouterr().err
    assert not out.exists()
    # the default never exceeds the bound, however many CPUs there are
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(MAX_JOBS + 1)), raising=False)
    assert build_parser().parse_args(["dfa", "--out", "o"]).jobs == MAX_JOBS


def test_unreachable_threshold_exit_4(tmp_path):
    out = tmp_path / "empty"
    rc = main(["intervals", *SYNTH, "--thresholds", "50.0", "--seed", "5",
               "--out", str(out), "--jobs", "1"])
    assert rc == 4
    rep = read_report(out)      # report still written for inspection
    assert rep["intervals"]["50"] == {"empty": True}


def test_data_dir_source(tmp_path):
    src = tmp_path / "src"
    main(["synth", "--kind", "iid", "--n-stocks", "4", "--length", "600",
          "--dist", "student_t", "--df", "3.0", "--seed", "11",
          "--out", str(src)])
    out = tmp_path / "res"
    rc = main(["intervals", "--data-dir", str(src), "--thresholds", "2.0",
               "--min-lifetime", "600", "--out", str(out), "--jobs", "1"])
    assert rc == 0
    assert (out / "pdf_q2.tsv").exists()


def test_jobs_do_not_change_bytes(tmp_path):
    outs = []
    for tag, jobs in (("a", 1), ("b", 2)):
        out = tmp_path / tag
        assert main(["conditional", *SYNTH, "--thresholds", "2.0",
                     "--seed", "5", "--out", str(out), "--jobs",
                     str(jobs)]) == 0
        outs.append(out)
    a, b = outs
    fa = sorted(p.name for p in a.iterdir())
    fb = sorted(p.name for p in b.iterdir())
    assert fa == fb
    for name in fa:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_price_series_mode(tmp_path):
    out = tmp_path / "px"
    rc = main(["intervals", *SYNTH, "--series", "price", "--thresholds",
               "2.0", "--seed", "5", "--out", str(out), "--jobs", "1"])
    # constant synthetic closes are degenerate for every stock: nothing
    # to pool, but the run must still leave a report behind
    assert rc == 4
    assert (out / "report.json").exists()


@pytest.mark.parametrize("thresholds", ["2.0000001,2.0000002,2", "2,2",
                                        "2.5,2.50"])
def test_colliding_threshold_tags_exit_2(tmp_path, capsys, thresholds):
    out = tmp_path / "x"
    rc = main(["intervals", *SYNTH, "--thresholds", thresholds,
               "--out", str(out), "--jobs", "1"])
    assert rc == 2
    assert "collide" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("intervals", ["--x-min", "-1"]),
    ("intervals", ["--x-min", "0"]),
    ("conditional", ["--min-lifetime", "-5"]),
    ("factors", ["--q", "0"]),
    ("factors", ["--q", "-2.5"]),
    ("dfa", ["--order", "0"]),
    ("intervals", ["--x-min", "inf"]),
    ("intervals", ["--x-min", "nan"]),
    ("factors", ["--q", "inf"]),
    ("factors", ["--q", "nan"]),
    ("intervals", ["--thresholds", "inf"]),
    ("conditional", ["--thresholds", "2,nan"]),
    ("intervals", ["--bins-per-decade", "0"]),
    ("intervals", ["--bins-per-decade", "1001"]),
    ("intervals", ["--synth-hurst", "0.7"]),     # a generator flag, no kind
    ("dfa", ["--order", "7"]),      # above the smallest window's fit
])
def test_bad_numeric_flags_exit_2_before_loading(tmp_path, capsys, command,
                                                  flags):
    # the data directory does not exist: reading it would exit 3, so
    # exit 2 shows the flag was rejected before the corpus was touched
    out = tmp_path / "x"
    rc = main([command, "--data-dir", str(tmp_path / "nope"), *flags,
               "--out", str(out), "--jobs", "1"])
    assert rc == 2
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()


def test_dfa_order_above_smallest_window_exit_2_before_generating(
        tmp_path, capsys, monkeypatch):
    def no_stock(*args):
        raise AssertionError("a stock was generated")

    monkeypatch.setattr("volint.stage.synth_stock", no_stock)
    out = tmp_path / "x"
    assert main(["dfa", "--synth-kind", "iid", "--synth-n-stocks", "3",
                 "--synth-length", "2000", "--order", "7", "--jobs", "1",
                 "--out", str(out)]) == 2
    assert "--order must be from 1 to 6" in capsys.readouterr().err
    assert not out.exists()


GENERATOR_CASES = [
    # flags foreign to the kind (or to iid's dist)
    (["--synth-kind", "iid", "--synth-hurst", "0.7"], "hurst"),
    (["--synth-kind", "iid", "--synth-dist", "normal", "--synth-df", "3"],
     "df"),
    (["--synth-kind", "iid", "--synth-df", "3"], "df"),
    (["--synth-kind", "iid", "--synth-dist", "student_t", "--synth-df", "3",
      "--synth-kappa", "2"], "kappa"),
    (["--synth-kind", "cascade", "--synth-hurst", "0.7"], "hurst"),
    (["--synth-kind", "fgn", "--synth-hurst", "0.7", "--synth-dist",
      "normal"], "dist"),
    # missing or out-of-range parameters
    (["--synth-kind", "iid", "--synth-dist", "student_t"], "df"),
    (["--synth-kind", "iid", "--synth-dist", "student_t", "--synth-df", "0"],
     "df"),
    (["--synth-kind", "iid", "--synth-dist", "powered_normal",
      "--synth-kappa", "-1"], "kappa"),
    (["--synth-kind", "fgn", "--synth-hurst", "0.7", "--synth-vol-scale", "1",
      "--synth-df", "0"], "noise_df"),
    (["--synth-kind", "cascade", "--synth-df", "0"], "noise_df"),
    (["--synth-kind", "fgn", "--synth-hurst", "0.7", "--synth-df", "3"],
     "noise_df"),
    (["--synth-kind", "fgn", "--synth-vol-scale", "0.3"], "hurst"),
    # non-finite values
    (["--synth-kind", "cascade", "--synth-sigma", "nan"], "--synth-sigma"),
    (["--synth-kind", "fgn", "--synth-hurst", "0.7", "--synth-vol-scale",
      "nan"], "--synth-vol-scale"),
    (["--synth-kind", "fgn", "--synth-hurst", "inf"], "--synth-hurst"),
]


@pytest.mark.parametrize("command", ["intervals", "synth"])
@pytest.mark.parametrize("flags, name", GENERATOR_CASES)
def test_bad_generator_flags_exit_2_before_generating(tmp_path, capsys,
                                                      command, flags, name):
    out = tmp_path / "x"
    if command == "synth":
        flags = [f.replace("--synth-", "--") for f in flags]
        name = name.replace("--synth-", "--")
        argv = ["synth", *flags, "--n-stocks", "2", "--length", "64"]
    else:
        argv = ["intervals", *flags, "--jobs", "1"]
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and name in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("intervals", "--synth-levels"),
                                           ("synth", "--levels")])
def test_cascade_levels_are_no_flag_and_no_spec_param(tmp_path, capsys,
                                                      command, flag):
    # a cascade's levels follow from --length: the flag is unknown to the
    # parser, and the library rejects the param
    out = tmp_path / "x"
    source = (["--kind", "cascade", "--n-stocks", "1", "--length", "100"]
              if command == "synth" else ["--synth-kind", "cascade"])
    with pytest.raises(SystemExit) as exc:
        main([command, *source, flag, "7", "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
    assert not out.exists()
    spec = vi.GeneratorSpec("cascade", 100, {"levels": 7})
    for check in (check_spec, vi.generate):
        with pytest.raises(vi.ConfigError, match="cascade takes no levels"):
            check(spec)


# each kind's own generator flags, then any one flag at all
OWN_FLAGS = {"iid": ("dist", "df", "kappa"), "fgn": ("hurst", "vol_scale", "df"),
             "cascade": ("sigma", "df")}
ANY_FLAG = ("hurst", "sigma", "vol_scale", "df", "kappa", "dist")


@st.composite
def synth_flags(draw):
    """(kind, length, {flag name: value}), in range and out of it."""
    kind = draw(st.sampled_from(vi.synth.KINDS))
    names = draw(st.sets(st.sampled_from(OWN_FLAGS[kind])))
    names |= draw(st.sets(st.sampled_from(ANY_FLAG), max_size=1))
    # in every range, in some, not finite, or any float at all
    values = st.one_of(st.integers(1, 9).map(lambda i: i / 10),
                       st.integers(-20, 20).map(lambda i: i / 10),
                       st.sampled_from([math.inf, -math.inf, math.nan]),
                       st.floats())
    flags = {n: draw(st.sampled_from(vi.synth.DISTS) if n == "dist" else values)
             for n in sorted(names)}
    return kind, draw(st.integers(0, 300)), flags


@settings(max_examples=200, deadline=None)
@given(synth_flags())
def test_synth_cli_rejects_what_check_spec_rejects(case):
    # the command line and the library run the one set of generator
    # rules: exit 2 exactly when check_spec rejects the flags' params,
    # else the stock is written with those params, or, when they are
    # extreme enough to overflow the series, the run exits 3
    kind, length, flags = case
    params = dict(flags)
    if kind == "iid":
        params.setdefault("dist", "normal")
    elif "df" in params:
        params["noise_df"] = params.pop("df")
    argv = [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "corpus"
        rc = main(["synth", "--kind", kind, "--n-stocks", "1", "--length",
                   str(length), "--seed", "7", "--out", str(out), *argv])
        try:
            check_spec(vi.GeneratorSpec(kind, length, params))
        except vi.ConfigError:
            assert rc == 2 and not out.exists()
            event("exit 2")
            return
        event(f"exit {rc}")
        if rc == 3:
            assert not out.exists()
            rule = vi.homogeneous_rule(kind, length, params, 7)
            with pytest.raises(vi.DataError, match="overflows"):
                vi.synth_stock(rule(0), 0)
            return
        assert rc == 0
        with open(out / "planted.json") as fh:
            assert json.load(fh)["S00000"]["params"] == params


@pytest.mark.parametrize("flags, params", [
    (["--kind", "iid"], {"dist": "normal"}),
    (["--kind", "iid", "--dist", "student_t", "--df", "3"],
     {"dist": "student_t", "df": 3.0}),
    (["--kind", "iid", "--dist", "powered_normal", "--kappa", "2"],
     {"dist": "powered_normal", "kappa": 2.0}),
    (["--kind", "fgn", "--hurst", "0.7", "--vol-scale", "0.3", "--df", "3"],
     {"hurst": 0.7, "vol_scale": 0.3, "noise_df": 3.0}),
    (["--kind", "cascade", "--sigma", "0.2", "--df", "3"],
     {"sigma": 0.2, "noise_df": 3.0}),
])
def test_generator_flags_map_onto_spec_params(tmp_path, flags, params):
    # --df is iid student_t's df but the noise_df of fgn and cascade
    out = tmp_path / "corpus"
    assert main(["synth", *flags, "--n-stocks", "1", "--length", "100",
                 "--out", str(out)]) == 0
    with open(out / "planted.json") as fh:
        assert json.load(fh)["S00000"]["params"] == params


# two 20-day stocks: no interval reaches a threshold of 50, no series is
# long enough for DFA, and two stocks are too few for factor correlations
EMPTY_RUNS = {
    "intervals": (["--thresholds", "50"],
                  {"n_degenerate": 0, "n_returns_dropped": 0,
                   "intervals": {"50": {"empty": True}}},
                  "no threshold produced any interval"),
    "conditional": (["--thresholds", "50"],
                    {"conditional": {"50": {"empty": True}}},
                    "no threshold produced octiles of interval pairs"),
    "dfa": ([], {"dfa": {"empty": True}}, "no stock yielded a DFA exponent"),
    "factors": (["--q", "50"], None,
                "no factor bin has a tail exponent and no correlations"),
}


@pytest.mark.parametrize("command", sorted(EMPTY_RUNS))
def test_run_with_nothing_to_report_writes_header_and_empty_block_exit_4(
        tmp_path, capsys, command):
    flags, block, reason = EMPTY_RUNS[command]
    out = tmp_path / command
    rc = main([command, "--synth-kind", "iid", "--synth-n-stocks", "2",
               "--synth-length", "20", *flags, "--out", str(out),
               "--jobs", "1"])
    assert rc == 4
    assert capsys.readouterr().err == f"insufficient statistics: {reason}\n"
    rep = read_report(out)
    header = {k: rep.pop(k) for k in ("config", "load_summary", "n_stocks")}
    # the config echoes every echo option, checked, also one the command
    # does not take (dfa and factors take no --thresholds)
    config = header["config"]
    assert config["command"] == command
    assert config["thresholds"] == (
        [50.0] if flags[:1] == ["--thresholds"] else [2.0, 2.5, 3.0, 3.5, 4.0])
    assert config["bins_per_decade"] == 8 and config["x_min"] == 1.0
    assert header["n_stocks"] == header["load_summary"]["n_accepted"] == 2
    if command == "factors":
        # every factor is binned, but no bin holds an interval
        block = rep.pop("factors")
        assert rep == {}
        assert block["correlations"] is None
        assert block["unbinned"] == dict.fromkeys(vi.FACTORS, 0)
        assert sorted(block["gamma_by_factor"]) == sorted(vi.FACTORS)
        assert all(r["gamma"] is None and r["n_intervals"] == 0
                   for rows in block["gamma_by_factor"].values() for r in rows)
    else:
        assert rep == block


def test_lenient_load_rejects_one_bad_file_not_the_corpus(tmp_path):
    src = tmp_path / "src"
    main(["synth", "--kind", "iid", "--n-stocks", "3", "--length", "600",
          "--seed", "11", "--out", str(src)])
    (src / "BAD.csv").write_text(
        "date,vol,close,shares_outstanding\n2001-01-01,1,1.0,\n")
    args = ["intervals", "--data-dir", str(src), "--thresholds", "2.0",
            "--min-lifetime", "600", "--jobs", "1"]
    out = tmp_path / "res"
    assert main([*args, "--out", str(out)]) == 0
    summary = read_report(out)["load_summary"]
    assert summary["n_rejected_error"] == 1
    assert summary["n_accepted"] == 3
    assert main([*args, "--strict", "--out", str(tmp_path / "strict")]) == 3


@pytest.mark.parametrize("data", [
    b" date,volume,close,shares_outstanding\n2001-01-01,1,1.0,\n",
    b"date,volume,close,shares_outstanding\r2001-01-01,1,1.0,\r",
], ids=["padded-header", "cr-line-ends"])
def test_file_outside_the_grammar_counted_when_lenient_exit_3_when_strict(
        tmp_path, data):
    src = tmp_path / "src"
    main(["synth", "--kind", "iid", "--n-stocks", "3", "--length", "400",
          "--seed", "11", "--out", str(src)])
    (src / "BAD.csv").write_bytes(data)
    args = ["intervals", "--data-dir", str(src), "--thresholds", "2.0",
            "--min-lifetime", "400", "--jobs", "1"]
    out = tmp_path / "res"
    assert main([*args, "--out", str(out)]) == 0
    summary = read_report(out)["load_summary"]
    assert summary["n_rejected_error"] == 1
    assert summary["n_accepted"] == 3
    assert main([*args, "--strict", "--out", str(tmp_path / "strict")]) == 3


def test_volume_overflow_row_counted_when_lenient_exit_3_when_strict(tmp_path):
    src = tmp_path / "src"
    main(["synth", "--kind", "iid", "--n-stocks", "3", "--length", "600",
          "--seed", "11", "--out", str(src)])
    with open(src / "S00001.csv", "a") as fh:
        fh.write(f"2099-01-01,{2 ** 63},1.0,\r\n")
    args = ["intervals", "--data-dir", str(src), "--thresholds", "2.0",
            "--min-lifetime", "600", "--jobs", "1"]
    out = tmp_path / "res"
    assert main([*args, "--out", str(out)]) == 0
    summary = read_report(out)["load_summary"]
    assert summary["n_rows_skipped"] == 1
    assert summary["n_accepted"] == 3
    assert main([*args, "--strict", "--out", str(tmp_path / "strict")]) == 3


@pytest.mark.parametrize("stem", ["a\tb", "c\nd"], ids=["tab", "newline"])
def test_control_character_ticker_rejected_when_lenient_exit_3_when_strict(
        tmp_path, capsys, stem):
    # the stem is the ticker, written into TSV rows and file names
    src = tmp_path / "src"
    main(["synth", "--kind", "iid", "--n-stocks", "3", "--length", "400",
          "--seed", "11", "--out", str(src)])
    bad = src / f"{stem}.csv"
    try:
        bad.write_bytes((src / "S00000.csv").read_bytes())
    except OSError as exc:
        pytest.skip(f"the filesystem refuses {bad.name!r}: {exc}")
    args = ["factors", "--data-dir", str(src), "--q", "2.0",
            "--min-lifetime", "400", "--jobs", "1"]
    out = tmp_path / "res"
    assert main([*args, "--out", str(out)]) == 0
    summary = read_report(out)["load_summary"]
    assert summary["n_rejected_error"] == 1
    assert summary["n_accepted"] == 3
    assert all(stem not in p.read_text() for p in out.glob("*.tsv"))
    capsys.readouterr()
    strict = tmp_path / "strict"
    assert main([*args, "--strict", "--out", str(strict)]) == 3
    assert repr(str(bad)) in capsys.readouterr().err
    assert not strict.exists()


def test_file_named_dot_csv_rejected_when_lenient_exit_3_when_strict(
        tmp_path, capsys):
    # the ticker is the file name without ".csv", so ".csv" names none
    # (Path.stem would keep ".csv" whole)
    src = tmp_path / "src"
    main(["synth", "--kind", "iid", "--n-stocks", "2", "--length", "400",
          "--seed", "11", "--out", str(src)])
    bad = src / ".csv"
    bad.write_bytes((src / "S00000.csv").read_bytes())
    args = ["dfa", "--data-dir", str(src), "--min-lifetime", "400",
            "--dump-fluctuations", "--jobs", "1"]
    out = tmp_path / "res"
    assert main([*args, "--out", str(out)]) == 0
    summary = read_report(out)["load_summary"]
    assert summary["n_rejected_error"] == 1
    assert summary["n_accepted"] == 2
    assert sorted(p.name for p in out.glob("dfa_fluct_*")) == [
        "dfa_fluct_S00000.tsv", "dfa_fluct_S00001.tsv"]
    capsys.readouterr()
    strict = tmp_path / "strict"
    assert main([*args, "--strict", "--out", str(strict)]) == 3
    assert repr(str(bad)) in capsys.readouterr().err
    assert not strict.exists()


def test_bins_per_decade_1000_is_accepted(tmp_path):
    out = tmp_path / "iv"
    assert main(["intervals", *SYNTH, "--thresholds", "2.0",
                 "--bins-per-decade", "1000", "--out", str(out),
                 "--jobs", "1"]) == 0
    assert read_report(out)["config"]["bins_per_decade"] == 1000


def test_report_ignores_input_directory_name_and_write_order(tmp_path):
    src = tmp_path / "src"
    main(["synth", "--kind", "fgn", "--n-stocks", "5", "--length", "1024",
          "--hurst", "0.8", "--vol-scale", "0.4", "--df", "3.0",
          "--seed", "13", "--out", str(src)])
    moved = tmp_path / "another name"
    moved.mkdir()
    for f in sorted(src.glob("*.csv"), reverse=True):
        (moved / f.name).write_bytes(f.read_bytes())
    reports = []
    for tag, data_dir in (("a", src), ("b", moved)):
        out = tmp_path / tag
        assert main(["conditional", "--data-dir", str(data_dir),
                     "--thresholds", "2.0", "--min-lifetime", "1024",
                     "--octiles", "quantile", "--out", str(out),
                     "--jobs", "1"]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_factors_computes_each_degenerate_stock_once(tmp_path, monkeypatch):
    calls = []
    real = vi.log_returns

    def counting(*a, **k):
        calls.append(1)
        return real(*a, **k)

    # the per-stock stage binds log_returns in stage, volatility() reaches
    # it in its own module; the package's volatility attribute is the
    # function, so the modules come from sys.modules
    for mod in ("volint.stage", "volint.volatility"):
        monkeypatch.setattr(sys.modules[mod], "log_returns", counting)
    out = tmp_path / "fac"
    rc = main(["factors", *SYNTH, "--series", "price", "--q", "2.0",
               "--seed", "5", "--out", str(out), "--jobs", "1"])
    assert rc == 0
    assert len(calls) == 12     # constant closes: every stock degenerate


def test_jobs_default_is_the_cpus_this_process_may_run_on(monkeypatch):
    args = build_parser().parse_args(["intervals", "--out", "o"])
    if hasattr(os, "sched_getaffinity"):
        assert args.jobs == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert build_parser().parse_args(["dfa", "--out", "o"]).jobs == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(["factors", "--out", "o"]).jobs == 1


def test_runtime_imports_no_scipy():
    code = ("import sys, volint, volint.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_quantile_octiles_leave_numpy_ma_unloaded(tmp_path):
    # np.quantile imports numpy.ma (about 15 ms) on its first call, and
    # np.unique, which the factor tables could bin with, does too
    runs = [["conditional", "--thresholds", "2.0", "--octiles", "quantile"],
            ["dfa"], ["factors"]]
    argvs = [[*run, *SYNTH, "--seed", "5", "--out", str(tmp_path / run[0]),
              "--jobs", "1"] for run in runs]
    code = ("import json, sys; from volint.cli import main; "
            f"rcs = [main(argv) for argv in {argvs!r}]; "
            "print(json.dumps([rcs, sorted(m for m in sys.modules "
            "if m == 'numpy.ma' or m.startswith('numpy.ma.'))]))")
    assert run_python(code) == [[0, 0, 0], []]


def test_runs_that_draw_nothing_leave_hashlib_unloaded(tmp_path):
    # hashlib loads OpenSSL; only derive_seed needs it, so a CSV run that
    # derives no seed does not load it, and one that shuffles does
    data = tmp_path / "data"
    assert main(["synth", "--kind", "iid", "--n-stocks", "3", "--length",
                 "600", "--seed", "5", "--out", str(data)]) == 0
    runs = [["conditional", "--octiles", "quantile"], ["dfa"], ["factors"],
            ["dfa", "--shuffled"]]
    code = ("import json, sys; from volint.cli import main; loaded = []\n"
            f"for i, run in enumerate({runs!r}):\n"
            f"    rc = main(run + ['--data-dir', {str(data)!r}, '--jobs', '1',"
            f" '--out', {str(tmp_path)!r} + f'/o{{i}}'])\n"
            "    loaded.append([rc, sorted({'hashlib', '_hashlib'} "
            "& set(sys.modules))])\n"
            "print(json.dumps(loaded))")
    *drew_nothing, shuffled = run_python(code)
    assert drew_nothing == [[0, []]] * 3
    assert shuffled[0] == 0 and "hashlib" in shuffled[1]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def python_env(**preset):
    """os.environ without a BLAS thread variable, plus preset, with the
    package's source tree first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(vi.__file__).parents[1]), env.get("PYTHONPATH")]))
    return {**env, **preset}


def run_python(code, **preset):
    """The stdout of `python -c code` as JSON."""
    res = subprocess.run([sys.executable, "-c", code], env=python_env(**preset),
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


ENTRY = """
import json, os, sys
VARS = {vars!r}
seen = []

class Spy:      # notes the thread setting when the first numpy module loads
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy" and not seen:
            seen.append({{v: os.environ.get(v) for v in VARS}})

sys.meta_path.insert(0, Spy())
before = dict(os.environ)
import volint.__main__ as entry
untouched = dict(os.environ) == before and not seen
sys.argv = ["volint", "intervals", "--out", "never"]    # exits 2 at once
code = entry.main()
print(json.dumps([untouched, seen, code]))
""".format(vars=BLAS_THREAD_VARS)


def test_entry_runs_blas_on_one_thread_before_numpy_loads():
    untouched, seen, code = run_python(ENTRY)
    assert untouched
    assert code == 2
    assert seen == [{"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                     "OMP_NUM_THREADS": None}]


@pytest.mark.parametrize("preset", [{"OPENBLAS_NUM_THREADS": "3"},
                                    {"OMP_NUM_THREADS": "2"},
                                    {"GOTO_NUM_THREADS": "2"}])
def test_entry_leaves_a_preset_blas_thread_count(preset):
    untouched, seen, code = run_python(ENTRY, **preset)
    assert untouched
    assert code == 2
    assert seen == [{v: preset.get(v) for v in BLAS_THREAD_VARS}]


def test_library_import_leaves_the_environment_and_numpy_alone():
    imported, same_env = run_python(
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import volint\n"
        "numpy = sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy')\n"
        "import volint.cli\n"
        "print(json.dumps([numpy, dict(os.environ) == before]))")
    assert imported == []
    assert same_env


def test_blas_thread_count_changes_no_byte(tmp_path):
    # the entry runs BLAS on one thread unless the environment sets a
    # count, so DFA's projections must give the same bytes at the
    # default, on one BLAS thread and on two
    trees = []
    for threads in (None, "1", "2"):
        out = tmp_path / str(threads)
        preset = {"OPENBLAS_NUM_THREADS": threads} if threads else {}
        subprocess.run([sys.executable, "-m", "volint", "dfa",
                        "--synth-kind", "fgn", "--synth-n-stocks", "4",
                        "--synth-length", "4096", "--synth-hurst", "0.8",
                        "--order", "3", "--dump-fluctuations", "--jobs", "1",
                        "--out", str(out)],
                       env=python_env(**preset), check=True)
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert trees[0] == trees[1] == trees[2]
    assert "dfa_fluct_S00003.tsv" in trees[0]


ANALYSIS_DEFAULTS = {
    "--data-dir": None, "--synth-kind": None, "--synth-n-stocks": 100,
    "--synth-length": 5000, "--synth-hurst": None, "--synth-sigma": None,
    "--synth-vol-scale": None, "--synth-df": None, "--synth-kappa": None,
    "--synth-dist": None, "--series": "volume", "--seed": 0, "--out": "o",
    "--min-lifetime": 350, "--strict": False}
THRESHOLDS = {"--thresholds": "2.0,2.5,3.0,3.5,4.0"}
BINS = {"--bins-per-decade": 8}
X_MIN = {"--x-min": 1.0}
SURFACE = {
    "intervals": {**ANALYSIS_DEFAULTS, **THRESHOLDS, **BINS, **X_MIN,
                  "--dump-intervals": False},
    "conditional": {**ANALYSIS_DEFAULTS, **THRESHOLDS, **BINS,
                    "--octiles": "geometric", "--shuffled": False},
    "dfa": {**ANALYSIS_DEFAULTS, "--order": 1, "--shuffled": False,
            "--dump-fluctuations": False},
    "factors": {**ANALYSIS_DEFAULTS, **BINS, **X_MIN, "--q": 2.0},
    "synth": {"--kind": "iid", "--n-stocks": 1, "--length": 2, "--seed": 0,
              "--out": "o", "--hurst": None, "--sigma": None,
              "--vol-scale": None, "--df": None, "--kappa": None,
              "--dist": None},
}
REQUIRED = {"synth": ["--kind", "--length", "--n-stocks", "--out"]}
CHOICES = {"--synth-kind": ["iid", "fgn", "cascade"],
           "--kind": ["iid", "fgn", "cascade"],
           "--synth-dist": ["normal", "student_t", "powered_normal"],
           "--dist": ["normal", "student_t", "powered_normal"],
           "--series": ["volume", "price"],
           "--octiles": ["geometric", "quantile"]}


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_cli_surface_flags_defaults_required_and_choices(command):
    # --jobs is left out: its default is the machine's CPU count, which
    # test_jobs_default_is_the_cpus_this_process_may_run_on pins
    ap = build_parser()
    [sub] = [a for a in ap._actions if a.dest == "command"]
    options = [a for a in sub.choices[command]._actions
               if a.option_strings and a.dest not in ("help", "jobs")]
    minimal = ["--kind", "iid", "--n-stocks", "1", "--length", "2"]
    args = ap.parse_args([command, "--out", "o",
                          *(minimal if command == "synth" else [])])
    want = SURFACE[command]
    assert sorted(a.option_strings[0] for a in options) == sorted(want)
    assert all(len(a.option_strings) == 1 for a in options)
    assert {a.option_strings[0]: getattr(args, a.dest)
            for a in options} == want
    assert sorted(a.option_strings[0] for a in options
                  if a.required) == REQUIRED.get(command, ["--out"])
    assert {a.option_strings[0]: list(a.choices) for a in options
            if a.choices} == {f: c for f, c in CHOICES.items() if f in want}
    assert ("--jobs" in sub.choices[command]._option_string_actions) == (
        command != "synth")


@pytest.mark.parametrize("command, flag, value", [
    ("dfa", "--thresholds", "9"),
    ("dfa", "--bins-per-decade", "3"),
    ("dfa", "--x-min", "50"),
    ("factors", "--thresholds", "9"),
    ("conditional", "--x-min", "50"),
])
def test_flag_the_command_does_not_read_exit_2_before_any_data(
        tmp_path, capsys, command, flag, value):
    # argparse rejects the flag, so the missing --data-dir is never read
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main([command, "--data-dir", str(tmp_path / "nope"), flag, value,
              "--out", str(out), "--jobs", "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()
