"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workloads as wls  # noqa: E402
from run import PROBE_REF_S, WORKLOADS, Bench, Run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_prints_with_its_unit(name, trace):
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, res.stderr
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        value = result["metrics"][m["name"]]["value"]
        assert any(line.split() == [m["name"], f"{value:.6g}", m["unit"]]
                   for line in lines[:-1]), m["name"]
    if trace:
        assert result["metrics"]["fail_frac"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "fail_frac 0 ratio" in lines[:-1]


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""


def test_times_are_scaled_by_the_probes_around_their_iteration():
    bench = Bench(wls.workload("synth-dfa", "tiny"), seed=1)
    # from iteration 2 on the machine is twice as slow: probe and command
    # double, and every run's probe median follows
    for it, slow in enumerate((1.0, 1.0, 2.0, 2.0, 2.0, 2.0)):
        bench.runs += [
            Run("probe", 0.5 * slow, 0.6, 50.0, 0, iteration=it),
            Run("setup", 0.6 * slow, 0.6 * slow, 90.0, 0, iteration=it),
            Run("a", 1.0 * slow, 1.6 * slow, 100.0, 0, iteration=it),
            Run("b", 0.9 * slow, 0.9 * slow, 100.0, 0, iteration=it),
        ]
    got = bench.end_to_end()
    want = {"wall_s": 2.0, "wall_s_jobs1": 1.8, "setup_s": 1.2, "cpu_s": 3.2}
    for name, ratio in want.items():
        assert got[name] == pytest.approx(ratio * PROBE_REF_S), name
    assert got["stock_days_per_s"] == pytest.approx(
        bench.stock_days / got["wall_s"])
    assert got["peak_rss_mb"] == 100.0
    assert bench.raw()["wall_s"] == 2.0


def test_self_time_subtracts_direct_children():
    # a [0,10] has children b [1,4] and d [6,9]; b has a child e [2,3].
    tree = [
        {"name": "cli.a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "dfa.b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "dfa.e", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "fitting.d", "start": 6.0, "end": 9.0, "parent": 0},
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 3.0]
    assert spans.layer_self_times(tree) == {"cli": 4.0, "dfa": 3.0, "fitting": 3.0}
    assert sum(spans.layer_self_times(tree).values()) == 10.0
    assert spans.total_time(tree, "dfa.b") == 3.0


def test_recorder_nests_spans_and_counts_errors():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def fail():
        raise ValueError("boom")

    inner = rec.wrap("dfa.inner", lambda: 1)
    broken = rec.wrap("dfa.broken", fail)

    def body():
        inner()
        with pytest.raises(ValueError):
            broken()
        return 2

    outer = rec.wrap("cli.outer", body)
    assert outer() == 2
    assert [(s["name"], s["parent"]) for s in rec.spans] == [
        ("cli.outer", None), ("dfa.inner", 0), ("dfa.broken", 0)]
    # ticks: outer 0..5, inner 1..2, broken 3..4
    assert spans.self_times(rec.spans) == [3.0, 1.0, 1.0]
    assert rec.calls == {"cli.outer": 1, "dfa.inner": 1, "dfa.broken": 1}
    assert rec.errors == {"dfa.broken": 1}


def test_dirty_csv_states_its_injected_counts(tmp_path):
    from volint import load_corpus
    corpus = wls.fgn_corpus(20, 1024, seed=3)
    expected = wls.write_dirty_csv(corpus, tmp_path / "csv", seed=3)
    loaded = load_corpus(tmp_path / "csv")
    assert loaded.summary.as_dict() == expected["load_summary"]
    assert expected["load_summary"]["n_rows_skipped"] > 0
    assert expected["load_summary"]["n_duplicate_rows"] > 0
    assert loaded.tickers == corpus.tickers
    n_lines = sum(len(p.read_text().splitlines()) - 1
                  for p in (tmp_path / "csv").glob("*.csv"))
    assert n_lines == expected["n_rows"]
    again = wls.write_dirty_csv(corpus, tmp_path / "again", seed=3)
    assert again == expected
    assert wls.tree_digest(tmp_path / "csv")[0] == wls.tree_digest(tmp_path / "again")[0]


def test_reference_tolerance_passes_rounding_and_fails_real_change():
    want = {"2": {"gamma": 1.5, "n_intervals": 100, "spearman": 0.0},
            "mean_alpha": 0.8}
    close = {"2": {"gamma": 1.5 * (1 + 4e-16), "n_intervals": 100,
                   "spearman": 1e-15}, "mean_alpha": 0.8 * (1 - 4e-16)}
    assert wls.mismatches(close, want) == []
    assert wls.mismatches({**close, "mean_alpha": 0.8 * (1 + 1e-6)}, want)
    assert wls.mismatches({**close, "2": {**close["2"], "n_intervals": 101}}, want)
    assert wls.mismatches({**close, "2": {**close["2"], "gamma": None}}, want)
