"""volint benchmark: cold ``python -m volint`` runs of one workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: synth-intervals, csv-conditional, synth-dfa, synth-write (see
bench/README.md for why each is there). One run of the benchmark

1. makes the workload's inputs from ``--seed`` (and from REF_SEED for the
   reference check) before any timing;
2. runs the workload once at REF_SEED, untimed, and compares its headline
   numbers with bench/reference.json (this also warms the page cache);
3. for ``--seconds`` seconds repeats one iteration: on every other
   iteration a cold ``python -c "import volint"`` (set-up time), then the
   speed probe, then the command at ``--jobs 2`` (twice for synth-dfa,
   whose ``--jobs 2`` times spread widest) and at ``--jobs 1``, in
   alternating order, and with
   ``--trace 1`` the command once more at ``--jobs 1`` under
   bench/traced.py;
4. checks that every run exited 0 and wrote the same output tree;
5. prints one line per metric, then the result as one JSON line.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
iterations; with ``--trace 1`` the per-layer ones from the traced runs.

The machine's speed drifts by up to a factor of two over minutes, far more
than the program's own noise. So each end-to-end time is taken relative to
a speed probe run in every iteration: a fixed script that does not touch
volint (it imports numpy and scipy.stats and runs a fixed numerical loop)
and so costs the same on every commit. A time ``t`` (wall or CPU) is
reported as ``t / probe * PROBE_REF_S``, where ``probe`` is the median
probe wall time of its own iteration and the two next to it: its seconds
at the speed at which the probe takes PROBE_REF_S. The raw medians are
printed and recorded beside them.

The benchmark sets no thread or BLAS environment variable for the
measured processes; it records the ones it finds. It writes only below
``.bench_work/`` (removed at exit) and ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads as wls  # noqa: E402
from traced import LAYERS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
REFERENCE = BENCH / "reference.json"
REF_SEED = 1106
MIN_ITERATIONS = 3
# The probe's scale: about its wall time in the fast periods of a 2-vCPU
# Xeon virtual machine, so that adjusted times read close to raw ones there.
PROBE_REF_S = 0.6
PROBE = """
import numpy as np
from scipy import stats
rng = np.random.default_rng(12345)
x = rng.standard_normal((32, 8192))
for row in x:
    f = np.fft.irfft(np.fft.rfft(row) * np.arange(4097))
    np.sort(np.abs(f)).cumsum()
stats.spearmanr(x[0], x[1])
sum(i * i for i in range(300000))
"""
CHILD_TIMEOUT_S = 150
WORKLOADS = ("synth-intervals", "csv-conditional", "synth-dfa", "synth-write")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


@dataclass
class Run:
    """One child process: what ran, what it cost, and whether it passed."""

    kind: str   # setup, probe, a (--jobs 2), b (--jobs 1), traced, reference
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    digest: str | None = None
    n_files: int = 0
    n_bytes: int = 0
    problems: list = field(default_factory=list)
    iteration: int = -1     # of the measuring loop; -1 outside it

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def child_env() -> dict:
    """The parent's environment with src/ first on PYTHONPATH, nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, kind: str, log: Path) -> Run:
    """Run cmd to completion; wall time, and user+sys time and max RSS of
    its whole process tree from os.wait4."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(kind, wall, usage.ru_utime + usage.ru_stime,
              usage.ru_maxrss / 1024, proc.returncode)
    if run.exit_code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        run.problems.append(f"exit {run.exit_code}: {' | '.join(tail)}")
    return run


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, wl: wls.Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.runs: list[Run] = []
        self.traces: list[dict] = []
        self.expected = None        # injected counts of the seed's CSV tree
        self.data_dir = None
        self.kept = None            # one output tree of the seed, for checks
        self.n = 0
        self.iteration = -1

    # -- inputs --------------------------------------------------------------

    def make_csv(self, seed: int, where: Path) -> dict:
        corpus = wls.fgn_corpus(self.wl.n_stocks, self.wl.length, seed)
        return wls.write_dirty_csv(corpus, where, seed)

    def prepare(self) -> None:
        if self.wl.name == "csv-conditional":
            self.data_dir = WORK / "data"
            self.expected = self.make_csv(self.seed, self.data_dir)

    @property
    def stock_days(self) -> int:
        if self.expected is not None:
            return self.expected["n_rows"]
        return self.wl.n_stocks * self.wl.length

    # -- runs ----------------------------------------------------------------

    def volint(self, kind: str, jobs: int, seed: int | None = None,
               data_dir: Path | None = None, record: Path | None = None) -> tuple:
        self.n += 1
        out = WORK / f"out{self.n}"
        argv = self.wl.argv(self.seed if seed is None else seed, out, jobs,
                            data_dir or self.data_dir)
        prefix = ([str(BENCH / "traced.py"), str(record)] if record
                  else ["-m", "volint"])
        run = spawn([sys.executable, *prefix, *argv], kind, WORK / f"log{self.n}")
        if run.exit_code == 0:
            run.digest, run.n_files, run.n_bytes = wls.tree_digest(out)
        run.iteration = self.iteration
        self.runs.append(run)
        return run, out

    def python_sample(self, kind: str, code: str) -> None:
        self.n += 1
        run = spawn([sys.executable, "-c", code], kind, WORK / f"log{self.n}")
        run.iteration = self.iteration
        self.runs.append(run)

    def measured(self, kind: str) -> None:
        run, out = self.volint(kind, 2 if kind == "a" else 1)
        if self.kept is None and run.exit_code == 0:
            self.kept = out
        else:
            shutil.rmtree(out, ignore_errors=True)

    def traced(self) -> None:
        record = WORK / f"trace{len(self.runs)}.json"
        run, out = self.volint("traced", 1, record=record)
        if run.exit_code == 0:
            trace = json.loads(record.read_text())
            path = out / "report.json"
            report = json.loads(path.read_text()) if path.exists() else {}
            run.problems += interval_count_mismatches(trace["counts"], report)
            trace.update(wall_s=run.wall_s, output_files=run.n_files,
                         output_bytes=run.n_bytes,
                         dfa_skipped=report.get("dfa", {}).get("n_skipped", 0))
            self.traces.append(trace)
        shutil.rmtree(out, ignore_errors=True)

    def reference_check(self, references: dict) -> None:
        """Untimed run at REF_SEED, compared with reference.json."""
        data_dir = None
        if self.wl.name == "csv-conditional":
            data_dir = WORK / "ref_data"
            expected = self.make_csv(REF_SEED, data_dir)
        run, out = self.volint("reference", 1, seed=REF_SEED, data_dir=data_dir)
        if run.exit_code != 0:
            return
        want = references.get(reference_key(self.wl))
        if want is None:
            run.problems.append(f"no reference for {reference_key(self.wl)}")
            return
        try:
            got = wls.headline(self.wl.name, out)
        except (KeyError, TypeError, ValueError) as exc:
            run.problems.append(f"unreadable output: {exc!r}")
            return
        run.problems += wls.mismatches(got, want)
        if data_dir is not None:
            run.problems += wls.mismatches(got["load_summary"],
                                           expected["load_summary"], "injected")

    def measure(self, seconds: float, trace: bool) -> None:
        t0 = time.perf_counter()
        jobs2 = ("a",) * wls.JOBS2_RUNS.get(self.wl.name, 1)
        i = 0
        while True:
            self.iteration = i
            if i % 2 == 0:
                self.python_sample("setup", "import volint")
            self.python_sample("probe", PROBE)
            for kind in (*jobs2, "b") if i % 2 == 0 else ("b", *jobs2):
                self.measured(kind)
            if trace:
                self.traced()
            i += 1
            elapsed = time.perf_counter() - t0
            if i >= MIN_ITERATIONS and elapsed * (i + 1) / i > seconds:
                break

    def check_outputs(self) -> None:
        """Same output tree from every run of the seed; injected counts
        reported exactly; a written corpus loads back unchanged."""
        seeded = [r for r in self.runs if r.kind in ("a", "b", "traced")
                  and r.exit_code == 0]
        digests = [r.digest for r in seeded]
        if digests:
            common = max(set(digests), key=digests.count)
            for r in seeded:
                if r.digest != common:
                    r.problems.append("output tree differs from the other runs")
        first = next((r for r in self.runs if r.kind == "a"
                      and not r.failed), None)
        if first is None or self.kept is None:
            return
        if self.expected is not None:
            report = json.loads((self.kept / "report.json").read_text())
            first.problems += wls.mismatches(report["load_summary"],
                                             self.expected["load_summary"],
                                             "injected")
        if self.wl.name == "synth-write":
            problem = wls.load_back_mismatch(self.kept, self.wl.n_stocks,
                                             self.wl.length, self.seed)
            if problem:
                first.problems.append(problem)

    # -- metrics -------------------------------------------------------------

    def walls(self, kind: str, attr: str = "wall_s") -> list[float]:
        return [getattr(r, attr) for r in self.runs if r.kind == kind]

    def adjusted(self, kind: str, attr: str = "wall_s") -> float:
        """Median of ``attr`` over the runs of ``kind``, each divided by
        the median probe wall time of its own and the neighbouring
        iterations; one probe alone is as noisy as the run it scales."""
        probe = {r.iteration: r.wall_s for r in self.runs if r.kind == "probe"}

        def speed(i):
            return statistics.median(probe[j] for j in (i - 1, i, i + 1)
                                     if j in probe)
        return statistics.median(getattr(r, attr) / speed(r.iteration)
                                 * PROBE_REF_S for r in self.runs if r.kind == kind)

    def end_to_end(self) -> dict:
        wall = self.adjusted("a")
        return {
            "wall_s": wall,
            "wall_s_jobs1": self.adjusted("b"),
            "stock_days_per_s": self.stock_days / wall,
            "setup_s": self.adjusted("setup"),
            "cpu_s": self.adjusted("a", "cpu_s"),
            "peak_rss_mb": statistics.median(self.walls("a", "rss_mb")),
        }

    def raw(self) -> dict:
        """Unadjusted medians, for the record."""
        med = statistics.median
        return {"wall_s": med(self.walls("a")), "wall_s_jobs1": med(self.walls("b")),
                "setup_s": med(self.walls("setup")),
                "cpu_s": med(self.walls("a", "cpu_s")),
                "probe_s": med(self.walls("probe"))}

    def per_layer(self) -> dict:
        per_trace = [layer_metrics(t, self.expected["n_rows"]
                                   if self.expected else 0)
                     for t in self.traces]
        out = {k: statistics.median(m[k] for m in per_trace)
               for k in per_trace[0]} if per_trace else {}
        e2e = self.end_to_end()
        out["cli.pool_speedup"] = e2e["wall_s_jobs1"] / e2e["wall_s"]
        out["cli.pool_cpu_ratio"] = e2e["cpu_s"] / self.adjusted("b", "cpu_s")
        if per_trace:
            out["trace.overhead_s"] = (statistics.median(self.walls("traced"))
                                       - self.raw()["wall_s_jobs1"])
        out["code.src_lines"] = src_lines()
        out["fail_frac"] = sum(r.failed for r in self.runs) / len(self.runs)
        return out


def interval_count_mismatches(counts: dict, report: dict) -> list[str]:
    """Where the traced interval counts differ from an ``intervals``
    report's per-threshold n_intervals and n_insufficient, summed."""
    blocks = [b for b in report.get("intervals", {}).values()
              if not b.get("empty")]
    if not blocks:
        return []
    out = []
    for key, field_ in (("intervals.n_intervals", "n_intervals"),
                        ("intervals.insufficient", "n_insufficient")):
        want = sum(b[field_] for b in blocks)
        if counts.get(key, 0) != want:
            out.append(f"traced {key} {counts.get(key, 0)} != report {want}")
    return out


def layer_metrics(trace: dict, ingest_rows: int) -> dict:
    """Per-layer numbers of one traced run."""
    sp, calls, errors, counts = (trace["spans"], trace["calls"],
                                 trace["errors"], trace["counts"])
    own = spans.layer_self_times(sp)

    def span_s(name):
        return spans.total_time(sp, name)

    def per(a, b):
        return a / b if b else 0.0

    fits = ("fitting.fit_power_tail", "fitting.fit_exponential",
            "fitting.hill_gamma")
    fit_calls = sum(calls.get(f, 0) for f in fits)
    fit_failed = sum(errors.get(f, 0) for f in fits)
    load_s = span_s("ingest.load_corpus")
    rows = ingest_rows if calls.get("ingest.load_corpus") else 0
    write_s = span_s("ingest.write_corpus")
    n_dfa = calls.get("dfa.dfa", 0)
    m = {
        "ingest.load_s": load_s,
        "ingest.rows": rows,
        "ingest.rows_per_s": per(rows, load_s),
        "ingest.rows_skipped": counts.get("ingest.rows_skipped", 0),
        "ingest.duplicate_rows": counts.get("ingest.duplicate_rows", 0),
        "ingest.files_rejected": counts.get("ingest.files_rejected", 0),
        "ingest.write_s": write_s,
        "ingest.write_rows_per_s": per(counts.get("ingest.write_rows", 0), write_s),
        "synth.corpus_s": span_s("synth.synth_corpus"),
        "synth.stock_days": counts.get("synth.stock_days", 0),
        "volatility.s": own.get("volatility", 0.0),
        "volatility.calls": calls.get("volatility.normalize_volatility", 0),
        "volatility.degenerate": (errors.get("volatility.log_returns", 0)
                                  + errors.get("volatility.normalize_volatility", 0)),
        "intervals.extract_s": span_s("intervals.extract_intervals"),
        "intervals.extract_calls": calls.get("intervals.extract_intervals", 0),
        "intervals.n_intervals": counts.get("intervals.n_intervals", 0),
        "intervals.shuffle_s": span_s("intervals.shuffle_control"),
        "intervals.pool_s": span_s("intervals.pool_scaled"),
        "intervals.insufficient": counts.get("intervals.insufficient", 0),
        "fitting.s": own.get("fitting", 0.0),
        "fitting.fit_calls": fit_calls,
        "fitting.fit_failed": fit_failed,
        "fitting.fit_success_ratio": per(fit_calls - fit_failed, fit_calls),
        "fitting.write_tsv_s": span_s("fitting.write_pdf_tsv"),
        "fitting.tsv_files": calls.get("fitting.write_pdf_tsv", 0),
        "conditional.s": own.get("conditional", 0.0),
        "conditional.n_pairs": counts.get("conditional.n_pairs", 0),
        "dfa.s": own.get("dfa", 0.0),
        "dfa.calls": n_dfa,
        "dfa.ms_per_stock": per(1000 * span_s("dfa.dfa"), n_dfa),
        "dfa.skipped": trace["dfa_skipped"],
        "dfa.boxes": counts.get("dfa.boxes", 0),
        "factors.s": own.get("factors", 0.0),
        "factors.compute_factors_calls": calls.get("factors.compute_factors", 0),
        "cli.self_s": own.get("cli", 0.0),
        "cli.output_files": trace["output_files"],
        "cli.output_bytes": trace["output_bytes"],
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = own.get(layer, 0.0) / trace["wall_s"]
    m["trace.wall_s"] = trace["wall_s"]
    m["trace.import_s"] = trace["import_s"]
    m["trace.unaccounted_s"] = (trace["in_process_s"] - sum(own.values())
                                - trace["import_s"])
    m["trace.start_exit_s"] = trace["wall_s"] - trace["in_process_s"]
    return m


# ---------------------------------------------------------------------------
# provenance

def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((SRC / "volint").glob("*.py")))


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "volint").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def blas() -> dict:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "mp_start_method": multiprocessing.get_start_method(),
        "git_revision": git_revision(),
        "src_digest": src_digest(),
        "page_cache": ("warm: inputs are written just before they are read; "
                       "no cache is dropped"),
    }


# ---------------------------------------------------------------------------

def reference_key(wl: wls.Workload) -> str:
    return f"{wl.name}@{wl.n_stocks}x{wl.length}"


def write_reference() -> int:
    """Rewrite reference.json: the current program's headline numbers at
    REF_SEED for every workload at every size."""
    refs = {}
    for size in sorted(wls.SIZES):
        for name in WORKLOADS:
            bench = Bench(wls.workload(name, size), REF_SEED)
            bench.prepare()
            run, out = bench.volint("reference", 1)
            if run.failed:
                print(f"{name}: {run.problems}", file=sys.stderr)
                return 1
            refs[reference_key(bench.wl)] = wls.headline(name, out)
            shutil.rmtree(WORK)
            WORK.mkdir()
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(wls.SIZES), default="full",
                    help="input size; tiny is for the benchmark's own tests")
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite reference.json from the current program, "
                         "for every workload and size")
    args = ap.parse_args(argv)
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "volint" / "__init__.py").is_file():
        print(f"no volint source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.write_reference:
            return write_reference()
        bench = Bench(wls.workload(args.workload, args.size), args.seed)
        bench.prepare()
        bench.reference_check(json.loads(REFERENCE.read_text()))
        bench.measure(args.seconds, bool(args.trace))
        bench.check_outputs()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return report(args, bench, metrics)


def report(args, bench: Bench, metrics: dict) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    failed = sum(r.failed for r in bench.runs)
    record = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(), "metrics": metrics,
              "raw_medians": bench.raw(), "probe_ref_s": PROBE_REF_S,
              "runs": [asdict(r) for r in bench.runs]}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for r in bench.runs:
        for p in r.problems:
            print(f"FAILED {r.kind} run: {p}", file=sys.stderr)
    counts = {k: len(bench.walls(k))
              for k in ("setup", "probe", "a", "b", "traced")}
    print(f"# {args.workload} seed={args.seed} runs={counts} record={path.name}")
    print("# raw medians (times above are scaled to a probe of "
          f"{PROBE_REF_S} s) " + json.dumps(record["raw_medians"]))
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    # a layer metric is missing only when every traced run failed, and
    # then the result is already marked incorrect
    values = {name: metrics.get(name, 0.0) for name in units}
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    if "fail_frac" not in units:
        # end-to-end metrics must be non-zero, so fail_frac is a per-layer
        # metric; print it here too, outside the result
        print(f"fail_frac {failed / len(bench.runs):.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
