"""The benchmark's workloads: their command lines, inputs and output checks.

Every input is made from the benchmark seed. The program under test sees
only its command-line arguments, or for ``csv-conditional`` a directory of
CSV files that this module writes, with malformed rows, duplicate dates
and too-short files injected at stated counts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FGN = {"hurst": 0.8, "vol_scale": 0.3, "df": 2.2}
THRESHOLDS = "2.0,2.5,3.0"
DIRTY_SHARE = 0.10          # share of CSV files that get malformed rows
SHORT_FILE_ROWS = 200       # below the default lifetime filter of 350
RTOL = 1e-9                 # reference tolerance for floating-point numbers
ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    n_stocks: int
    length: int

    def argv(self, seed: int, out: Path, jobs: int, data_dir: Path | None = None):
        """volint arguments for one run (``jobs`` is ignored by ``synth``)."""
        fgn = ["--synth-kind", "fgn", "--synth-n-stocks", str(self.n_stocks),
               "--synth-length", str(self.length),
               "--synth-hurst", str(FGN["hurst"]),
               "--synth-vol-scale", str(FGN["vol_scale"]),
               "--synth-df", str(FGN["df"])]
        common = ["--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]
        if self.name == "synth-intervals":
            return ["intervals", *fgn, "--thresholds", THRESHOLDS, *common]
        if self.name == "synth-dfa":
            return ["dfa", *fgn, *common]
        if self.name == "csv-conditional":
            return ["conditional", "--data-dir", str(data_dir),
                    "--thresholds", THRESHOLDS, "--octiles", "quantile", *common]
        return ["synth", "--kind", "fgn", "--n-stocks", str(self.n_stocks),
                "--length", str(self.length), "--hurst", str(FGN["hurst"]),
                "--vol-scale", str(FGN["vol_scale"]), "--df", str(FGN["df"]),
                "--seed", str(seed), "--out", str(out)]


SIZES = {
    "full": {"synth-intervals": (200, 8192), "csv-conditional": (24, 8192),
             "synth-dfa": (4, 8192), "synth-write": (16, 8192)},
    "tiny": {"synth-intervals": (8, 2048), "csv-conditional": (10, 2048),
             "synth-dfa": (6, 2048), "synth-write": (6, 1024)},
}


# ``--jobs 2`` runs per ``--jobs 1`` run in one iteration of the benchmark.
# synth-dfa's ``--jobs 2`` times spread widest (BLAS oversubscription), so
# its median gets more samples.
JOBS2_RUNS = {"synth-dfa": 2}


def workload(name: str, size: str = "full") -> Workload:
    n_stocks, length = SIZES[size][name]
    return Workload(name, n_stocks, length)


def fgn_corpus(n_stocks: int, length: int, seed: int):
    """The corpus ``volint --synth-kind fgn`` builds for these arguments."""
    from volint import homogeneous_rule, synth_corpus
    params = {"hurst": FGN["hurst"], "vol_scale": FGN["vol_scale"],
              "noise_df": FGN["df"]}
    corpus, _ = synth_corpus(n_stocks, homogeneous_rule("fgn", length, params, seed))
    return corpus


# ---------------------------------------------------------------------------
# dirty CSV input

MALFORMED = (
    "{d},{v}",                     # wrong field count
    "{d},{v},{c},{s},9",           # wrong field count
    "1990/01/02,{v},{c},{s}",      # bad date format
    "2001-02-30,{v},{c},{s}",      # impossible date
    "{d},-5,{c},{s}",              # negative volume
    "{d},1.5e3,{c},{s}",           # non-integer volume
    "{d},{v},abc,{s}",             # non-numeric close
    "{d},{v},0.0,{s}",             # non-positive close
    "{d},{v},{c},-3",              # non-positive shares
)


def _rows(stock) -> list[str]:
    dates = np.datetime_as_string(stock.dates)
    close = repr(float(stock.close[0]))
    so = stock.shares_outstanding[0]
    shares = "" if so != so else str(int(so))
    return [f"{d},{v},{close},{shares}" for d, v in zip(dates, stock.volume.tolist())]


def write_dirty_csv(corpus, out_dir: Path, seed: int) -> dict:
    """Write ``corpus`` as CSV with injected defects; return the expected
    ``load_summary`` of a lenient load at the default lifetime filter.

    About DIRTY_SHARE of the files get 1-5 malformed rows and 1-5 rows that
    repeat an earlier date; one file in 50 (at least one) is an extra
    ticker with SHORT_FILE_ROWS rows, which the lifetime filter rejects.
    """
    rng = np.random.default_rng([seed, 0x0C5F])
    out_dir.mkdir(parents=True)
    stocks = list(corpus)
    n_dirty = max(1, round(DIRTY_SHARE * len(stocks)))
    dirty = set(rng.choice(len(stocks), n_dirty, replace=False).tolist())
    n_bad = n_dup = 0
    for i, s in enumerate(stocks):
        clean = _rows(s)
        rows = list(clean)
        if i in dirty:
            k_bad, k_dup = (int(k) for k in rng.integers(1, 6, size=2))
            for _ in range(k_dup):
                j = int(rng.integers(0, len(rows)))
                d, v, rest = rows[j].split(",", 2)
                rows.insert(j + 1, f"{d},{int(v) + 1},{rest}")
            for _ in range(k_bad):
                j = int(rng.integers(0, len(rows) + 1))
                template = MALFORMED[int(rng.integers(0, len(MALFORMED)))]
                d, v, c, sh = clean[int(rng.integers(0, len(clean)))].split(",")
                rows.insert(j, template.format(d=d, v=v, c=c, s=sh))
            n_bad += k_bad
            n_dup += k_dup
        (out_dir / f"{s.ticker}.csv").write_text(
            "date,volume,close,shares_outstanding\n" + "\n".join(rows) + "\n")
    n_short = max(1, len(stocks) // 50)
    for i in range(n_short):
        rows = _rows(stocks[i])[:SHORT_FILE_ROWS]
        (out_dir / f"Z{i:05d}.csv").write_text(
            "date,volume,close,shares_outstanding\n" + "\n".join(rows) + "\n")
    n_rows = len(stocks) * stocks[0].lifetime_days + n_bad + n_dup \
        + n_short * SHORT_FILE_ROWS
    return {"load_summary": {"n_files": len(stocks) + n_short,
                             "n_accepted": len(stocks),
                             "n_rejected_short": n_short,
                             "n_rejected_error": 0,
                             "n_rows_skipped": n_bad,
                             "n_duplicate_rows": n_dup},
            "n_rows": n_rows}


# ---------------------------------------------------------------------------
# output checks

def tree_digest(root: Path) -> tuple[str, int, int]:
    """SHA-256 over relative paths and bytes; also file count and bytes."""
    h = hashlib.sha256()
    n_files = n_bytes = 0
    for p in sorted(root.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
            n_files += 1
            n_bytes += len(data)
    return h.hexdigest(), n_files, n_bytes


def headline(name: str, out: Path) -> dict:
    """The numbers of one run's output that reference.json pins down."""
    if name == "synth-write":
        files = sorted(out.glob("*.csv"))
        volumes = [np.loadtxt(f, delimiter=",", skiprows=1, usecols=1,
                              dtype=np.int64) for f in files]
        return {"n_files": len(files), "n_rows": int(sum(v.size for v in volumes)),
                "volume_sum": float(sum(int(v.sum()) for v in volumes))}
    report = json.loads((out / "report.json").read_text())
    if name == "synth-dfa":
        d = report["dfa"]
        return {"mean_alpha": d["mean_alpha"], "n_computed": d["n_computed"]}
    if name == "synth-intervals":
        return {q: {"n_intervals": b["n_intervals"],
                    "gamma": b["fits"]["power"]["gamma"],
                    "stderr": b["fits"]["power"]["stderr"]}
                for q, b in report["intervals"].items()}
    return {"load_summary": report["load_summary"],
            **{q: {"n_pairs": b["n_pairs"], "spearman": b["spearman"],
                   "octile_means": [o["mean_scaled_tau"] for o in b["octiles"]]}
               for q, b in report["conditional"].items()}}


def mismatches(got, want, path: str = "") -> list[str]:
    """Where ``got`` differs from ``want``: integers, strings and None
    exactly, floats within RTOL relative (ATOL absolute near zero)."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}/{k}: missing" for k in want if k not in got]
        out += [f"{path}/{k}: unexpected" for k in got if k not in want]
        for k in want:
            if k in got:
                out += mismatches(got[k], want[k], f"{path}/{k}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def load_back_mismatch(out: Path, n_stocks: int, length: int, seed: int) -> str | None:
    """Compare a ``volint synth`` tree, loaded with load_corpus, to
    synth_corpus for the same arguments. None when equal."""
    from volint import load_corpus
    loaded = load_corpus(out)
    want = fgn_corpus(n_stocks, length, seed)
    if loaded.tickers != want.tickers:
        return f"tickers differ: {len(loaded)} loaded, {len(want)} generated"
    for a, b in zip(loaded, want):
        if a != b:
            return f"{a.ticker}: loaded series differs from synth_corpus"
    return None
