"""Command-line pipelines: corpus in, plot-ready TSVs plus report.json out.

Subcommands: intervals, conditional, dfa, factors, synth. Every analysis
maps the per-stock stage (stage.map_stocks: column -> volatility ->
intervals per threshold, shuffled control, DFA) over the corpus and
reduces its ticker-ordered results, so the --jobs value can never change
any output byte. The report deliberately omits execution environment
(paths, parallelism) for the same reason.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 insufficient statistics everywhere (nothing useful produced).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, astuple, dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .conditional import (LOW_STATISTICS_PAIRS, conditional_pdfs,
                          consecutive_pairs, memory_summary,
                          octile_boundaries)
from .dfa import DEFAULT_ORDER
from .errors import (ConfigError, DataError, FitShapeError,
                     InsufficientStatisticsError, InsufficientTailError)
from .factors import (DEFAULT_Q, FACTORS, alpha_by_factor, bin_stocks,
                      compute_factors, factor_correlations, factor_value,
                      gamma_by_factor, make_edges)
from .fitting import (DEFAULT_BINS_PER_DECADE, DEFAULT_X_MIN, fit_exponential,
                      fit_power_tail, hill_gamma, log_bin,
                      power_fit_sensitivity, write_pdf_tsv, write_tsv)
from .ingest import DEFAULT_MIN_LIFETIME, load_corpus, write_corpus
from .intervals import DEFAULT_THRESHOLDS, pool_scaled
from .stage import map_stocks
from .synth import KINDS, homogeneous_rule, synth_corpus

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_EMPTY = 4

# generator parameters shared by --synth-<name> and synth --<name>
GENERATOR_FLAGS = {"hurst": float, "levels": int, "sigma": float,
                   "vol_scale": float, "df": float, "kappa": float,
                   "dist": ("normal", "student_t", "powered_normal")}


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one pipeline run."""

    command: str
    data_dir: str | None
    synth: dict | None
    series: str
    thresholds: tuple
    seed: int
    octiles: str
    bins_per_decade: int
    x_min: float
    q: float
    out: str
    jobs: int
    min_lifetime: int
    strict: bool
    shuffled: bool
    dump_intervals: bool
    dump_fluctuations: bool
    order: int

    def echo(self) -> dict:
        """Deterministic config subset recorded in the report.

        Paths and parallelism are excluded on purpose: two runs that
        differ only in --jobs or output location must produce identical
        reports.
        """
        return {
            "command": self.command,
            "source": ({"type": "synth", **self.synth} if self.synth
                       else {"type": "data-dir"}),
            "series": self.series,
            "thresholds": list(self.thresholds),
            "seed": self.seed,
            "octiles": self.octiles,
            "bins_per_decade": self.bins_per_decade,
            "x_min": self.x_min,
            "q": self.q,
            "min_lifetime": self.min_lifetime,
            "strict": self.strict,
            "shuffled": self.shuffled,
        }


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_thresholds(text: str) -> tuple:
    try:
        qs = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ConfigError(f"bad thresholds {text!r}: {exc}") from exc
    if not qs or any(not q > 0 for q in qs):
        raise ConfigError(f"thresholds must be positive, got {text!r}")
    tags = [_qtag(q) for q in qs]
    if len(set(tags)) < len(tags):
        raise ConfigError(f"thresholds {text!r} collide in output names "
                          f"{tags}; give each threshold once")
    return qs


def _add_generator_args(p: argparse.ArgumentParser, prefix: str) -> None:
    for name, kind in GENERATOR_FLAGS.items():
        flag = "--" + (prefix + name).replace("_", "-")
        if isinstance(kind, tuple):
            p.add_argument(flag, choices=kind)
        else:
            p.add_argument(flag, type=kind)


def _default_jobs() -> int:
    """The CPUs this process may run on, where the platform tells."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-dir", help="directory of <TICKER>.csv files")
    p.add_argument("--synth-kind", choices=KINDS,
                   help="generate the corpus instead of loading one")
    p.add_argument("--synth-n-stocks", type=int, default=100)
    p.add_argument("--synth-length", type=int, default=5000)
    _add_generator_args(p, "synth_")
    p.add_argument("--series", choices=("volume", "price"), default="volume")
    p.add_argument("--thresholds", default=",".join(str(q) for q in DEFAULT_THRESHOLDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.add_argument("--min-lifetime", type=int, default=DEFAULT_MIN_LIFETIME)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--bins-per-decade", type=int, default=DEFAULT_BINS_PER_DECADE)
    p.add_argument("--x-min", type=float, default=DEFAULT_X_MIN)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="volint",
        description="Threshold return-interval statistics for volatility series")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("intervals", help="interval PDFs, scaling, tail fits")
    _add_common_args(p)
    p.add_argument("--dump-intervals", action="store_true",
                   help="also write ticker/q/tau rows to intervals.tsv")
    p.set_defaults(func=cmd_intervals)

    p = sub.add_parser("conditional", help="conditional PDFs over tau0 octiles")
    _add_common_args(p)
    p.add_argument("--octiles", choices=("geometric", "quantile"),
                   default="geometric")
    p.add_argument("--shuffled", action="store_true",
                   help="analyze shuffled volatility instead")
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("dfa", help="long-term correlation exponents by factor")
    _add_common_args(p)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--shuffled", action="store_true")
    p.add_argument("--dump-fluctuations", action="store_true",
                   help="write per-stock n/F(n) curves")
    p.set_defaults(func=cmd_dfa)

    p = sub.add_parser("factors", help="factor bins, tail exponents, correlations")
    _add_common_args(p)
    p.add_argument("--q", type=float, default=DEFAULT_Q,
                   help="threshold for the per-bin tail fits")
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("synth", help="write a synthetic corpus to CSV files")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n-stocks", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_generator_args(p, "")
    p.set_defaults(func=cmd_synth)
    return ap


def _synth_params(kind: str, args, prefix: str) -> dict:
    """Translate flat generator flags into GeneratorSpec params for one kind."""
    g = {name: getattr(args, prefix + name) for name in GENERATOR_FLAGS}
    if kind == "iid":
        params = {"dist": g["dist"] or "normal"}
        if params["dist"] == "student_t":
            if g["df"] is None:
                raise ConfigError("student_t needs --df")
            params["df"] = g["df"]
        elif params["dist"] == "powered_normal":
            if g["kappa"] is None:
                raise ConfigError("powered_normal needs --kappa")
            params["kappa"] = g["kappa"]
        return params
    if kind == "fgn":
        if g["hurst"] is None:
            raise ConfigError("fgn needs --hurst")
        params = {"hurst": g["hurst"]}
        if g["vol_scale"] is not None:
            params["vol_scale"] = g["vol_scale"]
    else:
        params = {k: g[k] for k in ("levels", "sigma") if g[k] is not None}
    if g["df"] is not None:
        params["noise_df"] = g["df"]
    return params


def _config_from_args(args) -> RunConfig:
    if args.data_dir and args.synth_kind:
        raise ConfigError("give either --data-dir or --synth-kind, not both")
    if not args.data_dir and not args.synth_kind:
        raise ConfigError("no data source: give --data-dir or --synth-kind")
    synth = None
    if args.synth_kind:
        if args.synth_n_stocks < 1 or args.synth_length < 2:
            raise ConfigError("synthetic corpus needs n_stocks >= 1, length >= 2")
        synth = {
            "kind": args.synth_kind,
            "n_stocks": args.synth_n_stocks,
            "length": args.synth_length,
            "params": _synth_params(args.synth_kind, args, "synth_"),
        }
    q = getattr(args, "q", DEFAULT_Q)
    order = getattr(args, "order", DEFAULT_ORDER)
    for bad, what in ((args.bins_per_decade < 1, "--bins-per-decade must be >= 1"),
                      (args.jobs < 1, "--jobs must be >= 1"),
                      (not args.x_min > 0, "--x-min must be > 0"),
                      (args.min_lifetime < 0, "--min-lifetime must be >= 0"),
                      (not q > 0, "--q must be > 0"),
                      (order < 1, "--order must be >= 1")):
        if bad:
            raise ConfigError(what)
    return RunConfig(
        command=args.command,
        data_dir=args.data_dir,
        synth=synth,
        series=args.series,
        thresholds=_parse_thresholds(args.thresholds),
        seed=args.seed,
        octiles=getattr(args, "octiles", "geometric"),
        bins_per_decade=args.bins_per_decade,
        x_min=args.x_min,
        q=q,
        out=args.out,
        jobs=args.jobs,
        min_lifetime=args.min_lifetime,
        strict=args.strict,
        shuffled=getattr(args, "shuffled", False),
        dump_intervals=getattr(args, "dump_intervals", False),
        dump_fluctuations=getattr(args, "dump_fluctuations", False),
        order=order,
    )


def _outdir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _setup(args):
    """(config, corpus, output directory) of one analysis run."""
    cfg = _config_from_args(args)
    if cfg.data_dir:
        corpus = load_corpus(cfg.data_dir, cfg.min_lifetime, cfg.strict)
        if len(corpus) == 0:
            raise DataError(f"no stock in {cfg.data_dir} passed the "
                            f"lifetime filter ({cfg.min_lifetime})")
    else:
        s = cfg.synth
        rule = homogeneous_rule(s["kind"], s["length"], s["params"], cfg.seed)
        corpus, _ = synth_corpus(s["n_stocks"], rule)
    return cfg, corpus, _outdir(cfg.out)


def _map_stocks(cfg: RunConfig, corpus, **stage):
    """The per-stock stage over the corpus with the run's series, seed and
    pool size."""
    return map_stocks(corpus, cfg.series, seed=cfg.seed, jobs=cfg.jobs,
                      **stage)


def _factor_binnings(fv):
    """(factor, default binning), capitalization only where it is defined."""
    have_cap = any(f.mean_capitalization is not None for f in fv)
    for factor in FACTORS:
        if factor != "capitalization" or have_cap:
            yield factor, bin_stocks(fv, factor, make_edges(fv, factor))


# ---------------------------------------------------------------------------
# formatting

def _qtag(q: float) -> str:
    return f"{q:g}"


def _jclean(obj):
    """Make a report JSON-safe and deterministic (NaN -> null)."""
    if isinstance(obj, dict):
        return {str(k): _jclean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jclean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jclean(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jclean(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _header(cfg: RunConfig, corpus) -> dict:
    """The part of report.json every analysis writes."""
    return {"config": cfg.echo(), "load_summary": corpus.summary.as_dict(),
            "n_stocks": len(corpus)}


def _fit_block(values, cfg: RunConfig) -> dict:
    """All fits of one pooled scaled sample, null where a fit cannot run."""
    pdf = log_bin(values, cfg.bins_per_decade)
    block = {"n_samples": int(values.size)}
    try:
        f = fit_power_tail(pdf, cfg.x_min)
        block["power"] = {"gamma": f.gamma, "stderr": f.stderr,
                          "r2": f.r_squared, "x_min": f.x_min,
                          "n_tail": f.n_tail}
    except InsufficientTailError:
        block["power"] = None
    block["power_x_min_grid"] = power_fit_sensitivity(pdf)
    try:
        e = fit_exponential(pdf)
        block["exponential"] = {"a": e.a, "stderr": e.stderr,
                                "r2": e.r_squared}
    except (InsufficientTailError, FitShapeError):
        block["exponential"] = None
    try:
        block["hill_gamma"] = hill_gamma(values, cfg.x_min)
    except InsufficientTailError:
        block["hill_gamma"] = None
    return block


# ---------------------------------------------------------------------------
# subcommands: reducers over the per-stock stage

def cmd_intervals(args) -> int:
    cfg, corpus, outdir = _setup(args)
    results = _map_stocks(cfg, corpus, qs=cfg.thresholds,
                          shuffled_qs=cfg.thresholds)
    ok = [r for r in results if not r.degenerate]

    report = {**_header(cfg, corpus),
              "n_degenerate": len(results) - len(ok),
              "n_returns_dropped": sum(r.n_dropped for r in results),
              "intervals": {}}
    produced = False
    dump_rows = []
    for q in cfg.thresholds:
        tag = _qtag(q)
        items = [(r.ticker, r.by_q[q]) for r in ok]
        pooled = pool_scaled(items) if items else None
        if pooled is None or len(pooled) == 0:
            report["intervals"][tag] = {"empty": True}
            continue
        produced = True
        raw = np.concatenate([iv.taus for _, iv in items if iv.taus.size])
        sh_pooled = pool_scaled([(r.ticker, r.shuffled_by_q[q]) for r in ok])

        write_pdf_tsv(log_bin(raw.astype(np.float64), cfg.bins_per_decade),
                      outdir / f"pdf_q{tag}.tsv")
        write_pdf_tsv(log_bin(pooled.values, cfg.bins_per_decade),
                      outdir / f"pdf_scaled_q{tag}.tsv")
        block = {"empty": False,
                 "n_stocks_used": len(pooled.tickers),
                 "n_insufficient": len(pooled.skipped),
                 "n_intervals": len(pooled),
                 "mean_tau": float(raw.mean()),
                 "fits": _fit_block(pooled.values, cfg)}
        if len(sh_pooled):
            write_pdf_tsv(log_bin(sh_pooled.values, cfg.bins_per_decade),
                          outdir / f"pdf_shuffled_q{tag}.tsv")
            block["shuffled_fits"] = _fit_block(sh_pooled.values, cfg)
        else:
            block["shuffled_fits"] = None
        report["intervals"][tag] = block
        if cfg.dump_intervals:
            dump_rows += [(t, tag, tau) for t, iv in items for tau in iv.taus]

    if cfg.dump_intervals and produced:
        write_tsv(outdir / "intervals.tsv", dump_rows)
    _write_json(outdir / "report.json", report)
    if not produced:
        print("no threshold produced any interval", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_conditional(args) -> int:
    cfg, corpus, outdir = _setup(args)
    if cfg.shuffled:
        results = _map_stocks(cfg, corpus, shuffled_qs=cfg.thresholds)
        by_q = [(r.ticker, r.shuffled_by_q) for r in results if not r.degenerate]
    else:
        results = _map_stocks(cfg, corpus, qs=cfg.thresholds)
        by_q = [(r.ticker, r.by_q) for r in results if not r.degenerate]

    report = {**_header(cfg, corpus), "conditional": {}}
    produced = False
    for q in cfg.thresholds:
        tag = _qtag(q)
        tau0, tau = consecutive_pairs([(t, ivs[q]) for t, ivs in by_q])
        if tau.size == 0:
            report["conditional"][tag] = {"empty": True}
            continue
        produced = True
        boundaries = octile_boundaries(tau0, cfg.octiles)
        cpdfs = conditional_pdfs(tau0, tau, boundaries, cfg.bins_per_decade)
        for cp in cpdfs:
            write_pdf_tsv(cp.pdf, outdir / f"cond_q{tag}_Q{cp.octile}.tsv")
        summary = memory_summary(tau0, tau, boundaries)
        report["conditional"][tag] = {
            "empty": False,
            "n_pairs": int(tau.size),
            "boundaries": [b if math.isfinite(b) else None for b in boundaries],
            "octiles": [{**asdict(r),
                         "low_statistics": r.count < LOW_STATISTICS_PAIRS}
                        for r in summary.rows],
            "spearman": summary.spearman,
        }
    _write_json(outdir / "report.json", report)
    if not produced:
        print("no threshold produced any interval pair", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_dfa(args) -> int:
    cfg, corpus, outdir = _setup(args)
    results = _map_stocks(cfg, corpus, order=cfg.order,
                          shuffled_dfa=cfg.shuffled)
    curves = [(r.ticker, r.curve) for r in results if r.curve is not None]
    alphas = {t: c.alpha for t, c in curves}
    good = np.array(list(alphas.values()))
    report = _header(cfg, corpus)
    if good.size == 0:
        _write_json(outdir / "report.json", {**report, "dfa": {"empty": True}})
        print("no stock yielded a DFA exponent", file=sys.stderr)
        return EXIT_EMPTY

    if cfg.dump_fluctuations:
        for t, c in curves:
            write_tsv(outdir / f"dfa_fluct_{t}.tsv",
                      zip(c.window_sizes, c.fluctuations))

    report["dfa"] = {"empty": False,
                     "mean_alpha": float(good.mean()),
                     "std_alpha": float(good.std()),
                     "n_computed": int(good.size),
                     "n_skipped": int(len(results) - good.size),
                     "n_flagged_above_1": sum(c.alpha_flagged for _, c in curves),
                     "by_factor": {}}
    for factor, binning in _factor_binnings(compute_factors(corpus)):
        rows = alpha_by_factor(binning, alphas)
        write_tsv(outdir / f"dfa_alpha_by_{factor}.tsv", map(astuple, rows))
        report["dfa"]["by_factor"][factor] = list(map(asdict, rows))
    _write_json(outdir / "report.json", report)
    return EXIT_OK


def cmd_factors(args) -> int:
    cfg, corpus, outdir = _setup(args)
    fv = compute_factors(corpus)
    intervals = {r.ticker: r.by_q[cfg.q]
                 for r in _map_stocks(cfg, corpus, qs=(cfg.q,))
                 if not r.degenerate}

    report = {**_header(cfg, corpus), "factors": {}}
    try:
        corr = factor_correlations(fv)
        report["factors"]["correlations"] = {
            "labels": list(corr.labels),
            "log": corr.log_matrix, "raw": corr.raw_matrix,
            "n_stocks": corr.n_stocks,
            "degenerate": list(corr.degenerate)}
    except InsufficientStatisticsError:
        report["factors"]["correlations"] = None

    report["factors"]["gamma_by_factor"] = {}
    for factor, binning in _factor_binnings(fv):
        rows = gamma_by_factor(binning, intervals, cfg.x_min,
                               cfg.bins_per_decade)
        write_tsv(outdir / f"gamma_by_{factor}.tsv",
                  [(r.lo, r.hi, r.gamma, r.stderr, r.n_stocks, r.n_intervals)
                   for r in rows])
        report["factors"]["gamma_by_factor"][factor] = [
            {"lo": r.lo, "hi": r.hi, "gamma": r.gamma, "stderr": r.stderr,
             "r2": r.r_squared, "n_stocks": r.n_stocks,
             "n_intervals": r.n_intervals} for r in rows]
        report["factors"].setdefault("unbinned", {})[factor] = len(binning.unbinned)

    for fa, fb in combinations(FACTORS, 2):
        rows = [(f.ticker, factor_value(f, fa), factor_value(f, fb))
                for f in fv]
        rows = [(t, a, b) for t, a, b in rows if a is not None and b is not None]
        if rows:
            write_tsv(outdir / f"scatter_{fa}_vs_{fb}.tsv", rows)
    _write_json(outdir / "report.json", report)
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.n_stocks < 1 or args.length < 2:
        raise ConfigError("need --n-stocks >= 1 and --length >= 2")
    params = _synth_params(args.kind, args, "")
    rule = homogeneous_rule(args.kind, args.length, params, args.seed)
    corpus, planted = synth_corpus(args.n_stocks, rule)
    out = _outdir(args.out)
    write_corpus(corpus, out)
    _write_json(out / "planted.json", planted)
    print(f"wrote {len(corpus)} stocks to {out}")
    return EXIT_OK


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
OPENBLAS_SETTERS = ("openblas_set_num_threads",
                    "scipy_openblas_set_num_threads64_",
                    "openblas_set_num_threads64_")


def _one_blas_thread() -> None:
    """Run OpenBLAS on one thread in this process and in the --jobs
    workers forked from it, unless a thread variable is set.

    Every BLAS call of the pipeline is a small per-window fit, and the
    parallelism is the process pool over stocks: BLAS threads only add
    start-up cost, and with --jobs > 1 they oversubscribe the cores, which
    made one run's wall time differ from the next by half or more. The
    thread count never changes a result. OpenBLAS is found among the
    libraries mapped into the process (Linux); elsewhere this does nothing.
    """
    if any(os.environ.get(v) for v in BLAS_THREAD_VARS):
        return
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line}
    except (OSError, IndexError):
        return
    import ctypes
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in OPENBLAS_SETTERS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter(1)


def main(argv=None) -> int:
    _one_blas_thread()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientStatisticsError as exc:
        print(f"insufficient statistics: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
