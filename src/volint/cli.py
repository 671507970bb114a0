"""Command-line pipelines: corpus in, plot-ready TSVs plus report.json out.

Subcommands: intervals, conditional, dfa, factors, synth. An analysis is
a request to the per-stock stage (stage.map_stocks: CSV file or generator
spec -> column -> volatility -> intervals per threshold, shuffled control,
DFA, factors) and a reducer, cmd_<command>, of the ticker-ordered results,
so --jobs never changes an output byte. main alone writes report.json,
which omits paths and parallelism for the same reason, and decides exit 4.
The CSV reader and writer and the conditional, DFA, factor and generator
modules are imported by the functions that use them, so a run loads only
what its command and source need; the option table reads their choices
and defaults from constants, and the parser gets the arguments of the
commands argv names only.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 insufficient statistics everywhere (nothing useful produced).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .constants import DEFAULT_ORDER, DEFAULT_Q, DISTS, KINDS, MAX_ORDER
from .errors import (ConfigError, DataError, FitShapeError,
                     InsufficientStatisticsError, InsufficientTailError)
from .fitting import (DEFAULT_BINS_PER_DECADE, DEFAULT_X_MIN, fit_exponential,
                      fit_power_tail, hill_gamma, log_bin,
                      power_fit_sensitivity, write_pdf_tsv, write_tsv)
from .intervals import DEFAULT_THRESHOLDS, pool_scaled
from .records import DEFAULT_MIN_LIFETIME, LoadSummary
from .stage import map_stocks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_EMPTY = 4
# log_bin's edges and counts grow linearly with --bins-per-decade
MAX_BINS_PER_DECADE = 1000
# map_stocks forks all min(--jobs, stocks) workers at once, so a mistyped
# --jobs on a paper-size tree (17k files) would ask for 17k processes
MAX_JOBS = 256

COMMANDS = {"intervals": "interval PDFs, scaling, tail fits",
            "conditional": "conditional PDFs over tau0 octiles",
            "dfa": "long-term correlation exponents by factor",
            "factors": "factor bins, tail exponents, correlations",
            "synth": "write a synthetic corpus to CSV files"}
ALL = tuple(COMMANDS)
ANALYSES = ALL[:4]
SYNTH = ("synth",)


# ---------------------------------------------------------------------------
# the option table: parser, checks and report.json echo are built from it

def _must(ok, text: str):
    """A check: x when ok(x), else ValueError "must be <text>"."""
    def check(x):
        if not ok(x):
            raise ValueError(f"must be {text}, got {x}")
        return x
    return check


def _at_least(lo: int):
    return _must(lambda x: x >= lo, f">= {lo}")


_finite = _must(math.isfinite, "finite")
_positive = _must(lambda x: x > 0, "> 0")


def _thresholds(text: str) -> tuple:
    qs = tuple(_positive(_finite(float(t))) for t in text.split(",")
               if t.strip())
    tags = [_qtag(q) for q in qs]
    if not qs or len(set(tags)) < len(tags):
        raise ValueError(f"{text!r}: output names {tags} are empty or "
                         f"collide; give each threshold once")
    return qs


def _dir_or_new(path: str) -> bool:
    """Whether path is a directory or can be made one: the first of it and
    its parents that exists is a directory."""
    return os.path.isdir(next(p for p in (Path(path), *Path(path).parents)
                              if os.path.exists(p)))


def _default_jobs() -> int:
    """The CPUs this process may run on, where the platform tells, up to
    MAX_JOBS."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), MAX_JOBS)
    return min(os.cpu_count() or 1, MAX_JOBS)


class Option(NamedTuple):
    """One row of the option table.

    The flag is --<name>, or --synth-<name> on an analysis for a generator
    option (gen "corpus": the corpus size and kind; "param": a generator
    parameter). type is a type, a tuple of choices, or bool for a switch.
    A callable default is called each time the parser is built. commands
    take the option and required must be given it. check(value) returns
    the value to run with or raises ValueError; a float is first checked
    to be finite. echo records the value in report.json.
    """

    name: str
    type: object = str
    default: object = None
    commands: tuple = ANALYSES
    required: tuple = ()
    echo: bool = False
    check: object = None
    gen: str = ""
    help: str | None = None

    def flag(self, command: str) -> str:
        prefix = "synth-" if self.gen and command != "synth" else ""
        return "--" + prefix + self.name.replace("_", "-")


OPTIONS = (
    Option("data_dir", help="directory of <TICKER>.csv files"),
    Option("kind", KINDS, None, ALL, SYNTH, gen="corpus",
           help="generator family of a synthetic corpus"),
    Option("n_stocks", int, 100, ALL, SYNTH, check=_at_least(1), gen="corpus"),
    Option("length", int, 5000, ALL, SYNTH, check=_at_least(2), gen="corpus"),
    *(Option(name, type_, None, ALL, gen="param") for name, type_ in (
        ("hurst", float), ("sigma", float),
        ("vol_scale", float), ("df", float), ("kappa", float),
        ("dist", DISTS))),
    Option("series", ("volume", "price"), "volume", echo=True),
    Option("thresholds", str, ",".join(map(str, DEFAULT_THRESHOLDS)),
           ("intervals", "conditional"), echo=True, check=_thresholds),
    Option("seed", int, 0, ALL, echo=True),
    Option("out", commands=ALL, required=ALL,
           check=_must(_dir_or_new, "a directory or a new path under one")),
    Option("jobs", int, _default_jobs,
           check=_must(lambda x: 1 <= x <= MAX_JOBS, f"from 1 to {MAX_JOBS}")),
    Option("min_lifetime", int, DEFAULT_MIN_LIFETIME, echo=True,
           check=_at_least(0)),
    Option("strict", bool, False, echo=True),
    Option("bins_per_decade", int, DEFAULT_BINS_PER_DECADE,
           ("intervals", "conditional", "factors"), echo=True,
           check=_must(lambda x: 1 <= x <= MAX_BINS_PER_DECADE,
                       f"from 1 to {MAX_BINS_PER_DECADE}")),
    Option("x_min", float, DEFAULT_X_MIN, ("intervals", "factors"),
           echo=True, check=_positive),
    Option("dump_intervals", bool, False, ("intervals",),
           help="also write ticker/q/tau rows to intervals.tsv"),
    Option("octiles", ("geometric", "quantile"), "geometric",
           ("conditional",), echo=True),
    Option("shuffled", bool, False, ("conditional", "dfa"), echo=True,
           help="analyze shuffled volatility instead"),
    Option("order", int, DEFAULT_ORDER, ("dfa",),
           check=_must(lambda x: 1 <= x <= MAX_ORDER, f"from 1 to {MAX_ORDER}")),
    Option("dump_fluctuations", bool, False, ("dfa",),
           help="write per-stock n/F(n) curves"),
    Option("q", float, DEFAULT_Q, ("factors",), echo=True, check=_positive,
           help="threshold for the per-bin tail fits"),
)


def build_parser(commands=ALL) -> argparse.ArgumentParser:
    """A subparser per command, with the arguments of those in commands
    only; its namespace holds every option, and error, the command
    parser's error method."""
    ap = argparse.ArgumentParser(
        prog="volint",
        description="Threshold return-interval statistics for volatility series")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, text in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(error=p.error)
        if command not in commands:
            continue
        for opt in OPTIONS:
            default = opt.default() if callable(opt.default) else opt.default
            if command not in opt.commands:
                p.set_defaults(**{opt.name: default})
                continue
            parse = ({"action": "store_true"} if opt.type is bool
                     else {"choices": opt.type} if isinstance(opt.type, tuple)
                     else {"type": opt.type})
            p.add_argument(opt.flag(command), dest=opt.name, default=default,
                           required=command in opt.required, help=opt.help,
                           **parse)
    return ap


def _configure(cfg):
    """Check the parsed options before any data is read or generated: each
    option's check in table order, on defaults too (report.json echoes them
    checked), then the source; the first failure raises ConfigError with
    its flag. Adds params, the GeneratorSpec params of the generator flags."""
    for opt in OPTIONS:
        value = getattr(cfg, opt.name)
        if value is None:
            continue
        try:
            value = _finite(value) if opt.type is float else value
            setattr(cfg, opt.name, opt.check(value) if opt.check else value)
        except ValueError as exc:
            raise ConfigError(f"{opt.flag(cfg.command)} {exc}") from None
    if bool(cfg.data_dir) == bool(cfg.kind):
        raise ConfigError("give exactly one of --data-dir and --synth-kind")
    given = [o for o in OPTIONS
             if o.gen == "param" and getattr(cfg, o.name) is not None]
    if given and not cfg.kind:
        raise ConfigError(f"{given[0].flag(cfg.command)} needs --synth-kind")
    cfg.params = {o.name: getattr(cfg, o.name) for o in given}
    # --df is the df of iid student_t but the noise_df of fgn and cascade
    if cfg.kind == "iid":
        cfg.params.setdefault("dist", "normal")
    elif "df" in cfg.params:
        cfg.params["noise_df"] = cfg.params.pop("df")
    if cfg.kind:
        from .synth import GeneratorSpec, check_spec
        check_spec(GeneratorSpec(cfg.kind, cfg.length, cfg.params))
    return cfg


def _sources(cfg) -> list:
    """The stage's sources: the corpus's CSV files, or a (GeneratorSpec,
    index) pair per synthetic stock."""
    if cfg.kind:
        from .synth import homogeneous_rule
        rule = homogeneous_rule(cfg.kind, cfg.length, cfg.params, cfg.seed)
        return [(rule(i), i) for i in range(cfg.n_stocks)]
    from .ingest import corpus_files
    return corpus_files(cfg.data_dir)


def _outdir(cfg) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _stage(cfg, **stage):
    """The per-stock stage over the run's sources with its series, seed,
    jobs and lifetime rules: (the accepted stocks' results in ticker order,
    the LoadSummary of every file, the output directory)."""
    results = map_stocks(_sources(cfg), cfg.series, seed=cfg.seed,
                         jobs=cfg.jobs, min_lifetime=cfg.min_lifetime,
                         strict=cfg.strict, **stage)
    summary = LoadSummary.of(r.load for r in results)
    if summary.n_files == 0:
        raise DataError(f"no *.csv file in {cfg.data_dir}")
    if summary.n_accepted == 0:
        raise DataError(
            f"no stock in {cfg.data_dir} was accepted: {summary.n_files} "
            f"file(s), {summary.n_rejected_short} shorter than "
            f"--min-lifetime {cfg.min_lifetime}, {summary.n_rejected_error} "
            f"unreadable or malformed")
    # sorted file names need not give sorted tickers: "A-.csv" < "A.csv"
    accepted = sorted((r for r in results if r.load.disposition == "ok"),
                      key=lambda r: r.ticker)
    return accepted, summary, _outdir(cfg)


def _factor_table(results):
    """(tickers, table) of the results: one factor row per stock."""
    return [r.ticker for r in results], np.array([r.factors for r in results])


def _factor_binnings(tickers, table):
    """(factor, default binning) of each factor some stock defines."""
    from .factors import FACTORS, bin_stocks, make_edges
    for factor, values in zip(FACTORS, table.T):
        if not np.isnan(values).all():
            yield factor, bin_stocks(tickers, values, factor,
                                     make_edges(values, factor))


# ---------------------------------------------------------------------------
# formatting

def _qtag(q: float) -> str:
    return f"{q:g}"


def _jclean(obj):
    """Make a report JSON-safe and deterministic (NaN -> null)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jclean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jclean(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jclean(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _header(cfg, summary) -> dict:
    """The part of report.json every analysis writes. Its config echoes
    the options marked echo and never paths or parallelism: two runs that
    differ only in --jobs or --out must write the same report."""
    source = {"type": "data-dir"}
    if cfg.kind:
        source = {"type": "synth", "params": cfg.params,
                  **{o.name: getattr(cfg, o.name) for o in OPTIONS
                     if o.gen == "corpus"}}
    config = {o.name: getattr(cfg, o.name) for o in OPTIONS if o.echo}
    return {"config": {"command": cfg.command, "source": source, **config},
            "load_summary": summary._asdict(), "n_stocks": summary.n_accepted}


def _fit_block(values, path: Path, cfg) -> dict:
    """Write the PDF of one pooled scaled sample to path; all fits of the
    sample and its PDF, null where one fails."""
    pdf = log_bin(values, cfg.bins_per_decade)
    write_pdf_tsv(pdf, path)
    block = {"n_samples": int(values.size)}
    try:
        block["power"] = fit_power_tail(pdf, cfg.x_min)._asdict()
    except InsufficientTailError:
        block["power"] = None
    block["power_x_min_grid"] = power_fit_sensitivity(pdf)
    try:
        block["exponential"] = fit_exponential(pdf)._asdict()
    except (InsufficientTailError, FitShapeError):
        block["exponential"] = None
    try:
        block["hill_gamma"] = hill_gamma(values, cfg.x_min)
    except InsufficientTailError:
        block["hill_gamma"] = None
    return block


# ---------------------------------------------------------------------------
# analyses: a request to the stage (map_stocks arguments) and a reducer
# cmd_<command>(cfg, results, outdir) -> (report block, why it is empty)
REQUESTS = {
    "intervals": lambda c: {"qs": c.thresholds, "shuffled_qs": c.thresholds},
    "conditional": lambda c: {"shuffled_qs" if c.shuffled else "qs": c.thresholds},
    "dfa": lambda c: {"order": c.order, "shuffled_dfa": c.shuffled, "factors": True},
    "factors": lambda c: {"qs": (c.q,), "factors": True},
}


def cmd_intervals(cfg, results, outdir):
    ok = [r for r in results if not r.degenerate]
    report = {"n_degenerate": len(results) - len(ok),
              "n_returns_dropped": sum(r.n_dropped for r in results),
              "intervals": {}}
    dump = []
    for q in cfg.thresholds:
        tag = _qtag(q)
        used = [(r.ticker, r.by_q[q]) for r in ok if r.by_q[q].size]
        if not used:
            report["intervals"][tag] = {"empty": True}
            continue
        # one sample at a time, each freed before the next is built: the
        # raw intervals (log_bin takes its own float64 copy of the narrow
        # taus), then the scaled pool, then the shuffled one
        raw = np.concatenate([taus for _, taus in used])
        mean_tau = float(raw.mean())
        write_pdf_tsv(log_bin(raw, cfg.bins_per_decade), outdir / f"pdf_q{tag}.tsv")
        del raw
        pooled = pool_scaled(taus for _, taus in used)
        block = {"empty": False,
                 "n_stocks_used": len(used),
                 "n_insufficient": len(ok) - len(used),
                 "n_intervals": pooled.size,
                 "mean_tau": mean_tau,
                 "fits": _fit_block(pooled, outdir / f"pdf_scaled_q{tag}.tsv", cfg)}
        del pooled
        # a shuffle permutes the same values, so it has as many intervals
        shuffled = pool_scaled(r.shuffled_by_q[q] for r in ok)
        block["shuffled_fits"] = _fit_block(
            shuffled, outdir / f"pdf_shuffled_q{tag}.tsv", cfg)
        report["intervals"][tag] = block
        if cfg.dump_intervals:
            # each stock's rows, ticker <TAB> q <TAB> interval, as one string
            dump += [f"{t}\t{tag}\t" + f"\n{t}\t{tag}\t".join(map(str, taus.tolist()))
                     + "\n" for t, taus in used]
    if all(b["empty"] for b in report["intervals"].values()):
        return report, "no threshold produced any interval"
    if cfg.dump_intervals:
        with open(outdir / "intervals.tsv", "w") as fh:
            fh.writelines(dump)
    return report, None


def cmd_conditional(cfg, results, outdir):
    from .conditional import (conditional_pdfs, consecutive_pairs,
                              memory_summary, octile_boundaries)
    by_q = [r.shuffled_by_q if cfg.shuffled else r.by_q
            for r in results if not r.degenerate]
    report = {"conditional": {}}
    for q in cfg.thresholds:
        tag = _qtag(q)
        tau0, tau = consecutive_pairs(taus[q] for taus in by_q)
        if tau.size == 0:
            report["conditional"][tag] = {"empty": True}
            continue
        try:
            boundaries = octile_boundaries(tau0, cfg.octiles)
        except DataError as exc:    # too few pairs, or tied quantiles
            report["conditional"][tag] = {"empty": True,
                                          "n_pairs": int(tau.size),
                                          "reason": str(exc)}
            continue
        pdfs = conditional_pdfs(tau0, tau, boundaries, cfg.bins_per_decade)
        for cp in pdfs:
            write_pdf_tsv(cp.pdf, outdir / f"cond_q{tag}_Q{cp.octile}.tsv")
        report["conditional"][tag] = {
            "empty": False,
            "n_pairs": int(tau.size),
            "boundaries": boundaries,     # inf -> null in _jclean
            "octiles": [{"octile": cp.octile, "count": cp.n_pairs,
                         "mean_scaled_tau": cp.mean_scaled_tau,
                         "low_statistics": cp.low_statistics}
                        for cp in pdfs],
            "spearman": memory_summary(pdfs),
        }
    if all(b["empty"] for b in report["conditional"].values()):
        return report, "no threshold produced octiles of interval pairs"
    return report, None


def cmd_dfa(cfg, results, outdir):
    from .factors import alpha_by_factor
    curves = [(r.ticker, r.curve) for r in results if r.curve is not None]
    alphas = {t: c.alpha for t, c in curves}
    good = np.array(list(alphas.values()))
    if good.size == 0:
        return {"dfa": {"empty": True}}, "no stock yielded a DFA exponent"

    if cfg.dump_fluctuations:
        for t, c in curves:
            write_tsv(outdir / f"dfa_fluct_{t}.tsv",
                      zip(c.window_sizes, c.fluctuations))

    report = {"dfa": {"empty": False,
                      "mean_alpha": float(good.mean()),
                      "std_alpha": float(good.std()),
                      "n_computed": int(good.size),
                      "n_skipped": int(len(results) - good.size),
                      "n_flagged_above_1": sum(c.alpha_flagged for _, c in curves),
                      "by_factor": {}}}
    for factor, binning in _factor_binnings(*_factor_table(results)):
        rows = alpha_by_factor(binning, alphas)
        write_tsv(outdir / f"dfa_alpha_by_{factor}.tsv", rows)
        report["dfa"]["by_factor"][factor] = [r._asdict() for r in rows]
    return report, None


def cmd_factors(cfg, results, outdir):
    from .factors import FACTORS, factor_correlations, gamma_by_factor
    tickers, table = _factor_table(results)
    intervals = {r.ticker: r.by_q[cfg.q] for r in results if not r.degenerate}

    report = {"factors": {"gamma_by_factor": {}, "unbinned": {}}}
    try:
        report["factors"]["correlations"] = factor_correlations(table)._asdict()
    except InsufficientStatisticsError:
        report["factors"]["correlations"] = None

    fitted = False
    for factor, binning in _factor_binnings(tickers, table):
        rows = gamma_by_factor(binning, intervals, cfg.x_min,
                               cfg.bins_per_decade)
        write_tsv(outdir / f"gamma_by_{factor}.tsv",
                  [(r.lo, r.hi, r.gamma, r.stderr, r.n_stocks, r.n_intervals)
                   for r in rows])
        report["factors"]["gamma_by_factor"][factor] = [r._asdict() for r in rows]
        report["factors"]["unbinned"][factor] = len(binning.unbinned)
        fitted = fitted or any(r.gamma is not None for r in rows)

    for (ia, fa), (ib, fb) in combinations(enumerate(FACTORS), 2):
        both = np.flatnonzero(~np.isnan(table[:, [ia, ib]]).any(axis=1))
        if both.size:
            write_tsv(outdir / f"scatter_{fa}_vs_{fb}.tsv",
                      [(tickers[k], table[k, ia], table[k, ib]) for k in both])
    return report, (None if fitted or report["factors"]["correlations"] else
                    "no factor bin has a tail exponent and no correlations")


def cmd_synth(cfg) -> None:
    from .ingest import write_corpus
    from .synth import synth_stock
    out = Path(cfg.out)
    # a corpus written over another would mix the two under one planted.json
    if (out / "planted.json").exists() or any(out.glob("*.csv")):
        raise ConfigError(f"--out {out} already holds *.csv files or "
                          f"planted.json; give a new or empty directory")
    # the directories this run creates, deepest first
    made = [d for d in (out, *out.parents) if not d.exists()]
    _outdir(cfg)
    planted, written = {}, []
    try:
        for source in _sources(cfg):        # one stock in memory at a time
            stock, truth = synth_stock(*source)
            planted[stock.ticker] = truth
            write_corpus([stock], out)
            written.append(out / f"{stock.ticker}.csv")
    except DataError:
        # leave no partial corpus behind, nor a directory made for it
        for path in written:
            path.unlink()
        for d in made:
            d.rmdir()
        raise
    _write_json(out / "planted.json", planted)
    print(f"wrote {len(planted)} stocks to {out}")


def main(argv=None) -> int:
    # arguments only for the commands argv names: the one argparse runs,
    # its first positional, is among them
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(set(argv))
    cfg, extra = ap.parse_known_args(argv)
    if extra:
        # the command's own parser reports them, with the usage of its flags
        cfg.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg = _configure(cfg)
        if cfg.command == "synth":
            cmd_synth(cfg)
            return EXIT_OK
        results, summary, outdir = _stage(cfg, **REQUESTS[cfg.command](cfg))
        # looked up by name, so a wrapper put on cmd_* (bench/traced.py) runs
        block, empty = globals()[f"cmd_{cfg.command}"](cfg, results, outdir)
        _write_json(outdir / "report.json", {**_header(cfg, summary), **block})
        if empty:
            raise InsufficientStatisticsError(empty)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientStatisticsError as exc:
        print(f"insufficient statistics: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
