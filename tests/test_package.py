"""The package's lazy export table against the names it imported eagerly."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import volint as vi
from test_cli import python_env
from volint.cli import EXIT_CONFIG, main

# every name the package exports, by the module that defines it; the
# package bound each of them with `from .<module> import ...` before its
# exports became lazy
EAGER_EXPORTS = {
    "conditional": ["GEOMETRIC_BOUNDARIES", "ConditionalPdf", "assign_octiles",
                    "conditional_pdfs", "consecutive_pairs", "memory_summary",
                    "octile_boundaries"],
    "dfa": ["DfaCurve", "default_windows", "dfa"],
    "errors": ["ConfigError", "DataError", "DegenerateSeriesError",
               "FitShapeError", "InsufficientStatisticsError",
               "InsufficientTailError", "VolintError"],
    "factors": ["DEFAULT_BIN_COUNTS", "FACTORS", "AlphaBin",
                "CorrelationReport", "FactorBinning", "GammaBin",
                "alpha_by_factor", "bin_stocks", "factor_correlations",
                "gamma_by_factor", "make_edges", "stock_factors"],
    "fitting": ["BinnedPdf", "ExpFit", "TailFit", "collapse_distance",
                "fit_exponential", "fit_power_tail", "geometric_edges",
                "hill_gamma", "log_bin", "power_fit_sensitivity", "spearman",
                "write_pdf_tsv"],
    "ingest": ["corpus_files", "load_corpus", "read_stock", "write_corpus"],
    "intervals": ["DEFAULT_THRESHOLDS", "IntervalSeries", "extract_intervals",
                  "pool_scaled", "shuffle_control"],
    "records": ["Corpus", "DailySeries", "FileLoad", "LoadSummary"],
    "seeds": ["derive_seed"],
    "stage": ["StockResult", "map_stocks"],
    "synth": ["GeneratorSpec", "cascade_log_weights", "fgn", "generate",
              "homogeneous_rule", "iid_exceedance_probability",
              "normal_abs_moment", "synth_corpus", "synth_stock",
              "volume_from_series"],
    "volatility": ["log_returns", "normalize_volatility", "volatility"],
}
# the submodules the eager imports left bound on the package
MODULES = sorted(set(EAGER_EXPORTS) - {"dfa", "volatility"})


@pytest.mark.parametrize("module", sorted(EAGER_EXPORTS))
def test_each_export_is_its_submodules_object(module):
    home = importlib.import_module(f"volint.{module}")
    for name in EAGER_EXPORTS[module]:
        assert getattr(vi, name) is getattr(home, name), name


def test_submodules_stay_reachable_from_the_package():
    for module in MODULES:
        assert getattr(vi, module) is sys.modules[f"volint.{module}"]


def test_dir_and_all_list_the_exports_and_unknown_names_raise():
    names = {n for names in EAGER_EXPORTS.values() for n in names}
    assert set(vi.__all__) == names | set(MODULES)
    assert set(vi.__all__) <= set(dir(vi))
    with pytest.raises(AttributeError, match="no_such_name"):
        vi.no_such_name


def test_a_record_loads_no_csv_reader():
    # the records live in volint.records, which needs neither the CSV
    # reader nor numpy.ma
    res = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, volint\n"
         "volint.Corpus, volint.DailySeries, volint.FileLoad, volint.LoadSummary\n"
         "print(json.dumps(sorted({'volint.ingest', 'numpy.ma'} & set(sys.modules))))"],
        env=python_env(), capture_output=True, text=True, check=True)
    assert json.loads(res.stdout) == []


IMPORT_ORDERS = """
import importlib, itertools, json, sys
import numpy as np

def check(order):
    vi = sys.modules["volint"]
    assert vi.dfa is sys.modules["volint.dfa"].dfa, order
    assert vi.volatility is sys.modules["volint.volatility"].volatility, order

x = np.random.default_rng(0).lognormal(size=512)
done = 0
for touch in (False, True):     # look the names up after every import too
    for order in itertools.permutations(
            ["volint", "volint.cli", "volint.dfa", "volint.volatility"]):
        for name in [m for m in sys.modules if m.partition(".")[0] == "volint"]:
            del sys.modules[name]
        for name in order:
            importlib.import_module(name)
            if touch:
                check(order)
        check(order)
        vi = sys.modules["volint"]
        vi.dfa(vi.volatility(x))
        done += 1
print(json.dumps(done))
"""


def test_dfa_and_volatility_stay_functions_in_every_import_order():
    # importing a submodule binds it on the package, and dfa and
    # volatility are also exported functions: the function must win
    res = subprocess.run([sys.executable, "-c", IMPORT_ORDERS],
                         env=python_env(), capture_output=True, text=True,
                         check=True)
    assert json.loads(res.stdout) == 48


def _refused_mkdir(monkeypatch):
    """synth with an --out whose mkdir fails, as a directory without write
    permission makes it fail (the superuser ignores permissions)."""
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))
    monkeypatch.setattr(Path, "mkdir", refuse)
    return main(["synth", "--kind", "iid", "--n-stocks", "1", "--length", "2",
                 "--out", "refused"])


def _series(dates=("2001-01-02", "2001-01-03")):
    n = len(dates)
    return vi.DailySeries("T", np.array(dates, dtype="datetime64[D]"),
                          np.ones(n, dtype=np.int64), np.ones(n), np.ones(n))


# checks and paths no pipeline run reaches: the call, on the monkeypatch
# fixture, and what it must raise (an (error, match) pair) or return
RARE_PATHS = {
    "cli-outdir-not-made": (_refused_mkdir, EXIT_CONFIG),
    "conditional-boundary-count": (
        lambda mp: vi.assign_octiles([1.0], [1.0, 2.0]),
        (vi.ConfigError, "need 9 boundaries, got 2")),
    "dfa-two-dimensional": (lambda mp: vi.dfa(np.ones((64, 2))),
                            (vi.ConfigError, "one-dimensional")),
    "factors-empty-series": (lambda mp: vi.stock_factors(_series(())),
                             (vi.DataError, "T: empty series")),
    "fitting-bins-per-decade": (
        lambda mp: vi.log_bin([1.0, 2.0], bins_per_decade=0),
        (vi.ConfigError, "bins_per_decade must be >= 1, got 0")),
    "fitting-collapse-empty": (lambda mp: vi.collapse_distance([], [1.0]),
                               (vi.DataError, "non-empty")),
    "fitting-hill-short-tail": (lambda mp: vi.hill_gamma([2.0] * 4),
                                (vi.InsufficientTailError, "4 tail samples")),
    "ingest-dates-decreasing": (
        lambda mp: _series(("2001-01-03", "2001-01-02")),
        (vi.DataError, "T: dates not strictly increasing")),
    "ingest-series-equals-other": (lambda mp: _series() == "T", False),
    "ingest-summary-as-dict": (
        lambda mp: vi.LoadSummary.of([vi.FileLoad("ok", 2, 1),
                                      vi.FileLoad("short")]).as_dict(),
        {"n_files": 2, "n_accepted": 1, "n_rejected_short": 1,
         "n_rejected_error": 0, "n_rows_skipped": 2, "n_duplicate_rows": 1}),
    "synth-cascade-levels": (
        lambda mp: vi.cascade_log_weights(0, 0.4, np.random.default_rng(0)),
        (vi.ConfigError, "levels must be >= 1, got 0")),
    "synth-powered-normal-kappa": (
        lambda mp: vi.iid_exceedance_probability(2.0, "powered_normal"),
        (vi.ConfigError, "powered_normal needs kappa")),
    "synth-corpus-no-stocks": (
        lambda mp: vi.synth_corpus(0, lambda i: None),
        (vi.ConfigError, "n_stocks must be >= 1, got 0")),
}


@pytest.mark.parametrize("case", sorted(RARE_PATHS))
def test_rare_path(case, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    call, want = RARE_PATHS[case]
    if isinstance(want, tuple):
        with pytest.raises(want[0], match=want[1]):
            call(monkeypatch)
    else:
        assert call(monkeypatch) == want
    assert list(tmp_path.iterdir()) == []
