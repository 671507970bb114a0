"""The package's lazy export table against the names it imported eagerly."""

import importlib
import json
import subprocess
import sys

import pytest

import volint as vi
from test_cli import python_env

# every name the package bound with `from .<module> import ...` before its
# exports became lazy, less the deleted OctileStat and MemorySummary, by module
EAGER_EXPORTS = {
    "conditional": ["GEOMETRIC_BOUNDARIES", "ConditionalPdf", "assign_octiles",
                    "conditional_pdfs", "consecutive_pairs", "memory_summary",
                    "octile_boundaries"],
    "dfa": ["DfaCurve", "default_windows", "dfa"],
    "errors": ["ConfigError", "DataError", "DegenerateSeriesError",
               "FitShapeError", "InsufficientStatisticsError",
               "InsufficientTailError", "VolintError"],
    "factors": ["DEFAULT_BIN_COUNTS", "FACTORS", "AlphaBin",
                "CorrelationReport", "FactorBinning", "FactorVector",
                "GammaBin", "alpha_by_factor", "bin_stocks",
                "compute_factors", "factor_correlations", "factor_value",
                "gamma_by_factor", "make_edges", "stock_factors"],
    "fitting": ["BinnedPdf", "ExpFit", "TailFit", "collapse_distance",
                "fit_exponential", "fit_power_tail", "geometric_edges",
                "hill_gamma", "log_bin", "power_fit_sensitivity", "spearman",
                "write_pdf_tsv"],
    "ingest": ["Corpus", "DailySeries", "FileLoad", "LoadSummary",
               "corpus_files", "load_corpus", "read_stock", "write_corpus"],
    "intervals": ["DEFAULT_THRESHOLDS", "IntervalSeries", "PooledIntervals",
                  "extract_intervals", "pool_scaled", "shuffle_control"],
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
