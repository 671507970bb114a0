"""Threshold return-interval statistics for volume and price volatility.

The pipeline: load (or synthesize) a corpus of daily series, turn each
into normalized volatility, collect the intervals between threshold
exceedances, and characterize their scaled distribution (tail fits,
scaling collapse), short-term memory (conditional PDFs over octiles of the
preceding interval), and long-term memory (detrended fluctuation
analysis), optionally grouped by financial factors.

``import volint`` loads no submodule and no numpy: each name below is
imported from its submodule on first access (PEP 562) and then kept on
the package, so ``volint.X is volint.<submodule>.X``. The submodules
themselves are reachable the same way (``volint.ingest``), except ``dfa``
and ``volatility``, which name the functions of those modules.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "conditional": ("GEOMETRIC_BOUNDARIES", "ConditionalPdf", "assign_octiles",
                    "conditional_pdfs", "consecutive_pairs", "memory_summary",
                    "octile_boundaries"),
    "dfa": ("DfaCurve", "default_windows", "dfa"),
    "errors": ("ConfigError", "DataError", "DegenerateSeriesError",
               "FitShapeError", "InsufficientStatisticsError",
               "InsufficientTailError", "VolintError"),
    "factors": ("DEFAULT_BIN_COUNTS", "FACTORS", "AlphaBin",
                "CorrelationReport", "FactorBinning", "FactorVector",
                "GammaBin", "alpha_by_factor", "bin_stocks",
                "compute_factors", "factor_correlations", "factor_value",
                "gamma_by_factor", "make_edges", "stock_factors"),
    "fitting": ("BinnedPdf", "ExpFit", "TailFit", "collapse_distance",
                "fit_exponential", "fit_power_tail", "geometric_edges",
                "hill_gamma", "log_bin", "power_fit_sensitivity", "spearman",
                "write_pdf_tsv"),
    "ingest": ("Corpus", "DailySeries", "FileLoad", "LoadSummary",
               "corpus_files", "load_corpus", "read_stock", "write_corpus"),
    "intervals": ("DEFAULT_THRESHOLDS", "IntervalSeries", "PooledIntervals",
                  "extract_intervals", "pool_scaled", "shuffle_control"),
    "seeds": ("derive_seed",),
    "stage": ("StockResult", "map_stocks"),
    "synth": ("GeneratorSpec", "cascade_log_weights", "fgn", "generate",
              "homogeneous_rule", "iid_exceedance_probability",
              "normal_abs_moment", "synth_corpus", "synth_stock",
              "volume_from_series"),
    "volatility": ("log_returns", "normalize_volatility", "volatility"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({*_EXPORTS, *_HOME})


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:            # importing binds it on the package
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each submodule on the package as it
        # loads; the exported functions dfa and volatility keep their names
        if not (name in _HOME and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
