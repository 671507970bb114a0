"""Threshold return-interval statistics for volume and price volatility.

The pipeline: load (or synthesize) a corpus of daily series, turn each
into normalized volatility, collect the intervals between threshold
exceedances, and characterize their scaled distribution (tail fits,
scaling collapse), short-term memory (conditional PDFs over octiles of the
preceding interval), and long-term memory (detrended fluctuation
analysis), optionally grouped by financial factors.
"""

from .conditional import (GEOMETRIC_BOUNDARIES, ConditionalPdf, MemorySummary,
                          OctileStat, assign_octiles, conditional_pdfs,
                          consecutive_pairs, memory_summary,
                          octile_boundaries)
from .dfa import DfaCurve, default_windows, dfa
from .errors import (ConfigError, DataError, DegenerateSeriesError,
                     FitShapeError, InsufficientStatisticsError,
                     InsufficientTailError, VolintError)
from .factors import (DEFAULT_BIN_COUNTS, FACTORS, AlphaBin,
                      CorrelationReport, FactorBinning, FactorVector, GammaBin,
                      alpha_by_factor, bin_stocks, compute_factors,
                      factor_correlations, factor_value, gamma_by_factor,
                      make_edges, stock_factors)
from .fitting import (BinnedPdf, ExpFit, TailFit, collapse_distance,
                      fit_exponential, fit_power_tail, geometric_edges,
                      hill_gamma, log_bin, power_fit_sensitivity, spearman,
                      write_pdf_tsv)
from .ingest import (Corpus, DailySeries, FileLoad, LoadSummary, corpus_files,
                     load_corpus, read_stock, write_corpus)
from .intervals import (DEFAULT_THRESHOLDS, IntervalSeries, PooledIntervals,
                        extract_intervals, pool_scaled, shuffle_control)
from .seeds import derive_seed
from .stage import StockResult, map_stocks
from .synth import (GeneratorSpec, cascade_log_weights, fgn, generate,
                    homogeneous_rule, iid_exceedance_probability,
                    normal_abs_moment, synth_corpus, synth_stock,
                    volume_from_series)
from .volatility import (ReturnSeries, VolatilitySeries, log_returns,
                         normalize_volatility, volatility)

__version__ = "0.1.0"
