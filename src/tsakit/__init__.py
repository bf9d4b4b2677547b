"""Time-series analysis toolkit with a reproducible analysis pipeline.

All numerical machinery (distribution tails, FFT, Levinson-Durbin, polynomial
roots, random number generation) is implemented inside this package; numpy is
used for array storage and arithmetic only. ``select_order_aic`` returns the
AIC-selected AR model from its own scan, with no refit.
"""

__version__ = "0.1.0"

from .armodel import (AicRow, AicTable, ArModel, RandomWalkMoments,
                      RandomWalkSpec, characteristic_roots, is_stationary,
                      random_walk_moments, select_order_aic, simulate_ar,
                      simulate_random_walk, theoretical_ar_acf)
from .correlation import AcfEstimate, sample_acf
from .errors import (ConvergenceError, DegenerateFitError, DuplicateMonthError,
                     IngestionError, InsufficientDataError,
                     InvalidArgumentError, MalformedRowError,
                     MissingInputError, MonthGapError,
                     NonStationaryModelError, PipelineStageError, TsaError,
                     ZeroVarianceError)
from .pipeline import (AnalysisReport, PipelineConfig, histogram_data,
                       ingest_csv, qq_plot_data, run_pipeline, write_outputs)
from .regression import (Censoring, LinearTrendFit, PValue, fit_linear_trend,
                         t_distribution_sf)
from .series import TimeSeries, demean, difference, integrate
from .spectral import (EstimatorKind, SpectrumEstimate, ar_psd, daniell_smooth,
                       dft, periodogram)
from .stattests import (HypothesisTestResult, jarque_bera, kpss_level,
                        shapiro_wilk)
