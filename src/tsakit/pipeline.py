"""End-to-end analysis pipeline: CSV ingestion, staged computation, reporting.

Stage order is fixed by the methodology being reproduced: fit the linear trend
on the full series, diagnose its residuals, then truncate the head, take the
first difference, demean, and run the stationarity test, AR identification and
spectral estimation on the result. The report is a versioned JSON document and
each figure's plot data goes to its own CSV, rendered once per column and written
with one ``writerows`` call, in the bytes a cell-by-cell writer gave; files are
only written after every stage has succeeded.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import __version__ as _toolkit_version
from ._fileio import staged_files
from .armodel import (ArModel, characteristic_roots, fit_ar_least_squares,
                      fit_ar_yule_walker, is_stationary, select_order_aic,
                      unit_root_flags)
from .correlation import sample_acf
from .errors import (DuplicateMonthError, InsufficientDataError,
                     InvalidArgumentError, MalformedRowError, MissingInputError,
                     MonthGapError, PipelineStageError, TsaError)
from .regression import LinearTrendFit, fit_linear_trend
from .series import Period, TimeSeries, _month_label, demean, difference
from .spectral import ar_psd, daniell_smooth, periodogram
from .special import norm_ppf
from .stattests import jarque_bera, kpss_level, shapiro_wilk

REPORT_FORMAT_VERSION = "1"
AR_PSD_GRID = 257

FIGURE_FILES = (
    "fig_trend.csv",
    "fig_residuals.csv",
    "fig_qq.csv",
    "fig_diff_sacf.csv",
    "fig_hist.csv",
    "fig_spectrum_np.csv",
    "fig_spectrum_ar.csv",
)


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    output_dir: str
    date_column: str = "period"
    value_column: str = "deaths"
    truncate_head: int = 2
    aic_max_order: Union[int, str] = "auto"
    ar_estimator: str = "yule_walker"
    daniell_spans: tuple[int, ...] = (3, 3)
    kpss_lag: Union[int, str] = "auto"
    seed: int = 0

    def __post_init__(self):
        if self.truncate_head < 0:
            raise InvalidArgumentError(
                f"truncate_head must be >= 0, got {self.truncate_head}")
        object.__setattr__(self, "daniell_spans", tuple(int(s) for s in self.daniell_spans))


def ingest_csv(path: Union[str, Path], config: PipelineConfig) -> TimeSeries:
    """Parse and validate a (period, count) CSV into a contiguous TimeSeries."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InsufficientDataError(f"input file {path} is empty") from None
        header = [h.strip() for h in header]
        for column in (config.date_column, config.value_column):
            if column not in header:
                raise MalformedRowError(f"missing required column {column!r}", 1)
        date_idx = header.index(config.date_column)
        value_idx = header.index(config.value_column)

        start = last = None  # month indices of the first and previous rows
        values: list[float] = []
        for line_number, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):  # blank line
                continue
            if len(row) <= max(date_idx, value_idx):
                raise MalformedRowError("row has too few columns", line_number)
            label = row[date_idx]
            # Plain ASCII YYYY-MM is sliced; Period.parse takes the rest.
            if (len(label) == 7 and label[4] == "-" and label.isascii()
                    and label[:4].isdigit() and label[5:].isdigit()
                    and "01" <= label[5:] <= "12"):
                month = int(label[:4]) * 12 + int(label[5:]) - 1
            else:
                try:
                    month = Period.parse(label).index
                except InvalidArgumentError as exc:
                    raise MalformedRowError(str(exc), line_number) from None
            raw = row[value_idx].strip()
            try:
                value = int(raw)
            except ValueError:
                # int() refuses more digits than sys.get_int_max_str_digits().
                if raw.isascii() and raw.isdigit():
                    raise MalformedRowError(
                        "count is too large to represent", line_number) from None
                raise MalformedRowError(
                    f"count must be an integer, got {raw!r}", line_number) from None
            if value < 0:
                raise MalformedRowError(
                    f"count must be non-negative, got {value}", line_number)
            if start is None:
                start = month
            elif month != last + 1:
                # Months so far are contiguous, so a repeat lies in [start, last].
                if start <= month <= last:
                    raise DuplicateMonthError(_month_label(month))
                if month > last + 1:
                    raise MonthGapError(_month_label(last + 1))
                raise MalformedRowError(
                    f"periods must be increasing, got {_month_label(month)} "
                    f"after {_month_label(last)}", line_number)
            last = month
            try:
                values.append(float(value))
            except OverflowError:
                raise MalformedRowError(
                    "count is too large to represent", line_number) from None

    if not values:
        raise InsufficientDataError(f"input file {path} contains no data rows")
    return TimeSeries(np.asarray(values), Period(start // 12, start % 12 + 1))


def qq_plot_data(x: Sequence[float]) -> list[tuple[float, float]]:
    """Normal QQ pairs: (Phi^-1((i - 3/8)/(N + 1/4)), i-th order statistic)."""
    arr = np.sort(np.asarray(x, dtype=float))
    n = arr.size
    if n < 3:
        raise InsufficientDataError(f"QQ plot needs at least 3 points, got {n}")
    theoretical = norm_ppf((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    return list(zip(theoretical.tolist(), arr.tolist()))


@dataclass(frozen=True)
class HistogramData:
    bin_edges: np.ndarray
    counts: np.ndarray
    overlay_x: np.ndarray
    overlay_density: np.ndarray
    degenerate: bool


def histogram_data(x: Sequence[float], bins: Union[int, str] = "auto") -> HistogramData:
    """Equal-width histogram (Sturges by default) with a normal density overlay."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < 2:
        raise InsufficientDataError(f"histogram needs at least 2 points, got {n}")
    if bins == "auto":
        n_bins = int(math.ceil(math.log2(n))) + 1
    else:
        n_bins = int(bins)
        if n_bins < 1:
            raise InvalidArgumentError(f"bin count must be >= 1, got {bins}")
    lo, hi = float(arr.min()), float(arr.max())
    # A range below a few float spacings cannot support equal-width binning.
    degenerate = (hi - lo) <= 4.0 * float(np.spacing(max(abs(lo), abs(hi), 1.0)))
    if degenerate:
        edges = np.array([lo - 0.5, lo + 0.5])
        counts = np.array([n])
    else:
        edges = np.linspace(lo, hi, n_bins + 1)
        idx = np.minimum(((arr - lo) / (hi - lo) * n_bins).astype(int), n_bins - 1)
        counts = np.bincount(idx, minlength=n_bins)
    mean = float(arr.mean())
    var = float(arr.var(ddof=1))
    if var > 0.0:
        xs = np.linspace(edges[0], edges[-1], 101)
        density = np.exp(-0.5 * (xs - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
    else:
        xs = np.array([mean])
        density = np.array([0.0])
    return HistogramData(bin_edges=edges, counts=np.asarray(counts),
                         overlay_x=xs, overlay_density=density, degenerate=degenerate)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline computed, as a JSON-serializable tree."""

    body: dict
    figures: dict  # file name -> list of rows (header first), cells rendered per column

    def to_json(self) -> str:
        return json.dumps(self.body, indent=2, sort_keys=True) + "\n"


def _fingerprint(path: Union[str, Path], x: TimeSeries) -> dict:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    start = x.start_period
    return {
        "row_count": len(x),
        "first_period": str(start),
        "last_period": str(start.plus_months(len(x) - 1)),
        "sha256": digest,
    }


def _trend_section(fit: LinearTrendFit) -> dict:
    return {
        "beta0": fit.beta0,
        "beta1": fit.beta1,
        "se_beta0": fit.se_beta0,
        "se_beta1": fit.se_beta1,
        "t_beta0": fit.t_beta0,
        "t_beta1": fit.t_beta1,
        "p_beta0": fit.p_beta0.to_dict(),
        "p_beta1": fit.p_beta1.to_dict(),
        "r_squared": fit.r_squared,
        "f_statistic": fit.f_statistic,
        "model_p_value": fit.model_p_value.to_dict(),
        "n": fit.n,
        "dof": fit.dof,
    }


def _model_section(model: ArModel) -> dict:
    roots = characteristic_roots(model)
    flags = unit_root_flags(model)
    return {
        "order": model.order,
        "phi": list(model.phi),
        "sigma2": model.sigma2,
        "mean": model.mean,
        "estimation_method": model.estimation_method,
        "n_used": model.n_used,
        "roots": [{"re": z.real, "im": z.imag, "modulus": abs(z),
                   "unit_root": bool(f)} for z, f in zip(roots, flags)],
        "stationary": is_stationary(model),
    }


@contextmanager
def _stage(name: str):
    """Re-raise a TsaError from the block as PipelineStageError(name, exc)."""
    try:
        yield
    except TsaError as exc:
        raise PipelineStageError(name, exc) from exc


def run_pipeline(config: PipelineConfig) -> AnalysisReport:
    """Execute every stage and assemble the report; see module docstring."""
    with _stage("ingest"):
        x = ingest_csv(config.input_path, config)

    with _stage("trend-regression"):
        fit = fit_linear_trend(x)
    residuals = fit.residuals.values

    with _stage("residual-diagnostics"):
        jb = jarque_bera(residuals)
        sw = shapiro_wilk(residuals)

    with _stage("difference"):
        if config.truncate_head >= len(x) - 1:
            raise InvalidArgumentError(
                f"truncate_head={config.truncate_head} leaves too few points")
        truncated = x.with_values(x.values[config.truncate_head:],
                                  shift_months=config.truncate_head)
        centered, removed_mean = demean(difference(truncated, 1))

    with _stage("stationarity-test"):
        kpss = kpss_level(centered.values, config.kpss_lag)

    n_diff = len(centered)
    if config.aic_max_order == "auto":
        # floor(10 log10 N), clamped so short inputs keep K below N/2.
        max_order = max(1, min(int(10.0 * math.log10(n_diff)),
                               (n_diff - 1) // 2))
    else:
        max_order = int(config.aic_max_order)

    with _stage("identification"):
        aic = select_order_aic(centered.values, max_order, config.ar_estimator)

    with _stage("estimation"):
        if config.ar_estimator == "yule_walker" or aic.selected_order == 0:
            model = fit_ar_yule_walker(centered.values, aic.selected_order)
        else:
            model = fit_ar_least_squares(centered.values, aic.selected_order)
        model_section = _model_section(model)  # the root list solves the roots

    with _stage("spectral"):
        raw_spec = periodogram(centered.values, demean=True)
        smooth_spec = daniell_smooth(raw_spec, config.daniell_spans)
        ar_spec = ar_psd(model, AR_PSD_GRID)

    with _stage("sacf"):
        acf = sample_acf(centered.values, min(24, n_diff - 1))

    with _stage("figure-data"):
        qq = qq_plot_data(residuals)
        hist = histogram_data(centered.values)

    body = {
        "report_format_version": REPORT_FORMAT_VERSION,
        "toolkit_version": _toolkit_version,
        "dataset": _fingerprint(config.input_path, x),
        "trend": _trend_section(fit),
        "residual_diagnostics": {
            "jarque_bera": jb.to_dict(),
            "shapiro_wilk": sw.to_dict(),
        },
        "difference": {
            "truncate_head": config.truncate_head,
            "difference_order": 1,
            "length": n_diff,
            "mean_removed": removed_mean,
            "kpss": kpss.to_dict(),
            "aic": aic.to_dict(),
            "selected_model": model_section,
        },
        "spectra": {
            "raw_periodogram": {"file": "fig_spectrum_np.csv",
                                "parameters": raw_spec.parameters},
            "smoothed": {"file": "fig_spectrum_np.csv",
                         "parameters": smooth_spec.parameters},
            "ar_parametric": {"file": "fig_spectrum_ar.csv",
                              "parameters": ar_spec.parameters},
        },
        "decisions": {
            "ar_estimator": config.ar_estimator,
            "aic_max_order": max_order,
            "daniell_spans": list(config.daniell_spans),
            "kpss_lag": kpss.nuisance["truncation_lag"],
            "kpss_lag_rule": ("floor(4*(N/100)^0.25)"
                              if config.kpss_lag == "auto" else "explicit"),
            "truncate_head": config.truncate_head,
            "p_value_censor_threshold": 2.2e-16,
            "time_index_origin": 1,
            "seed": config.seed,
        },
        "figure_files": list(FIGURE_FILES),
    }

    figures = _figure_rows(x, fit, centered, acf, hist, qq, raw_spec,
                           smooth_spec, ar_spec)
    return AnalysisReport(body=body, figures=figures)


def _figure_rows(x, fit, centered, acf, hist, qq, raw_spec, smooth_spec,
                 ar_spec) -> dict:
    # csv.writer writes Python floats as repr() and ints as str(); a column of
    # numpy scalars is rendered once here, each cell as numpy's repr() of it.
    n = len(x)
    fitted = list(map(repr, fit.fitted.values))
    edges = list(map(repr, hist.bin_edges))
    return {
        "fig_trend.csv": [("period", "t", "observed", "fitted"), *zip(
            x.periods(), range(1, n + 1), map(repr, x.values), fitted)],
        "fig_residuals.csv": [("t", "fitted", "residual"), *zip(
            range(1, n + 1), fitted, map(repr, fit.residuals.values))],
        "fig_qq.csv": [("theoretical_quantile", "sample_quantile"), *qq],
        "fig_diff_sacf.csv": [
            ("panel", "x", "y", "band"),
            *zip(repeat("series"), range(1, len(centered) + 1),
                 map(repr, centered.values), repeat("")),
            *zip(repeat("sacf"), acf.lags.tolist(), acf.autocorrelation.tolist(),
                 repeat(repr(acf.band)))],
        "fig_hist.csv": [
            ("panel", "x", "x2", "y"),
            *zip(repeat("bar"), edges, edges[1:], hist.counts.tolist()),
            *zip(repeat("normal_density"), hist.overlay_x.tolist(), repeat(""),
                 hist.overlay_density.tolist())],
        "fig_spectrum_np.csv": [("frequency", "raw_power", "smoothed_power"), *zip(
            raw_spec.frequencies.tolist(), raw_spec.power.tolist(),
            smooth_spec.power.tolist())],
        "fig_spectrum_ar.csv": [("frequency", "power"), *zip(
            ar_spec.frequencies.tolist(), ar_spec.power.tolist())],
    }


def write_outputs(report: AnalysisReport, output_dir: Union[str, Path]) -> list[Path]:
    """Write report.json and every figure CSV; returns the written paths.

    Every file is first written under a temporary name in ``output_dir`` and
    renamed into place only once all of them are complete, so a failed write
    leaves the directory's existing files untouched (see
    ``_fileio.staged_files``; a symlink or other non-regular file among them
    is written through instead).
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "report.json"] + [out / name for name in report.figures]
    with staged_files() as open_staged:
        with open_staged(written[0]) as fh:
            fh.write(report.to_json())
        for path, rows in zip(written[1:], report.figures.values()):
            with open_staged(path, newline="") as fh:
                csv.writer(fh).writerows(rows)
    return written
