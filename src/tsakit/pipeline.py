"""End-to-end analysis pipeline: CSV ingestion, staged computation, reporting.

Ingestion reads an input in the canonical form (a header of the two columns,
then "YYYY-MM,count" rows of consecutive months) in one bulk pass: one regex
match, ``str.split`` and ``float``, and one comparison of the labels with
``series._month_words``, fig_trend's period column. Any other input, and every
invalid one, is read one ``csv.reader`` row at a time; that loop parses every
row's month label (``series._month_index``), checks that the months are
consecutive, and is the one source of error texts and line numbers. Stage
order is fixed by the methodology being reproduced: fit the linear trend on
the full series, diagnose its residuals, then truncate the head, take the
first difference, demean, and run the stationarity test, AR identification
and spectral estimation on the result.
The AR model is fitted once, by the AIC scan that identifies its order
(``select_order_aic``); the estimation stage only solves its roots, once, for
the report's root list. Every stage runs with numpy's overflow, invalid and
divide raising (``_stage``), so an inf or NaN fails the stage that made it; a
local ``errstate``, as in the root finder, takes precedence. The report is a
versioned JSON document, and this module alone names its keys and writes its
texts (``_p_value``, ``_test_section``), from the numerics modules' records
of numbers, the config and the run's lengths. Each figure's plot data goes to
its own CSV. A float is written as ``repr`` writes it, or as numpy's repr of
a float64 scalar where the cell held one: every float of every figure is
formatted in one ``_floattext._float_words`` call, with ``repr``'s bytes and
no ``repr`` call per value. Each column is rendered once, the figure's bytes
are joined from those columns in the bytes a cell-by-cell ``csv.writer``
gave, and each file is written with one ``write`` call; files are only
written after every stage has succeeded. The trend's residuals are rendered
once for two figures: fig_residuals wraps each text as numpy's repr, and
fig_qq's sample column is the same texts in the QQ plot's stable sort order
(``qq_plot_data``).
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__ as _toolkit_version
from ._fileio import staged_files
from ._floattext import _float_words, _int_words, _lines
from .armodel import (_ESTIMATORS, UNIT_ROOT_TOL, ArModel, characteristic_roots,
                      is_stationary, select_order_aic)
from .correlation import sample_acf
from .errors import (DuplicateMonthError, InsufficientDataError,
                     InvalidArgumentError, MalformedRowError, MissingInputError,
                     MonthGapError, PipelineStageError, TsaError, _as_index)
from .regression import (P_VALUE_CENSOR_THRESHOLD, Censoring, LinearTrendFit,
                         PValue, fit_linear_trend)
from .series import (TimeSeries, _month_index, _month_label, _month_words,
                     demean, difference)
from .spectral import (ar_psd, daniell_smooth, modified_daniell_kernel,
                       next_power_of_two, periodogram)
from .special import norm_ppf
from .stattests import HypothesisTestResult, jarque_bera, kpss_level, shapiro_wilk

REPORT_FORMAT_VERSION = "1"
AR_PSD_GRID = 257

_SPECTRUM_NP_FILE = "fig_spectrum_np.csv"
_SPECTRUM_AR_FILE = "fig_spectrum_ar.csv"
FIGURE_FILES = (
    "fig_trend.csv",
    "fig_residuals.csv",
    "fig_qq.csv",
    "fig_diff_sacf.csv",
    "fig_hist.csv",
    _SPECTRUM_NP_FILE,
    _SPECTRUM_AR_FILE,
)


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    date_column: str = "period"
    value_column: str = "deaths"
    truncate_head: int = 2
    aic_max_order: Union[int, str] = "auto"
    ar_estimator: str = "yule_walker"
    daniell_spans: tuple[int, ...] = (3, 3)
    kpss_lag: Union[int, str] = "auto"

    def __post_init__(self):
        # Checked by name before any stage runs; bounds set by N are the stages'.
        object.__setattr__(self, "truncate_head",
                           _as_index(self.truncate_head, "truncate_head", 0))
        if self.aic_max_order != "auto":
            object.__setattr__(self, "aic_max_order",
                               _as_index(self.aic_max_order, "aic_max_order", 1))
        if self.kpss_lag != "auto":
            object.__setattr__(self, "kpss_lag", _as_index(self.kpss_lag, "kpss_lag", 0))
        if self.ar_estimator not in _ESTIMATORS:
            raise InvalidArgumentError(
                f"ar_estimator must be one of {_ESTIMATORS}, got {self.ar_estimator!r}")
        try:
            spans = tuple(self.daniell_spans)  # a tuple, so the config hashes
        except TypeError:
            raise InvalidArgumentError(
                f"daniell_spans must be a sequence of spans, got {self.daniell_spans!r}"
            ) from None
        if not spans:
            raise InvalidArgumentError("at least one Daniell span is required")
        for span in spans:
            modified_daniell_kernel(span)
        # Python ints, so that the report can write them as JSON.
        object.__setattr__(self, "daniell_spans",
                           tuple(_as_index(span, "span") for span in spans))


def ingest_csv(path: Union[str, Path], config: PipelineConfig, *,
               _data: Optional[bytes] = None) -> TimeSeries:
    """Parse and validate a (period, count) CSV into a contiguous TimeSeries.

    An input in the canonical form (see ``_ingest_canonical``) is read in one
    bulk pass. Any other input, and every invalid one, is read row by row
    (``_ingest_rows``), the one source of error texts and line numbers; on
    the canonical form both give the same series.

    ``_data`` is the file's bytes when the caller has read them, so that the
    bytes it hashes are the bytes parsed here.
    """
    path = Path(path)
    if _data is None:
        _data = _read_input(path)
    series = _ingest_canonical(_data, config)
    if series is None:
        series = _ingest_rows(path, _data, config)
    return series


# The canonical form: a header of two column names made of ASCII letters,
# digits and underscores, then rows "YYYY-MM,count" of at most 15 digits
# (below 2**53, so float(count) is exact), each ended by "\n" or "\r\n"
# except that the last may lack one, and no blank line.
_CANONICAL_CSV = re.compile(
    r"(\w+),(\w+)\r?\n"
    r"((?:[0-9]{4}-[0-9]{2},[0-9]{1,15}\r?\n)*[0-9]{4}-[0-9]{2},[0-9]{1,15})(?:\r?\n)?",
    re.ASCII)


def _ingest_canonical(data: bytes, config: PipelineConfig) -> Optional[TimeSeries]:
    """The series of an input in the canonical form whose header is the
    configured date column then value column, and whose labels are
    consecutive months from one ``_month_index`` accepts up to 9999-12; None
    for any other input. Such an input is one ``_ingest_rows`` reads without
    an error, into the same series."""
    if not data.isascii():  # a BOM or any other non-ASCII byte
        return None
    m = _CANONICAL_CSV.fullmatch(data.decode("ascii"))
    # One name for both columns makes the row loop read both from the first.
    if (m is None or m[1] != config.date_column or m[2] != config.value_column
            or m[1] == m[2]):
        return None
    cells = m[3].replace("\r", "").replace("\n", ",").split(",")
    labels = cells[0::2]
    try:
        start = _month_index(labels[0])
    except InvalidArgumentError:
        return None
    # A month past 9999-12 has an eight-byte word, which no label's matches.
    if not np.array_equal(np.array(labels, dtype="S8").view("<u8"),
                          _month_words(start, len(labels))):
        return None
    return TimeSeries(np.asarray(list(map(float, cells[1::2]))), start)


def _ingest_rows(path: Path, data: bytes, config: PipelineConfig) -> TimeSeries:
    """``ingest_csv``'s reading of any input, one CSV row at a time."""
    # Decoded as a file opened with newline="" and encoding="utf-8-sig" is, in
    # the same chunks, so a bad byte is reported at the same row and offset.
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as fh:
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
            try:
                month = _month_index(row[date_idx])
            except InvalidArgumentError as exc:
                raise MalformedRowError(str(exc), line_number) from None
            raw = row[value_idx].strip()
            digits = raw[1:] if raw[:1] in ("+", "-") else raw
            if not (digits.isascii() and digits.isdigit()):
                raise MalformedRowError(f"count must be an integer, got {raw!r}", line_number)
            digits = digits.lstrip("0") or "0"  # int()'s digit limit counts zeros
            if raw[0] == "-" and digits != "0":
                raise MalformedRowError(
                    f"count must be non-negative, got -{digits}", line_number)
            try:
                value = float(int(digits))
            except (ValueError, OverflowError):
                # Past sys.get_int_max_str_digits() digits, or the float range.
                raise MalformedRowError(
                    "count is too large to represent", line_number) from None
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
            values.append(value)

    if not values:
        raise InsufficientDataError(f"input file {path} contains no data rows")
    return TimeSeries(np.asarray(values), start)


def _read_input(path: Union[str, Path]) -> bytes:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"input file not found: {path}")
    return path.read_bytes()


@dataclass(frozen=True)
class QqPlotData:
    theoretical: np.ndarray  # Phi^-1((i - 3/8)/(N + 1/4)), i = 1..N
    order: np.ndarray  # x's stable sort order: x[order[i - 1]] is the i-th order statistic


def qq_plot_data(x: Sequence[float]) -> QqPlotData:
    """Normal QQ plot data: the i-th theoretical quantile pairs with the i-th
    order statistic, ``x[order[i - 1]]``. The sort is stable, so values that
    compare equal (-0.0 and +0.0) keep their order in x; the figure's sample
    column is x's text in that order."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < 3:
        raise InsufficientDataError(f"QQ plot needs at least 3 points, got {n}")
    theoretical = norm_ppf((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    return QqPlotData(theoretical=theoretical, order=np.argsort(arr, kind="stable"))


@dataclass(frozen=True)
class HistogramData:
    bin_edges: np.ndarray
    counts: np.ndarray
    overlay_x: np.ndarray
    overlay_density: np.ndarray


def histogram_data(x: Sequence[float]) -> HistogramData:
    """Equal-width histogram (Sturges' bin count) with a normal density overlay."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < 2:
        raise InsufficientDataError(f"histogram needs at least 2 points, got {n}")
    n_bins = int(math.ceil(math.log2(n))) + 1
    lo, hi = float(arr.min()), float(arr.max())
    # A range below a few float spacings cannot support equal-width binning.
    if (hi - lo) <= 4.0 * float(np.spacing(max(abs(lo), abs(hi)))):
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
                         overlay_x=xs, overlay_density=density)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline computed, as a JSON-serializable tree."""

    body: dict
    figures: dict  # file name -> the figure's CSV bytes, header line first

    def to_json(self) -> str:
        return json.dumps(self.body, indent=2, sort_keys=True) + "\n"


def _fingerprint(data: bytes, x: TimeSeries) -> dict:
    digest = hashlib.sha256(data).hexdigest()
    start = x.start_month
    return {
        "row_count": len(x),
        "first_period": _month_label(start),
        "last_period": _month_label(start + len(x) - 1),
        "sha256": digest,
    }


def _p_value(p: PValue) -> dict:
    """A p-value's report entry: its value, its censoring, the text it is
    displayed as and, when one is set, its threshold."""
    if p.censored is Censoring.BELOW_THRESHOLD:
        display = f"< {p.threshold:g}"
    elif p.censored is Censoring.ABOVE_THRESHOLD:
        display = f">= {p.threshold:g}"
    else:
        display = f"{p.value:.6g}"
    entry = {"value": p.value, "censored": p.censored.value, "display": display}
    if p.threshold is not None:
        entry["threshold"] = p.threshold
    return entry


def _test_section(test: str, result: HypothesisTestResult, null_hypothesis: str,
                  sample_size: int) -> dict:
    return {
        "test": test,
        "statistic": result.statistic,
        "p_value": _p_value(result.p_value),
        "null_hypothesis": null_hypothesis,
        "sample_size": sample_size,
        "nuisance": dict(result.nuisance),
    }


def _trend_section(fit: LinearTrendFit) -> dict:
    return {
        "beta0": fit.beta0,
        "beta1": fit.beta1,
        "se_beta0": fit.se_beta0,
        "se_beta1": fit.se_beta1,
        "t_beta0": fit.t_beta0,
        "t_beta1": fit.t_beta1,
        "p_beta0": _p_value(fit.p_beta0),
        "p_beta1": _p_value(fit.p_beta1),
        "r_squared": fit.r_squared,
        "f_statistic": fit.f_statistic,
        "model_p_value": _p_value(fit.model_p_value),
        "n": fit.n,
        "dof": fit.dof,
    }


def _model_section(model: ArModel) -> dict:
    roots = characteristic_roots(model)  # the run's one root solve
    return {
        "order": model.order,
        "phi": list(model.phi),
        "sigma2": model.sigma2,
        "mean": model.mean,
        "estimation_method": model.estimation_method,
        "n_used": model.n_used,
        "roots": [{"re": z.real, "im": z.imag, "modulus": abs(z),
                   "unit_root": bool(abs(abs(z) - 1.0) <= UNIT_ROOT_TOL)}
                  for z in roots],
        "stationary": is_stationary(model),
    }


@contextmanager
def _stage(name: str):
    """Run the block with numpy's overflow, invalid and divide raising, and
    re-raise a TsaError or FloatingPointError from it as
    PipelineStageError(name, exc)."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (TsaError, FloatingPointError) as exc:
        raise PipelineStageError(name, exc) from exc


def run_pipeline(config: PipelineConfig) -> AnalysisReport:
    """Execute every stage and assemble the report; see module docstring."""
    with _stage("ingest"):
        data = _read_input(config.input_path)  # parsed here, hashed in the report
        x = ingest_csv(config.input_path, config, _data=data)

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
    with _stage("identification"):
        if config.aic_max_order == "auto":
            # floor(10 log10 N), clamped so short inputs keep K below N/2.
            max_order = max(1, min(int(10.0 * math.log10(n_diff)),
                                   (n_diff - 1) // 2))
        else:
            max_order = config.aic_max_order
        aic = select_order_aic(centered.values, max_order, config.ar_estimator)

    with _stage("estimation"):
        model = aic.model  # fitted by the AIC scan, not refitted
        model_section = _model_section(model)  # the root list solves the roots

    with _stage("spectral"):
        raw_spec = periodogram(centered.values)
        smooth_spec = daniell_smooth(raw_spec, config.daniell_spans)
        ar_spec = ar_psd(model, AR_PSD_GRID)

    with _stage("sacf"):
        acf = sample_acf(centered.values, min(24, n_diff - 1))

    with _stage("figure-data"):
        qq = qq_plot_data(residuals)
        hist = histogram_data(centered.values)

    normal = "sample is normally distributed"
    # periodogram demeans its input and zero-pads it to the next power of two.
    raw_parameters = {"original_length": n_diff,
                      "padded_length": next_power_of_two(n_diff), "demeaned": True}
    body = {
        "report_format_version": REPORT_FORMAT_VERSION,
        "toolkit_version": _toolkit_version,
        "dataset": _fingerprint(data, x),
        "trend": _trend_section(fit),
        "residual_diagnostics": {
            "jarque_bera": _test_section("jarque_bera", jb, normal, len(residuals)),
            "shapiro_wilk": _test_section("shapiro_wilk", sw, normal, len(residuals)),
        },
        "difference": {
            "truncate_head": config.truncate_head,
            "difference_order": 1,
            "length": n_diff,
            "mean_removed": removed_mean,
            "kpss": _test_section("kpss_level", kpss, "series is level stationary",
                                  n_diff),
            "aic": {
                "method": config.ar_estimator,
                "n": n_diff,
                "selected_order": aic.selected_order,
                "rows": [{"order": r.order, "sigma2": r.sigma2, "aic": r.aic,
                          "error": r.error} for r in aic.rows],
            },
            "selected_model": model_section,
        },
        "spectra": {
            "raw_periodogram": {"file": _SPECTRUM_NP_FILE,
                                "parameters": raw_parameters},
            "smoothed": {"file": _SPECTRUM_NP_FILE,
                         "parameters": {**raw_parameters,
                                        "spans": list(config.daniell_spans)}},
            "ar_parametric": {"file": _SPECTRUM_AR_FILE,
                              "parameters": {"order": model.order,
                                             "grid_size": AR_PSD_GRID}},
        },
        "decisions": {
            "ar_estimator": config.ar_estimator,
            "aic_max_order": max_order,
            "daniell_spans": list(config.daniell_spans),
            "kpss_lag": kpss.nuisance["truncation_lag"],
            "kpss_lag_rule": ("floor(4*(N/100)^0.25)"
                              if config.kpss_lag == "auto" else "explicit"),
            "truncate_head": config.truncate_head,
            "p_value_censor_threshold": P_VALUE_CENSOR_THRESHOLD,
            "time_index_origin": 1,
            "seed": 0,  # no stage draws random numbers
        },
        "figure_files": list(FIGURE_FILES),
    }

    figures = _figure_rows(x, fit, centered, acf, hist, qq, raw_spec,
                           smooth_spec, ar_spec)
    return AnalysisReport(body=body, figures=figures)


def _figure_rows(x, fit, centered, acf, hist, qq, raw_spec, smooth_spec,
                 ar_spec) -> dict:
    # Each cell is written as csv.writer would write it: an int as str(), a
    # Python float as repr() and a numpy scalar as numpy's repr, which is the
    # float's repr inside _NP_PREFIX and _NP_SUFFIX. No cell needs quoting
    # (no delimiter, quote or line break, and no row of one empty cell), and
    # every line ends with "\r\n". Every float of every figure is rendered in
    # one _float_words call. A residual's text is rendered once: in
    # fig_residuals as a numpy scalar, in fig_qq in the QQ plot's order.
    n, m, bins = len(x), len(centered), len(hist.counts)
    floats = (x.values, fit.fitted.values, fit.residuals.values, qq.theoretical,
              centered.values, acf.autocorrelation, np.atleast_1d(acf.band),
              hist.bin_edges, hist.overlay_x, hist.overlay_density,
              raw_spec.frequencies, raw_spec.power, smooth_spec.power,
              ar_spec.frequencies, ar_spec.power)
    words = _float_words(np.concatenate(floats))
    ends = np.cumsum([f.size for f in floats]).tolist()
    (observed, fitted, residuals, quantiles, diffs, autocorrelation, band, edges,
     density_x, density, frequencies, raw, smoothed, ar_frequencies, ar_power) = (
        [w[start:end] for w in words] for start, end in zip([0] + ends, ends))
    t = _int_words(np.arange(1, n + 1))
    figures = (  # in FIGURE_FILES' order: the header, then each block's columns
        (b"period,t,observed,fitted",
         [([_month_words(x.start_month, n)], t, _np_scalar(observed), _np_scalar(fitted))]),
        (b"t,fitted,residual", [(t, _np_scalar(fitted), _np_scalar(residuals))]),
        (b"theoretical_quantile,sample_quantile",
         [(quantiles, [w[qq.order] for w in residuals])]),
        (b"panel,x,y,band",
         [(b"series", [w[:m] for w in t], _np_scalar(diffs), b""),
          (b"sacf", _int_words(acf.lags), autocorrelation, _np_scalar(band))]),
        (b"panel,x,x2,y",
         [(b"bar", _np_scalar([w[:bins] for w in edges]),
           _np_scalar([w[1:] for w in edges]), _int_words(hist.counts)),
          (b"normal_density", density_x, b"", density)]),
        (b"frequency,raw_power,smoothed_power", [(frequencies, raw, smoothed)]),
        (b"frequency,power", [(ar_frequencies, ar_power)]),
    )
    return {name: b"".join([header, b"\r\n", *(_lines(columns, b"\r\n") for columns in blocks)])
            for name, (header, blocks) in zip(FIGURE_FILES, figures, strict=True)}


# numpy's repr of a float64 scalar is the float's repr inside this wrapper:
# b"np.float64(" and b")" under numpy 2, empty under numpy 1.
_NP_PREFIX, _NP_SUFFIX = (t.encode() for t in repr(np.float64(0.5)).split("0.5"))


def _np_scalar(column: list) -> list:
    """A column of float texts as numpy writes each float as a float64 scalar."""
    return [_NP_PREFIX, *column, _NP_SUFFIX]


def write_outputs(report: AnalysisReport, output_dir: Union[str, Path]) -> list[Path]:
    """Write report.json and every figure CSV, each as the bytes it was built
    from; returns the written paths.

    Every file is first written under a temporary name in ``output_dir`` and
    renamed into place only once all of them are complete, so a failed write
    leaves the directory's existing files untouched (see
    ``_fileio.staged_files``; a symlink or other non-regular file among them
    is written through instead).
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"report.json": report.to_json().encode(), **report.figures}
    written = [out / name for name in files]
    with staged_files() as open_staged:
        for path, data in zip(written, files.values()):
            with open_staged(path) as fh:
                fh.write(data)
    return written
