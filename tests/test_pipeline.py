import csv
import hashlib
import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsakit import pipeline, rng
from tsakit._linalg import polynomial_roots
from tsakit.cli import main as cli_main
from tsakit.errors import (ConvergenceError, DegenerateFitError,
                           DuplicateMonthError, InsufficientDataError,
                           InvalidArgumentError, MalformedRowError,
                           MissingInputError, MonthGapError, PipelineStageError)
from tsakit.pipeline import (AnalysisReport, PipelineConfig, histogram_data,
                             ingest_csv, qq_plot_data, run_pipeline,
                             write_outputs)
from tsakit.series import Period
from tsakit.special import norm_ppf

BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _bench_workloads():
    """bench/workloads.py, loaded by path: its N = 4000 input generator."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = BENCH_REFERENCE.parent / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def write_csv(path: Path, rows, header="period,deaths"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def config_for(path, tmp_path, **overrides) -> PipelineConfig:
    defaults = dict(input_path=str(path), output_dir=str(tmp_path / "out"))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestIngest:
    def test_bundled_dataset(self, deaths_series):
        assert len(deaths_series) == 67
        assert str(deaths_series.start_period) == "2015-01"
        assert deaths_series.periods()[-1] == "2020-07"

    def test_missing_file(self, tmp_path):
        cfg = config_for(tmp_path / "nope.csv", tmp_path)
        with pytest.raises(MissingInputError):
            ingest_csv(tmp_path / "nope.csv", cfg)

    def test_month_gap_names_missing_month(self, tmp_path):
        p = tmp_path / "gap.csv"
        write_csv(p, ["2015-01,100", "2015-03,110"])
        with pytest.raises(MonthGapError, match="2015-02"):
            ingest_csv(p, config_for(p, tmp_path))

    def test_duplicate_month(self, tmp_path):
        p = tmp_path / "dup.csv"
        for rows in (["2015-01,100", "2015-01,101"],
                     ["2015-01,100", "2015-02,101", "2015-01,102"]):
            write_csv(p, rows)
            with pytest.raises(DuplicateMonthError, match="2015-01") as info:
                ingest_csv(p, config_for(p, tmp_path))
            assert info.value.period == "2015-01"

    def test_utf8_bom_is_accepted(self, dataset_path, deaths_series, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + dataset_path.read_bytes())
        series = ingest_csv(p, config_for(p, tmp_path))
        assert series.start_period == deaths_series.start_period
        assert series.values.tolist() == deaths_series.values.tolist()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(InsufficientDataError):
            ingest_csv(p, config_for(p, tmp_path))

    def test_header_only(self, tmp_path):
        p = tmp_path / "headeronly.csv"
        p.write_text("period,deaths\n", encoding="utf-8")
        with pytest.raises(InsufficientDataError):
            ingest_csv(p, config_for(p, tmp_path))

    def test_malformed_value_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, ["2015-01,100", "2015-02,ten"])
        with pytest.raises(MalformedRowError, match="line 3"):
            ingest_csv(p, config_for(p, tmp_path))

    def test_negative_count(self, tmp_path):
        p = tmp_path / "neg.csv"
        write_csv(p, ["2015-01,-5"])
        with pytest.raises(MalformedRowError, match="non-negative"):
            ingest_csv(p, config_for(p, tmp_path))

    def test_bad_period_format(self, tmp_path):
        p = tmp_path / "period.csv"
        write_csv(p, ["Jan-2015,100"])
        with pytest.raises(MalformedRowError, match="line 2"):
            ingest_csv(p, config_for(p, tmp_path))

    def test_missing_column(self, tmp_path):
        p = tmp_path / "cols.csv"
        write_csv(p, ["2015-01,1"], header="month,count")
        with pytest.raises(MalformedRowError, match="period"):
            ingest_csv(p, config_for(p, tmp_path))

    def test_error_codes_are_distinct(self):
        assert MissingInputError.code != MonthGapError.code
        assert DuplicateMonthError.code != MalformedRowError.code

    def test_custom_columns(self, tmp_path):
        p = tmp_path / "custom.csv"
        write_csv(p, ["2015-01,7", "2015-02,8"], header="month,count")
        cfg = config_for(p, tmp_path, date_column="month", value_column="count")
        series = ingest_csv(p, cfg)
        assert series.values.tolist() == [7.0, 8.0]

    @pytest.mark.parametrize("label", [
        "2015-01", "2015-12", "0001-01", "9999-12", " 2015-01 ", "２０１５-01",
        "2015-00", "2015-13", "2015-1", "12015-01", "Jan-2015", "2015/01",
        "20１5-01", "2015-0²"])
    def test_period_labels_follow_period_parse(self, tmp_path, label):
        # The label sits on line 3, after the month before it when it parses.
        try:
            expected = Period.parse(label)
        except InvalidArgumentError as exc:
            expected = exc
        parsed = isinstance(expected, Period)
        before = str(expected.plus_months(-1)) if parsed else "2014-12"
        p = tmp_path / "labels.csv"
        write_csv(p, [f"{before},5", f"{label},6"])
        if parsed:
            series = ingest_csv(p, config_for(p, tmp_path))
            assert series.periods() == [before, str(expected)]
            assert series.values.tolist() == [5.0, 6.0]
            return
        with pytest.raises(MalformedRowError) as info:
            ingest_csv(p, config_for(p, tmp_path))
        assert type(info.value) is MalformedRowError
        assert str(info.value) == f"line 3: {expected}"
        assert info.value.line_number == 3

    def test_non_adjacent_duplicate_after_100_rows(self, tmp_path):
        p = tmp_path / "dup100.csv"
        start = Period(2000, 1)
        rows = [f"{start.plus_months(k)},{100 + k}" for k in range(100)]
        write_csv(p, rows + ["2003-05,7"])
        with pytest.raises(DuplicateMonthError) as info:
            ingest_csv(p, config_for(p, tmp_path))
        assert str(info.value) == "duplicate month in input: 2003-05"
        assert info.value.period == "2003-05"

    def test_decreasing_period_reports_line(self, tmp_path):
        p = tmp_path / "decreasing.csv"
        write_csv(p, [f"2015-{m:02d},{m}" for m in range(1, 6)] + ["2014-11,9"])
        with pytest.raises(MalformedRowError) as info:
            ingest_csv(p, config_for(p, tmp_path))
        assert str(info.value) == \
            "line 7: periods must be increasing, got 2014-11 after 2015-05"
        assert info.value.line_number == 7

    def test_gap_after_year_boundary(self, tmp_path):
        p = tmp_path / "gap.csv"
        write_csv(p, ["2015-11,1", "2015-12,2", "2016-02,3"])
        with pytest.raises(MonthGapError) as info:
            ingest_csv(p, config_for(p, tmp_path))
        assert str(info.value) == "month gap in input: 2016-01 is missing"

    def test_count_too_large_to_represent(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        write_csv(p, ["2015-01,1", "2015-02," + "9" * 401])
        with pytest.raises(MalformedRowError) as info:
            ingest_csv(p, config_for(p, tmp_path))
        assert str(info.value) == "line 3: count is too large to represent"
        code = cli_main(["analyze", "--input", str(p),
                         "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: stage 'ingest' failed: line 3: count is too large to represent\n")

    def test_count_beyond_int_digit_limit(self, tmp_path, capsys):
        # int() refuses strings of more than 4300 digits by default.
        p = tmp_path / "huge.csv"
        write_csv(p, ["2015-01,1", "2015-02," + "9" * 4301])
        code = cli_main(["analyze", "--input", str(p),
                         "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: stage 'ingest' failed: line 3: count is too large to represent\n")


class TestQqPlotData:
    def test_three_point_plotting_positions(self):
        pairs = qq_plot_data([5.0, 1.0, 3.0])
        positions = [0.5 * math.erfc(-q / math.sqrt(2)) for q, _ in pairs]
        assert positions == pytest.approx([0.19231, 0.5, 0.80769], abs=1e-5)
        assert [s for _, s in pairs] == [1.0, 3.0, 5.0]

    def test_normal_scores_are_collinear(self):
        n = 40
        scores = [norm_ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
        pairs = qq_plot_data(scores)
        theo = np.array([t for t, _ in pairs])
        samp = np.array([s for _, s in pairs])
        assert np.corrcoef(theo, samp)[0, 1] > 0.9999

    def test_symmetry_under_negation(self):
        x = rng.normals(50, 31)
        x = np.concatenate((x, -x))  # force exact symmetry
        pairs = qq_plot_data(x)
        flipped = [(-t, -s) for t, s in reversed(pairs)]
        for (t1, s1), (t2, s2) in zip(pairs, flipped):
            assert t1 == pytest.approx(t2, abs=1e-9)
            assert s1 == pytest.approx(s2, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            qq_plot_data([1.0, 2.0])

    @pytest.mark.parametrize("n", [3, 67, 4000])
    def test_quantiles_match_scalar_norm_ppf(self, n):
        pairs = qq_plot_data(np.arange(n, dtype=float))
        scalar = [norm_ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
        assert [t for t, _ in pairs] == pytest.approx(scalar, rel=1e-15, abs=0.0)


class TestHistogramData:
    def test_sturges_for_64(self):
        hist = histogram_data(rng.normals(51, 64))
        assert hist.counts.size == 7

    def test_counts_sum_to_n(self):
        for n in (10, 64, 333):
            hist = histogram_data(rng.normals(52, n))
            assert int(hist.counts.sum()) == n

    def test_counts_match_per_element_loop(self):
        for n in (2, 64, 333, 4000):
            x = rng.normals(55, n)
            hist = histogram_data(x)
            lo, hi, n_bins = x.min(), x.max(), hist.counts.size
            expected = np.zeros(n_bins, dtype=int)
            for i in np.minimum(((x - lo) / (hi - lo) * n_bins).astype(int), n_bins - 1):
                expected[i] += 1
            assert hist.counts.tolist() == expected.tolist()

    def test_degenerate_range_flagged(self):
        hist = histogram_data([3.0, 3.0, 3.0])
        assert hist.degenerate
        assert int(hist.counts.sum()) == 3

    def test_overlay_uses_sample_moments(self):
        x = rng.normals(53, 400) * 2.0 + 7.0
        hist = histogram_data(x)
        peak_x = hist.overlay_x[int(np.argmax(hist.overlay_density))]
        assert peak_x == pytest.approx(float(x.mean()), abs=0.3)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            histogram_data([1.0])


class TestRunPipeline:
    def test_report_values_on_bundled(self, default_config):
        report = run_pipeline(default_config)
        body = report.body
        assert body["dataset"]["row_count"] == 67
        assert body["trend"]["beta0"] == pytest.approx(68036.6, abs=0.5)
        assert body["difference"]["length"] == 64
        assert body["difference"]["aic"]["selected_order"] == 11
        assert body["difference"]["selected_model"]["stationary"] is True
        assert body["decisions"]["ar_estimator"] == "yule_walker"
        assert body["decisions"]["aic_max_order"] == 18
        assert body["decisions"]["daniell_spans"] == [3, 3]
        assert body["decisions"]["truncate_head"] == 2
        assert "kpss_lag" in body["decisions"]

    def test_roots_solved_once_per_run(self, default_config, monkeypatch):
        import tsakit.armodel

        calls = []

        def counting(coeffs, *args, **kwargs):
            calls.append(len(coeffs))
            return polynomial_roots(coeffs, *args, **kwargs)

        monkeypatch.setattr(tsakit.armodel, "polynomial_roots", counting)
        run_pipeline(default_config)
        assert calls == [12]  # the selected AR(11): 1 - phi_1 z - ... - phi_11 z^11

    @pytest.mark.parametrize("stage, function", [
        ("ingest", "ingest_csv"),
        ("trend-regression", "fit_linear_trend"),
        ("residual-diagnostics", "shapiro_wilk"),
        ("difference", "difference"),
        ("stationarity-test", "kpss_level"),
        ("identification", "select_order_aic"),
        ("estimation", "fit_ar_yule_walker"),
        ("spectral", "ar_psd"),
        ("sacf", "sample_acf"),
        ("figure-data", "histogram_data"),
    ])
    def test_failing_stage_is_named(self, default_config, monkeypatch, capsys,
                                    stage, function):
        def failing(*args, **kwargs):
            raise DegenerateFitError(f"{function} failed")

        monkeypatch.setattr(pipeline, function, failing)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(default_config)
        assert info.value.stage == stage
        assert isinstance(info.value.cause, DegenerateFitError)
        code = cli_main(["analyze", "--input", default_config.input_path,
                         "--output", default_config.output_dir])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: stage '{stage}' failed: {function} failed\n")

    def test_unsolved_roots_fail_the_estimation_stage(self, default_config, monkeypatch):
        # The report's root list is the only user of the root finder.
        def failing(coeffs, *args, **kwargs):
            raise ConvergenceError("no convergence", iterations=800, residual=1.0)

        monkeypatch.setattr("tsakit.armodel.polynomial_roots", failing)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(default_config)
        assert info.value.stage == "estimation"

    def test_emitted_lengths_follow_stage_order(self, tmp_path):
        n = 40
        trend = 100.0 + 2.0 * np.arange(1, n + 1)
        noise = 5.0 * rng.normals(54, n)
        values = np.rint(trend + noise - noise.min() + 10)
        p = tmp_path / "synthetic.csv"
        rows = [f"{2001 + i // 12:04d}-{i % 12 + 1:02d},{int(v)}"
                for i, v in enumerate(values)]
        write_csv(p, rows)
        cfg = config_for(p, tmp_path, truncate_head=3, aic_max_order=6)
        report = run_pipeline(cfg)
        assert report.body["difference"]["length"] == n - 3 - 1
        series_rows = [r for r in report.figures["fig_diff_sacf.csv"]
                       if r[0] == "series"]
        assert len(series_rows) == n - 3 - 1

    def test_trend_plus_integrated_noise_behaves_like_null(self, tmp_path):
        # Null fixture: the first difference of the input is genuinely white,
        # so every stage should report "trend plus stationary noise, nothing
        # else". (A line plus white noise cannot play this role: its first
        # difference is an MA(1) with lag-1 correlation -0.5, which AIC
        # rightly models with a positive order.)
        n = 80
        t = np.arange(1, n + 1)
        steps = 30.0 * rng.normals(61, n)
        values = np.rint(10_000.0 + 200.0 * t + np.cumsum(steps))
        p = tmp_path / "line.csv"
        rows = [f"{2001 + i // 12:04d}-{i % 12 + 1:02d},{int(v)}"
                for i, v in enumerate(values)]
        write_csv(p, rows)
        report = run_pipeline(config_for(p, tmp_path, aic_max_order=10))
        body = report.body
        assert body["trend"]["r_squared"] > 0.99
        assert body["residual_diagnostics"]["jarque_bera"]["p_value"]["value"] > 0.05
        assert body["residual_diagnostics"]["shapiro_wilk"]["p_value"]["value"] > 0.05
        assert body["difference"]["kpss"]["statistic"] < 0.463
        assert body["difference"]["aic"]["selected_order"] == 0

    def test_constant_series_aborts_in_diagnostics(self, tmp_path):
        p = tmp_path / "const.csv"
        rows = [f"2015-{m:02d},500" for m in range(1, 13)]
        write_csv(p, rows)
        with pytest.raises(PipelineStageError) as exc_info:
            run_pipeline(config_for(p, tmp_path, aic_max_order=3))
        assert exc_info.value.stage == "residual-diagnostics"

    def test_determinism_byte_identical(self, dataset_path, tmp_path):
        cfg1 = config_for(dataset_path, tmp_path / "a")
        cfg2 = config_for(dataset_path, tmp_path / "b")
        r1 = run_pipeline(cfg1)
        r2 = run_pipeline(cfg2)
        assert r1.to_json() == r2.to_json()
        assert r1.figures == r2.figures

    def test_every_numeric_field_is_finite(self, default_config):
        report = run_pipeline(default_config)

        def walk(node, path):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{path}.{key}")
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(value, f"{path}[{i}]")
            elif isinstance(node, float):
                assert math.isfinite(node), f"non-finite value at {path}"

        walk(report.body, "report")

    def test_auto_max_order_clamps_for_short_series(self, tmp_path):
        # 16 rows -> 13-point differenced series; the unclamped rule would ask
        # for K = 11 >= N/2 and abort.
        n = 16
        steps = 10.0 * rng.normals(70, n)
        values = np.rint(5000.0 + 100.0 * np.arange(1, n + 1) + np.cumsum(steps))
        p = tmp_path / "short.csv"
        rows = [f"2015-{m:02d},{int(v)}" if m <= 12 else f"2016-{m-12:02d},{int(v)}"
                for m, v in zip(range(1, n + 1), values)]
        write_csv(p, rows)
        report = run_pipeline(config_for(p, tmp_path))
        assert report.body["decisions"]["aic_max_order"] <= 6

    def test_report_round_trips(self, default_config):
        report = run_pipeline(default_config)
        text = report.to_json()
        reparsed = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert reparsed == text

    def test_written_outputs(self, dataset_path, tmp_path):
        cfg = config_for(dataset_path, tmp_path)
        report = run_pipeline(cfg)
        written = write_outputs(report, cfg.output_dir)
        names = sorted(p.name for p in written)
        assert names == sorted(["report.json", "fig_trend.csv",
                                "fig_residuals.csv", "fig_qq.csv",
                                "fig_diff_sacf.csv", "fig_hist.csv",
                                "fig_spectrum_np.csv", "fig_spectrum_ar.csv"])
        trend = (Path(cfg.output_dir) / "fig_trend.csv").read_text().splitlines()
        assert trend[0] == "period,t,observed,fitted"
        assert len(trend) == 68
        spectrum = (Path(cfg.output_dir) / "fig_spectrum_np.csv").read_text().splitlines()
        assert spectrum[0] == "frequency,raw_power,smoothed_power"
        assert len(spectrum) == 34  # 33 ordinates for a 64-point transform

    def test_failed_write_leaves_directory_unchanged(self, dataset_path,
                                                     tmp_path, monkeypatch):
        out = tmp_path / "out"
        write_outputs(run_pipeline(config_for(dataset_path, tmp_path)), out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        report = run_pipeline(config_for(dataset_path, tmp_path, truncate_head=3))

        real_writer = csv.writer
        opened = []

        def failing_writer(fh):
            opened.append(fh)
            if len(opened) == 5:  # the fifth figure CSV; five files are staged
                raise OSError("no space left on device")
            return real_writer(fh)

        monkeypatch.setattr("tsakit.pipeline.csv.writer", failing_writer)
        with pytest.raises(OSError, match="no space"):
            write_outputs(report, out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _figure_rows_per_cell(x, fit, centered, acf, hist, qq, raw_spec,
                          smooth_spec, ar_spec) -> dict:
    """Figure rows built one cell at a time, numpy scalars left in place."""
    figures = {}
    rows = [("period", "t", "observed", "fitted")]
    for i, period in enumerate(x.periods()):
        rows.append((period, i + 1, x.values[i], fit.fitted.values[i]))
    figures["fig_trend.csv"] = rows
    rows = [("t", "fitted", "residual")]
    for i in range(len(x)):
        rows.append((i + 1, fit.fitted.values[i], fit.residuals.values[i]))
    figures["fig_residuals.csv"] = rows
    figures["fig_qq.csv"] = [("theoretical_quantile", "sample_quantile")] + [
        (t, s) for t, s in qq]
    rows = [("panel", "x", "y", "band")]
    for i in range(len(centered)):
        rows.append(("series", i + 1, centered.values[i], ""))
    for lag, rho in zip(acf.lags.tolist(), acf.autocorrelation.tolist()):
        rows.append(("sacf", lag, rho, acf.band))
    figures["fig_diff_sacf.csv"] = rows
    rows = [("panel", "x", "x2", "y")]
    for i in range(hist.counts.size):
        rows.append(("bar", hist.bin_edges[i], hist.bin_edges[i + 1],
                     int(hist.counts[i])))
    for xv, dv in zip(hist.overlay_x.tolist(), hist.overlay_density.tolist()):
        rows.append(("normal_density", xv, "", dv))
    figures["fig_hist.csv"] = rows
    rows = [("frequency", "raw_power", "smoothed_power")]
    for f, raw, smooth in zip(raw_spec.frequencies.tolist(),
                              raw_spec.power.tolist(),
                              smooth_spec.power.tolist()):
        rows.append((f, raw, smooth))
    figures["fig_spectrum_np.csv"] = rows
    rows = [("frequency", "power")]
    for f, p in zip(ar_spec.frequencies.tolist(), ar_spec.power.tolist()):
        rows.append((f, p))
    figures["fig_spectrum_ar.csv"] = rows
    return figures


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def _per_cell_bytes(figures: dict, out: Path) -> dict:
    """The cell-by-cell writer: one writerow of formatted cells per row."""
    out.mkdir(parents=True)
    for name, rows in figures.items():
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow([_format_cell(cell) for cell in row])
    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestFigureWriter:
    """write_outputs renders columns once; its bytes must equal those of
    figure rows built and formatted one cell at a time."""

    def _assert_same_bytes(self, cfg, tmp_path, monkeypatch, patch_args=None):
        captured = []
        real = pipeline._figure_rows

        def capture(*args):
            captured.append(args)
            return real(*args)

        monkeypatch.setattr(pipeline, "_figure_rows", capture)
        report = run_pipeline(cfg)
        args = captured[0] if patch_args is None else patch_args(captured[0])
        report = AnalysisReport(body=report.body, figures=real(*args))
        written = write_outputs(report, tmp_path / "columnar")
        got = {p.name: p.read_bytes() for p in written}
        assert got.pop("report.json") == report.to_json().encode()
        want = _per_cell_bytes(_figure_rows_per_cell(*args), tmp_path / "per_cell")
        assert sorted(got) == sorted(want) == sorted(pipeline.FIGURE_FILES)
        for name in pipeline.FIGURE_FILES:
            assert got[name] == want[name], name
        return got

    def test_bundled_data(self, dataset_path, tmp_path, monkeypatch):
        got = self._assert_same_bytes(config_for(dataset_path, tmp_path),
                                      tmp_path, monkeypatch)
        assert got["fig_trend.csv"].count(b"\n") == 68

    @pytest.mark.parametrize("estimator", ["yule_walker", "least_squares"])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_long_synthetic_inputs(self, tmp_path, monkeypatch, index, estimator):
        counts = _bench_workloads().synthetic_counts(77, index)
        p = tmp_path / "long.csv"
        write_csv(p, [f"{1700 + k // 12:04d}-{k % 12 + 1:02d},{v}"
                      for k, v in enumerate(counts.tolist())])
        self._assert_same_bytes(config_for(p, tmp_path, ar_estimator=estimator),
                                tmp_path, monkeypatch)

    def test_degenerate_histogram(self, dataset_path, tmp_path, monkeypatch):
        # Differenced integer counts cannot have a range of a few ulps, so the
        # degenerate histogram is swapped in for the bundled data's.
        hist = histogram_data(np.full(9, 1e6 / 3.0))
        assert hist.degenerate

        def swap_hist(args):
            return args[:4] + (hist,) + args[5:]

        got = self._assert_same_bytes(config_for(dataset_path, tmp_path),
                                      tmp_path, monkeypatch, swap_hist)
        assert got["fig_hist.csv"].count(b"\n") == 3  # header, 1 bar, 1 point

    def test_custom_columns(self, dataset_path, tmp_path, monkeypatch):
        with open(dataset_path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))[1:]
        p = tmp_path / "custom.csv"
        write_csv(p, [f"{count},note {i},{period}"
                      for i, (period, count) in enumerate(rows)],
                  header="count,notes,month")
        cfg = config_for(p, tmp_path, date_column="month", value_column="count")
        self._assert_same_bytes(cfg, tmp_path, monkeypatch)


class TestCli:
    def test_analyze_success(self, dataset_path, tmp_path, capsys):
        code = cli_main(["analyze", "--input", str(dataset_path),
                         "--output", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_missing_input_exit_2(self, tmp_path):
        code = cli_main(["analyze", "--input", str(tmp_path / "nope.csv"),
                         "--output", str(tmp_path / "out")])
        assert code == 2

    def test_gap_exit_2(self, tmp_path):
        p = tmp_path / "gap.csv"
        write_csv(p, ["2015-01,100", "2015-03,100"])
        code = cli_main(["analyze", "--input", str(p),
                         "--output", str(tmp_path / "out")])
        assert code == 2

    def test_constant_series_exit_3_and_no_partial_outputs(self, tmp_path):
        p = tmp_path / "const.csv"
        write_csv(p, [f"2015-{m:02d},500" for m in range(1, 13)])
        out_dir = tmp_path / "out"
        code = cli_main(["analyze", "--input", str(p),
                         "--output", str(out_dir),
                         "--aic-max-order", "3"])
        assert code == 3
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_explosive_least_squares_fit_exit_3(self, dataset_path, tmp_path):
        # On the bundled series the least-squares AIC scan picks a high order
        # whose fit has a root inside the unit circle; the parametric PSD
        # stage must refuse it rather than emit a meaningless spectrum.
        code = cli_main(["analyze", "--input", str(dataset_path),
                         "--output", str(tmp_path / "ls"),
                         "--ar-estimator", "least_squares"])
        assert code == 3

    def test_oversized_truncation_exit_2(self, tmp_path):
        p = tmp_path / "tiny.csv"
        noise = np.rint(10.0 * rng.normals(71, 12))
        write_csv(p, [f"2015-{m:02d},{100 + 3 * m + int(noise[m - 1])}"
                      for m in range(1, 13)])
        code = cli_main(["analyze", "--input", str(p),
                         "--output", str(tmp_path / "out"),
                         "--truncate-head", "11"])
        assert code == 2

    def test_simulate_ar_deterministic(self, tmp_path):
        out1 = tmp_path / "sim1.csv"
        out2 = tmp_path / "sim2.csv"
        args = ["simulate", "ar", "--phi", "0.5,0.3", "--sigma2", "1.0",
                "--n", "50", "--seed", "21"]
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert out1.read_text().splitlines()[0] == "t,value"

    def test_simulate_random_walk(self, tmp_path):
        out = tmp_path / "walk.csv"
        code = cli_main(["simulate", "random-walk", "--drift", "1.0",
                         "--sigma2", "1.0", "--n", "25", "--seed", "4",
                         "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 26

    def test_simulate_seed0_matches_reference_digest(self, tmp_path):
        # The paper's AR(11), n = 100000, seed 0: the same bytes as the
        # benchmark's reference, which pins rng.normals and the recursion's
        # floating-point order bit for bit.
        model = json.loads((BENCH_REFERENCE / "paper" / "report.json").read_text())[
            "difference"]["selected_model"]
        expected = (BENCH_REFERENCE / "simulate_seed0.sha256").read_text().split()[0]
        out = tmp_path / "seed0.csv"
        code = cli_main(["simulate", "ar",
                         "--phi=" + ",".join(repr(v) for v in model["phi"]),
                         "--sigma2", repr(model["sigma2"]), "--n", "100000",
                         "--seed", "0", "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected

    def test_simulate_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        args = ["simulate", "ar", "--phi", "0.5,0.3", "--mean", "2.0",
                "--n", "9000", "--seed", "21"]  # more than two write chunks
        assert cli_main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(args + ["--out", "-"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
        assert list(tmp_path.iterdir()) == [out]

    def test_simulate_failed_write_keeps_existing_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "sim.csv"
        out.write_text("earlier output\n")

        def failing_rows(fh, values):
            fh.write("t,value\n1,0.5\n")
            raise OSError("no space left on device")

        monkeypatch.setattr("tsakit.cli._write_rows", failing_rows)
        code = cli_main(["simulate", "ar", "--phi", "0.5", "--n", "10",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "earlier output\n"

    def test_simulate_out_directory_exit_2(self, tmp_path, capsys):
        target = tmp_path / "dir"
        target.mkdir()
        code = cli_main(["simulate", "ar", "--phi", "0.5", "--n", "10",
                         "--out", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
        assert not any(target.iterdir())

    def test_analyze_output_below_file_exit_2(self, dataset_path, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli_main(["analyze", "--input", str(dataset_path),
                         "--output", str(blocker / "sub")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_analyze_input_directory_exit_2(self, tmp_path, capsys):
        code = cli_main(["analyze", "--input", str(tmp_path),
                         "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_simulate_out_symlink_writes_through(self, tmp_path, capsys):
        args = ["simulate", "ar", "--phi", "0.5", "--n", "20", "--seed", "3"]
        assert cli_main(args) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        target = tmp_path / "target.csv"
        target.write_text("earlier output\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert cli_main(args + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_simulate_out_fifo_is_written_not_replaced(self, tmp_path, capsys):
        args = ["simulate", "ar", "--phi", "0.5", "--n", "20", "--seed", "3"]
        assert cli_main(args) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # A non-blocking reader lets the writer open the FIFO; the 20 rows fit
        # in the pipe's buffer, so no reader thread is needed.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert cli_main(args + ["--out", str(fifo)]) == 0
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received == expected
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_simulate_replacing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "sim.csv"
        out.write_text("earlier output\n")
        out.chmod(0o640)
        assert cli_main(["simulate", "ar", "--phi", "0.5", "--n", "10",
                         "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text().startswith("t,value\n")

    @pytest.mark.parametrize("n", [10, 100000])
    def test_simulate_closed_stdout_exits_quietly(self, n):
        # The reader's end is closed before the child writes anything. With
        # stdout buffered, 10 rows meet the closed pipe only at the final
        # flush; 100000 rows meet it while the rows are being written.
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from tsakit.cli import main; sys.exit(main(sys.argv[1:]))",
             "simulate", "ar", "--phi", "0.5", "--n", str(n), "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert stderr == b""

    def test_seed_env_override(self, dataset_path, tmp_path, monkeypatch):
        monkeypatch.setenv("TSA_SEED", "777")
        code = cli_main(["analyze", "--input", str(dataset_path),
                         "--output", str(tmp_path / "env")])
        assert code == 0
        body = json.loads((tmp_path / "env" / "report.json").read_text())
        assert body["decisions"]["seed"] == 777

    def test_seed_flag_beats_env(self, dataset_path, tmp_path, monkeypatch):
        monkeypatch.setenv("TSA_SEED", "777")
        code = cli_main(["analyze", "--input", str(dataset_path),
                         "--output", str(tmp_path / "flag"), "--seed", "9"])
        assert code == 0
        body = json.loads((tmp_path / "flag" / "report.json").read_text())
        assert body["decisions"]["seed"] == 9

    def test_invalid_spans_exit_2(self, dataset_path, tmp_path):
        code = cli_main(["analyze", "--input", str(dataset_path),
                         "--output", str(tmp_path / "bad"),
                         "--daniell-spans", "three"])
        assert code == 2
