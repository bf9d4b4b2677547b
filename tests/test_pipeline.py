import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tsakit import _linalg, armodel, cli, pipeline, rng
from tsakit._floattext import _float_words, _lines
from tsakit._linalg import polynomial_roots
from tsakit.cli import main as cli_main
from tsakit.errors import (ConvergenceError, DegenerateFitError,
                           DuplicateMonthError, InsufficientDataError,
                           InvalidArgumentError, MalformedRowError,
                           MissingInputError, MonthGapError, PipelineStageError,
                           TsaError)
from tsakit.pipeline import (AnalysisReport, PipelineConfig, histogram_data,
                             ingest_csv, qq_plot_data, run_pipeline,
                             write_outputs)
from tsakit.series import _month_label
from tsakit.special import norm_ppf

BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def write_csv(path: Path, rows, header="period,deaths"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def config_for(path, **overrides) -> PipelineConfig:
    return PipelineConfig(input_path=str(path), **overrides)


class TestIngest:
    def test_bundled_dataset(self, deaths_series):
        assert len(deaths_series) == 67
        assert deaths_series.start_month == 2015 * 12  # month index of 2015-01
        assert _month_label(deaths_series.start_month) == "2015-01"
        assert _month_label(deaths_series.start_month + 66) == "2020-07"

    def test_missing_file(self, tmp_path):
        cfg = config_for(tmp_path / "nope.csv")
        with pytest.raises(MissingInputError):
            ingest_csv(tmp_path / "nope.csv", cfg)

    def test_month_gap_names_missing_month(self, tmp_path):
        p = tmp_path / "gap.csv"
        write_csv(p, ["2015-01,100", "2015-03,110"])
        with pytest.raises(MonthGapError, match="2015-02"):
            ingest_csv(p, config_for(p))

    def test_duplicate_month(self, tmp_path):
        p = tmp_path / "dup.csv"
        for rows in (["2015-01,100", "2015-01,101"],
                     ["2015-01,100", "2015-02,101", "2015-01,102"]):
            write_csv(p, rows)
            with pytest.raises(DuplicateMonthError, match="2015-01") as info:
                ingest_csv(p, config_for(p))
            assert info.value.period == "2015-01"

    def test_utf8_bom_is_accepted(self, dataset_path, deaths_series, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + dataset_path.read_bytes())
        series = ingest_csv(p, config_for(p))
        assert series.start_month == deaths_series.start_month
        assert series.values.tolist() == deaths_series.values.tolist()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(InsufficientDataError):
            ingest_csv(p, config_for(p))

    def test_header_only(self, tmp_path):
        p = tmp_path / "headeronly.csv"
        p.write_text("period,deaths\n", encoding="utf-8")
        with pytest.raises(InsufficientDataError):
            ingest_csv(p, config_for(p))

    def test_malformed_value_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, ["2015-01,100", "2015-02,ten"])
        with pytest.raises(MalformedRowError, match="line 3"):
            ingest_csv(p, config_for(p))

    def test_negative_count(self, tmp_path):
        p = tmp_path / "neg.csv"
        write_csv(p, ["2015-01,-5"])
        with pytest.raises(MalformedRowError, match="non-negative"):
            ingest_csv(p, config_for(p))

    def test_bad_period_format(self, tmp_path):
        p = tmp_path / "period.csv"
        write_csv(p, ["Jan-2015,100"])
        with pytest.raises(MalformedRowError, match="line 2"):
            ingest_csv(p, config_for(p))

    def test_missing_column(self, tmp_path):
        p = tmp_path / "cols.csv"
        write_csv(p, ["2015-01,1"], header="month,count")
        with pytest.raises(MalformedRowError, match="period"):
            ingest_csv(p, config_for(p))

    def test_error_codes_are_distinct(self):
        assert MissingInputError.code != MonthGapError.code
        assert DuplicateMonthError.code != MalformedRowError.code

    def test_custom_columns(self, tmp_path):
        p = tmp_path / "custom.csv"
        write_csv(p, ["2015-01,7", "2015-02,8"], header="month,count")
        cfg = config_for(p, date_column="month", value_column="count")
        series = ingest_csv(p, cfg)
        assert series.values.tolist() == [7.0, 8.0]

    # Each label with the month index 12 * year + month - 1 and the label it
    # parses to, or with the error text it is refused with. Blanks around a
    # label are ignored, and any Unicode decimal digit counts as a digit.
    LABEL_CASES = [
        ("2015-01", (24180, "2015-01")),
        ("2015-12", (24191, "2015-12")),
        ("0001-01", (12, "0001-01")),
        ("9999-12", (119999, "9999-12")),
        (" 2015-01 ", (24180, "2015-01")),
        ("２０１５-01", (24180, "2015-01")),
        ("2015-00", "month must be in 1..12, got 0"),
        ("2015-13", "month must be in 1..12, got 13"),
        ("2015-1", "period must look like YYYY-MM, got '2015-1'"),
        ("12015-01", "period must look like YYYY-MM, got '12015-01'"),
        ("Jan-2015", "period must look like YYYY-MM, got 'Jan-2015'"),
        ("2015/01", "period must look like YYYY-MM, got '2015/01'"),
        ("20１5-01", (24180, "2015-01")),
        ("2015-0²", "period must look like YYYY-MM, got '2015-0²'"),
    ]

    @pytest.mark.parametrize("label, expected", LABEL_CASES,
                             ids=[label for label, _ in LABEL_CASES])
    def test_period_labels_follow_period_parse(self, tmp_path, label, expected):
        # The label sits on line 3, after the month before it when it parses.
        parsed = isinstance(expected, tuple)
        before = _month_label(expected[0] - 1) if parsed else "2014-12"
        p = tmp_path / "labels.csv"
        write_csv(p, [f"{before},5", f"{label},6"])
        if parsed:
            series = ingest_csv(p, config_for(p))
            assert series.start_month == expected[0] - 1
            assert [_month_label(series.start_month + t) for t in range(2)] == \
                [before, expected[1]]
            assert series.values.tolist() == [5.0, 6.0]
            return
        with pytest.raises(MalformedRowError) as info:
            ingest_csv(p, config_for(p))
        assert type(info.value) is MalformedRowError
        assert str(info.value) == f"line 3: {expected}"
        assert info.value.line_number == 3

    def test_non_adjacent_duplicate_after_100_rows(self, tmp_path):
        p = tmp_path / "dup100.csv"
        start = 2000 * 12  # month index of 2000-01
        rows = [f"{_month_label(start + k)},{100 + k}" for k in range(100)]
        assert rows[40] == "2003-05,140"
        write_csv(p, rows + ["2003-05,7"])
        with pytest.raises(DuplicateMonthError) as info:
            ingest_csv(p, config_for(p))
        assert str(info.value) == "duplicate month in input: 2003-05"
        assert info.value.period == "2003-05"

    def test_decreasing_period_reports_line(self, tmp_path):
        p = tmp_path / "decreasing.csv"
        write_csv(p, [f"2015-{m:02d},{m}" for m in range(1, 6)] + ["2014-11,9"])
        with pytest.raises(MalformedRowError) as info:
            ingest_csv(p, config_for(p))
        assert str(info.value) == \
            "line 7: periods must be increasing, got 2014-11 after 2015-05"
        assert info.value.line_number == 7

    def test_gap_after_year_boundary(self, tmp_path):
        p = tmp_path / "gap.csv"
        write_csv(p, ["2015-11,1", "2015-12,2", "2016-02,3"])
        with pytest.raises(MonthGapError) as info:
            ingest_csv(p, config_for(p))
        assert str(info.value) == "month gap in input: 2016-01 is missing"

    # A label that parses to the expected month without being its canonical
    # text, then a row that breaks the run of months.
    OFF_TEXT_LABELS = [" 2015-03", "2015-03 ", "\uff12\uff10\uff11\uff15-03"]
    BREAKS = [
        ("2015-03", DuplicateMonthError, "duplicate month in input: 2015-03", None),
        ("2015-01", DuplicateMonthError, "duplicate month in input: 2015-01", None),
        ("2015-05", MonthGapError, "month gap in input: 2015-04 is missing", None),
        ("2014-11", MalformedRowError,
         "line 6: periods must be increasing, got 2014-11 after 2015-03", 6),
    ]

    @pytest.mark.parametrize("label", OFF_TEXT_LABELS, ids=["lead", "trail", "fullwidth"])
    @pytest.mark.parametrize("after, error, text, line", BREAKS,
                             ids=["repeat", "earlier-repeat", "gap", "decrease"])
    def test_break_after_off_text_label(self, tmp_path, label, after, error, text, line):
        p = tmp_path / "break.csv"
        write_csv(p, ["2014-12,0", "2015-01,1", "2015-02,2", f"{label},3", f"{after},4"])
        with pytest.raises(error) as info:
            ingest_csv(p, config_for(p))
        assert type(info.value) is error
        assert str(info.value) == text
        assert getattr(info.value, "line_number", None) == line

    @pytest.mark.parametrize("label", OFF_TEXT_LABELS, ids=["lead", "trail", "fullwidth"])
    def test_off_text_label_continues_the_run(self, tmp_path, label):
        p = tmp_path / "run.csv"
        write_csv(p, ["2015-02,2", f"{label},3", "2015-04,4", "2015-05,5"])
        series = ingest_csv(p, config_for(p))
        assert series.start_month == 2015 * 12 + 1  # 2015-02
        assert series.values.tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_no_month_after_9999_12(self, tmp_path):
        # _month_label(9999 * 12 + 12) is "10000-01", which no label may be.
        p = tmp_path / "end.csv"
        write_csv(p, ["9999-11,1", "9999-12,2", "10000-01,3"])
        with pytest.raises(MalformedRowError) as info:
            ingest_csv(p, config_for(p))
        assert str(info.value) == "line 4: period must look like YYYY-MM, got '10000-01'"

    def test_count_too_large_to_represent(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        write_csv(p, ["2015-01,1", "2015-02," + "9" * 401])
        with pytest.raises(MalformedRowError) as info:
            ingest_csv(p, config_for(p))
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

    @pytest.mark.parametrize("count, value", [("0" * 4301 + "1", 1.0), ("0" * 4302, 0.0)],
                             ids=["zeros-then-1", "all-zeros"])
    def test_zero_padded_count_beyond_int_digit_limit(self, tmp_path, count, value):
        # int()'s digit limit counts leading zeros, which add nothing.
        p = tmp_path / "padded.csv"
        write_csv(p, ["2015-01,1", f"2015-02,{count}"])
        assert ingest_csv(p, config_for(p)).values.tolist() == [1.0, value]

    def test_zero_padded_count_with_too_many_digits(self, tmp_path):
        p = tmp_path / "padded.csv"
        write_csv(p, ["2015-01,1", "2015-02,2", "2015-03," + "0" * 5 + "7" * 4301])
        with pytest.raises(MalformedRowError) as info:
            ingest_csv(p, config_for(p))
        assert str(info.value) == "line 4: count is too large to represent"
        assert info.value.line_number == 4

    @pytest.mark.parametrize("count", ["1_000", "\u0661\u0662", "+-5", "--5", "+", "-",
                                       "5.0", "1e3", "0x1f", "\u00b2"],
                             ids=["underscore", "arabic-indic", "two-signs", "double-minus",
                                  "plus-only", "minus-only", "decimal", "exponent", "hex",
                                  "superscript"])
    def test_count_must_be_sign_and_ascii_digits(self, tmp_path, count):
        p = tmp_path / "count.csv"
        write_csv(p, ["2015-01,1", f"2015-02,{count}"])
        with pytest.raises(MalformedRowError) as info:
            ingest_csv(p, config_for(p))
        assert str(info.value) == f"line 3: count must be an integer, got {count!r}"

    @pytest.mark.parametrize("count, value", [("+5", 5.0), ("-0", 0.0), (" 7 ", 7.0),
                                              ("+0007", 7.0), ("-000", 0.0)])
    def test_signed_counts(self, tmp_path, count, value):
        p = tmp_path / "count.csv"
        write_csv(p, ["2015-01,1", f"2015-02,{count}"])
        assert ingest_csv(p, config_for(p)).values.tolist() == [1.0, value]

    @pytest.mark.parametrize("count, shown", [("-3", "-3"), ("-0003", "-3"),
                                              ("-" + "0" * 4301 + "1", "-1")],
                             ids=["plain", "zero-padded", "padded-past-digit-limit"])
    def test_negative_count_message(self, tmp_path, count, shown):
        p = tmp_path / "count.csv"
        write_csv(p, ["2015-01,1", f"2015-02,{count}"])
        with pytest.raises(MalformedRowError) as info:
            ingest_csv(p, config_for(p))
        assert str(info.value) == f"line 3: count must be non-negative, got {shown}"


def _ingest_outcome(read):
    """The series as float.hex values and start month, or the error's class,
    text and line number."""
    try:
        series = read()
    except (TsaError, ValueError) as exc:  # a bad byte is a UnicodeDecodeError
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return [v.hex() for v in series.values.tolist()], series.start_month


# Inputs in the canonical form, each with its configured columns.
CANONICAL_INPUTS = {
    "lf": (b"period,deaths\n2015-01,89004\n2015-02,50281\n", {}),
    "crlf": (b"period,deaths\r\n2015-12,1\r\n2016-01,2\r\n", {}),
    "mixed-ends": (b"period,deaths\r\n2015-11,1\n2015-12,2\r\n2016-01,3\n", {}),
    "no-final-newline": (b"period,deaths\n2015-01,7\n2015-02,8", {}),
    "one-row": (b"period,deaths\n2015-01,7\n", {}),
    "zeros-and-15-digits": (b"period,deaths\n2015-01,0\n2015-02,000000000000042\n"
                            b"2015-03,999999999999999\n2015-04,123456789012345\n", {}),
    "year-0": (b"period,deaths\n0000-01,1\n0000-02,2\n", {}),
    "ends-at-9999-12": (b"period,deaths\n9999-11,1\n9999-12,2\n", {}),
    "millennium-wrap": (b"period,deaths\n0999-11,1\n0999-12,2\n1000-01,3\n", {}),
    "custom-columns": (b"month,count\n2015-01,7\n2015-02,8\n",
                       {"date_column": "month", "value_column": "count"}),
}

# Inputs outside the canonical form, valid or not: the row-by-row reading
# gives each one's series or error.
DECLINED_INPUTS = {
    "cr-only": b"period,deaths\r2015-01,1\r2015-02,2\r",
    "bom": b"\xef\xbb\xbfperiod,deaths\n2015-01,1\n2015-02,2\n",
    "blank-line": b"period,deaths\n2015-01,1\n\n2015-02,2\n",
    "trailing-blank-line": b"period,deaths\n2015-01,1\n2015-02,2\n\n",
    "blank-cells-line": b"period,deaths\n2015-01,1\n,\n2015-02,2\n",
    "quoted-label": b'period,deaths\n"2015-01",1\n2015-02,2\n',
    "quoted-count": b'period,deaths\n2015-01,"1"\n2015-02,2\n',
    "padded-label": b"period,deaths\n2015-01,1\n 2015-02,2\n",
    "padded-count": b"period,deaths\n2015-01,1\n2015-02, 2\n",
    "fullwidth-label": "period,deaths\n2015-01,1\n\uff12\uff10\uff11\uff15-02,2\n".encode(),
    "plus-count": b"period,deaths\n2015-01,+5\n2015-02,2\n",
    "minus-zero-count": b"period,deaths\n2015-01,-0\n2015-02,2\n",
    "16-digit-count": b"period,deaths\n2015-01,1234567890123456\n2015-02,2\n",
    "20-digit-count": b"period,deaths\n2015-01,12345678901234567891\n2015-02,2\n",
    "reordered-columns": b"deaths,period\n1,2015-01\n2,2015-02\n",
    "extra-column": b"period,deaths,note\n2015-01,1,a\n2015-02,2,b\n",
    "padded-header": b" period,deaths\n2015-01,1\n2015-02,2\n",
    "header-only": b"period,deaths\n",
    "empty": b"",
    "month-13": b"period,deaths\n2015-13,1\n2016-01,2\n",
    "month-13-later": b"period,deaths\n2015-12,1\n2015-13,2\n",
    "month-00": b"period,deaths\n2015-00,1\n2015-01,2\n",
    "month-00-later": b"period,deaths\n2015-01,1\n2015-00,2\n",
    "0000-00": b"period,deaths\n0000-00,1\n0000-01,2\n",
    "gap": b"period,deaths\n2015-01,1\n2015-03,2\n",
    "repeat": b"period,deaths\n2015-01,1\n2015-01,2\n",
    "decrease": b"period,deaths\n2015-02,1\n2015-01,2\n",
    "decrease-over-year": b"period,deaths\n2016-01,1\n2015-12,2\n",
    "past-9999-12": b"period,deaths\n9999-12,1\n10000-01,2\n",
    "wrap-after-9999-12": b"period,deaths\n9999-11,3\n9999-12,1\n0000-01,2\n",
    "short-year": b"period,deaths\n2015-01,1\n215-02,2\n",
    "negative-count": b"period,deaths\n2015-01,1\n2015-02,-2\n",
    "bad-utf8": b"period,deaths\n2015-01,1\n2015-02,\xff\n",
}

# The error of each declined input whose labels are canonical in form but not
# a run of valid months, as the row-by-row reading reports it.
LABEL_ERRORS = {
    "month-13": (MalformedRowError, "line 2: month must be in 1..12, got 13", 2),
    "month-13-later": (MalformedRowError, "line 3: month must be in 1..12, got 13", 3),
    "month-00": (MalformedRowError, "line 2: month must be in 1..12, got 0", 2),
    "month-00-later": (MalformedRowError, "line 3: month must be in 1..12, got 0", 3),
    "0000-00": (MalformedRowError, "line 2: month must be in 1..12, got 0", 2),
    "gap": (MonthGapError, "month gap in input: 2015-02 is missing", None),
    "repeat": (DuplicateMonthError, "duplicate month in input: 2015-01", None),
    "decrease": (MalformedRowError,
                 "line 3: periods must be increasing, got 2015-01 after 2015-02", 3),
    "decrease-over-year": (MalformedRowError,
                           "line 3: periods must be increasing, got 2015-12 after 2016-01", 3),
    "wrap-after-9999-12": (MalformedRowError,
                           "line 4: periods must be increasing, got 0000-01 after 9999-12", 4),
}


class TestBulkIngest:
    """The bulk pass over a canonical input and the row-by-row reading give
    the same series; on any other input the bulk pass declines, and the
    row-by-row reading gives the series or the error."""

    @staticmethod
    def _both(tmp_path, data, **columns):
        p = tmp_path / "in.csv"
        p.write_bytes(data)
        cfg = config_for(p, **columns)
        return (pipeline._ingest_canonical(data, cfg),
                _ingest_outcome(lambda: pipeline._ingest_rows(p, data, cfg)),
                _ingest_outcome(lambda: ingest_csv(p, cfg)))

    @pytest.mark.parametrize("name", sorted(CANONICAL_INPUTS))
    def test_canonical_input_gives_the_rows_series(self, tmp_path, name):
        data, columns = CANONICAL_INPUTS[name]
        bulk, rows, ingested = self._both(tmp_path, data, **columns)
        assert bulk is not None
        assert _ingest_outcome(lambda: bulk) == rows == ingested
        assert isinstance(rows[0], list)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_canonical_inputs(self, tmp_path, seed):
        draw = np.random.default_rng(seed)
        n = int(draw.integers(1, 300))
        start = int(draw.integers(0, 9999 * 12 + 12 - n))
        counts = [str(int(draw.integers(0, 10 ** int(draw.integers(1, 16)))))
                  .zfill(int(draw.integers(1, 4))) for _ in range(n)]
        ends = draw.choice(["\n", "\r\n"], n).tolist()
        if draw.random() < 0.3:
            ends[-1] = ""
        data = "period,deaths\n" + "".join(
            f"{_month_label(start + k)},{count}{end}"
            for k, (count, end) in enumerate(zip(counts, ends)))
        bulk, rows, ingested = self._both(tmp_path, data.encode())
        assert bulk is not None
        assert _ingest_outcome(lambda: bulk) == rows == ingested

    @pytest.mark.parametrize("name", sorted(DECLINED_INPUTS))
    def test_other_input_is_declined(self, tmp_path, name):
        bulk, rows, ingested = self._both(tmp_path, DECLINED_INPUTS[name])
        assert bulk is None
        assert ingested == rows
        assert rows == LABEL_ERRORS.get(name, rows)

    def test_wrap_after_9999_12_is_a_decrease(self, tmp_path):
        # Canonical in form, but the month after 9999-12 has a five-digit
        # year, so the bulk pass's label comparison declines the run.
        bulk, rows, ingested = self._both(tmp_path, DECLINED_INPUTS["wrap-after-9999-12"])
        assert bulk is None
        assert rows == ingested == (
            MalformedRowError,
            "line 4: periods must be increasing, got 0000-01 after 9999-12", 4)

    @pytest.mark.parametrize("date_column, value_column",
                             [("deaths", "period"), ("period", "period"),
                              ("period", "count"), (" period", "deaths"),
                              ("period", 5)])
    def test_other_columns_are_declined(self, tmp_path, date_column, value_column):
        bulk, rows, ingested = self._both(
            tmp_path, b"period,deaths\n2015-01,1\n2015-02,2\n",
            date_column=date_column, value_column=value_column)
        assert bulk is None
        assert ingested == rows

    def test_bundled_and_benchmark_inputs_take_the_bulk_pass(
            self, tmp_path, dataset_path, bench_workloads):
        p = tmp_path / "long.csv"
        bench_workloads._write_counts(p, bench_workloads.synthetic_counts(77, 0))
        for path in (dataset_path, p):
            data = path.read_bytes()
            cfg = config_for(path)
            bulk = pipeline._ingest_canonical(data, cfg)
            assert bulk is not None
            assert _ingest_outcome(lambda: bulk) == \
                _ingest_outcome(lambda: pipeline._ingest_rows(path, data, cfg))
        assert len(bulk) == 4000


def _qq_pairs(x):
    """qq_plot_data(x) as (theoretical quantile, order statistic) pairs."""
    qq = qq_plot_data(x)
    return list(zip(qq.theoretical.tolist(), np.asarray(x, dtype=float)[qq.order].tolist()))


class TestQqPlotData:
    def test_three_point_plotting_positions(self):
        pairs = _qq_pairs([5.0, 1.0, 3.0])
        positions = [0.5 * math.erfc(-q / math.sqrt(2)) for q, _ in pairs]
        assert positions == pytest.approx([0.19231, 0.5, 0.80769], abs=1e-5)
        assert [s for _, s in pairs] == [1.0, 3.0, 5.0]

    def test_normal_scores_are_collinear(self):
        n = 40
        scores = [norm_ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
        pairs = _qq_pairs(scores)
        theo = np.array([t for t, _ in pairs])
        samp = np.array([s for _, s in pairs])
        assert np.corrcoef(theo, samp)[0, 1] > 0.9999

    def test_symmetry_under_negation(self):
        x = rng.normals(50, 31)
        x = np.concatenate((x, -x))  # force exact symmetry
        pairs = _qq_pairs(x)
        flipped = [(-t, -s) for t, s in reversed(pairs)]
        for (t1, s1), (t2, s2) in zip(pairs, flipped):
            assert t1 == pytest.approx(t2, abs=1e-9)
            assert s1 == pytest.approx(s2, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            qq_plot_data([1.0, 2.0])

    @pytest.mark.parametrize("n", [3, 67, 4000])
    def test_quantiles_match_scalar_norm_ppf(self, n):
        pairs = _qq_pairs(np.arange(n, dtype=float))
        scalar = [norm_ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
        assert [t for t, _ in pairs] == pytest.approx(scalar, rel=1e-15, abs=0.0)

    def test_signed_zeros_keep_their_input_order(self):
        x = np.array([0.0, 2.0, -0.0, -1.0, 0.0, -0.0])
        qq = qq_plot_data(x)
        assert qq.order.tolist() == [3, 0, 2, 4, 5, 1]
        assert list(map(repr, x[qq.order].tolist())) == \
            ["-1.0", "0.0", "-0.0", "0.0", "-0.0", "2.0"]


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
        assert hist.bin_edges.tolist() == [2.5, 3.5]
        assert hist.counts.tolist() == [3]

    def test_tiny_magnitude_range_is_binned(self):
        # The degenerate-range test is relative to the data's own magnitude,
        # so a spread of 4e-17 is binned like any other.
        hist = histogram_data([1e-17, 2e-17, 3e-17, 5e-17])
        assert hist.counts.tolist() == [2, 1, 1]
        assert hist.bin_edges.tolist() == np.linspace(1e-17, 5e-17, 4).tolist()
        assert hist.overlay_density.max() > 0.0
        for value in (0.0, 7.0):
            hist = histogram_data([value] * 4)
            assert hist.bin_edges.tolist() == [value - 0.5, value + 0.5]
            assert hist.counts.tolist() == [4]

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

    def test_non_integer_truncate_head_rejected(self, dataset_path):
        for value in (2.5, True):  # operator.index would take True as 1
            with pytest.raises(InvalidArgumentError, match="truncate_head must be an integer"):
                config_for(dataset_path, truncate_head=value)

    def test_non_integer_aic_max_order_rejected(self, dataset_path):
        # Refused by name when the config is made, before any stage runs.
        for value in (12.9, "x", True):
            with pytest.raises(InvalidArgumentError,
                               match=f"aic_max_order must be an integer, got {value!r}"):
                config_for(dataset_path, aic_max_order=value)
        with pytest.raises(InvalidArgumentError, match="aic_max_order must be >= 1, got 0"):
            config_for(dataset_path, aic_max_order=0)

    # Refused by name when the config is made, before any stage runs.
    STAGE_SETTINGS = {
        "kpss_lag-3.5": ("kpss_lag", 3.5, "kpss_lag must be an integer, got 3.5"),
        "kpss_lag-True": ("kpss_lag", True, "kpss_lag must be an integer, got True"),
        "kpss_lag--1": ("kpss_lag", -1, "kpss_lag must be >= 0, got -1"),
        "daniell_spans-3.9": ("daniell_spans", (3.9, 3.2), "span must be an integer, got 3.9"),
        "daniell_spans-True": ("daniell_spans", (True, 3), "span must be an integer, got True"),
        "daniell_spans-4": ("daniell_spans", (4,), "span must be an odd integer >= 3, got 4"),
        "daniell_spans-none": ("daniell_spans", (), "at least one Daniell span is required"),
        "daniell_spans-int": ("daniell_spans", 3, "daniell_spans must be a sequence of spans, got 3"),
        "ar_estimator-ols": ("ar_estimator", "ols", "ar_estimator must be one of "
                             "('yule_walker', 'least_squares'), got 'ols'"),
    }

    @pytest.mark.parametrize("case", sorted(STAGE_SETTINGS))
    def test_setting_refused_at_config(self, dataset_path, case):
        setting, value, message = self.STAGE_SETTINGS[case]
        with pytest.raises(InvalidArgumentError) as info:
            config_for(dataset_path, **{setting: value})
        assert str(info.value) == message

    def test_daniell_spans_list_is_stored_as_a_tuple(self, dataset_path):
        as_list = config_for(dataset_path, daniell_spans=[5, 3])
        as_tuple = config_for(dataset_path, daniell_spans=(5, 3))
        assert as_list.daniell_spans == (5, 3)
        assert as_list == as_tuple and hash(as_list) == hash(as_tuple)

    def test_kpss_lag_past_the_series_fails_at_its_stage(self, dataset_path):
        # The bound depends on N, 64 after differencing, so its stage checks it.
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(config_for(dataset_path, kpss_lag=64))
        assert info.value.stage == "stationarity-test"
        assert str(info.value.cause) == \
            "truncation lag must satisfy 0 <= lag < N, got 64 with N=64"

    def test_numpy_integer_settings_accepted(self, dataset_path):
        settings = dict(truncate_head=2, aic_max_order=18, kpss_lag=3, daniell_spans=(3, 3))
        report = run_pipeline(config_for(dataset_path, **settings))
        numpy_settings = {key: (tuple(map(np.int64, value)) if isinstance(value, tuple)
                                else np.int64(value)) for key, value in settings.items()}
        assert run_pipeline(config_for(dataset_path, **numpy_settings)).to_json() == report.to_json()
        assert report.body["decisions"]["daniell_spans"] == [3, 3]

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
        ("identification", "armodel.autocovariance"),
        ("estimation", "characteristic_roots"),
        ("spectral", "ar_psd"),
        ("sacf", "sample_acf"),
        ("figure-data", "histogram_data"),
    ])
    def test_failing_stage_is_named(self, default_config, tmp_path, monkeypatch,
                                    capsys, stage, function):
        def failing(*args, **kwargs):
            raise DegenerateFitError(f"{function} failed")

        # A bare name is the pipeline's own; a dotted one is a module's.
        monkeypatch.setattr("tsakit." + (function if "." in function
                                         else "pipeline." + function), failing)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(default_config)
        assert info.value.stage == stage
        assert isinstance(info.value.cause, DegenerateFitError)
        code = cli_main(["analyze", "--input", default_config.input_path,
                         "--output", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: stage '{stage}' failed: {function} failed\n")

    def test_least_squares_run_factors_once(self, tmp_path, monkeypatch, bench_workloads):
        # The AIC scan's one factorization gives the model too: nothing is
        # refitted on a full-rank input.
        counts = bench_workloads.synthetic_counts(77, 0)
        p = tmp_path / "long.csv"
        write_csv(p, [f"{_month_label(1700 * 12 + k)},{v}"
                      for k, v in enumerate(counts.tolist())])
        calls = []

        def count(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        for module in (armodel, _linalg):
            count(module, "householder_triangularize")
        report = run_pipeline(config_for(p, ar_estimator="least_squares"))
        assert calls == ["householder_triangularize"]
        model = report.body["difference"]["selected_model"]
        assert model["estimation_method"] == "least_squares"
        assert model["order"] == 36
        assert model["sigma2"] == report.body["difference"]["aic"]["rows"][36]["sigma2"]

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
        cfg = config_for(p, truncate_head=3, aic_max_order=6)
        report = run_pipeline(cfg)
        assert report.body["difference"]["length"] == n - 3 - 1
        series_rows = [r for r in csv.reader(
                           report.figures["fig_diff_sacf.csv"].decode().splitlines())
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
        report = run_pipeline(config_for(p, aic_max_order=10))
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
            run_pipeline(config_for(p, aic_max_order=3))
        assert exc_info.value.stage == "residual-diagnostics"

    def test_determinism_byte_identical(self, dataset_path):
        r1 = run_pipeline(config_for(dataset_path))
        r2 = run_pipeline(config_for(dataset_path))
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
        report = run_pipeline(config_for(p))
        assert report.body["decisions"]["aic_max_order"] <= 6

    def test_report_round_trips(self, default_config):
        report = run_pipeline(default_config)
        text = report.to_json()
        reparsed = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert reparsed == text

    def test_written_outputs(self, dataset_path, tmp_path):
        out = tmp_path / "out"
        written = write_outputs(run_pipeline(config_for(dataset_path)), out)
        names = sorted(p.name for p in written)
        assert names == sorted(["report.json", "fig_trend.csv",
                                "fig_residuals.csv", "fig_qq.csv",
                                "fig_diff_sacf.csv", "fig_hist.csv",
                                "fig_spectrum_np.csv", "fig_spectrum_ar.csv"])
        trend = (out / "fig_trend.csv").read_text().splitlines()
        assert trend[0] == "period,t,observed,fitted"
        assert len(trend) == 68
        spectrum = (out / "fig_spectrum_np.csv").read_text().splitlines()
        assert spectrum[0] == "frequency,raw_power,smoothed_power"
        assert len(spectrum) == 34  # 33 ordinates for a 64-point transform

    def test_report_hashes_the_bytes_it_parsed(self, dataset_path, tmp_path,
                                               monkeypatch):
        original = Path(dataset_path).read_bytes()
        p = tmp_path / "input.csv"
        p.write_bytes(original)
        real_fit = pipeline.fit_linear_trend

        def rewrite_then_fit(x):  # the input changes after it was ingested
            p.write_bytes(original + b"2020-08,100000\n")
            return real_fit(x)

        monkeypatch.setattr(pipeline, "fit_linear_trend", rewrite_then_fit)
        dataset = run_pipeline(config_for(p)).body["dataset"]
        assert dataset["sha256"] == hashlib.sha256(original).hexdigest()
        assert dataset["row_count"] == 67

    def test_failed_write_leaves_directory_unchanged(self, dataset_path,
                                                     tmp_path, monkeypatch):
        out = tmp_path / "out"
        write_outputs(run_pipeline(config_for(dataset_path)), out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        report = run_pipeline(config_for(dataset_path, truncate_head=3))

        real_staged_files = pipeline.staged_files
        staged = []

        def failing_write(text):
            raise OSError("no space left on device")

        @contextlib.contextmanager
        def failing_staged_files():
            with real_staged_files() as open_staged:
                def open_failing(path):
                    fh = open_staged(path)
                    staged.append(path.name)
                    if len(staged) == 6:  # report.json, then the fifth figure CSV
                        fh.write = failing_write
                    return fh
                yield open_failing

        monkeypatch.setattr(pipeline, "staged_files", failing_staged_files)
        with pytest.raises(OSError, match="no space"):
            write_outputs(report, out)
        assert staged == ["report.json", *pipeline.FIGURE_FILES[:5]]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _figure_rows_per_cell(x, fit, centered, acf, hist, qq, raw_spec,
                          smooth_spec, ar_spec) -> dict:
    """Figure rows built one cell at a time, numpy scalars left in place."""
    figures = {}
    rows = [("period", "t", "observed", "fitted")]
    for i in range(len(x)):
        rows.append((_month_label(x.start_month + i), i + 1, x.values[i],
                     fit.fitted.values[i]))
    figures["fig_trend.csv"] = rows
    rows = [("t", "fitted", "residual")]
    for i in range(len(x)):
        rows.append((i + 1, fit.fitted.values[i], fit.residuals.values[i]))
    figures["fig_residuals.csv"] = rows
    figures["fig_qq.csv"] = [("theoretical_quantile", "sample_quantile")] + list(
        zip(qq.theoretical.tolist(), sorted(fit.residuals.values.tolist())))
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
            # csv.writer quotes no cell of its own parse: none needed quoting.
            text = report.figures[name].decode()
            rewritten = io.StringIO()
            csv.writer(rewritten).writerows(csv.reader(io.StringIO(text, newline="")))
            assert rewritten.getvalue() == text, name
        return got

    def test_bundled_data(self, dataset_path, tmp_path, monkeypatch):
        got = self._assert_same_bytes(config_for(dataset_path),
                                      tmp_path, monkeypatch)
        assert got["fig_trend.csv"].count(b"\n") == 68

    @pytest.mark.parametrize("estimator", ["yule_walker", "least_squares"])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_long_synthetic_inputs(self, tmp_path, monkeypatch, bench_workloads,
                                   index, estimator):
        counts = bench_workloads.synthetic_counts(77, index)
        p = tmp_path / "long.csv"
        write_csv(p, [f"{1700 + k // 12:04d}-{k % 12 + 1:02d},{v}"
                      for k, v in enumerate(counts.tolist())])
        self._assert_same_bytes(config_for(p, ar_estimator=estimator),
                                tmp_path, monkeypatch)

    def test_degenerate_histogram(self, dataset_path, tmp_path, monkeypatch):
        # Differenced integer counts cannot have a range of a few ulps, so the
        # degenerate histogram is swapped in for the bundled data's.
        hist = histogram_data(np.full(9, 1e6 / 3.0))
        assert hist.bin_edges.tolist() == [1e6 / 3.0 - 0.5, 1e6 / 3.0 + 0.5]
        assert hist.counts.tolist() == [9]

        def swap_hist(args):
            return args[:4] + (hist,) + args[5:]

        got = self._assert_same_bytes(config_for(dataset_path),
                                      tmp_path, monkeypatch, swap_hist)
        assert got["fig_hist.csv"].count(b"\n") == 3  # header, 1 bar, 1 point

    def test_signed_zero_residuals(self, dataset_path, tmp_path, monkeypatch):
        # Residuals that compare equal keep their order in fig_qq's sample
        # column, each written as its own text in fig_residuals and fig_qq.
        signs = []

        def swap_residuals(args):
            fit = args[1]
            values = fit.residuals.values.copy()
            values[::5] = 0.0
            values[2::5] = -0.0
            signs.extend(repr(v) for v in values.tolist() if v == 0.0)
            fit = dataclasses.replace(fit, residuals=fit.residuals.with_values(values))
            return args[:1] + (fit,) + args[2:5] + (qq_plot_data(values),) + args[6:]

        got = self._assert_same_bytes(config_for(dataset_path),
                                      tmp_path, monkeypatch, swap_residuals)
        assert signs.count("-0.0") == 13 and signs.count("0.0") == 14
        qq_rows = got["fig_qq.csv"].decode().split("\r\n")[1:-1]
        zeros = [row.split(",")[1] for row in qq_rows if float(row.split(",")[1]) == 0.0]
        assert zeros == signs

    def test_custom_columns(self, dataset_path, tmp_path, monkeypatch):
        with open(dataset_path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))[1:]
        p = tmp_path / "custom.csv"
        write_csv(p, [f"{count},note {i},{period}"
                      for i, (period, count) in enumerate(rows)],
                  header="count,notes,month")
        cfg = config_for(p, date_column="month", value_column="count")
        self._assert_same_bytes(cfg, tmp_path, monkeypatch)


def test_np_scalar_text_equals_numpy_scalar_repr():
    """The figure columns written as numpy scalars are the float text
    kernel's repr inside numpy's wrapper; they must read as numpy's own repr
    of each scalar."""
    draws = np.frombuffer(np.random.default_rng(7).bytes(8 * 101_000), dtype=np.float64)
    finite = draws[np.isfinite(draws)]
    assert finite.size >= 100_000
    info = np.finfo(np.float64)
    edges = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
             np.nextafter(info.tiny, 0.0), info.tiny, info.max, -info.max]
    for pivot in (1e-4, 1e16):  # where repr switches to exponent notation
        for start, toward in ((pivot, 0.0), (pivot, np.inf)):
            v = start
            for _ in range(8):
                edges += [v, -v]
                v = np.nextafter(v, toward)
    values = np.concatenate([finite, np.array(edges)])
    text = _lines([pipeline._np_scalar(_float_words(values))], b"\n")
    assert text.split(b"\n")[:-1] == [repr(v).encode() for v in values]


class TestCli:
    def test_analyze_success(self, dataset_path, tmp_path, capsys):
        code = cli_main(["analyze", "--input", str(dataset_path),
                         "--output", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()

    # On the bundled data Yule-Walker selects AR(11) inside the scan at
    # K = 18 and 12 and at its bound K = 11; least squares selects AR(4)
    # inside the scan at K = 5 and at its bound K = 4. A run at its bound
    # adds one stderr note; stdout is the written paths either way.
    @pytest.mark.parametrize("flags, note", [
        ([], ""),
        (["--aic-max-order", "12"], ""),
        (["--aic-max-order", "11"], "note: AIC selected the scan's bound K=11; "
                                    "--aic-max-order raises it\n"),
        (["--ar-estimator", "least_squares", "--aic-max-order", "5"], ""),
        (["--ar-estimator", "least_squares", "--aic-max-order", "4"],
         "note: AIC selected the scan's bound K=4; --aic-max-order raises it\n"),
    ], ids=["default", "below-bound", "at-bound", "least-squares-below-bound",
            "least-squares-at-bound"])
    def test_aic_at_the_scan_bound_prints_one_note(self, dataset_path, tmp_path, capsys,
                                                   flags, note):
        out = tmp_path / "out"
        assert cli_main(["analyze", "--input", str(dataset_path), "--output", str(out),
                         *flags]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["difference"]["aic"]["selected_order"] ==
                report["decisions"]["aic_max_order"]) == bool(note)
        written = [out / name for name in ("report.json", *pipeline.FIGURE_FILES)]
        assert capsys.readouterr() == ("".join(f"{p}\n" for p in written), note)

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

    def test_explosive_least_squares_fit_exit_3(self, dataset_path, tmp_path, capsys):
        # On the bundled series the least-squares AIC scan picks order 18,
        # whose fit has a root of modulus 0.974, inside the unit circle; the
        # parametric PSD stage must refuse it rather than emit a meaningless
        # spectrum.
        out_dir = tmp_path / "ls"
        code = cli_main(["analyze", "--input", str(dataset_path),
                         "--output", str(out_dir),
                         "--ar-estimator", "least_squares"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: stage 'spectral' failed: ar_psd requires a stationary model\n")
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_least_squares_report_independent_of_blas_threads(self, tmp_path,
                                                              bench_workloads):
        # The Householder steps run BLAS matrix-vector products; the report
        # must not depend on how many threads BLAS splits them over.
        counts = bench_workloads.synthetic_counts(77, 0)
        p = tmp_path / "long.csv"
        write_csv(p, [f"{1700 + k // 12:04d}-{k % 12 + 1:02d},{v}"
                      for k, v in enumerate(counts.tolist())])
        reports = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=str(SRC_DIR), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from tsakit.cli import main; sys.exit(main(sys.argv[1:]))",
                 "analyze", "--input", str(p), "--output", str(out_dir),
                 "--ar-estimator", "least_squares"],
                capture_output=True, env=env, timeout=120)
            # AIC selects the scan's bound, K = 36, on this input.
            assert (proc.returncode, proc.stderr) == (
                0, b"note: AIC selected the scan's bound K=36; --aic-max-order raises it\n")
            reports.append((out_dir / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_oversized_truncation_exit_2(self, tmp_path):
        p = tmp_path / "tiny.csv"
        noise = np.rint(10.0 * rng.normals(71, 12))
        write_csv(p, [f"2015-{m:02d},{100 + 3 * m + int(noise[m - 1])}"
                      for m in range(1, 13)])
        code = cli_main(["analyze", "--input", str(p),
                         "--output", str(tmp_path / "out"),
                         "--truncate-head", "11"])
        assert code == 2

    def test_record_longer_than_5000_months_exit_2(self, tmp_path, capsys):
        # Shapiro-Wilk, run on the trend residuals, supports n <= 5000.
        p = tmp_path / "long.csv"
        noise = np.rint(10.0 * rng.normals(72, 5001)).astype(int)
        write_csv(p, [f"{1600 + k // 12:04d}-{k % 12 + 1:02d},{1000 + v}"
                      for k, v in enumerate(noise.tolist())])
        code = cli_main(["analyze", "--input", str(p),
                         "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: stage 'residual-diagnostics' failed: Shapiro-Wilk supports "
            "sample sizes 3..5000, got 5001\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, message", [
        (["random-walk", "--sigma2", "nan"], "innovation variance must be finite, got nan"),
        (["random-walk", "--sigma2", "inf"], "innovation variance must be finite, got inf"),
        (["random-walk", "--drift", "nan"], "drift must be finite, got nan"),
        (["random-walk", "--y0", "inf"], "y0 must be finite, got inf"),
        (["ar", "--phi", "0.5", "--mean", "nan"], "mean must be finite, got nan"),
    ])
    def test_simulate_non_finite_parameter_exit_2(self, tmp_path, capsys, args, message):
        out = tmp_path / "sim.csv"
        code = cli_main(["simulate", *args, "--n", "10", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    def test_simulate_stdout_matches_reference_digest(self, capsys):
        # The same seed-0 bytes as the file test above, streamed to stdout.
        model = json.loads((BENCH_REFERENCE / "paper" / "report.json").read_text())[
            "difference"]["selected_model"]
        expected = (BENCH_REFERENCE / "simulate_seed0.sha256").read_text().split()[0]
        code = cli_main(["simulate", "ar",
                         "--phi=" + ",".join(repr(v) for v in model["phi"]),
                         "--sigma2", repr(model["sigma2"]), "--n", "100000",
                         "--seed", "0", "--out", "-"])
        assert code == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == expected

    def test_simulate_memory_does_not_grow_with_n(self, tmp_path):
        # The series is made and written a chunk at a time, so the traced
        # peak at n = 200000 is that of n = 20000 (a whole-array writer
        # held about 9 MiB at n = 200000).
        def peak(n):
            tracemalloc.start()
            try:
                assert cli_main(["simulate", "ar", "--phi", "0.5,-0.2", "--seed", "1",
                                 "--n", str(n), "--out", str(tmp_path / "sim.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # the parser is built once per process
        small, large = peak(20_000), peak(200_000)
        assert large < 2 * 2**20
        assert large - small < 0.5 * 2**20

    # A check that fails on the first chunk fails before any byte is written.
    @pytest.mark.parametrize("args, message", [
        (["ar", "--phi", "1.0", "--n", "10"],
         "simulate_ar requires a stationary model; integrate a stationary "
         "simulation instead for unit-root processes"),
        (["ar", "--phi", "0.5", "--n", "0"], "n must be >= 1, got 0"),
        (["ar", "--phi", "0.5", "--n", "10", "--burn-in", "-1"], "burn_in must be >= 0, got -1"),
        (["random-walk", "--n", "0"], "n must be >= 1, got 0"),
    ])
    def test_simulate_argument_error_writes_nothing(self, capsys, args, message):
        assert cli_main(["simulate", *args, "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    # An overflowing walk is reported by one error line and no numpy warning
    # (which the suite would raise).
    def test_simulate_walk_overflowing_in_first_chunk_writes_nothing(self, capsys):
        code = cli_main(["simulate", "random-walk", "--drift", "1e308", "--n", "10",
                         "--out", "-"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: TimeSeries values must all be finite\n")

    def test_simulate_walk_overflowing_sum_is_one_error_line(self, capsys):
        # y0 + drift overflows in the addition, drift * t from t = 2 in the product.
        code = cli_main(["simulate", "random-walk", "--drift", "1e308", "--y0", "1.7e308",
                         "--n", "3"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: TimeSeries values must all be finite\n")

    def test_simulate_walk_overflowing_in_later_chunk(self, tmp_path, capsys):
        # drift * t first overflows at t = 4495, in the second chunk: stdout
        # keeps the first chunk's rows, while a FILE is left as it was.
        walk = ["simulate", "random-walk", "--drift", "4e304"]
        assert cli_main([*walk, "--n", "4096"]) == 0
        first_chunk = capsys.readouterr().out
        assert first_chunk.count("\n") == 1 + 4096
        assert cli_main([*walk, "--n", "5000", "--out", "-"]) == 2
        assert capsys.readouterr() == (
            first_chunk, "error: TimeSeries values must all be finite\n")

        out = tmp_path / "walk.csv"
        out.write_text("earlier output\n")
        assert cli_main([*walk, "--n", "5000", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: TimeSeries values must all be finite\n")
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "earlier output\n"

    def test_simulate_failed_write_keeps_existing_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "sim.csv"
        out.write_text("earlier output\n")

        def failing_rows(fh, values):
            fh.write(b"t,value\n1,0.5\n")
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

    def test_analyze_defaults_are_pipeline_config_defaults(self, monkeypatch):
        # A left-out flag stays unset, so PipelineConfig's field defaults are
        # the only copy of each analyze default; a given flag reaches its field.
        captured = []
        report = AnalysisReport(body={"decisions": {"aic_max_order": 2},
                                      "difference": {"aic": {"selected_order": 1}}},
                                figures={})

        def run(config):
            captured.append(config)
            return report

        monkeypatch.setattr(cli, "run_pipeline", run)
        monkeypatch.setattr(cli, "write_outputs", lambda report, out: [])
        required = ["analyze", "--input", "in.csv", "--output", "out"]
        assert cli_main(required) == 0
        assert captured[-1] == PipelineConfig(input_path="in.csv")

        given = {"date_column": "month", "value_column": "count",
                 "aic_max_order": 7, "ar_estimator": "least_squares",
                 "daniell_spans": (5,), "kpss_lag": 3, "truncate_head": 0}
        assert cli_main(required + [
            "--date-column", "month", "--value-column", "count",
            "--aic-max-order", "7", "--ar-estimator", "least_squares",
            "--daniell-spans", "5", "--kpss-lag", "3", "--truncate-head", "0"]) == 0
        assert captured[-1] == PipelineConfig(input_path="in.csv", **given)
        defaults = {f.name: f.default for f in dataclasses.fields(PipelineConfig)[1:]}
        assert defaults.keys() == given.keys()
        assert [name for name in given if given[name] == defaults[name]] == []

        analyze = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices["analyze"]
        optional = {action.dest: action.default for action in analyze._actions
                    if not action.required and action.dest != "help"}
        assert optional == dict.fromkeys(given, argparse.SUPPRESS)

        # main reuses one parser; a flag given to one call is not carried
        # into the next.
        assert cli_main(required) == 0
        assert captured[-1] == PipelineConfig(input_path="in.csv")

    def test_main_builds_its_parser_once_and_not_at_import(self):
        code = ("import tsakit.cli as cli; "
                "assert cli._parser.cache_info().currsize == 0; "
                "cli.main(['simulate', 'ar', '--phi', '0.5', '--n', '2', '--out', '-']); "
                "first = cli._parser(); "
                "cli.main(['simulate', 'random-walk', '--n', '2']); "
                "assert cli._parser() is first and cli.build_parser() is not first")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC_DIR)), timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("args", [
        ["analyze", "--input", "in.csv", "--output", "out", "--kpss-lag", "2.5"],
        ["analyze", "--input", "in.csv", "--output", "out", "--aic-max-order", "x"],
        ["simulate", "ar", "--phi", "0.5", "--n", "10", "--seed", "1.5"],
        ["simulate", "random-walk", "--n", "10", "--seed", "x"],
        ["simulate", "ar", "--n", "10", "--phi", "0.5,y"],
    ], ids=["kpss-lag", "aic-max-order", "ar-seed", "random-walk-seed", "phi"])
    def test_malformed_numeric_flag_is_an_argparse_error(self, capsys, args):
        flag, value = args[-2:]
        with pytest.raises(SystemExit) as info:
            cli_main(args)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: " in err
        assert repr(value) in err

    def test_invalid_spans_exit_2(self, dataset_path, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli_main(["analyze", "--input", str(dataset_path),
                      "--output", str(tmp_path / "bad"),
                      "--daniell-spans", "three"])
        assert info.value.code == 2

    @pytest.mark.parametrize("spans, message", [
        ("4", "span must be an odd integer >= 3, got 4"),
        ("3,x", "spans must be comma-separated integers, got '3,x'"),
        ("", "at least one Daniell span is required"),
    ], ids=["even", "not-an-integer", "empty"])
    def test_malformed_spans_fail_before_any_stage(self, dataset_path, tmp_path, capsys,
                                                   monkeypatch, spans, message):
        import tsakit.cli

        def no_stage(config):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(tsakit.cli, "run_pipeline", no_stage)
        with pytest.raises(SystemExit) as info:
            cli_main(["analyze", "--input", str(dataset_path),
                      "--output", str(tmp_path / "bad"), "--daniell-spans", spans])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tsakit analyze")
        assert err.endswith(f"error: argument --daniell-spans: {message}\n")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_aic_max_order_below_one_fails_before_any_stage(self, dataset_path, tmp_path,
                                                            capsys, monkeypatch, order):
        import tsakit.cli

        def no_stage(config):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(tsakit.cli, "run_pipeline", no_stage)
        with pytest.raises(SystemExit) as info:
            cli_main(["analyze", "--input", str(dataset_path),
                      "--output", str(tmp_path / "bad"), f"--aic-max-order={order}"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tsakit analyze")
        assert err.endswith("error: argument --aic-max-order: "
                            f"aic_max_order must be >= 1, got {order}\n")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("flag, message", [
        ("--kpss-lag", "kpss_lag must be >= 0, got -1"),
        ("--truncate-head", "truncate_head must be >= 0, got -1"),
    ])
    def test_negative_flag_fails_before_any_stage(self, dataset_path, tmp_path, capsys,
                                                  monkeypatch, flag, message):
        import tsakit.cli

        def no_stage(config):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(tsakit.cli, "run_pipeline", no_stage)
        with pytest.raises(SystemExit) as info:
            cli_main(["analyze", "--input", str(dataset_path),
                      "--output", str(tmp_path / "bad"), flag, "-1"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tsakit analyze")
        assert err.endswith(f"error: argument {flag}: {message}\n")
        assert not (tmp_path / "bad").exists()
