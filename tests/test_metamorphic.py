"""Metamorphic relations of ``tsakit analyze``: how the outputs of two runs
must relate when their inputs relate in a known way. They follow from the
mathematics, so they check inputs that no golden copy covers (Chen et al.,
"Metamorphic Testing: A Review of Challenges and Opportunities", ACM
Computing Surveys 51(1), 2018). The inputs are the bundled data and 20
seeded series of N = 40..600, each under both estimators.

- Integer offset. The counts are integers below 2**53, so the first
  difference of the counts plus an integer is exact and equals that of the
  counts. Every stage from the differencing on sees the same numbers: the
  report's ``difference`` and ``spectra`` sections and fig_diff_sacf,
  fig_hist, fig_spectrum_np and fig_spectrum_ar are byte-identical, or both
  runs exit with the same code and error.
- Calendar shift. The month labels reach only the report's ``dataset``
  section and fig_trend's period column, so moving every label by whole
  years changes those and no other byte.
- Scale. AIC's order and the AR coefficients do not depend on the unit of
  the counts: multiplying them by 7 or by 10 keeps the selected order and
  moves phi only by rounding. The largest move measured on these inputs was
  3.2e-14 of max |phi|; the bound is 1e-12.

Both runs of a relation write their figures under the same numpy, so these
relations hold under numpy 1.x as well, where the golden copy does not.
"""
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from tsakit.cli import main as cli_main

DATASET = Path(__file__).resolve().parents[1] / "data" / "brazil_monthly_deaths.csv"
LENGTHS = np.linspace(40, 600, 20).astype(int).tolist()
CASES = ["bundled", *range(len(LENGTHS))]
ESTIMATORS = ["yule_walker", "least_squares"]
OFFSETS = (1, 7, 1000, 123_456_789)
PHI_RTOL = 1e-12
_SAME_AFTER_OFFSET = ("fig_diff_sacf.csv", "fig_hist.csv", "fig_spectrum_np.csv",
                      "fig_spectrum_ar.csv")
_CASES = pytest.mark.parametrize("case", CASES, ids=lambda c: f"n{LENGTHS[c]}"
                                 if isinstance(c, int) else c)
_ESTIMATORS = pytest.mark.parametrize("estimator", ESTIMATORS)


@pytest.fixture(scope="module")
def series(bench_workloads):
    """``series(case)``: the first year and the counts of one input, each
    starting in January."""
    def make(case):
        if case == "bundled":
            rows = DATASET.read_text().split()[1:]
            assert rows[0].startswith("2015-01,")
            return 2015, [int(row.split(",")[1]) for row in rows]
        return 1900 + case, bench_workloads.synthetic_counts(30, case, LENGTHS[case]).tolist()
    return make


@pytest.fixture(scope="module")
def analyze(tmp_path_factory):
    """``analyze(first_year, counts, estimator)``: the exit code, stderr and
    {file name: bytes} of one run on those monthly counts. Each input is run
    once per module, so the relations share their unchanged run."""
    root = tmp_path_factory.mktemp("metamorphic")
    runs = {}

    def run(first_year, counts, estimator):
        key = (first_year, tuple(counts), estimator)
        if key not in runs:
            work = root / str(len(runs))
            work.mkdir()
            path = work / "input.csv"
            path.write_text("period,deaths\n" + "".join(
                f"{first_year + i // 12:04d}-{i % 12 + 1:02d},{count}\n"
                for i, count in enumerate(counts)))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["analyze", "--input", str(path), "--output",
                                 str(work / "out"), "--ar-estimator", estimator])
            files = ({p.name: p.read_bytes() for p in (work / "out").iterdir()}
                     if code == 0 else {})
            runs[key] = code, err.getvalue(), files
        return runs[key]
    return run


def _report(files: dict) -> dict:
    return json.loads(files["report.json"])


def _section(files: dict, name: str) -> str:
    """A report section's text: equal texts hold the same bits."""
    return json.dumps(_report(files)[name], sort_keys=True)


@_ESTIMATORS
@_CASES
def test_integer_offset_leaves_the_differenced_outputs(series, analyze, case, estimator):
    first_year, counts = series(case)
    offset = OFFSETS[CASES.index(case) % len(OFFSETS)]
    code, err, files = analyze(first_year, counts, estimator)
    shifted = analyze(first_year, [count + offset for count in counts], estimator)
    assert shifted[:2] == (code, err)
    if code == 0:
        for name in ("difference", "spectra"):
            assert _section(shifted[2], name) == _section(files, name), name
        for name in _SAME_AFTER_OFFSET:
            assert shifted[2][name] == files[name], name


@_ESTIMATORS
@_CASES
def test_calendar_shift_changes_only_the_labels(series, analyze, case, estimator):
    first_year, counts = series(case)
    years = 37 if CASES.index(case) % 2 else -100
    code, err, files = analyze(first_year, counts, estimator)
    moved = analyze(first_year + years, counts, estimator)
    assert moved[:2] == (code, err)
    if code != 0:
        return
    moved = moved[2]
    assert files.keys() == moved.keys()
    for name in files.keys() - {"report.json", "fig_trend.csv"}:
        assert moved[name] == files[name], name
    report, moved_report = _report(files), _report(moved)
    dataset = report.pop("dataset")
    moved_dataset = moved_report.pop("dataset")
    assert json.dumps(moved_report, sort_keys=True) == json.dumps(report, sort_keys=True)
    assert moved_dataset["row_count"] == dataset["row_count"] == len(counts)
    assert moved_dataset["first_period"] == f"{first_year + years:04d}-01"

    trend, moved_trend = (f["fig_trend.csv"].split(b"\r\n") for f in (files, moved))
    assert moved_trend[0] == trend[0] == b"period,t,observed,fitted"
    assert [row.partition(b",")[2] for row in moved_trend] == \
        [row.partition(b",")[2] for row in trend]
    assert [row[:4] for row in moved_trend[1:-1]] == \
        [b"%04d" % (first_year + years + i // 12) for i in range(len(counts))]


@_ESTIMATORS
@_CASES
@pytest.mark.parametrize("factor", [7, 10])
def test_scale_keeps_the_order_and_phi(series, analyze, case, estimator, factor):
    first_year, counts = series(case)
    code, err, files = analyze(first_year, counts, estimator)
    scaled = analyze(first_year, [count * factor for count in counts], estimator)
    assert scaled[0] == code
    if code != 0:
        return
    model = _report(files)["difference"]["selected_model"]
    scaled_model = _report(scaled[2])["difference"]["selected_model"]
    assert scaled_model["order"] == model["order"]
    phi, scaled_phi = np.array(model["phi"]), np.array(scaled_model["phi"])
    assert np.abs(scaled_phi - phi).max(initial=0.0) <= \
        PHI_RTOL * np.abs(phi).max(initial=0.0)
