"""Golden-output gate: ``tsakit analyze`` on the bundled data, with every flag
at its default, must reproduce the checked-in reference report and figure CSVs
in bench/reference/paper/.

Structure, ints, strings and censoring flags must match exactly; floats may
differ by at most 1e-12 relative. A change that alters the reference must say
why in CHANGES.md; this test only reads it.
"""
import csv
import json
import math
from pathlib import Path

import pytest

from tsakit.cli import main as cli_main
from tsakit.pipeline import FIGURE_FILES

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "paper"
FLOAT_RTOL = 1e-12


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def _first_difference(got, want, where: str = ""):
    """Path and values of the first mismatch, or None when the trees agree."""
    if type(got) is not type(want):
        return where, got, want
    if isinstance(got, dict):
        if got.keys() != want.keys():
            return where, sorted(got), sorted(want)
        children = ((f"{where}.{k}", got[k], want[k]) for k in got)
    elif isinstance(got, list):
        if len(got) != len(want):
            return f"{where} (length)", len(got), len(want)
        children = ((f"{where}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want)))
    elif isinstance(got, float):
        if math.isnan(got) or math.isnan(want):
            return None if math.isnan(got) and math.isnan(want) else (where, got, want)
        close = got == want or abs(got - want) <= FLOAT_RTOL * max(abs(got), abs(want))
        return None if close else (where, got, want)
    else:
        return None if got == want else (where, got, want)
    for path, g, w in children:
        found = _first_difference(g, w, path)
        if found:
            return found
    return None


@pytest.fixture(scope="module")
def bundled_outputs(dataset_path, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    assert cli_main(["analyze", "--input", str(dataset_path), "--output", str(out)]) == 0
    return out


def test_report_matches_reference(bundled_outputs):
    got = json.loads((bundled_outputs / "report.json").read_text(encoding="utf-8"))
    want = json.loads((REFERENCE / "report.json").read_text(encoding="utf-8"))
    assert _first_difference(got, want) is None


@pytest.mark.parametrize("name", FIGURE_FILES)
def test_figure_matches_reference(bundled_outputs, name):
    assert _first_difference(_read_csv(bundled_outputs / name),
                             _read_csv(REFERENCE / name)) is None
