"""The four benchmark workloads: how each op's input is made and checked.

Every input is a pure function of (workload seed, op index). Op 0 is the
untimed warm-up; for ``simulate`` it is the fixed seed-0 case whose output
must match a checked-in SHA-256, because ``rng.normals`` must stay
bit-identical.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
PAPER_INPUT = Path("data") / "brazil_monthly_deaths.csv"
FIGURES = ("fig_trend.csv", "fig_residuals.csv", "fig_qq.csv", "fig_diff_sacf.csv",
           "fig_hist.csv", "fig_spectrum_np.csv", "fig_spectrum_ar.csv")
OUTPUTS = ("report.json",) + FIGURES
LONG_N = 4000
SIM_N = 100_000
FLOAT_RTOL = 1e-12
BETA1_RTOL = 1e-9


@dataclass
class Op:
    index: int
    argv: list[str]
    out: Path
    input_path: Path | None = None
    values: np.ndarray | None = None


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    n: int | None = None
    p: int | None = None
    aic_failed: int = 0
    out_bytes: int = 0
    digest: str = ""


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _report_facts(report: dict) -> dict:
    aic = report["difference"]["aic"]
    return {"n": report["dataset"]["row_count"],
            "p": report["difference"]["selected_model"]["order"],
            "aic_failed": sum(1 for row in aic["rows"] if row["error"] is not None)}


# ---------------------------------------------------------------- paper

def _same(a, b) -> bool:
    """Exact structure, ints, strings and flags; floats to FLOAT_RTOL relative."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))
    return a == b


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


class Paper:
    """A fresh ``python -m tsakit.cli analyze`` on the bundled data, default config."""

    in_worker = False

    def __init__(self):
        ref = REFERENCE / "paper"
        self.reference = {"report.json": json.loads((ref / "report.json").read_text())}
        self.reference.update({name: _read_csv(ref / name) for name in FIGURES})

    def make_op(self, index: int, work: Path) -> Op:
        out = work / f"op{index:05d}"
        return Op(index, ["analyze", "--input", str(PAPER_INPUT), "--output", str(out)], out)

    def check(self, op: Op) -> Outcome:
        missing = [name for name in OUTPUTS if not (op.out / name).is_file()]
        if missing:
            return Outcome(False, f"missing outputs {missing}")
        report = json.loads((op.out / "report.json").read_text())
        outcome = Outcome(True, **_report_facts(report),
                          out_bytes=sum((op.out / f).stat().st_size for f in OUTPUTS),
                          digest=_digest([op.out / f for f in OUTPUTS]))
        if not _same(report, self.reference["report.json"]):
            outcome.ok, outcome.reason = False, "report.json differs from the reference"
        for name in FIGURES:
            if not _same(_read_csv(op.out / name), self.reference[name]):
                outcome.ok, outcome.reason = False, f"{name} differs from the reference"
        return outcome


# ---------------------------------------------------------------- long series

def synthetic_counts(seed: int, index: int, n: int = LONG_N) -> np.ndarray:
    """Linear trend + annual seasonality (random phase) + AR(1) noise, as counts."""
    rng = np.random.default_rng([seed, index])
    level = rng.uniform(5_000.0, 20_000.0)
    slope = rng.uniform(0.5, 3.0)
    amplitude = rng.uniform(0.05, 0.15) * level
    phase = rng.uniform(0.0, 2.0 * math.pi)
    phi = rng.uniform(0.3, 0.7)
    shocks = rng.normal(0.0, rng.uniform(0.01, 0.03) * level, n)
    noise = np.empty(n)
    acc = 0.0
    for t in range(n):
        acc = phi * acc + shocks[t]
        noise[t] = acc
    t = np.arange(n)
    y = level + slope * t + amplitude * np.sin(2.0 * math.pi * t / 12.0 + phase) + noise
    return np.maximum(np.rint(y), 0.0).astype(np.int64)


def _write_counts(path: Path, values: np.ndarray, first_year: int = 1700) -> None:
    lines = ["period,deaths"]
    lines += [f"{first_year + k // 12:04d}-{k % 12 + 1:02d},{v}"
              for k, v in enumerate(values.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _line_count(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def expected_rows(n: int) -> dict[str, int]:
    """Lines (header included) of each figure CSV for an N-point input under the
    default config: truncate 2, first difference, ACF to lag min(24, M-1), Sturges
    bins plus a 101-point density, periodogram padded to 2^k, 257-point AR PSD."""
    m = n - 3
    padded = 1 if m <= 1 else 2 ** (m - 1).bit_length()
    return {"fig_trend.csv": n + 1, "fig_residuals.csv": n + 1, "fig_qq.csv": n + 1,
            "fig_diff_sacf.csv": 1 + m + min(24, m - 1) + 1,
            "fig_hist.csv": 1 + math.ceil(math.log2(m)) + 1 + 101,
            "fig_spectrum_np.csv": 1 + padded // 2 + 1,
            "fig_spectrum_ar.csv": 1 + 257}


class LongRecord:
    """A warm-worker ``analyze`` on a distinct N=4000 synthetic series per op."""

    in_worker = True

    def __init__(self, seed: int, estimator: str = "yule_walker"):
        self.seed = seed
        self.estimator = estimator
        self.rows = expected_rows(LONG_N)

    def make_op(self, index: int, work: Path) -> Op:
        values = synthetic_counts(self.seed, index)
        path = work / f"in{index:05d}.csv"
        _write_counts(path, values)
        out = work / f"op{index:05d}"
        return Op(index, ["analyze", "--input", str(path), "--output", str(out),
                          "--ar-estimator", self.estimator], out, path, values)

    def check(self, op: Op) -> Outcome:
        missing = [name for name in OUTPUTS if not (op.out / name).is_file()]
        if missing:
            return Outcome(False, f"missing outputs {missing}", n=op.values.size)
        report = json.loads((op.out / "report.json").read_text())
        outcome = Outcome(True, **_report_facts(report),
                          out_bytes=sum((op.out / f).stat().st_size for f in OUTPUTS),
                          digest=_digest([op.out / f for f in OUTPUTS]))
        t = np.arange(1, op.values.size + 1, dtype=float)
        design = np.column_stack([np.ones_like(t), t])
        beta1 = float(np.linalg.lstsq(design, op.values.astype(float), rcond=None)[0][1])
        got = report["trend"]["beta1"]
        bad_rows = {name: (_line_count(op.out / name), rows)
                    for name, rows in self.rows.items()
                    if _line_count(op.out / name) != rows}
        if outcome.n != op.values.size:
            outcome.ok, outcome.reason = False, f"row_count {outcome.n} != {op.values.size}"
        elif bad_rows:
            outcome.ok, outcome.reason = False, f"figure line counts (got, want) {bad_rows}"
        elif not abs(got - beta1) <= BETA1_RTOL * abs(beta1):
            outcome.ok, outcome.reason = False, f"trend.beta1 {got!r} != lstsq {beta1!r}"
        elif report["difference"]["selected_model"]["stationary"] is not True:
            outcome.ok, outcome.reason = False, "selected model is not stationary"
        return outcome


# ---------------------------------------------------------------- simulate

class Simulate:
    """A warm-worker ``simulate ar`` of the paper's AR(11), n=100000, one seed per op."""

    in_worker = True

    def __init__(self, seed: int):
        self.seed = seed
        model = json.loads((REFERENCE / "paper" / "report.json").read_text())[
            "difference"]["selected_model"]
        # "--phi=" keeps a list that starts with '-' from being read as an option.
        self.phi_arg = "--phi=" + ",".join(repr(v) for v in model["phi"])
        self.sigma2 = repr(model["sigma2"])
        self.order = len(model["phi"])
        self.seed0_sha256 = (REFERENCE / "simulate_seed0.sha256").read_text().split()[0]

    def make_op(self, index: int, work: Path) -> Op:
        sim_seed = 0 if index == 0 else self.seed * 1_000_000 + index
        out = work / f"sim{index:05d}.csv"
        return Op(index, ["simulate", "ar", self.phi_arg, "--sigma2", self.sigma2,
                          "--n", str(SIM_N), "--seed", str(sim_seed), "--out", str(out)], out)

    def check(self, op: Op) -> Outcome:
        if not op.out.is_file():
            return Outcome(False, "no output file", n=SIM_N, p=self.order)
        data = op.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        outcome = Outcome(True, n=SIM_N, p=self.order, digest=digest)
        header = b"t,value\n"
        rows = data[len(header):]
        # repr() of a non-finite float is "nan", "inf" or "-inf".
        if (not data.startswith(header) or rows.count(b"\n") != SIM_N
                or rows.count(b",") != SIM_N or not rows.endswith(b"\n")):
            outcome.ok, outcome.reason = False, f"expected a header and {SIM_N} t,value rows"
        elif b"nan" in rows or b"inf" in rows:
            outcome.ok, outcome.reason = False, "non-finite simulated value"
        elif op.index == 0 and digest != self.seed0_sha256:
            outcome.ok, outcome.reason = False, "seed-0 output differs from the reference"
        return outcome


def make(name: str, seed: int):
    if name == "paper":
        return Paper()
    if name == "long-record":
        return LongRecord(seed)
    if name == "least-squares":
        return LongRecord(seed, "least_squares")
    if name == "simulate":
        return Simulate(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("paper", "long-record", "least-squares", "simulate")
