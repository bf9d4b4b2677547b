"""Time-series container and the deterministic transforms used by the pipeline."""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError

_PERIOD_RE = re.compile(r"^(\d{4})-(\d{2})$")


def _month_label(index: int) -> str:
    """The YYYY-MM label of month index 12 * year + month - 1."""
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


@dataclass(frozen=True, order=True)
class Period:
    """A calendar year-month label."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise InvalidArgumentError(f"month must be in 1..12, got {self.month}")

    @classmethod
    def parse(cls, text: str) -> "Period":
        m = _PERIOD_RE.match(text.strip())
        if m is None:
            raise InvalidArgumentError(f"period must look like YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    @property
    def index(self) -> int:  # consecutive months differ by 1
        return self.year * 12 + self.month - 1

    def plus_months(self, n: int) -> "Period":
        idx = self.index + n
        return Period(idx // 12, idx % 12 + 1)

    def __str__(self) -> str:
        return _month_label(self.index)


@dataclass(frozen=True)
class TimeSeries:
    """Ordered, finite, real-valued observations on a contiguous monthly index.

    The time index is implicit: t = 0..N-1. ``start_period`` is calendar
    metadata for labelled data and may be None for simulated series.
    """

    values: np.ndarray
    start_period: Optional[Period] = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise InvalidArgumentError("TimeSeries values must be one-dimensional")
        if arr.size < 1:
            raise InvalidArgumentError("TimeSeries must contain at least one value")
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("TimeSeries values must all be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def periods(self) -> Optional[list[str]]:
        if self.start_period is None:
            return None
        start = self.start_period.index
        return [_month_label(i) for i in range(start, start + len(self))]

    def with_values(self, values: Sequence[float], shift_months: int = 0) -> "TimeSeries":
        start = self.start_period
        return TimeSeries(values, start.plus_months(shift_months) if start else None)


def difference(x: TimeSeries, d: int) -> TimeSeries:
    """Apply the first-difference operator ``d`` times; output length is N - d."""
    if d < 0:
        raise InvalidArgumentError(f"difference order must be >= 0, got {d}")
    n = len(x)
    if d >= n:
        raise InvalidArgumentError(
            f"difference order d={d} must be smaller than the series length N={n}")
    out = x.values
    for _ in range(d):
        out = out[1:] - out[:-1]
    return x.with_values(out, shift_months=d)


def integrate(y: TimeSeries, d: int, initial_values: Sequence[float]) -> TimeSeries:
    """Invert ``difference``: cumulative summation ``d`` times.

    ``initial_values[k]`` seeds level k of the reconstruction, so
    ``difference(integrate(y, d, iv), d)`` reproduces ``y`` exactly.
    """
    if d < 1:
        raise InvalidArgumentError(f"integration order must be >= 1, got {d}")
    iv = [float(v) for v in initial_values]
    if len(iv) != d:
        raise InvalidArgumentError(
            f"integrate of order d={d} needs exactly d initial values, got {len(iv)}")
    out = y.values
    for k in range(d):
        out = np.concatenate(([iv[d - 1 - k]], out)).cumsum()
    return y.with_values(out, shift_months=-d)


def demean(x: TimeSeries) -> tuple[TimeSeries, float]:
    """Subtract the sample mean; returns the centered series and the removed mean."""
    mean = float(x.values.mean())
    return x.with_values(x.values - mean), mean
