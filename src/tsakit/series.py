"""Time-series container and the deterministic transforms used by the pipeline."""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, _as_index

_PERIOD_RE = re.compile(r"^(\d{4})-(\d{2})$")  # four-digit years: 9999-12 is the last month


def _month_label(index: int) -> str:
    """The YYYY-MM label of month index 12 * year + month - 1."""
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


_MONTH_SUFFIXES = tuple(f"-{month:02d}" for month in range(1, 13))


def _month_labels(start: int) -> Iterator[str]:
    """The labels ``_month_label`` gives month indices start, start + 1, ...,
    without end; each year is formatted once."""
    year, month = divmod(start, 12)
    while True:
        prefix = f"{year:04d}"
        for suffix in _MONTH_SUFFIXES[month:]:
            yield prefix + suffix
        year, month = year + 1, 0


def _month_index(text: str) -> int:
    """Month index 12 * year + month - 1 of a YYYY-MM label, blanks around it ignored."""
    m = _PERIOD_RE.match(text.strip())
    if m is None:
        raise InvalidArgumentError(f"period must look like YYYY-MM, got {text!r}")
    month = int(m.group(2))
    if not 1 <= month <= 12:
        raise InvalidArgumentError(f"month must be in 1..12, got {month}")
    return int(m.group(1)) * 12 + month - 1


def _check_finite(values: np.ndarray) -> None:
    """Raise unless every value is finite: the check each ``TimeSeries`` makes,
    and the one each streamed chunk of a simulation makes."""
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("TimeSeries values must all be finite")


@dataclass(frozen=True)
class TimeSeries:
    """Ordered, finite, real-valued observations on a contiguous monthly index.

    The time index is implicit: t = 0..N-1. ``start_month`` labels it: the
    month index 12 * year + month - 1 of the first observation, whose YYYY-MM
    label ``_month_label`` gives. It is None for simulated series.
    """

    values: np.ndarray
    start_month: Optional[int] = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise InvalidArgumentError("TimeSeries values must be one-dimensional")
        if arr.size < 1:
            raise InvalidArgumentError("TimeSeries must contain at least one value")
        _check_finite(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def periods(self) -> Optional[list[str]]:
        start = self.start_month
        if start is None:
            return None
        return list(islice(_month_labels(start), len(self)))

    def with_values(self, values: Sequence[float], shift_months: int = 0) -> "TimeSeries":
        start = self.start_month
        return TimeSeries(values, None if start is None else start + shift_months)


def difference(x: TimeSeries, d: int) -> TimeSeries:
    """Apply the first-difference operator ``d`` times; output length is N - d."""
    d = _as_index(d, "difference order", 0)
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
    d = _as_index(d, "integration order", 1)
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
