"""Time-series container and the deterministic transforms used by the pipeline.
``_month_words`` is the one form of a run of month labels: the bulk ingest's
label check and fig_trend's period column both use it."""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, _as_index

_PERIOD_RE = re.compile(r"^(\d{4})-(\d{2})$")  # four-digit years: 9999-12 is the last month


def _month_label(index: int) -> str:
    """The YYYY-MM label of month index 12 * year + month - 1."""
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def _month_words(start: int, n: int) -> np.ndarray:
    """Month indices start .. start + n - 1 as uint64 words of their
    ``_month_label`` bytes, lowest first, then NULs: exact up to year 99999.
    Past 9999-12 a label has eight bytes or more, so a word's last byte is
    not NUL and it equals no YYYY-MM label's word."""
    year, month = np.divmod(np.arange(start, start + n, dtype=np.uint64), 12)
    month += 1
    low = year % 10000
    words = (int.from_bytes(b"0000-00", "little")
             | low // 1000 | low // 100 % 10 << 8 | low // 10 % 10 << 16 | low % 10 << 24
             | month // 10 << 40 | month % 10 << 48)
    wide = year > 9999  # a fifth year digit goes in front
    words[wide] = words[wide] << 8 | year[wide] // 10000 + ord("0")
    return words


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
        if self.start_month is not None:
            object.__setattr__(self, "start_month", _as_index(self.start_month, "start_month"))

    def __len__(self) -> int:
        return int(self.values.size)

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
