"""Sample autocovariance and autocorrelation."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError, ZeroVarianceError, _as_index

WHITE_NOISE_BAND_Z = 1.96


@dataclass(frozen=True)
class AcfEstimate:
    """Biased-estimator ACF up to ``max_lag`` with the white-noise plot band."""

    lags: np.ndarray
    autocorrelation: np.ndarray
    band: float


def autocovariance(x: Sequence[float], max_lag: int) -> np.ndarray:
    """gamma_hat_h for h = 0..max_lag with the positive semi-definite divisor N."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    max_lag = _as_index(max_lag, "max_lag", 0)
    if max_lag >= n:
        raise InvalidArgumentError(
            f"max_lag={max_lag} must be smaller than the sample size N={n}")
    centered = arr - arr.mean()
    out = np.empty(max_lag + 1)
    for h in range(max_lag + 1):
        out[h] = float((centered[: n - h] * centered[h:]).sum()) / n
    return out


def sample_acf(x: Sequence[float], max_lag: int) -> AcfEstimate:
    """Sample ACF; requires a non-constant input and max_lag < N."""
    max_lag = _as_index(max_lag, "max_lag", 1)
    gamma = autocovariance(x, max_lag)
    if gamma[0] <= 0.0:
        raise ZeroVarianceError("sample ACF is undefined for a constant series")
    return AcfEstimate(
        lags=np.arange(max_lag + 1),
        autocorrelation=gamma / gamma[0],
        band=WHITE_NOISE_BAND_Z / np.sqrt(np.asarray(x).size),
    )
