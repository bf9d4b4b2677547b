"""Sample autocovariance/autocorrelation and theoretical AR autocorrelations."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError, NonStationaryModelError, ZeroVarianceError

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
    if max_lag < 0:
        raise InvalidArgumentError(f"max_lag must be >= 0, got {max_lag}")
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
    if max_lag < 1:
        raise InvalidArgumentError(f"max_lag must be >= 1, got {max_lag}")
    gamma = autocovariance(x, max_lag)
    if gamma[0] <= 0.0:
        raise ZeroVarianceError("sample ACF is undefined for a constant series")
    return AcfEstimate(
        lags=np.arange(max_lag + 1),
        autocorrelation=gamma / gamma[0],
        band=WHITE_NOISE_BAND_Z / np.sqrt(np.asarray(x).size),
    )


def theoretical_ar_acf(model, max_lag: int) -> np.ndarray:
    """Autocorrelations rho_0..rho_max_lag implied by a stationary AR model.

    Steps the model down to its reflection coefficients kappa_k and
    lower-order coefficient vectors phi_{k,j} (``armodel._step_down``), then
    runs the Levinson relation forward: rho_k = kappa_k v_{k-1} +
    sum_j phi_{k-1,j} rho_{k-j} with v_0 = 1 and v_k = v_{k-1} (1 - kappa_k^2),
    for k = 1..p. Lags past p follow the recursion rho_h = sum_j phi_j rho_{h-j}.
    """
    from .armodel import _step_down  # local import: armodel imports this module

    if max_lag < 1:
        raise InvalidArgumentError(f"max_lag must be >= 1, got {max_lag}")
    orders = _step_down(model.phi)
    if orders is None:
        raise NonStationaryModelError(
            "theoretical ACF requires a stationary model (all roots outside the unit circle)")
    rho = [1.0]
    v = 1.0
    for lower, upper in zip(orders, orders[1:]):
        kappa = upper[-1]
        rho.append(kappa * v + sum(c * r for c, r in zip(lower, reversed(rho))))
        v *= 1.0 - kappa * kappa
    phi = orders[-1]
    while len(rho) <= max_lag:
        rho.append(sum(c * r for c, r in zip(phi, reversed(rho))))
    return np.array(rho[:max_lag + 1])
