"""Normality and level-stationarity tests used for residual diagnostics.

Jarque-Bera uses the classic moment-based statistic with its chi-square(2)
tail in closed form, P(X >= JB) = exp(-JB / 2).
Shapiro-Wilk follows Royston's AS R94 approximation (normal-scores weights with
polynomial corrections and a normalizing transform of W). The KPSS level test
builds the Bartlett-window long-run variance and interpolates its p-value in
the published critical-value table, censoring outside [0.01, 0.1].
Each test returns its statistic, p-value and nuisance values only; the
report's test names, null hypotheses and sample sizes are the pipeline's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .correlation import autocovariance
from .errors import (InsufficientDataError, InvalidArgumentError, ZeroVarianceError,
                     _as_index)
from .regression import Censoring, PValue
from .special import _acklam, _horner, normal_sf


@dataclass(frozen=True)
class HypothesisTestResult:
    statistic: float
    p_value: PValue
    nuisance: dict = field(default_factory=dict)


def jarque_bera(x: Sequence[float]) -> HypothesisTestResult:
    """Jarque-Bera normality test from moment-based skewness and kurtosis."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < 4:
        raise InvalidArgumentError(f"Jarque-Bera needs at least 4 observations, got {n}")
    centered = arr - arr.mean()
    m2 = float((centered ** 2).mean())
    if m2 <= 0.0:
        raise ZeroVarianceError("Jarque-Bera is undefined for a constant sample")
    m3 = float((centered ** 3).mean())
    m4 = float((centered ** 4).mean())
    skew = m3 / m2 ** 1.5
    kurt = m4 / m2 ** 2
    jb = n / 6.0 * (skew ** 2 + (kurt - 3.0) ** 2 / 4.0)
    return HypothesisTestResult(
        statistic=jb,
        p_value=PValue.exact_or_censored(math.exp(-jb / 2.0)),
        nuisance={"skewness": skew, "kurtosis": kurt},
    )


# Royston (1995) polynomial coefficients, highest order first.
_SW_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_SW_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_SW_C3 = (-6.714e-4, 0.025054, -0.39978, 0.544)
_SW_C4 = (-0.0020322, 0.062767, -0.77857, 1.3822)
_SW_C5 = (0.0038915, -0.083751, -0.31082, -1.5861)
_SW_C6 = (0.0030302, -0.082676, -0.4803)
_SW_G = (0.459, -2.273)


def _shapiro_wilk_weights(n: int) -> np.ndarray:
    """Full antisymmetric weight vector for the W statistic at sample size n."""
    if n < 3:
        raise InvalidArgumentError(f"Shapiro-Wilk needs n >= 3, got {n}")
    half = n // 2
    if n == 3:
        a = np.array([math.sqrt(0.5)])
    else:
        i = np.arange(1, half + 1, dtype=float)
        m = _acklam((i - 0.375) / (n + 0.25))  # negative lower-half scores
        summ2 = 2.0 * float((m ** 2).sum())
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _horner(_SW_C1, rsn) - m[0] / ssumm2
        if n > 5:
            a2 = _horner(_SW_C2, rsn) - m[1] / ssumm2
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                            / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2))
            a = -m / fac
            a[0], a[1] = a1, a2
        else:
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 ** 2))
            a = -m / fac
            a[0] = a1
    full = np.zeros(n)
    full[:half] = -a
    full[n - half:] = a[::-1]
    return full


def shapiro_wilk(x: Sequence[float]) -> HypothesisTestResult:
    """Shapiro-Wilk W test of normality (valid for 3 <= n <= 5000)."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < 3 or n > 5000:
        raise InvalidArgumentError(
            f"Shapiro-Wilk supports sample sizes 3..5000, got {n}")
    if float(arr.max() - arr.min()) <= 0.0:
        raise ZeroVarianceError("Shapiro-Wilk is undefined for a constant sample")
    ordered = np.sort(arr)
    weights = _shapiro_wilk_weights(n)
    numerator = float(weights @ ordered) ** 2
    denominator = float(((ordered - ordered.mean()) ** 2).sum())
    w = numerator / denominator
    w = min(w, 1.0)

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
    elif n <= 11:
        gamma = _horner(_SW_G, float(n))
        if gamma - math.log1p(-w) <= 0.0:
            p = 0.0
        else:
            y = -math.log(gamma - math.log1p(-w))
            mu = _horner(_SW_C3, float(n))
            sigma = math.exp(_horner(_SW_C4, float(n)))
            p = normal_sf((y - mu) / sigma)
    else:
        y = math.log1p(-w)
        ln_n = math.log(n)
        mu = _horner(_SW_C5, ln_n)
        sigma = math.exp(_horner(_SW_C6, ln_n))
        p = normal_sf((y - mu) / sigma)

    return HypothesisTestResult(statistic=w, p_value=PValue.exact_or_censored(p))


# Level-case critical values from the published KPSS table.
_KPSS_CRITICAL = (0.347, 0.463, 0.574, 0.739)
_KPSS_PROB = (0.10, 0.05, 0.025, 0.01)


def kpss_level(x: Sequence[float],
               truncation_lag: Union[int, str] = "auto") -> HypothesisTestResult:
    """KPSS test of the null hypothesis that the series is level stationary."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < 10:
        raise InsufficientDataError(f"KPSS needs at least 10 observations, got {n}")
    if truncation_lag == "auto":
        # Short-lag convention for the Bartlett truncation: floor(4 (n/100)^0.25).
        lag = int(4.0 * (n / 100.0) ** 0.25)
    else:
        lag = _as_index(truncation_lag, "truncation_lag")
    if lag < 0 or lag >= n:
        raise InvalidArgumentError(
            f"truncation lag must satisfy 0 <= lag < N, got {lag} with N={n}")

    partial_sums = np.cumsum(arr - arr.mean())
    gamma = autocovariance(arr, lag).tolist()
    long_run_var = gamma[0]
    for h in range(1, lag + 1):
        long_run_var += 2.0 * (1.0 - h / (lag + 1.0)) * gamma[h]
    if long_run_var <= 0.0:
        raise ZeroVarianceError("KPSS long-run variance is not positive")
    eta = float((partial_sums ** 2).sum()) / (n * n * long_run_var)

    if eta < _KPSS_CRITICAL[0]:
        p_value = PValue(_KPSS_PROB[0], Censoring.ABOVE_THRESHOLD, _KPSS_PROB[0])
    elif eta > _KPSS_CRITICAL[-1]:
        p_value = PValue(_KPSS_PROB[-1], Censoring.BELOW_THRESHOLD, _KPSS_PROB[-1])
    else:
        p = _interpolate_kpss_p(eta)
        p_value = PValue(p)

    return HypothesisTestResult(statistic=eta, p_value=p_value,
                                nuisance={"truncation_lag": lag})


def _interpolate_kpss_p(eta: float) -> float:
    for i in range(len(_KPSS_CRITICAL) - 1):
        lo, hi = _KPSS_CRITICAL[i], _KPSS_CRITICAL[i + 1]
        if lo <= eta <= hi:
            frac = (eta - lo) / (hi - lo)
            return _KPSS_PROB[i] + frac * (_KPSS_PROB[i + 1] - _KPSS_PROB[i])
    raise InvalidArgumentError(f"statistic {eta} outside interpolation table")
