"""Ordinary least squares fit of a linear time trend with full inference.

The regressor is the 1-based time index t = 1..N. p-values come from the
in-repo Student-t tail and are censored below 2.2e-16 to match the usual
statistical-package reporting convention. The model F statistic has (1, N - 2)
degrees of freedom and equals the slope's t statistic squared, so its p-value
is the slope's two-sided t p-value, not a tail evaluated apart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, _as_index
from .series import TimeSeries
from .special import _reflects, betainc_reg

P_VALUE_CENSOR_THRESHOLD = 2.2e-16


class Censoring(Enum):
    EXACT = "exact"
    BELOW_THRESHOLD = "below_threshold"
    ABOVE_THRESHOLD = "above_threshold"


@dataclass(frozen=True)
class PValue:
    """A p-value that may be interval-censored at a reporting threshold."""

    value: float
    censored: Censoring = Censoring.EXACT
    threshold: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise InvalidArgumentError(f"p-value must lie in [0, 1], got {self.value}")
        if self.censored is not Censoring.EXACT and self.threshold is None:
            raise InvalidArgumentError("censored p-values must carry a threshold")

    @classmethod
    def exact_or_censored(cls, p: float) -> "PValue":
        """Censor below the 2.2e-16 reporting threshold, else report exactly."""
        p = min(max(p, 0.0), 1.0)
        if p < P_VALUE_CENSOR_THRESHOLD:
            return cls(p, Censoring.BELOW_THRESHOLD, P_VALUE_CENSOR_THRESHOLD)
        return cls(p)


@dataclass(frozen=True)
class LinearTrendFit:
    """OLS fit of x_t = beta0 + beta1 * t + e_t over t = 1..N."""

    beta0: float
    beta1: float
    se_beta0: float
    se_beta1: float
    t_beta0: float
    t_beta1: float
    p_beta0: PValue
    p_beta1: PValue
    r_squared: float
    f_statistic: float
    model_p_value: PValue
    residuals: TimeSeries
    fitted: TimeSeries
    n: int
    dof: int


def t_distribution_sf(t: float, dof: int) -> float:
    """Two-sided tail probability P(|T| >= |t|) for Student's t, which is
    also P(F >= t^2) for F with (1, dof) degrees of freedom.

    This is I_x(dof/2, 1/2) at x = dof/(dof + t^2). Where betainc_reg would
    reflect, it is reflected here on the exact complement t^2/(dof + t^2),
    since 1 - x carries x's rounding error, which swamps it near p = 1."""
    dof = _as_index(dof, "dof", 1)
    if not math.isfinite(t):
        raise InvalidArgumentError(f"t statistic must be finite, got {t}")
    t2 = t * t
    x = dof / (dof + t2)
    if _reflects(dof / 2.0, 0.5, x):
        return 1.0 - betainc_reg(0.5, dof / 2.0, t2 / (dof + t2))
    return betainc_reg(dof / 2.0, 0.5, x)


def fit_linear_trend(x: TimeSeries) -> LinearTrendFit:
    """Fit the deterministic linear trend and populate all inference fields."""
    n = len(x)
    if n < 3:
        raise InsufficientDataError(
            f"linear trend fit needs at least 3 observations, got {n}")
    y = x.values
    t = np.arange(1, n + 1, dtype=float)
    t_bar = t.mean()
    y_bar = y.mean()
    stt = float(((t - t_bar) ** 2).sum())
    sty = float(((t - t_bar) * (y - y_bar)).sum())

    beta1 = sty / stt
    beta0 = y_bar - beta1 * t_bar
    fitted = beta0 + beta1 * t
    residuals = y - fitted

    dof = n - 2
    sse = float((residuals ** 2).sum())
    sst = float(((y - y_bar) ** 2).sum())
    ssr = beta1 * sty  # = beta1^2 * stt, non-negative by construction
    sigma2 = sse / dof
    r_squared = 1.0 - sse / sst if sst > 0.0 else 0.0

    if sigma2 > 0.0:
        se_beta1 = math.sqrt(sigma2 / stt)
        se_beta0 = math.sqrt(sigma2 * (1.0 / n + t_bar ** 2 / stt))
        t1 = beta1 / se_beta1
        t0 = beta0 / se_beta0
        f_stat = ssr / sigma2
        p0 = PValue.exact_or_censored(t_distribution_sf(t0, dof))
        p1 = PValue.exact_or_censored(t_distribution_sf(t1, dof))
    else:
        # Noiseless input: an exact line gives infinite statistics and zero
        # tails; a constant gives null statistics and unit tails.
        se_beta0 = se_beta1 = 0.0
        t0 = math.copysign(math.inf, beta0) if beta0 != 0.0 else 0.0
        t1 = math.copysign(math.inf, beta1) if beta1 != 0.0 else 0.0
        f_stat = math.inf if beta1 != 0.0 else 0.0
        p0 = PValue.exact_or_censored(0.0 if beta0 != 0.0 else 1.0)
        p1 = PValue.exact_or_censored(0.0 if beta1 != 0.0 else 1.0)

    return LinearTrendFit(
        beta0=beta0, beta1=beta1,
        se_beta0=se_beta0, se_beta1=se_beta1,
        t_beta0=t0, t_beta1=t1,
        p_beta0=p0, p_beta1=p1,
        r_squared=max(0.0, min(1.0, r_squared)),
        f_statistic=f_stat,
        model_p_value=p1,  # F = t1^2 on (1, dof), so its tail is the slope's
        residuals=x.with_values(residuals),
        fitted=x.with_values(fitted),
        n=n, dof=dof,
    )
