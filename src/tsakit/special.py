"""Scalar special functions backing the distribution tails used by the toolkit.

Everything here is implemented directly (series, continued fractions, rational
approximations) on top of ``math`` primitives, so p-values and quantiles do not
depend on any third-party statistics library.

The incomplete gamma series and continued fraction and the incomplete beta
continued fraction raise ConvergenceError when they reach their iteration cap,
rather than returning a partial result. That happens for large shape
parameters near the centre of the distribution (a chi-square with 1e5 degrees
of freedom at its mean, for one), where these expansions need more terms than
the cap; no large-parameter expansion is implemented.
"""
from __future__ import annotations

import math
from typing import NoReturn

import numpy as np

from .errors import ConvergenceError, InvalidArgumentError

_BETACF_TOL = 1e-14
_BETACF_MAX_ITER = 300
_GAMMA_TOL = 1e-15
_GAMMA_MAX_ITER = 500


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_sf(x: float) -> float:
    """Standard normal survival function 1 - Phi(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# Acklam's rational approximation to the inverse normal CDF. Relative accuracy
# about 1.15e-9 on its own; norm_ppf refines it to near machine precision with
# one Halley step against erfc.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)
_ACKLAM_P_LOW = 0.02425


def _acklam(p):
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p = np.asarray(p, dtype=float)
    x = np.empty_like(p)

    central = (p >= _ACKLAM_P_LOW) & (p <= 1.0 - _ACKLAM_P_LOW)
    q = p[central] - 0.5
    r = q * q
    num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    x[central] = num * q / den

    low = p < _ACKLAM_P_LOW
    q = np.sqrt(-2.0 * np.log(p[low]))
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    x[low] = num / den

    high = p > 1.0 - _ACKLAM_P_LOW
    q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    x[high] = -num / den
    return x


# numpy has no erfc, and np.exp can differ from math.exp in the last bit, so
# norm_ppf applies the ``math`` functions element by element: a quantile then
# does not depend on whether it was computed alone or within an array.
_math_erfc = np.vectorize(math.erfc, otypes=[float])
_math_exp = np.vectorize(math.exp, otypes=[float])


def norm_ppf(p):
    """Inverse standard normal CDF, refined to near machine precision.

    Takes a float (returns a float) or an array of probabilities (returns an
    array of the same shape, each element equal to its scalar result).
    """
    arr = np.asarray(p, dtype=float)
    inside = (arr > 0.0) & (arr < 1.0)
    if not inside.all():
        raise InvalidArgumentError(
            f"norm_ppf requires 0 < p < 1, got {float(arr[~inside][0])}")
    x = _acklam(arr)
    # One Halley step: e = Phi(x) - p, u = e / phi(x).
    e = 0.5 * _math_erfc(-x / math.sqrt(2.0)) - arr
    u = e * math.sqrt(2.0 * math.pi) * _math_exp(x * x / 2.0)
    x = x - u / (1.0 + x * u / 2.0)
    return float(x) if arr.ndim == 0 else x


def norm_ppf_array(p: np.ndarray) -> np.ndarray:
    """Vectorized inverse normal CDF (Acklam approximation, ~1e-9 accuracy).

    Deliberately unrefined: ``rng.normals`` and the Shapiro-Wilk scores are
    defined by these exact values.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise InvalidArgumentError("norm_ppf_array requires all p in (0, 1)")
    return _acklam(p)


def _gamma_series(a: float, x: float) -> float:
    # Lower regularized gamma P(a, x) by power series, for x < a + 1.
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_GAMMA_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _GAMMA_TOL:
            break
    else:
        _not_converged("incomplete gamma series", _GAMMA_MAX_ITER, abs(term / total))
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cont_fraction(a: float, x: float) -> float:
    # Upper regularized gamma Q(a, x) via Lentz continued fraction, x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_TOL:
            break
    else:
        _not_converged("incomplete gamma continued fraction", _GAMMA_MAX_ITER,
                       abs(delta - 1.0))
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gammainc_upper_reg(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a)."""
    if a <= 0.0:
        raise InvalidArgumentError(f"gammainc requires a > 0, got {a}")
    if x < 0.0:
        raise InvalidArgumentError(f"gammainc requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cont_fraction(a, x)


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (Lentz's method).
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            break
    else:
        _not_converged("incomplete beta continued fraction", _BETACF_MAX_ITER,
                       abs(delta - 1.0))
    return h


def _not_converged(what: str, iterations: int, residual: float) -> NoReturn:
    raise ConvergenceError(
        f"{what} did not converge in {iterations} iterations "
        f"(last relative step {residual:.3g})", iterations=iterations, residual=residual)


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise InvalidArgumentError("betainc requires a > 0 and b > 0")
    if not 0.0 <= x <= 1.0:
        raise InvalidArgumentError(f"betainc requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b
