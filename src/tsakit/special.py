"""Scalar special functions backing the distribution tails used by the toolkit.

Everything here is implemented directly (a continued fraction, rational
approximations) on top of ``math`` primitives, so p-values and quantiles do not
depend on any third-party statistics library. The package's one Horner loop,
``_horner``, serves Acklam's approximation, the Royston polynomials in
``stattests`` and the root finder in ``_linalg``. ``norm_ppf`` is the one
public inverse normal; ``rng`` and the Shapiro-Wilk weights call Acklam's
unrefined approximation, ``_acklam``, directly. The regularized incomplete
beta function, which gives the Student-t tails of ``regression``, sums its
continued fraction by the modified Lentz method in ``_betacf``.

The continued fraction raises ConvergenceError when it reaches its cap of 300
steps, rather than returning a partial result. That happens for large shape
parameters near the centre of the distribution (``betainc_reg(1e6, 1e6, 0.5)``,
for one), where the fraction needs more terms than the cap; no large-parameter
expansion is implemented.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, InvalidArgumentError

_BETACF_TOL = 1e-14
_BETACF_MAX_ITER = 300
_TINY = 1e-300  # keeps the Lentz denominators off zero


def normal_sf(x: float) -> float:
    """Standard normal survival function 1 - Phi(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _horner(coeffs, x):
    """Polynomial with ``coeffs`` (highest order first, at least two) at x, by
    Horner's rule. An array x is updated in one buffer, allocated once."""
    out = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


# Acklam's rational approximation to the inverse normal CDF, coefficients
# highest order first. Relative accuracy about 1.15e-9 on its own; norm_ppf
# refines it to near machine precision with one Halley step against erfc.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00, 1.0)
_ACKLAM_P_LOW = 0.02425


def _acklam(p):
    """Acklam's approximation to the inverse normal CDF at each p, which
    must lie in (0, 1); nothing checks it.

    Deliberately unrefined: ``rng.normals`` and the Shapiro-Wilk scores are
    defined by these exact values. ``norm_ppf`` is the refined, checked
    quantile."""
    p = np.asarray(p, dtype=float)
    x = np.empty_like(p)
    central = (p >= _ACKLAM_P_LOW) & (p <= 1.0 - _ACKLAM_P_LOW)
    q = p[central] - 0.5
    r = q * q
    x[central] = _horner(_ACKLAM_A, r) * q / _horner(_ACKLAM_B, r)
    # Both tails use the lower-tail formula through x(p) = -x(1 - p).
    tail = p[~central]
    upper = tail > 0.5
    q = np.sqrt(-2.0 * np.log(np.where(upper, 1.0 - tail, tail)))
    lower = _horner(_ACKLAM_C, q) / _horner(_ACKLAM_D, q)
    x[~central] = np.where(upper, -lower, lower)
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


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta by the modified Lentz method
    # (Thompson & Barnett 1986), an even and an odd term per step. It has
    # converged when a step's odd term changes h by less than the tolerance.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (_TINY if abs(d) < _TINY else d)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (_TINY if abs(d) < _TINY else d)
            c = 1.0 + aa / c
            c = _TINY if abs(c) < _TINY else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    residual = abs(delta - 1.0)
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge in {_BETACF_MAX_ITER} "
        f"iterations (last relative step {residual:.3g})",
        iterations=_BETACF_MAX_ITER, residual=residual)


def _reflects(a: float, b: float, x: float) -> bool:
    """Whether I_x(a, b) is summed as 1 - I_{1-x}(b, a): the continued
    fraction for I_x(a, b) converges fast only below x = (a + 1)/(a + b + 2)."""
    return x >= (a + 1.0) / (a + b + 2.0)


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):  # NaN fails too
        raise InvalidArgumentError(
            f"betainc requires 0 < a, b < inf, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise InvalidArgumentError(f"betainc requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    # lgamma(a + b) and the larger shape's lgamma nearly cancel: subtract them first.
    ln_front = (math.lgamma(a + b) - math.lgamma(max(a, b)) - math.lgamma(min(a, b))
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if not _reflects(a, b, x):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b
