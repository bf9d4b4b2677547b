"""AR(p) estimation, AIC order identification, root checks, and simulators.

Yule-Walker fits run Levinson-Durbin on the biased autocovariances, which keeps
every fitted model stationary; conditional least squares is the alternative
estimator whose stationarity is checked but not enforced. Order selection
minimizes AIC(k) = ln(sigma2_k) + 2k/N with ties broken toward the smaller
order. Simulators draw Gaussian innovations from the counter-based generator so
that output is a pure function of (model, n, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import rng
from ._linalg import householder_triangularize, least_squares, polynomial_roots
from .correlation import autocovariance
from .errors import (DegenerateFitError, InvalidArgumentError,
                     NonStationaryModelError, ZeroVarianceError)
from .series import TimeSeries

UNIT_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class ArModel:
    """AR(p) model x_t - mean = sum_j phi_j (x_{t-j} - mean) + w_t.

    The characteristic roots are solved once per model, on first use, and
    shared by ``characteristic_roots`` and ``unit_root_flags``, which feed the
    report's root list. Stationarity is decided without them (``is_stationary``).
    """

    phi: tuple[float, ...]
    sigma2: float
    mean: float = 0.0
    estimation_method: str = "specified"
    n_used: int = 0

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))
        if not all(math.isfinite(v) for v in self.phi):
            raise InvalidArgumentError("AR coefficients must be finite")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise InvalidArgumentError(
                f"innovation variance must be >= 0, got {self.sigma2}")

    @property
    def order(self) -> int:
        return len(self.phi)

    @cached_property
    def _roots(self) -> np.ndarray:
        # cached_property stores into the instance __dict__, bypassing the
        # frozen __setattr__; __eq__ and __hash__ see only the fields.
        if self.order == 0:
            roots = np.empty(0, dtype=complex)
        else:
            roots = polynomial_roots(np.concatenate(([1.0], -np.asarray(self.phi))))
        roots.flags.writeable = False
        return roots


@dataclass(frozen=True)
class AicRow:
    order: int
    sigma2: Optional[float]
    aic: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class AicTable:
    rows: tuple[AicRow, ...]
    selected_order: int
    method: str
    n: int

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "n": self.n,
            "selected_order": self.selected_order,
            "rows": [{"order": r.order, "sigma2": r.sigma2, "aic": r.aic,
                      "error": r.error} for r in self.rows],
        }


@dataclass(frozen=True)
class RandomWalkSpec:
    """Random walk with drift: y_t = drift + y_{t-1} + innovation_t."""

    drift: float = 0.0
    innovation_sigma2: float = 1.0
    y0: float = 0.0

    def __post_init__(self):
        if self.innovation_sigma2 <= 0.0:
            raise InvalidArgumentError(
                f"innovation variance must be > 0, got {self.innovation_sigma2}")


@dataclass(frozen=True)
class RandomWalkMoments:
    mean: float
    variance: float
    autocovariance: float
    acf: float


def levinson_durbin(gamma: Sequence[float], order: int) -> tuple[list[np.ndarray], list[float]]:
    """Levinson-Durbin recursion on autocovariances gamma_0..gamma_order.

    Returns (phis, variances): ``phis[k]`` holds the order-k coefficient vector
    and ``variances[k]`` the innovation variance, for k = 0..order.

    A reflection coefficient with |kappa| >= 1 at order k raises
    ``DegenerateFitError``; its ``variances`` attribute holds the innovation
    variances of orders 0..k-1, which the recursion had completed.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.size < order + 1:
        raise InvalidArgumentError("need autocovariances up to the requested order")
    if gamma[0] <= 0.0:
        raise ZeroVarianceError("lag-zero autocovariance must be positive")
    phis: list[np.ndarray] = [np.empty(0)]
    variances = [float(gamma[0])]
    phi = np.empty(0)
    v = float(gamma[0])
    for k in range(1, order + 1):
        num = gamma[k] - float(phi @ gamma[k - 1:0:-1]) if k > 1 else gamma[1]
        kappa = num / v
        if not math.isfinite(kappa) or abs(kappa) >= 1.0:
            exc = DegenerateFitError(
                f"reflection coefficient magnitude >= 1 at order {k} (got {kappa})")
            exc.variances = variances
            raise exc
        phi = np.concatenate((phi - kappa * phi[::-1], [kappa]))
        v *= 1.0 - kappa * kappa
        phis.append(phi.copy())
        variances.append(v)
    return phis, variances


def fit_ar_yule_walker(x: Sequence[float], p: int) -> ArModel:
    """Order-p Yule-Walker fit; the result is always stationary."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if p < 0:
        raise InvalidArgumentError(f"order must be >= 0, got {p}")
    if p >= n / 2:
        raise InvalidArgumentError(f"order p={p} must be below N/2 with N={n}")
    gamma = autocovariance(arr, p)
    if gamma[0] <= 0.0:
        raise ZeroVarianceError("Yule-Walker requires a non-constant series")
    phis, variances = levinson_durbin(gamma, p)
    return ArModel(phi=tuple(phis[p]), sigma2=variances[p], mean=float(arr.mean()),
                   estimation_method="yule_walker", n_used=n)


def fit_ar_least_squares(x: Sequence[float], p: int) -> ArModel:
    """Conditional least squares with intercept, regressing x_t on its p lags."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if p < 1:
        raise InvalidArgumentError(f"order must be >= 1, got {p}")
    if p >= n - 1:
        raise InvalidArgumentError(f"order p={p} must be below N-1 with N={n}")
    beta, sse = least_squares(*_lag_design(arr, p))
    intercept = float(beta[0])
    phi = tuple(float(v) for v in beta[1:])
    sigma2 = sse / (n - p)
    phi_sum = sum(phi)
    mean = intercept / (1.0 - phi_sum) if abs(1.0 - phi_sum) > 1e-10 else float(arr.mean())
    return ArModel(phi=phi, sigma2=sigma2, mean=mean,
                   estimation_method="least_squares", n_used=n)


def _lag_design(arr: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows t = p..N-1 of the order-p regression: columns [1, x_{t-1}, ...,
    x_{t-p}] and the target x_t."""
    n = arr.size
    design = np.ones((n - p, p + 1))
    for j in range(1, p + 1):
        design[:, j] = arr[p - j: n - j]
    return design, arr[p:]


def select_order_aic(x: Sequence[float], max_order: int,
                     method: str = "yule_walker") -> AicTable:
    """Evaluate AIC(k) = ln(sigma2_k) + 2k/N for k = 0..max_order.

    Yule-Walker runs one Levinson-Durbin recursion for every order. Least
    squares triangularizes the rows all orders share once and derives each
    order's SSE from that factorization; an order whose columns are
    rank-deficient on the shared rows is fitted on its own, so its row, or
    its error text, is that of ``fit_ar_least_squares``.
    """
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if max_order < 1:
        raise InvalidArgumentError(f"max_order must be >= 1, got {max_order}")
    if max_order >= n / 2:
        raise InvalidArgumentError(
            f"max_order K={max_order} must be below N/2 with N={n}")
    if method not in ("yule_walker", "least_squares"):
        raise InvalidArgumentError(f"unknown estimator {method!r}")

    if method == "yule_walker":
        gamma = autocovariance(arr, max_order)
        if gamma[0] <= 0.0:
            raise ZeroVarianceError("AIC scan requires a non-constant series")
        # One recursion yields every order's variance. A degenerate reflection
        # at order j breaks orders j and above only; earlier orders keep their
        # valid rows.
        try:
            _, variances = levinson_durbin(gamma, max_order)
            error = None
        except DegenerateFitError as exc:
            variances, error = exc.variances, str(exc)
        rows = [_aic_row(k, v, n) for k, v in enumerate(variances)]
        rows += [AicRow(order=k, sigma2=None, aic=None, error=error)
                 for k in range(len(variances), max_order + 1)]
    else:
        centered = arr - arr.mean()
        sigma2_0 = float((centered ** 2).mean())
        rows = [_aic_row(0, sigma2_0, n) if sigma2_0 > 0.0 else
                AicRow(order=0, sigma2=None, aic=None, error="zero variance")]
        rows += _least_squares_rows(arr, max_order)

    valid = [r for r in rows if r.error is None]
    if not valid:
        raise DegenerateFitError("AIC evaluation failed at every candidate order")
    best = min(valid, key=lambda r: (r.aic, r.order))
    return AicTable(rows=tuple(rows), selected_order=best.order, method=method, n=n)


def _least_squares_rows(arr: np.ndarray, max_order: int) -> list[AicRow]:
    """AIC rows of orders 1..K (K = max_order) for conditional least squares.

    The rows t = K..N-1 appear in every order's regression. They are
    triangularized once, as the order-K design, into R and Q^T y. QR nests
    over column prefixes, so order k's fit is the fit of the small system
    [R[:k+1, :k+1]; rows t = k..K-1 of the order-k design] with right-hand
    side [(Q^T y)[:k+1]; x_k..x_{K-1}], and
    SSE_k = SSE(small system) + sum_{i>k} (Q^T y)_i^2.
    That costs one O(N K^2) factorization instead of K of them.

    An order is fitted on its own with ``fit_ar_least_squares``, which gives
    the rows (and error texts) of a per-order scan, when the shared rows
    fail the rank check at one of its columns, when its small system fails
    it, or when its SSE is not finite. Adding rows never shrinks |R_jj|, so
    when the shared rows pass the rank check, each order's own rows pass it
    too (up to rounding) and no order takes that path.
    """
    n = arr.size
    r, qty = _lag_design(arr, max_order)
    qty = qty.copy()
    # Each order-k design (k >= 1) holds the ones column and all of x[:N-1],
    # as this one does, so every rank check here uses the scale the
    # per-order fit would use.
    scale = float(np.abs(r).max())
    rank = householder_triangularize(r, qty, scale)
    rows = []
    for k in range(1, max_order + 1):
        sse = math.nan
        if k < rank:
            extra, extra_target = _lag_design(arr[:max_order], k)
            a = np.vstack((np.triu(r[:k + 1, :k + 1]), extra))
            b = np.concatenate((qty[:k + 1], extra_target))
            if householder_triangularize(a, b, scale) > k:
                sse = float((b[k + 1:] ** 2).sum()) + float((qty[k + 1:] ** 2).sum())
        if math.isfinite(sse):
            rows.append(_aic_row(k, sse / (n - k), n))
            continue
        try:
            rows.append(_aic_row(k, fit_ar_least_squares(arr, k).sigma2, n))
        except (DegenerateFitError, InvalidArgumentError) as exc:
            rows.append(AicRow(order=k, sigma2=None, aic=None, error=str(exc)))
    return rows


def _aic_row(k: int, sigma2: float, n: int) -> AicRow:
    if sigma2 <= 0.0:
        return AicRow(order=k, sigma2=sigma2, aic=None,
                      error="non-positive innovation variance")
    if not math.isfinite(sigma2):
        return AicRow(order=k, sigma2=None, aic=None,
                      error="non-finite innovation variance")
    return AicRow(order=k, sigma2=float(sigma2),
                  aic=math.log(sigma2) + 2.0 * k / n)


def characteristic_roots(model: ArModel) -> np.ndarray:
    """Roots of phi(z) = 1 - phi_1 z - ... - phi_p z^p (empty for p = 0).

    Returns a copy of the model's cached roots, so callers may modify it.
    """
    return model._roots.copy()


def _step_down(phi: Sequence[float]) -> Optional[list[list[float]]]:
    """Levinson-Durbin run backwards from the order-p coefficients ``phi``
    (the Schur-Cohn step-down), on plain Python floats.

    Returns the coefficient vectors of orders 0..p, where kappa_k, the last
    entry of order k, is its reflection coefficient; or None as soon as some
    |kappa_k| >= 1 or is NaN. Every |kappa_k| < 1 holds exactly when every
    root of 1 - phi_1 z - ... - phi_p z^p lies outside the unit circle.
    """
    orders = [list(phi)]
    while orders[-1]:
        *head, kappa = orders[-1]
        if not abs(kappa) < 1.0:
            return None
        scale = 1.0 - kappa * kappa
        orders.append([(u + kappa * w) / scale for u, w in zip(head, reversed(head))])
    return orders[::-1]


def is_stationary(model: ArModel) -> bool:
    """True when every characteristic root lies strictly outside the unit circle.

    Decided from the reflection coefficients (``_step_down``) without solving
    for the roots. A stationary model may still have a root within
    UNIT_ROOT_TOL of the unit circle, which ``unit_root_flags`` flags.
    """
    return _step_down(model.phi) is not None


def unit_root_flags(model: ArModel) -> np.ndarray:
    """Boolean flag per root: modulus within UNIT_ROOT_TOL of the unit circle."""
    return np.abs(np.abs(model._roots) - 1.0) <= UNIT_ROOT_TOL


def psi_weights(model: ArModel, count: int) -> np.ndarray:
    """First ``count`` coefficients of the MA(infinity) representation."""
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    phi = np.asarray(model.phi)
    p = phi.size
    h = np.zeros(count)
    h[0] = 1.0
    for k in range(1, count):
        j_max = min(k, p)
        h[k] = float(phi[:j_max] @ h[k - j_max: k][::-1])
    return h


def default_burn_in(order: int) -> int:
    return 10 * order + 50


def simulate_ar(model: ArModel, n: int, seed: int,
                burn_in: Optional[int] = None) -> TimeSeries:
    """Simulate a stationary AR model with Gaussian innovations.

    Deterministic in (model, n, seed, burn_in); the recursion warm-starts at
    zero and discards ``burn_in`` samples (default 10p + 50).

    Each step is ``acc = e_t`` then ``acc += phi_j * y_{t-j}`` for j = 1..p,
    left to right, on plain Python floats. Python floats and ``np.float64``
    are both IEEE-754 binary64 without fused multiply-add, so this gives the
    same bits as the same loop on numpy scalars. Do not change the order or
    the rounding of the additions (``sum()``, ``math.fsum``, ``np.dot``,
    ``np.convolve``): every simulated value, and with it the seed-0 output
    digest the tests and the benchmark check, would change.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    if burn_in is None:
        burn_in = default_burn_in(model.order)
    if burn_in < 0:
        raise InvalidArgumentError(f"burn_in must be >= 0, got {burn_in}")
    if not is_stationary(model):
        raise NonStationaryModelError(
            "simulate_ar requires a stationary model; integrate a stationary "
            "simulation instead for unit-root processes")
    total = n + burn_in
    innovations = math.sqrt(model.sigma2) * rng.normals(seed, total)
    p = model.order
    if p == 0:
        values = innovations[burn_in:]
    else:
        phi = model.phi
        y = innovations.tolist()  # overwritten in place by the series
        lags = [0.0] * p  # y_{t-1}, ..., y_{t-p}: newest first
        for t, acc in enumerate(y):
            for coef, lag in zip(phi, lags):
                acc += coef * lag
            lags.insert(0, acc)
            del lags[p]
            y[t] = acc
        values = np.array(y[burn_in:])
    return TimeSeries(values + model.mean)


def simulate_random_walk(spec: RandomWalkSpec, n: int, seed: int) -> TimeSeries:
    """Random walk with drift observed at t = 1..n (the y0 seed is not emitted)."""
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    steps = math.sqrt(spec.innovation_sigma2) * rng.normals(seed, n)
    t = np.arange(1, n + 1, dtype=float)
    return TimeSeries(spec.y0 + spec.drift * t + np.cumsum(steps))


def random_walk_moments(spec: RandomWalkSpec, t: int, k: int) -> RandomWalkMoments:
    """Closed-form mean, variance, lag-k autocovariance and ACF at time t."""
    if t < 1:
        raise InvalidArgumentError(f"t must be >= 1, got {t}")
    if k < 0 or k > t:
        raise InvalidArgumentError(f"lag k must satisfy 0 <= k <= t, got {k}")
    s2 = spec.innovation_sigma2
    return RandomWalkMoments(
        mean=spec.y0 + t * spec.drift,
        variance=t * s2,
        autocovariance=(t - k) * s2,
        acf=(t - k) / t,
    )
