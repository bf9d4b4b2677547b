"""AR(p) estimation, AIC order identification, root checks, and simulators.

Yule-Walker fits run Levinson-Durbin on the biased autocovariances, which keeps
every fitted model stationary; one recursion to order K gives the fit of every
order up to K. Conditional least squares is the alternative estimator whose
stationarity is checked but not enforced; the AIC scan is its one fitter.
It takes one Householder factor of the order-K regression (``_factor``),
derives each lower order's R by row updates, and back-substitutes on the
selected order's R rows (``_back_substitute``). Order selection minimizes
AIC(k) = ln(sigma2_k) + 2k/N with ties broken toward the smaller order.
``_step_down`` runs the recursion backwards, from a model's coefficients to
its reflection coefficients; it decides stationarity and gives the model's
theoretical autocorrelations (``theoretical_ar_acf``).
Simulators draw Gaussian innovations from the counter-based generator so that
output is a pure function of (model, n, seed). They run in chunks of
``_CHUNK`` samples (``_ar_chunks``, ``_random_walk_chunks``): each chunk draws
its slice of the innovations, carries the AR lags or the walk's running sum
over from the chunk before, and is checked finite, so memory does not grow
with n or the burn-in and every bit is the one a whole-array run gives. The
CLI writes each chunk as it comes; ``simulate_ar`` and
``simulate_random_walk`` join the chunks into one series. The AR recursion is
a loop that ``_ar_recursion`` compiles for the model's order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import rng
from ._linalg import householder_triangularize, polynomial_roots
from .correlation import autocovariance
from .errors import (DegenerateFitError, InvalidArgumentError,
                     NonStationaryModelError, ZeroVarianceError, _as_index)
from .series import TimeSeries, _check_finite

UNIT_ROOT_TOL = 1e-8
_ESTIMATORS = ("yule_walker", "least_squares")  # select_order_aic's methods


@dataclass(frozen=True)
class ArModel:
    """AR(p) model x_t - mean = sum_j phi_j (x_{t-j} - mean) + w_t.

    Stationarity is decided without the characteristic roots
    (``is_stationary``); ``characteristic_roots`` solves for them on each call.
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
        if not math.isfinite(self.mean):
            raise InvalidArgumentError(f"mean must be finite, got {self.mean}")

    @property
    def order(self) -> int:
        return len(self.phi)


@dataclass(frozen=True)
class AicRow:
    order: int
    sigma2: Optional[float]
    aic: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class AicTable:
    """The AIC rows of orders 0..K, the selected order, and its fitted model."""

    rows: tuple[AicRow, ...]
    selected_order: int
    model: ArModel


@dataclass(frozen=True)
class RandomWalkSpec:
    """Random walk with drift: y_t = drift + y_{t-1} + innovation_t."""

    drift: float = 0.0
    innovation_sigma2: float = 1.0
    y0: float = 0.0

    def __post_init__(self):
        if not self.innovation_sigma2 < math.inf:  # NaN fails this test too
            raise InvalidArgumentError(
                f"innovation variance must be finite, got {self.innovation_sigma2}")
        if self.innovation_sigma2 <= 0.0:
            raise InvalidArgumentError(
                f"innovation variance must be > 0, got {self.innovation_sigma2}")
        for name, value in (("drift", self.drift), ("y0", self.y0)):
            if not math.isfinite(value):
                raise InvalidArgumentError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class RandomWalkMoments:
    mean: float
    variance: float
    autocovariance: float
    acf: float


def levinson_durbin(gamma: Sequence[float], order: int) -> tuple[list[np.ndarray], list[float]]:
    """Levinson-Durbin recursion on autocovariances gamma_0..gamma_order.

    Returns (phis, variances): ``phis[k]`` is the order-k coefficient vector
    and ``variances[k]`` the innovation variance of order k, for
    k = 0..order. Step k solves the order-k Yule-Walker equations (Durbin,
    1960), so ``phis[k]`` and ``variances[k]`` are the order-k Yule-Walker
    fit.

    A reflection coefficient with |kappa| >= 1 at order k raises
    ``DegenerateFitError``; its ``phis`` and ``variances`` attributes hold
    the vectors and variances of orders 0..k-1, which the recursion had
    completed. A negative order raises ``InvalidArgumentError``.
    """
    order = _as_index(order, "order", 0)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.size < order + 1:
        raise InvalidArgumentError("need autocovariances up to the requested order")
    if gamma[0] <= 0.0:
        raise ZeroVarianceError("lag-zero autocovariance must be positive")
    phis = [np.empty(0)]
    variances = [float(gamma[0])]
    v = float(gamma[0])
    for k in range(1, order + 1):
        phi = phis[-1]
        num = gamma[k] - float(phi @ gamma[k - 1:0:-1])
        kappa = num / v
        if not math.isfinite(kappa) or abs(kappa) >= 1.0:
            exc = DegenerateFitError(
                f"reflection coefficient magnitude >= 1 at order {k} (got {kappa})")
            exc.phis, exc.variances = phis, variances
            raise exc
        phis.append(np.concatenate((phi - kappa * phi[::-1], [kappa])))
        v *= 1.0 - kappa * kappa
        variances.append(v)
    return phis, variances


def _factor(arr: np.ndarray, p: int) -> tuple[list[list[float]], list[float], float]:
    """Triangularize the order-p regression over rows t = p..N-1, and return
    (r, z, sse): r[i] is row i of R from its diagonal on and z the matching
    entries of Q^T y, for the regressors before the first that fails the rank
    check (all p + 1 when none fails), and sse the residual sum of squares on
    those regressors. The check judges each regressor against its own norm,
    so the same regressors pass at any scale of x.

    The design is regressor-major: row 0 is the ones regressor and row j is
    x_{t-j} over those t.
    """
    n = arr.size
    design = np.empty((p + 1, n - p))
    design[0] = 1.0
    for j in range(1, p + 1):
        design[j] = arr[p - j: n - j]
    qty = arr[p:].copy()
    rank = householder_triangularize(design, qty)
    r = [design[i:rank, i].tolist() for i in range(rank)]
    return r, qty[:rank].tolist(), float((qty[rank:] ** 2).sum())


def _back_substitute(r: list[list[float]], z: list[float]) -> list[float]:
    """Solve R beta = z, where r[i] is row i of R from its diagonal on, as
    ``_factor`` and the AIC scan's row updates leave it."""
    beta = [0.0] * len(r)
    for i in range(len(r) - 1, -1, -1):
        r_i = r[i]
        acc = z[i]
        for j in range(1, len(r_i)):
            acc -= r_i[j] * beta[i + j]
        beta[i] = acc / r_i[0]
    return beta


def _least_squares_model(arr: np.ndarray, beta: Sequence[float], sigma2: float) -> ArModel:
    """The AR model of the least-squares coefficients ``beta`` (intercept
    first, then phi_1..phi_p) and innovation variance ``sigma2``."""
    intercept = float(beta[0])
    phi = tuple(float(v) for v in beta[1:])
    phi_sum = sum(phi)
    mean = intercept / (1.0 - phi_sum) if abs(1.0 - phi_sum) > 1e-10 else float(arr.mean())
    return ArModel(phi=phi, sigma2=sigma2, mean=mean,
                   estimation_method="least_squares", n_used=arr.size)


def select_order_aic(x: Sequence[float], max_order: int,
                     method: str = "yule_walker") -> AicTable:
    """Evaluate AIC(k) = ln(sigma2_k) + 2k/N for k = 0..max_order, and
    return the selected order's model with the table. No order is refitted.

    Yule-Walker runs one Levinson-Durbin recursion, whose step k is the
    order-k fit, so the selected model is that step's vector and variance.
    Least squares triangularizes the rows all orders share once and derives
    each lower order's SSE from that factorization by dropping a regressor
    and adding one row (``_least_squares_rows``); each order's fit is its R
    and Q^T y. The selected order's phi and intercept solve R beta = Q^T y
    (``_back_substitute``), and its sigma2 is its AIC row's, so the model
    and the table agree exactly. This scan is the package's one
    least-squares fitter. Order 0 is the same white-noise model under either
    estimator, labelled Yule-Walker: phi = (), row 0's sigma2 (the lag-0
    autocovariance) and the sample mean.
    """
    arr = np.asarray(x, dtype=float)
    n = arr.size
    max_order = _as_index(max_order, "max_order", 1)
    if max_order >= n / 2:
        raise InvalidArgumentError(
            f"max_order K={max_order} must be below N/2 with N={n}")
    if method not in _ESTIMATORS:
        raise InvalidArgumentError(f"unknown estimator {method!r}")

    if method == "yule_walker":
        gamma = autocovariance(arr, max_order)
        if gamma[0] <= 0.0:
            raise ZeroVarianceError("AIC scan requires a non-constant series")
        # One recursion yields every order's fit. A degenerate reflection at
        # order j breaks orders j and above only; earlier orders keep their
        # valid rows and vectors.
        try:
            phis, variances = levinson_durbin(gamma, max_order)
            error = None
        except DegenerateFitError as exc:
            phis, variances, error = exc.phis, exc.variances, str(exc)
        rows = [_aic_row(k, v, n) for k, v in enumerate(variances)]
        rows += [AicRow(order=k, sigma2=None, aic=None, error=error)
                 for k in range(len(variances), max_order + 1)]
    else:
        sigma2_0 = float(autocovariance(arr, 0)[0])
        rows = [_aic_row(0, sigma2_0, n) if sigma2_0 > 0.0 else
                AicRow(order=0, sigma2=None, aic=None, error="zero variance")]
        ls_rows, fits = _least_squares_rows(arr, max_order)
        rows += ls_rows

    valid = [r for r in rows if r.error is None]
    if not valid:
        raise DegenerateFitError("AIC evaluation failed at every candidate order")
    best = min(valid, key=lambda r: (r.aic, r.order))
    if method == "yule_walker" or best.order == 0:
        model = ArModel(phi=phis[best.order] if best.order else (),
                        sigma2=best.sigma2, mean=float(arr.mean()),
                        estimation_method="yule_walker", n_used=n)
    else:
        model = _least_squares_model(arr, _back_substitute(*fits[best.order - 1]),
                                     best.sigma2)
    return AicTable(rows=tuple(rows), selected_order=best.order, model=model)


def _least_squares_rows(arr: np.ndarray, max_order: int) -> tuple[list[AicRow], list]:
    """AIC rows of orders 1..K (K = max_order) for conditional least squares,
    and each order's fit.

    The rows t = K..N-1 appear in every order's regression. ``_factor``
    triangularizes them once, as the order-K design, into R, Q^T y and
    SSE_K. The scan then goes down from order K to order 1, updating
    (R, Q^T y, SSE) in place (Golub & Van Loan, Matrix Computations,
    secs. 5.2 and 6.5): order k's regression is order k+1's
    with its last regressor dropped and row t = k added. Dropping the
    regressor leaves R[:k+1, :k+1] triangular and moves (Q^T y)_{k+1} into
    the residual; the row is added by k+1 Givens rotations, and its rotated
    target joins the residual too. That is one O(N K^2) factorization plus
    O(K^3) plain float operations, instead of one factorization per order.

    An order whose regressors fail the rank check on the shared rows is
    factored on its own rows, t = k..N-1, by ``_factor``; if they fail it
    too, its row has the error "rank-deficient design matrix" and its fit is
    None. Regressor j's verdict involves regressors 0..j alone, alike in
    every order's design. Order k's own rows never shrink |R_jj| and grow
    the norm the check measures it against by some factor g, so they pass
    whenever the shared rows do, unless |R_jj| is within g of its bound:
    dependent to working precision either way, and the shared verdict
    stands. No order is factored twice. A non-finite SSE is an error row of
    ``_aic_row``, like any other.

    The fit of order k, the (k-1)th entry of the second list, is a copy of
    (r, z), order k's R rows from the diagonal on and Q^T y, taken when its
    row is written. Back-substituting (``_back_substitute``) only the
    selected order's copy costs far less than solving every order.
    """
    n = arr.size
    # At order k, (r, z, sse) is the fit over rows t >= k of order `top`,
    # the highest order <= k whose regressors passed the rank check: r[i] is
    # row i of R from its diagonal on, and z is (Q^T y)[:top+1].
    r, z, sse = _factor(arr, max_order)
    top = len(r) - 1
    values = arr[:max_order].tolist()  # the rows t < K that the updates add
    rows, fits = [], []
    for k in range(max_order, 0, -1):
        if top > k:
            r.pop()
            for r_i in r:
                r_i.pop()
            dropped = z.pop()
            sse += dropped * dropped
            top = k
        if k < max_order:
            # Rotate row t = k, [1, x_{k-1}, ..., x_{k-top}] with target
            # x_k, into R one diagonal entry at a time.
            u = [1.0, *reversed(values[k - top:k])]
            b = values[k]
            for i, r_i in enumerate(r):
                h = math.hypot(r_i[0], u[i])
                c, s = r_i[0] / h, u[i] / h
                r_i[0] = h
                for j in range(1, len(r_i)):
                    r_ij, u_j = r_i[j], u[i + j]
                    r_i[j] = c * r_ij + s * u_j
                    u[i + j] = c * u_j - s * r_ij
                z_i = z[i]
                z[i] = c * z_i + s * b
                b = c * b - s * z_i
            sse += b * b
        if top == k:
            fit, k_sse = ([r_i.copy() for r_i in r], z.copy()), sse
        else:
            own_r, own_z, k_sse = _factor(arr, k)
            if len(own_r) <= k:
                rows.append(AicRow(order=k, sigma2=None, aic=None,
                                   error="rank-deficient design matrix"))
                fits.append(None)
                continue
            fit = own_r, own_z
        rows.append(_aic_row(k, k_sse / (n - k), n))
        fits.append(fit)
    return rows[::-1], fits[::-1]


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
    """Roots of phi(z) = 1 - phi_1 z - ... - phi_p z^p (empty for p = 0),
    solved afresh by ``polynomial_roots`` on each call."""
    return polynomial_roots(np.concatenate(([1.0], -np.asarray(model.phi))))


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


def theoretical_ar_acf(model: ArModel, max_lag: int) -> np.ndarray:
    """Autocorrelations rho_0..rho_max_lag implied by a stationary AR model.

    Steps the model down to its reflection coefficients kappa_k and
    lower-order coefficient vectors phi_{k,j} (``_step_down``), then
    runs the Levinson relation forward: rho_k = kappa_k v_{k-1} +
    sum_j phi_{k-1,j} rho_{k-j} with v_0 = 1 and v_k = v_{k-1} (1 - kappa_k^2),
    for k = 1..p. Lags past p follow the recursion rho_h = sum_j phi_j rho_{h-j}.
    """
    max_lag = _as_index(max_lag, "max_lag", 1)
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


def is_stationary(model: ArModel) -> bool:
    """True when every characteristic root lies strictly outside the unit circle.

    Decided from the reflection coefficients (``_step_down``) without solving
    for the roots. A stationary model may still have a root within
    UNIT_ROOT_TOL of the unit circle, which the report's root list flags.
    """
    return _step_down(model.phi) is not None


def default_burn_in(order: int) -> int:
    return 10 * order + 50


_CHUNK = 4096  # samples a simulator draws, recurses and yields at a time


def _ar_recursion(p: int):
    """Compile ``run(y, c0, ..., c{p-1}, y0, ..., y{p-1})``, the AR(p)
    recursion over the list ``y`` in place, with phi_j and the lags held in
    local variables. The lags y0, ..., y{p-1} are y_{t-1}, ..., y_{t-p} of
    the first sample; ``run`` returns them for the sample after the last, so
    a series can be run a chunk at a time.

    Each step is ``acc = y[t]``, one ``acc += c_j * y_j`` statement per lag
    in j order (c_j = phi_{j+1}, y_j = y_{t-1-j}), a shift of the lags by
    plain assignments, and ``y[t] = acc``. Statements rather than one long
    expression keep any p under the compiler's nesting limit. The source is
    built from the integer p alone: the coefficients are arguments, never
    text. ``exec`` defines ``run`` in a namespace apart from its globals, so
    ``run`` is in no reference cycle and is freed without the collector.
    """
    lags = range(p)
    src = "\n".join([
        f"def run(y, {', '.join(f'c{j}' for j in lags)}, "
        f"{', '.join(f'y{j}' for j in lags)}):",
        "    for t, acc in enumerate(y):",
        *(f"        acc += c{j} * y{j}" for j in lags),
        *(f"        y{j} = y{j - 1}" for j in reversed(lags[1:])),
        "        y0 = acc",
        "        y[t] = acc",
        f"    return ({''.join(f'y{j}, ' for j in lags)})",
    ])
    namespace: dict = {}
    exec(src, {}, namespace)
    return namespace["run"]


def _ar_chunks(model: ArModel, n: int, seed: int,
               burn_in: Optional[int]) -> Iterator[np.ndarray]:
    """``simulate_ar``'s series as consecutive arrays of ``_CHUNK`` samples
    (the last may be shorter), each checked finite. The arguments are checked
    when the first chunk is asked for.

    The burn-in is drawn, recursed and dropped in chunks of its own, so the
    first chunk yielded starts at t = 1. An AR(0) model has no lag to carry
    the burn-in into the series, so its burn-in is not drawn at all.
    Innovation t is draw burn_in + t - 1 of ``rng.normals(seed, ·)``,
    whichever chunk it falls in.
    """
    n = _as_index(n, "n", 1)
    if burn_in is None:
        burn_in = default_burn_in(model.order)
    burn_in = _as_index(burn_in, "burn_in", 0)
    if not is_stationary(model):
        raise NonStationaryModelError(
            "simulate_ar requires a stationary model; integrate a stationary "
            "simulation instead for unit-root processes")
    p = model.order
    run = _ar_recursion(p) if p else None
    lags = (0.0,) * p  # the recursion warm-starts at zero
    scale = math.sqrt(model.sigma2)
    end = burn_in + n
    bounds = itertools.chain(range(0, burn_in if p else 0, _CHUNK),
                             range(burn_in, end, _CHUNK), (end,))
    for start, stop in itertools.pairwise(bounds):
        values = scale * rng.normals(seed, stop - start, start)
        if p:
            y = values.tolist()  # overwritten in place by the series
            lags = run(y, *model.phi, *lags)
            values = np.array(y)
        if start >= burn_in:
            values += model.mean
            _check_finite(values)
            yield values


def simulate_ar(model: ArModel, n: int, seed: int,
                burn_in: Optional[int] = None) -> TimeSeries:
    """Simulate a stationary AR model with Gaussian innovations.

    Deterministic in (model, n, seed, burn_in); the recursion warm-starts at
    zero and discards ``burn_in`` samples (default 10p + 50). The series is
    the chunks of ``_ar_chunks`` joined.

    The recursion is a loop compiled for the model's order
    (``_ar_recursion``). Each step is ``acc = e_t`` then
    ``acc += phi_j * y_{t-j}`` for j = 1..p, left to right, on plain Python
    floats held in local variables. Python floats and ``np.float64`` are both
    IEEE-754 binary64 without fused multiply-add, so this gives the same bits
    as the same loop on numpy scalars. Do not change the order or the
    rounding of the additions (``sum()``, ``math.fsum``, ``np.dot``,
    ``np.convolve``): every simulated value, and with it the seed-0 output
    digest the tests and the benchmark check, would change.
    """
    return TimeSeries(np.concatenate([*_ar_chunks(model, n, seed, burn_in)]))


def _random_walk_chunks(spec: RandomWalkSpec, n: int, seed: int) -> Iterator[np.ndarray]:
    """``simulate_random_walk``'s series as consecutive arrays of ``_CHUNK``
    samples (the last may be shorter), each checked finite. The arguments are
    checked when the first chunk is asked for.

    Each chunk after the first prepends the running sum of the steps before it
    as the first term of its ``np.cumsum``, which adds left to right, so every
    sum is the one a cumsum over all n steps gives.
    """
    n = _as_index(n, "n", 1)
    scale = math.sqrt(spec.innovation_sigma2)
    carried = np.empty(0)  # the running sum so far, once a chunk has been made
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        steps = scale * rng.normals(seed, stop - start, start)
        sums = np.cumsum(np.concatenate((carried, steps)))[carried.size:]
        carried = sums[-1:]
        t = np.arange(start + 1, stop + 1, dtype=float)
        # A value past the float range is reported by _check_finite alone.
        with np.errstate(over="ignore", invalid="ignore"):
            values = spec.y0 + spec.drift * t + sums
        _check_finite(values)
        yield values


def simulate_random_walk(spec: RandomWalkSpec, n: int, seed: int) -> TimeSeries:
    """Random walk with drift observed at t = 1..n (the y0 seed is not emitted):
    y_t = y0 + drift t + the cumulative sum of the first t steps, the chunks
    of ``_random_walk_chunks`` joined."""
    return TimeSeries(np.concatenate([*_random_walk_chunks(spec, n, seed)]))


def random_walk_moments(spec: RandomWalkSpec, t: int, k: int) -> RandomWalkMoments:
    """Closed-form mean, variance, lag-k autocovariance and ACF at time t."""
    t = _as_index(t, "t", 1)
    k = _as_index(k, "k")
    if k < 0 or k > t:
        raise InvalidArgumentError(f"lag k must satisfy 0 <= k <= t, got {k}")
    s2 = spec.innovation_sigma2
    return RandomWalkMoments(
        mean=spec.y0 + t * spec.drift,
        variance=t * s2,
        autocovariance=(t - k) * s2,
        acf=(t - k) / t,
    )
