"""Small dense linear-algebra kernels: a Householder triangularization and a
Durand-Kerner polynomial root finder. Sized for the tiny systems this toolkit
needs (order <= a few dozen).

Designs are regressor-major: an n x m array with one contiguous row per
regressor and one column per observation (m >= n), so that each Householder
step is one contiguous matrix-vector product and one rank-1 update.
``householder_triangularize`` reduces such a design in place, leaving R
transposed in its first n columns, applies the same reflections to the
right-hand side (giving Q^T y), and reports the first regressor that fails
the rank check against that regressor's own norm. ``armodel._factor`` is its
one caller: it builds each least-squares design, and ``armodel`` solves the
triangular system.

The root finder updates every root at once from the pairwise difference matrix
(O(n^2) memory, fine at these orders) and raises ConvergenceError instead of
returning an iterate that has not found the roots. It evaluates the polynomial
and its rounding bound with ``special._horner``, the package's one Horner loop."""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DegenerateFitError
from .special import _horner

# An update has settled when no root moves more than this times max(1, max |z_i|).
_STEP_TOL = 1e-13


def householder_triangularize(a: np.ndarray, rhs: np.ndarray) -> int:
    """Reduce the regressor-major n x m float array ``a`` (n regressors as
    rows, m >= n observations as columns) in place by Householder
    reflections, applying each reflection to the length-m float vector
    ``rhs`` too. Afterwards ``a[:, :n]`` holds R transposed:
    R[i, j] = a[j, i] for i <= j.

    Regressor k fails the rank check when the norm of ``a[k, k:]`` at its step
    is at most 1e-12 times the norm of ``a[k]``, which the reflections keep as
    the regressor's own: a scale-free check. Returns n when all pass; otherwise
    stops at the first failing regressor k and returns k. Rows 0..k-1 of R and
    the reflections applied to ``rhs`` are then complete. Entries above the
    diagonal of ``a[:, :n]`` are left as rounding residue rather than zeroed.
    """
    n = a.shape[0]
    outer = np.empty(a.shape)  # each step's rank-1 update, in its corner
    for k in range(n):
        v = a[k, k:].copy()
        norm = float(np.sqrt((v ** 2).sum()))
        if norm <= 1e-12 * float(np.sqrt(a[k, :k] @ a[k, :k] + norm * norm)):
            return k
        if v[0] >= 0:
            v[0] += norm
        else:
            v[0] -= norm
        v /= float(np.sqrt((v ** 2).sum()))
        # Each regressor row w becomes w - 2 (w . v) v: one contiguous
        # product with v, then one rank-1 update written into ``outer``
        # rather than a new temporary.
        block = a[k:, k:]
        two_v = 2.0 * v
        block -= np.multiply.outer(block @ v, two_v, out=outer[k:, k:])
        rhs[k:] -= two_v * float(v @ rhs[k:])
    return n


def polynomial_roots(coeffs: np.ndarray, max_iter: int = 800) -> np.ndarray:
    """All complex roots of c_0 + c_1 z + ... + c_n z^n (Durand-Kerner iteration).

    ``coeffs`` is low-order first with a non-zero leading coefficient. Each
    iteration updates all roots together: z_i -= p(z_i) / prod_{j != i}(z_i - z_j).
    The iterate is returned once the update settles (``_STEP_TOL``), or after
    ``max_iter`` iterations if each |p(z_i)| is within the rounding bound
    2 n eps sum_j |c_j| |z_i|^j (some updates never settle on found roots).
    Otherwise ConvergenceError carries the iteration count and the largest
    |p(z_i)|, inf when the iterate overflows.
    """
    c = np.asarray(coeffs, dtype=complex)
    degree = c.size - 1
    if degree < 1:
        return np.empty(0, dtype=complex)
    if c[-1] == 0:
        raise DegenerateFitError("leading polynomial coefficient must be non-zero")
    monic = c[::-1] / c[-1]  # highest order first

    # Start on a circle slightly larger than the Cauchy root bound.
    radius = 1.0 + float(np.abs(monic[1:]).max())
    angles = 2.0 * np.pi * np.arange(degree) / degree + 0.4
    z = radius * np.exp(1j * angles)

    diagonal = np.diag_indices(degree)
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, max_iter + 1):
            values = _horner(monic, z)
            # A unit diagonal drops the j == i factor; multiplying by 1+0j is
            # exact, so each product equals the one over the other roots alone.
            diff = z[:, None] - z[None, :]
            diff[diagonal] = 1.0
            delta = values / diff.prod(axis=1)
            z = z - delta
            step = float(np.abs(delta).max())
            if step < _STEP_TOL * max(1.0, float(np.abs(z).max())):
                return z
            if not np.isfinite(step):
                message = f"Durand-Kerner iterate is not finite at iteration {iteration}"
                raise ConvergenceError(message, iterations=iteration, residual=np.inf)
        residuals = np.abs(_horner(monic, z))
        bound = 2 * degree * np.finfo(float).eps * _horner(np.abs(monic), np.abs(z))
    if (residuals <= bound).all() and np.isfinite(bound).all():
        return z
    residual = float(residuals.max() * abs(c[-1]))
    raise ConvergenceError(
        f"Durand-Kerner did not converge in {max_iter} iterations "
        f"(max |p(z)| = {residual:.3g})", iterations=max_iter, residual=residual)
