"""Small dense linear-algebra kernels: Householder least squares and a
Durand-Kerner polynomial root finder. Sized for the tiny systems this toolkit
needs (order <= a few dozen).

Least squares is two steps that callers may also run apart:
``householder_triangularize`` reduces a design in place to R, applies the same
reflections to the right-hand side (giving Q^T y), and reports the first
column that fails the rank check against a scale the caller passes;
``back_substitute`` then solves R beta = (Q^T y)[:n]. The least-squares AIC
scan in ``armodel`` triangularizes the rows all orders share once and reuses
R and Q^T y for every order.

The root finder updates every root at once from the pairwise difference matrix
(O(n^2) memory, fine at these orders) and raises ConvergenceError instead of
returning an unconverged iterate."""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DegenerateFitError


def back_substitute(r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``r[:n, :n] @ x = rhs[:n]`` for x, reading only the upper triangle
    of r (n = number of columns of r)."""
    n = r.shape[1]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (rhs[row] - float(r[row, row + 1:] @ x[row + 1:])) / r[row, row]
    return x


def householder_triangularize(a: np.ndarray, rhs: np.ndarray, scale: float) -> int:
    """Reduce the m x n float array ``a`` (m >= n) in place to R by Householder
    reflections, applying each reflection to the float vector ``rhs`` too.

    Column k fails the rank check when the norm of ``a[k:, k]`` at its step is
    below ``1e-12 * scale``. Returns n when every column passes; otherwise
    stops at the first failing column k and returns k. Columns 0..k-1 of R and
    the reflections applied to ``rhs`` are then complete. Entries below the
    diagonal are left as rounding residue rather than zeroed.
    """
    n = a.shape[1]
    for k in range(n):
        v = a[k:, k].copy()
        norm = float(np.sqrt((v ** 2).sum()))
        if norm < 1e-12 * scale:
            return k
        if v[0] >= 0:
            v[0] += norm
        else:
            v[0] -= norm
        v /= float(np.sqrt((v ** 2).sum()))
        # (2 v_i) w_j equals 2 (v_i w_j) bit for bit unless the product is
        # subnormal, and needs one full-size temporary instead of two.
        a[k:, k:] -= np.outer(2.0 * v, v @ a[k:, k:])
        rhs[k:] -= 2.0 * v * float(v @ rhs[k:])
    return n


def least_squares(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||design @ beta - y||^2 via Householder QR.

    Returns (beta, sse). Raises DegenerateFitError on rank deficiency, judged
    against the largest |entry| of the design.
    """
    a = np.array(design, dtype=float)
    rhs = np.array(y, dtype=float)
    m, n = a.shape
    if m < n:
        raise DegenerateFitError(f"least squares needs rows >= columns, got {m}x{n}")
    scale = max(float(np.abs(a).max()), 1e-300)
    if householder_triangularize(a, rhs, scale) < n:
        raise DegenerateFitError("rank-deficient design matrix")
    sse = float((rhs[n:] ** 2).sum())
    return back_substitute(a, rhs), sse


def polynomial_roots(coeffs: np.ndarray, max_iter: int = 800,
                     tol: float = 1e-13) -> np.ndarray:
    """All complex roots of c_0 + c_1 z + ... + c_n z^n (Durand-Kerner iteration).

    ``coeffs`` is low-order first with a non-zero leading coefficient. Each
    iteration updates all roots together: z_i -= p(z_i) / prod_{j != i}(z_i - z_j).
    Raises ConvergenceError, carrying the iteration count and the largest
    |p(z_i)| of the last iterate, if the update has not settled within
    ``max_iter`` iterations.
    """
    c = np.asarray(coeffs, dtype=complex)
    degree = c.size - 1
    if degree < 1:
        return np.empty(0, dtype=complex)
    if c[-1] == 0:
        raise DegenerateFitError("leading polynomial coefficient must be non-zero")
    monic = c / c[-1]

    # Start on a circle slightly larger than the Cauchy root bound.
    radius = 1.0 + float(np.abs(monic[:-1]).max())
    angles = 2.0 * np.pi * np.arange(degree) / degree + 0.4
    z = radius * np.exp(1j * angles)

    def poly_at(v: np.ndarray) -> np.ndarray:
        out = np.full_like(v, monic[-1])
        for coef in monic[-2::-1]:
            out = out * v + coef
        return out

    diagonal = np.diag_indices(degree)
    for _ in range(max_iter):
        values = poly_at(z)
        # A unit diagonal drops the j == i factor; multiplying by 1+0j is exact,
        # so each product equals the one over the other roots alone.
        diff = z[:, None] - z[None, :]
        diff[diagonal] = 1.0
        delta = values / diff.prod(axis=1)
        z = z - delta
        if np.abs(delta).max() < tol * max(1.0, float(np.abs(z).max())):
            return z
    residual = float(np.abs(poly_at(z)).max() * abs(c[-1]))
    raise ConvergenceError(
        f"Durand-Kerner did not converge in {max_iter} iterations "
        f"(max |p(z)| = {residual:.3g})", iterations=max_iter, residual=residual)
