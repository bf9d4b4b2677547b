"""Small dense linear-algebra kernels: pivoted solve, Householder least squares,
and a Durand-Kerner polynomial root finder. Sized for the tiny systems this
toolkit needs (order <= a few dozen).

The root finder updates every root at once from the pairwise difference matrix
(O(n^2) memory, fine at these orders) and raises ConvergenceError instead of
returning an unconverged iterate."""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DegenerateFitError


def solve_linear_system(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise DegenerateFitError("solve_linear_system expects a square system")
    scale = max(float(np.abs(a).max()), 1e-300)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) < 1e-13 * scale:
            raise DegenerateFitError("linear system is singular to working precision")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        factors = a[col + 1:, col] / a[col, col]
        a[col + 1:, col:] -= factors[:, None] * a[col, col:]
        b[col + 1:] -= factors * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - float(a[row, row + 1:] @ x[row + 1:])) / a[row, row]
    return x


def least_squares(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||design @ beta - y||^2 via Householder QR.

    Returns (beta, sse). Raises DegenerateFitError on rank deficiency.
    """
    a = np.array(design, dtype=float)
    rhs = np.array(y, dtype=float)
    m, n = a.shape
    if m < n:
        raise DegenerateFitError(f"least squares needs rows >= columns, got {m}x{n}")
    col_scale = max(float(np.abs(a).max()), 1e-300)
    for k in range(n):
        v = a[k:, k].copy()
        norm = float(np.sqrt((v ** 2).sum()))
        if norm < 1e-12 * col_scale:
            raise DegenerateFitError("rank-deficient design matrix")
        if v[0] >= 0:
            v[0] += norm
        else:
            v[0] -= norm
        v /= float(np.sqrt((v ** 2).sum()))
        a[k:, k:] -= 2.0 * np.outer(v, v @ a[k:, k:])
        rhs[k:] -= 2.0 * v * float(v @ rhs[k:])
    beta = np.zeros(n)
    for row in range(n - 1, -1, -1):
        beta[row] = (rhs[row] - float(a[row, row + 1:] @ beta[row + 1:])) / a[row, row]
    sse = float((rhs[n:] ** 2).sum())
    return beta, sse


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
