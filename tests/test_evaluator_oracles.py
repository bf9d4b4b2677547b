"""Bit-identity oracles for the shared Horner loop, the incomplete beta's
modified-Lentz loop and the Householder triangularization.

``special._horner`` replaced hand-written loops in ``_acklam``, the Royston
polynomials of ``stattests`` and ``_linalg.polynomial_roots``, and
``special._betacf`` sums the incomplete beta's continued fraction. The loops
as they first stood are kept below verbatim as references. On seeded inputs
each kernel must return the same bits, or raise ConvergenceError with the same
message, iteration count and residual. ``householder_triangularize`` writes
each rank-1 update into one buffer; the version that allocated a temporary
per step is kept as its reference, and must leave the same R, Q^T y and rank.
"""
import math

import numpy as np
import pytest

from tsakit import special, stattests
from tsakit._linalg import householder_triangularize, polynomial_roots
from tsakit.errors import ConvergenceError, DegenerateFitError

# --- reference copies of the replaced loops --------------------------------

_REF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_REF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_REF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_REF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_REF_P_LOW = 0.02425


def _ref_acklam(p):
    a, b, c, d = _REF_A, _REF_B, _REF_C, _REF_D
    p = np.asarray(p, dtype=float)
    x = np.empty_like(p)

    central = (p >= _REF_P_LOW) & (p <= 1.0 - _REF_P_LOW)
    q = p[central] - 0.5
    r = q * q
    num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    x[central] = num * q / den

    low = p < _REF_P_LOW
    q = np.sqrt(-2.0 * np.log(p[low]))
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    x[low] = num / den

    high = p > 1.0 - _REF_P_LOW
    q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    x[high] = -num / den
    return x


def _ref_not_converged(what, iterations, residual):
    raise ConvergenceError(
        f"{what} did not converge in {iterations} iterations "
        f"(last relative step {residual:.3g})", iterations=iterations, residual=residual)


def _ref_betacf(a, b, x):
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
    for m in range(1, 300 + 1):
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
        if abs(delta - 1.0) < 1e-14:
            break
    else:
        _ref_not_converged("incomplete beta continued fraction", 300, abs(delta - 1.0))
    return h


# Royston coefficients as the reference held them, lowest order first.
_REF_SW = {
    "_SW_C1": (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056),
    "_SW_C2": (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633),
    "_SW_C3": (0.544, -0.39978, 0.025054, -6.714e-4),
    "_SW_C4": (1.3822, -0.77857, 0.062767, -0.0020322),
    "_SW_C5": (-1.5861, -0.31082, -0.083751, 0.0038915),
    "_SW_C6": (-0.4803, -0.082676, 0.0030302),
    "_SW_G": (-2.273, 0.459),
}


def _ref_poly(coeffs, x):
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _ref_polynomial_roots(coeffs, max_iter=800, tol=1e-13):
    c = np.asarray(coeffs, dtype=complex)
    degree = c.size - 1
    if degree < 1:
        return np.empty(0, dtype=complex)
    if c[-1] == 0:
        raise DegenerateFitError("leading polynomial coefficient must be non-zero")
    monic = c / c[-1]

    radius = 1.0 + float(np.abs(monic[:-1]).max())
    angles = 2.0 * np.pi * np.arange(degree) / degree + 0.4
    z = radius * np.exp(1j * angles)

    def poly_at(v, coefs=monic):
        out = np.full_like(v, coefs[-1])
        for coef in coefs[-2::-1]:
            out = out * v + coef
        return out

    diagonal = np.diag_indices(degree)
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, max_iter + 1):
            values = poly_at(z)
            diff = z[:, None] - z[None, :]
            diff[diagonal] = 1.0
            delta = values / diff.prod(axis=1)
            z = z - delta
            step = float(np.abs(delta).max())
            if step < tol * max(1.0, float(np.abs(z).max())):
                return z
            if not np.isfinite(step):
                message = f"Durand-Kerner iterate is not finite at iteration {iteration}"
                raise ConvergenceError(message, iterations=iteration, residual=np.inf)
        residuals = np.abs(poly_at(z))
        bound = 2 * degree * np.finfo(float).eps * poly_at(np.abs(z), np.abs(monic))
    if (residuals <= bound).all() and np.isfinite(bound).all():
        return z
    residual = float(residuals.max() * abs(c[-1]))
    raise ConvergenceError(
        f"Durand-Kerner did not converge in {max_iter} iterations "
        f"(max |p(z)| = {residual:.3g})", iterations=max_iter, residual=residual)


def _ref_householder_triangularize(a, rhs):
    n = a.shape[0]
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
        # product with v, then one rank-1 update.
        block = a[k:, k:]
        two_v = 2.0 * v
        block -= np.multiply.outer(block @ v, two_v)
        rhs[k:] -= two_v * float(v @ rhs[k:])
    return n


# --- comparison helpers ------------------------------------------------------

def _outcome(fn, *args):
    """The result as bytes, or the ConvergenceError's message, count, residual."""
    try:
        result = fn(*args)
    except ConvergenceError as exc:
        return ("raised", str(exc), exc.iterations, float(exc.residual).hex())
    return ("returned", np.asarray(result).tobytes())


def _assert_same(new, ref, *args):
    assert _outcome(new, *args) == _outcome(ref, *args), args


# --- oracles ----------------------------------------------------------------

def _acklam_inputs() -> np.ndarray:
    draw = np.random.default_rng(20260101)
    low = special._ACKLAM_P_LOW
    edges = [low, 1.0 - low, 0.5, 1e-300, 5e-324, 1e-16, 1.0 - 1e-16,
             1.0 - 2.0 ** -53, 2.0 ** -1074, 1.0 - 2.0 ** -52]
    for edge in (low, 1.0 - low):
        below = above = edge
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            edges += [below, above]
    tails = 10.0 ** -draw.uniform(1.6, 320.0, 20000)
    return np.concatenate([np.array(edges), draw.uniform(0.0, 1.0, 50000),
                           tails[tails > 0.0], 1.0 - tails])


class TestHornerOracle:
    def test_acklam_bit_identical(self):
        p = _acklam_inputs()
        p = p[(p > 0.0) & (p < 1.0)]
        low = special._ACKLAM_P_LOW
        assert (p < low).any() and (p > 1.0 - low).any()
        assert (p == low).any() and (p == 1.0 - low).any()
        assert special._acklam(p).tobytes() == _ref_acklam(p).tobytes()

    @pytest.mark.parametrize("p", [1e-300, 5e-324, 0.02425, 0.3, 0.5,
                                   1.0 - 0.02425, 1.0 - 1e-16])
    def test_acklam_zero_dimensional_input(self, p):
        assert special._acklam(np.float64(p)).tobytes() == _ref_acklam(np.float64(p)).tobytes()

    @pytest.mark.parametrize("name", sorted(_REF_SW))
    def test_royston_polynomials_bit_identical(self, name):
        draw = np.random.default_rng(sorted(_REF_SW).index(name))
        points = [1.0 / math.sqrt(n) for n in range(3, 5001)]
        points += [float(n) for n in range(4, 12)] + [math.log(n) for n in range(12, 5001)]
        points += draw.uniform(-10.0, 10.0, 5000).tolist()
        coeffs = getattr(stattests, name)
        for x in points:
            assert special._horner(coeffs, x).hex() == _ref_poly(_REF_SW[name], x).hex()

    @pytest.mark.parametrize("p", range(1, 41))
    def test_polynomial_roots_bit_identical(self, p):
        draw = np.random.default_rng(4000 + p)
        # Real coefficients, low order first: a polynomial built from roots of
        # modulus 1.05-3, and two with normal coefficients. Five iterations
        # reach the final rounding-bound test, which 800 rarely do.
        roots = draw.uniform(1.05, 3.0, p) * np.exp(1j * draw.uniform(0.0, np.pi, p))
        from_roots = np.real(np.poly(roots))[::-1]
        for coeffs in (from_roots / from_roots[0], draw.normal(size=p + 1),
                       draw.normal(size=p + 1) * 10.0):
            for max_iter in (800, 5):
                _assert_same(polynomial_roots, _ref_polynomial_roots, coeffs, max_iter)


class TestLentzOracle:
    def test_beta_fraction_bit_identical(self):
        draw = np.random.default_rng(8)
        shapes = 10.0 ** draw.uniform(-2.0, 6.0, (3000, 2))
        for (a, b), x in zip(shapes, draw.uniform(0.0, 1.0, 3000)):
            _assert_same(special._betacf, _ref_betacf, float(a), float(b), float(x))

    @pytest.mark.parametrize("new, ref, args, cap", [
        (special._betacf, _ref_betacf, (1e6, 1e6, 0.5), 300),
    ], ids=["beta-fraction"])
    def test_reaching_the_cap_raises_the_same_error(self, new, ref, args, cap):
        outcome = _outcome(new, *args)
        assert outcome[0] == "raised" and outcome[2] == cap
        assert outcome == _outcome(ref, *args)


class TestHouseholderOracle:
    @staticmethod
    def _assert_same_factor(design, rhs):
        a, b = design.copy(), rhs.copy()
        ref_a, ref_b = design.copy(), rhs.copy()
        rank = householder_triangularize(a, b)
        assert rank == _ref_householder_triangularize(ref_a, ref_b)
        assert a.tobytes() == ref_a.tobytes()
        assert b.tobytes() == ref_b.tobytes()
        return rank

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (3, 3), (5, 40),
                                      (12, 200), (37, 3964)])
    def test_random_designs_bit_identical(self, n, m):
        draw = np.random.default_rng(1000 * n + m)
        design = draw.normal(size=(n, m)) * 10.0 ** draw.uniform(-3.0, 3.0, (n, 1))
        assert self._assert_same_factor(design, draw.normal(size=m)) == n

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_deficient_designs_bit_identical(self, seed):
        # Regressor `dup` repeats an earlier one, so the check stops there
        # with the earlier rows of R and the reflections applied so far.
        draw = np.random.default_rng(seed)
        n, m = 8, 60
        design = draw.normal(size=(n, m))
        dup = 2 + seed % (n - 2)
        design[dup] = design[draw.integers(0, dup)] * 3.0
        assert self._assert_same_factor(design, draw.normal(size=m)) == dup

    def test_zero_design_stops_at_once(self):
        assert self._assert_same_factor(np.zeros((4, 9)), np.ones(9)) == 0
