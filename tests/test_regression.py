import math

import numpy as np
import pytest

from tsakit import rng
from tsakit.errors import InsufficientDataError, InvalidArgumentError
from tsakit.regression import (Censoring, PValue, fit_linear_trend,
                               t_distribution_sf)
from tsakit.series import TimeSeries


def ts(values):
    return TimeSeries(np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# Independent quadrature oracle: adaptive Simpson over a compactifying
# substitution x = a + u/(1-u), with densities built from math.lgamma only.
# ---------------------------------------------------------------------------

def _adaptive_simpson(f, a, b, tol, depth=40):
    def simpson(lo, mid, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, level):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm, frm = f(lmid), f(rmid)
        left = simpson(lo, lmid, mid, flo, flm, fmid)
        right = simpson(mid, rmid, hi, fmid, frm, fhi)
        if level <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, level - 1)
                + recurse(mid, hi, fmid, frm, fhi, right, level - 1))

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, mid, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, depth)


def _tail_integral(density, start, tol=1e-11):
    def g(u):
        if u >= 1.0:
            return 0.0
        x = start + u / (1.0 - u)
        return density(x) / (1.0 - u) ** 2

    return _adaptive_simpson(g, 0.0, 1.0 - 1e-10, tol)


def t_density(dof):
    c = math.exp(math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0)) / \
        math.sqrt(dof * math.pi)
    return lambda x: c * (1.0 + x * x / dof) ** (-(dof + 1) / 2.0)


def f_density(d1, d2):
    ln_c = (math.lgamma((d1 + d2) / 2.0) - math.lgamma(d1 / 2.0)
            - math.lgamma(d2 / 2.0) + (d1 / 2.0) * math.log(d1 / d2))

    def pdf(x):
        if x <= 0.0:
            return 0.0
        return math.exp(ln_c + (d1 / 2.0 - 1.0) * math.log(x)
                        - ((d1 + d2) / 2.0) * math.log(1.0 + d1 * x / d2))

    return pdf


class TestTDistribution:
    def test_zero_statistic(self):
        for t in (0.0, -0.0):
            for dof in (1, 5, 100):
                assert t_distribution_sf(t, dof) == 1.0

    def test_cauchy_quartile(self):
        assert t_distribution_sf(1.0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_table_value(self):
        assert t_distribution_sf(2.228, 10) == pytest.approx(0.05, abs=2e-4)

    def test_monotone_in_magnitude(self):
        values = [t_distribution_sf(t, 7) for t in np.linspace(0, 8, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_symmetric(self):
        assert t_distribution_sf(-2.5, 9) == t_distribution_sf(2.5, 9)

    @pytest.mark.parametrize("dof", [1, 4, 65])
    def test_matches_quadrature(self, dof):
        pdf = t_density(dof)
        for t in np.linspace(0.1, 5.0, 20):
            oracle = 2.0 * _tail_integral(pdf, float(t))
            assert t_distribution_sf(float(t), dof) == pytest.approx(oracle, abs=1e-8)

    # P(|T| >= t) from 50-digit mpmath (betainc(dof/2, 1/2, 0, dof/(dof + t^2),
    # regularized=True)) at t = 1e-6, 0.0016, 0.01, 1 and 5. The small |t|
    # columns are p-values within 1e-6 to 1e-2 of 1, where the tail must not
    # be formed from 1 - dof/(dof + t^2) after that ratio has been rounded.
    @pytest.mark.parametrize("dof, expected", [
        (65, [0.99999920517821146, 0.99872828568927771, 0.99205191662076647,
              0.32101878004501529, 4.6053589237099657e-6]),
        (1000, [0.99999920231488537, 0.99872370436169304, 0.99202328193218729,
                0.31755241808467231, 6.7672563646486304e-7]),
        (3998, [0.99999920216533037, 0.99872346507338017, 0.99202178630738947,
                0.31737102702078123, 5.9788841867267788e-7]),
        (4998, [0.99999920215534839, 0.99872344910219607, 0.99202168648262636,
                0.31735891895149713, 5.9290269218316183e-7]),
    ], ids=["65", "1000", "3998", "4998"])
    def test_matches_high_precision_table(self, dof, expected):
        for t, p in zip([1e-6, 0.0016, 0.01, 1.0, 5.0], expected):
            assert t_distribution_sf(t, dof) == pytest.approx(p, rel=1e-11, abs=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            t_distribution_sf(math.nan, 5)
        with pytest.raises(InvalidArgumentError):
            t_distribution_sf(math.inf, 5)

    def test_rejects_bad_dof(self):
        with pytest.raises(InvalidArgumentError):
            t_distribution_sf(1.0, 0)


class TestFDistribution:
    # The trend's F statistic has (1, N - 2) degrees of freedom, and that tail
    # is the two-sided t tail at t^2 = F.
    def test_model_p_value_is_the_slope_p_value(self, trend_fit, bench_workloads):
        # F = t_beta1^2, so the model p-value is the slope's, not a third
        # tail evaluation that differs from it by rounding.
        counts = bench_workloads.synthetic_counts(77, 0).astype(float)
        t = np.arange(40, dtype=float)
        for fit in (trend_fit, fit_linear_trend(ts(counts)),
                    fit_linear_trend(ts(3.0 + 0.5 * t)), fit_linear_trend(ts(np.full(40, 7.0)))):
            assert fit.model_p_value == fit.p_beta1

    def test_agrees_with_squared_t(self):
        for seed, (n, slope) in enumerate([(12, 0.5), (40, 0.05), (67, 0.02), (67, 0.0)]):
            fit = fit_linear_trend(ts(5.0 + slope * np.arange(n) + rng.normals(60 + seed, n)))
            assert fit.model_p_value.value == pytest.approx(
                t_distribution_sf(math.sqrt(fit.f_statistic), fit.dof), rel=1e-12, abs=1e-15)

    def test_matches_quadrature(self):
        pdf = f_density(1, 65)
        for f in np.linspace(0.2, 5.0, 20):
            oracle = _tail_integral(pdf, float(f))
            assert t_distribution_sf(math.sqrt(f), 65) == pytest.approx(oracle, abs=1e-8)


class TestPValue:
    def test_censors_below_threshold(self):
        p = PValue.exact_or_censored(1e-20)
        assert p.censored is Censoring.BELOW_THRESHOLD
        assert p.threshold == 2.2e-16

    def test_exact_above_threshold(self):
        p = PValue.exact_or_censored(0.37)
        assert p.censored is Censoring.EXACT
        assert p.threshold is None

    def test_invariants(self):
        with pytest.raises(InvalidArgumentError):
            PValue(1.2)
        with pytest.raises(InvalidArgumentError):
            PValue(0.5, Censoring.ABOVE_THRESHOLD, None)


class TestFitLinearTrend:
    def test_exact_line(self):
        t = np.arange(1, 25, dtype=float)
        fit = fit_linear_trend(ts(1.0 + 2.0 * t))
        assert fit.beta0 == pytest.approx(1.0, abs=1e-9)
        assert fit.beta1 == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.abs(fit.residuals.values).max() < 1e-9

    def test_constant_series(self):
        fit = fit_linear_trend(ts([5.0] * 12))
        assert fit.beta1 == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 0.0
        assert fit.f_statistic == 0.0

    def test_needs_three_points(self):
        with pytest.raises(InsufficientDataError):
            fit_linear_trend(ts([1.0, 2.0]))

    def test_fitted_plus_residual_reconstructs(self):
        x = ts(10.0 + 0.3 * np.arange(40) + rng.normals(2, 40))
        fit = fit_linear_trend(x)
        assert np.array_equal(fit.fitted.values + fit.residuals.values, x.values)

    def test_f_equals_t_squared(self):
        x = ts(5.0 + 0.2 * np.arange(50) + rng.normals(3, 50))
        fit = fit_linear_trend(x)
        assert fit.f_statistic == pytest.approx(fit.t_beta1 ** 2, rel=1e-8)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_residual_orthogonality(self, seed):
        n = 30 + 7 * seed
        x = ts(100.0 * rng.normals(seed, n) + np.arange(n))
        fit = fit_linear_trend(x)
        scale = float(np.abs(x.values).max())
        t = np.arange(1, n + 1)
        assert abs(fit.residuals.values.sum()) < 1e-8 * scale
        assert abs(float(fit.residuals.values @ t)) < 1e-8 * scale * n

    def test_r_squared_identities(self):
        n = 60
        x = ts(3.0 * np.arange(n) + 40.0 * rng.normals(11, n))
        fit = fit_linear_trend(x)
        y = x.values
        sse = float((fit.residuals.values ** 2).sum())
        sst = float(((y - y.mean()) ** 2).sum())
        assert fit.r_squared == pytest.approx(1.0 - sse / sst, abs=1e-12)
        corr = np.corrcoef(np.arange(1, n + 1), y)[0, 1]
        assert fit.r_squared == pytest.approx(corr ** 2, abs=1e-10)

    def test_scale_equivariance(self):
        n = 45
        base = 7.0 + 0.8 * np.arange(n) + 5.0 * rng.normals(21, n)
        fit1 = fit_linear_trend(ts(base))
        a = 3.7
        fit2 = fit_linear_trend(ts(a * base))
        assert fit2.beta0 == pytest.approx(a * fit1.beta0, rel=1e-9)
        assert fit2.beta1 == pytest.approx(a * fit1.beta1, rel=1e-9)
        assert np.allclose(fit2.residuals.values, a * fit1.residuals.values,
                           rtol=1e-9, atol=1e-12)
        assert fit2.r_squared == pytest.approx(fit1.r_squared, rel=1e-9)
        assert fit2.t_beta1 == pytest.approx(fit1.t_beta1, rel=1e-9)
        assert fit2.f_statistic == pytest.approx(fit1.f_statistic, rel=1e-9)
        assert fit2.p_beta1.value == pytest.approx(fit1.p_beta1.value, rel=1e-9)

    def test_bundled_dataset_matches_published_table(self, trend_fit):
        assert trend_fit.beta0 == pytest.approx(68036.6, abs=0.5)
        assert trend_fit.beta1 == pytest.approx(674.7, abs=0.1)
        assert trend_fit.p_beta0.censored is Censoring.BELOW_THRESHOLD
        assert trend_fit.p_beta1.censored is Censoring.BELOW_THRESHOLD
        assert trend_fit.r_squared == pytest.approx(0.7575, abs=0.0005)
        assert trend_fit.f_statistic == pytest.approx(203.1, abs=0.5)
