import math

import numpy as np
import pytest

from tsakit import rng
from tsakit.armodel import ArModel, simulate_ar
from tsakit.errors import (InsufficientDataError, InvalidArgumentError,
                           ZeroVarianceError)
from tsakit.regression import Censoring
from tsakit.stattests import (_shapiro_wilk_weights, jarque_bera, kpss_level,
                              shapiro_wilk)


class TestJarqueBera:
    def test_hand_computed_example(self):
        result = jarque_bera([1, 2, 3, 4, 5])
        # Central moments by hand: m2 = 2, m3 = 0, m4 = 6.8 -> kurtosis 1.7.
        assert result.statistic == pytest.approx(5 / 6 * (1.3 ** 2 / 4), abs=1e-12)
        assert result.p_value.value == pytest.approx(
            math.exp(-result.statistic / 2), abs=1e-12)

    def test_p_value_is_the_chi_square_2_tail(self):
        # P(X >= x) = exp(-x / 2) for two degrees of freedom. The last sample's
        # 40-sigma outlier puts its p-value below the censoring threshold.
        heavy = np.concatenate((rng.normals(43, 200), [40.0]))
        for x in ([1, 2, 3, 4, 5], rng.normals(44, 120), rng.normals(45, 30) ** 3, heavy):
            result = jarque_bera(x)
            assert result.p_value.value == math.exp(-result.statistic / 2)
        assert result.p_value.censored is Censoring.BELOW_THRESHOLD

    def test_null_statistic_sample(self):
        # Symmetric with fourth moment exactly 3 m2^2: skew and excess both 0.
        result = jarque_bera([-1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value.value == pytest.approx(1.0, abs=1e-12)

    def test_location_scale_invariance(self):
        x = rng.normals(42, 120)
        base = jarque_bera(x).statistic
        shifted = jarque_bera(5.0 - 2.5 * x).statistic
        assert shifted == pytest.approx(base, rel=1e-8)

    def test_non_negative(self):
        for seed in range(5):
            assert jarque_bera(rng.normals(seed, 80)).statistic >= 0.0

    def test_rejects_small_or_constant(self):
        with pytest.raises(InvalidArgumentError):
            jarque_bera([1.0, 2.0, 3.0])
        with pytest.raises(ZeroVarianceError):
            jarque_bera([2.0] * 10)

    def test_bundled_residuals_match_published_table(self, trend_fit):
        result = jarque_bera(trend_fit.residuals.values)
        assert result.statistic == pytest.approx(0.12762, abs=0.002)
        assert result.p_value.value == pytest.approx(0.9382, abs=0.005)


class TestShapiroWilk:
    def test_w_range_and_pvalue(self):
        result = shapiro_wilk(rng.normals(7, 50))
        assert 0.0 < result.statistic <= 1.0
        assert 0.0 <= result.p_value.value <= 1.0

    def test_normal_scores_sample_is_nearly_perfect(self):
        from tsakit.special import norm_ppf
        n = 20
        scores = [norm_ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
        assert shapiro_wilk(scores).statistic >= 0.99

    def test_extreme_outlier_rejected(self):
        result = shapiro_wilk([0.0] * 19 + [1.0])
        assert result.p_value.value < 0.01

    def test_location_scale_invariance(self):
        x = rng.normals(3, 67)
        base = shapiro_wilk(x).statistic
        assert shapiro_wilk(10.0 + 3.0 * x).statistic == pytest.approx(base, rel=1e-8)
        assert shapiro_wilk(-x).statistic == pytest.approx(base, rel=1e-8)

    def test_small_n_exact_branch(self):
        # n = 3 uses the closed-form p-value.
        result = shapiro_wilk([1.0, 2.0, 4.0])
        assert 0.0 <= result.p_value.value <= 1.0
        assert result.statistic <= 1.0

    def test_mid_n_branch(self):
        result = shapiro_wilk(rng.normals(11, 8))
        assert 0.0 <= result.p_value.value <= 1.0

    def test_sample_size_bounds(self):
        with pytest.raises(InvalidArgumentError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            shapiro_wilk(rng.normals(1, 5001))
        with pytest.raises(ZeroVarianceError):
            shapiro_wilk([3.0] * 10)

    def test_bundled_residuals_match_published_table(self, trend_fit):
        result = shapiro_wilk(trend_fit.residuals.values)
        assert result.statistic == pytest.approx(0.9906, abs=0.0005)
        assert result.p_value.value == pytest.approx(0.8968, abs=0.02)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 11, 12, 67, 500, 5000])
    def test_weights_are_antisymmetric_unit_vectors(self, n):
        a = _shapiro_wilk_weights(n)
        assert a.size == n
        assert np.array_equal(a, -a[::-1])
        assert abs(float((a ** 2).sum()) - 1.0) <= 1e-15
        if n % 2:
            assert a[n // 2] == 0.0

    def test_weights_for_three_are_exact(self):
        assert _shapiro_wilk_weights(3).tolist() == [
            -math.sqrt(0.5), 0.0, math.sqrt(0.5)]


class TestKpssLevel:
    def test_hand_computed_alternating(self):
        # 12 alternating values, lag 0: partial sums are 1,0,1,0,... so the
        # numerator is 6/144 and the lag-0 long-run variance is exactly 1.
        result = kpss_level([1.0, -1.0] * 6, truncation_lag=0)
        assert result.statistic == pytest.approx(6.0 / 144.0, abs=1e-12)
        assert result.nuisance["truncation_lag"] == 0

    def test_auto_lag_rule(self):
        # floor(4 (n/100)^0.25)
        for n, lag in ((64, 3), (100, 4), (500, 5)):
            result = kpss_level(rng.normals(n, n), "auto")
            assert result.nuisance["truncation_lag"] == lag

    def test_stationary_noise_fails_to_reject(self):
        result = kpss_level(rng.normals(5, 300), "auto")
        assert result.statistic < 0.347
        assert result.p_value.censored is Censoring.ABOVE_THRESHOLD
        assert result.p_value.threshold == 0.10

    def test_random_walk_rejected_with_censoring(self):
        walk = np.cumsum(rng.normals(12, 500))
        result = kpss_level(walk, "auto")
        assert result.statistic > 0.739
        assert result.p_value.censored is Censoring.BELOW_THRESHOLD
        assert result.p_value.threshold == 0.01

    def test_interpolated_p_is_monotone(self):
        # Scan statistics across the table range via synthetic inputs is
        # fragile; instead check the interpolation across the table directly.
        from tsakit.stattests import _interpolate_kpss_p
        etas = np.linspace(0.347, 0.739, 40)
        ps = [_interpolate_kpss_p(float(e)) for e in etas]
        assert ps[0] == pytest.approx(0.10, abs=1e-12)
        assert ps[-1] == pytest.approx(0.01, abs=1e-12)
        assert all(b <= a for a, b in zip(ps, ps[1:]))

    def test_scale_invariance(self):
        x = rng.normals(31, 150)
        base = kpss_level(x, 4).statistic
        scaled = kpss_level(7.0 + 13.0 * x, 4).statistic
        assert scaled == pytest.approx(base, rel=1e-8)

    def test_preconditions(self):
        with pytest.raises(InsufficientDataError):
            kpss_level(np.arange(9.0), "auto")
        with pytest.raises(InvalidArgumentError):
            kpss_level(np.arange(12.0), truncation_lag=12)
        with pytest.raises(InvalidArgumentError):
            kpss_level(np.arange(12.0), truncation_lag="bogus")

    def test_lag_must_be_an_integer(self):
        x = rng.normals(32, 150)
        with pytest.raises(InvalidArgumentError, match="truncation_lag must be an integer"):
            kpss_level(x, 2.7)
        assert kpss_level(x, np.int64(2)) == kpss_level(x, 2)

    def test_bundled_differenced_series(self, diff64):
        result = kpss_level(diff64, "auto")
        assert result.statistic < 0.347
        assert result.p_value.censored is Censoring.ABOVE_THRESHOLD

    def test_size_on_stationary_ar1(self):
        # Rejection rate at 5% on 2000 AR(1) samples (phi = 0.5, N = 200).
        model = ArModel(phi=(0.5,), sigma2=1.0)
        rejections = 0
        runs = 2000
        for s in range(runs):
            x = simulate_ar(model, 200, seed=10_000 + s)
            if kpss_level(x.values, "auto").statistic > 0.463:
                rejections += 1
        assert rejections / runs <= 0.10

    def test_power_against_random_walk(self, kpss_power_mc):
        assert kpss_power_mc >= 0.90


class TestEmpiricalSize:
    def test_jarque_bera_and_shapiro_wilk_size(self, normality_size_mc):
        assert 0.035 <= normality_size_mc["jb"] <= 0.065
        assert 0.035 <= normality_size_mc["sw"] <= 0.065
