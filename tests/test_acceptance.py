"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import csv
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tsakit import rng
from tsakit.armodel import (ArModel, random_walk_moments, RandomWalkSpec,
                            select_order_aic, theoretical_ar_acf)
from tsakit.pipeline import run_pipeline
from tsakit.regression import Censoring, fit_linear_trend
from tsakit.series import TimeSeries, difference, integrate
from tsakit.spectral import ar_psd, dft
from tsakit.stattests import jarque_bera, kpss_level, shapiro_wilk

np_trapezoid = getattr(np, "trapezoid", None) or np.trapz

_SUITE_START = time.monotonic()


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def six_cell(frequency: float) -> int:
    return min(int(frequency * 12.0), 5)


class TestTableReproduction:
    def test_table1_trend_coefficients(self, deaths_series):
        with criterion("Table 1: beta0=68036.6+-0.5, beta1=674.7+-0.1, "
                       "p-values censored below 2.2e-16, runtime < 1 s"):
            start = time.monotonic()
            fit = fit_linear_trend(deaths_series)
            elapsed = time.monotonic() - start
            assert fit.beta0 == pytest.approx(68036.6, abs=0.5)
            assert fit.beta1 == pytest.approx(674.7, abs=0.1)
            assert fit.p_beta0.censored is Censoring.BELOW_THRESHOLD
            assert fit.p_beta0.threshold == 2.2e-16
            assert fit.p_beta1.censored is Censoring.BELOW_THRESHOLD
            assert fit.p_beta1.threshold == 2.2e-16
            assert elapsed < 1.0

    def test_table2_model_adequacy(self, trend_fit):
        with criterion("Table 2: R2=0.7575+-0.0005, F=203.1+-0.5, "
                       "model p censored below 2.2e-16"):
            assert trend_fit.r_squared == pytest.approx(0.7575, abs=0.0005)
            assert trend_fit.f_statistic == pytest.approx(203.1, abs=0.5)
            assert trend_fit.model_p_value.censored is Censoring.BELOW_THRESHOLD

    def test_table3_residual_diagnostics(self, trend_fit):
        with criterion("Table 3: JB=0.12762+-0.002 (p=0.9382+-0.005), "
                       "W=0.9906+-0.0005 (p=0.8968+-0.02)"):
            residuals = trend_fit.residuals.values
            jb = jarque_bera(residuals)
            assert jb.statistic == pytest.approx(0.12762, abs=0.002)
            assert jb.p_value.value == pytest.approx(0.9382, abs=0.005)
            sw = shapiro_wilk(residuals)
            assert sw.statistic == pytest.approx(0.9906, abs=0.0005)
            assert sw.p_value.value == pytest.approx(0.8968, abs=0.02)


class TestSection32Reproduction:
    def test_kpss_level_stationarity(self, diff64):
        with criterion("KPSS: statistic below 0.347 on the 64-point series, "
                       "p reported as >= 0.1"):
            result = kpss_level(diff64, "auto")
            assert result.statistic < 0.347
            assert result.p_value.censored is Censoring.ABOVE_THRESHOLD
            assert result.p_value.threshold == 0.10

    def test_aic_identifies_order_eleven(self, diff64):
        with criterion("Identification: AIC (Yule-Walker default, K=18) "
                       "selects order 11"):
            table = select_order_aic(diff64, 18, "yule_walker")
            assert table.selected_order == 11

    def test_fig7_peak_cell_agreement(self, default_config):
        with criterion("Fig 7: smoothed periodogram and AR PSD peak in the "
                       "same cell of a 6-cell partition of [0, 0.5]"):
            report = run_pipeline(default_config)
            np_rows = list(csv.reader(
                report.figures["fig_spectrum_np.csv"].decode().splitlines()))[1:]
            freqs = np.array([float(r[0]) for r in np_rows])
            smoothed = np.array([float(r[2]) for r in np_rows])
            ar_rows = list(csv.reader(
                report.figures["fig_spectrum_ar.csv"].decode().splitlines()))[1:]
            ar_freqs = np.array([float(r[0]) for r in ar_rows])
            ar_power = np.array([float(r[1]) for r in ar_rows])
            cell_np = six_cell(float(freqs[int(np.argmax(smoothed))]))
            cell_ar = six_cell(float(ar_freqs[int(np.argmax(ar_power))]))
            assert cell_np == cell_ar


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, default_config):
        with criterion("Determinism: repeated pipeline runs produce "
                       "byte-identical report bodies"):
            first = run_pipeline(default_config)
            second = run_pipeline(default_config)
            assert first.to_json() == second.to_json()
            assert first.figures == second.figures


def direct_dft_oracle(x: np.ndarray) -> np.ndarray:
    n = x.size
    k = np.arange(n).reshape(-1, 1)
    t = np.arange(n).reshape(1, -1)
    return (np.exp(-2j * np.pi * k * t / n) * x).sum(axis=1)


class TestNumericalPropertySuite:
    """Dataset-independent numerical checks with a five-minute budget."""

    def test_fft_matches_direct_evaluation(self):
        with criterion("Property: FFT vs direct DFT within 1e-9 relative "
                       "for N up to 1024"):
            for exponent in range(1, 11):
                n = 2 ** exponent
                x = rng.normals(200 + exponent, n)
                fast = dft(x)
                oracle = direct_dft_oracle(x)
                assert (np.abs(fast - oracle).max()
                        <= 1e-9 * np.abs(oracle).max())

    def test_parseval_identity(self):
        with criterion("Property: Parseval identity within 1e-9 relative"):
            for seed, (m, n) in enumerate([(64, 64), (100, 128), (1000, 1024)]):
                x = rng.normals(300 + seed, m)
                coeffs = dft(x, pad_to=n)
                energy = float((np.abs(coeffs) ** 2).sum() / n)
                assert energy == pytest.approx(float((x ** 2).sum()), rel=1e-9)

    def test_difference_integrate_round_trip(self):
        with criterion("Property: difference/integrate round trip within 1e-9"):
            for d in (1, 2, 3):
                x = TimeSeries(100.0 * rng.normals(400 + d, 50))
                iv = [difference(x, k).values[0] for k in range(d)]
                back = integrate(difference(x, d), d, iv)
                scale = max(1.0, float(np.abs(x.values).max()))
                assert np.abs(back.values - x.values).max() < 1e-9 * scale

    def test_ar_monte_carlo_recovery(self, ar_recovery):
        with criterion("Property: AR(1)/AR(2) Yule-Walker recovery within "
                       "+-0.05 (N=10000, median of 50 seeds)"):
            assert ar_recovery["ar1_median"] < 0.05
            assert ar_recovery["ar2_median"] < 0.05

    def test_random_walk_ensemble_moments(self, random_walk_ensemble):
        with criterion("Property: random-walk ensemble moments within 3 "
                       "standard errors of the closed forms (5000 paths)"):
            paths = random_walk_ensemble
            reps = paths.shape[0]
            spec = RandomWalkSpec(drift=0.0, innovation_sigma2=1.0, y0=0.0)
            for t in (10, 100):
                y_t = paths[:, t - 1]
                moments = random_walk_moments(spec, t, 0)
                se_mean = math.sqrt(moments.variance / reps)
                assert abs(float(y_t.mean()) - moments.mean) <= 3 * se_mean
                var_est = float(y_t.var(ddof=1))
                se_var = moments.variance * math.sqrt(2.0 / (reps - 1))
                assert abs(var_est - moments.variance) <= 3 * se_var
                for k in (0, 1, 5):
                    m = random_walk_moments(spec, t, k)
                    y_s = paths[:, t - k - 1] if k < t else None
                    cov_est = float(np.mean((y_t - y_t.mean())
                                            * (y_s - y_s.mean())))
                    var_t, var_s = float(t), float(t - k)
                    se_cov = math.sqrt((var_t * var_s + m.autocovariance ** 2)
                                       / (reps - 1))
                    assert abs(cov_est - m.autocovariance) <= 3 * se_cov
                    acf_est = cov_est / var_est
                    se_acf = (se_cov + m.acf * se_var) / moments.variance
                    assert abs(acf_est - m.acf) <= 3 * se_acf

    def test_ar_psd_integrates_to_variance(self):
        with criterion("Property: AR PSD integrates to the model variance "
                       "within 1%"):
            for phi in [(0.5,), (0.5, 0.3)]:
                model = ArModel(phi=phi, sigma2=1.0)
                spec = ar_psd(model, 4097)
                integral = 2.0 * float(np_trapezoid(spec.power,
                                                    spec.frequencies))
                rho = theoretical_ar_acf(model, len(phi))
                gamma0 = model.sigma2 / (1.0 - sum(
                    p * rho[i + 1] for i, p in enumerate(phi)))
                assert integral == pytest.approx(gamma0, rel=0.01)

    def test_normality_test_sizes(self, normality_size_mc):
        with criterion("Property: JB and SW empirical size 5% +- 1.5% on "
                       "2000 normal samples of size 67"):
            assert 0.035 <= normality_size_mc["jb"] <= 0.065
            assert 0.035 <= normality_size_mc["sw"] <= 0.065

    def test_kpss_power(self, kpss_power_mc):
        with criterion("Property: KPSS rejects a length-500 random walk at "
                       "5% in at least 90% of 1000 runs"):
            assert kpss_power_mc >= 0.90

    def test_suite_runtime_budget(self):
        with criterion("Property suite runtime under 5 minutes"):
            assert time.monotonic() - _SUITE_START < 300.0
