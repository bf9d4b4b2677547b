import numpy as np
import pytest

from tsakit import rng
from tsakit.armodel import ArModel, simulate_ar, theoretical_ar_acf
from tsakit.correlation import autocovariance, sample_acf
from tsakit.errors import (InvalidArgumentError, NonStationaryModelError,
                           ZeroVarianceError)

from conftest import yule_walker_fit


class TestSampleAcf:
    def test_lag_zero_is_one(self):
        x = rng.normals(1, 50)
        est = sample_acf(x, 10)
        assert est.autocorrelation[0] == 1.0
        assert autocovariance(x, 10)[0] > 0.0

    def test_alternating_series_closed_form(self):
        n = 24
        x = np.array([1.0, -1.0] * (n // 2))
        est = sample_acf(x, 3)
        assert est.autocorrelation[1] == pytest.approx(-(n - 1) / n, abs=1e-12)

    def test_band_is_plot_metadata(self):
        est = sample_acf(rng.normals(2, 400), 12)
        assert est.band == pytest.approx(1.96 / 20.0)

    def test_bounded_by_one(self):
        est = sample_acf(rng.normals(3, 200), 30)
        assert np.abs(est.autocorrelation).max() <= 1.0 + 1e-12

    def test_random_walk_sacf_decays_linearly(self):
        walk = np.cumsum(rng.normals(4, 1000))
        est = sample_acf(walk, 50)
        rho = est.autocorrelation[1:]
        lags = np.arange(1, 51, dtype=float)
        corr = np.corrcoef(lags, rho)[0, 1]
        assert rho[0] > 0.95
        assert corr < -0.97  # near-linear decline in the lag

    def test_positive_semi_definite_autocovariance(self):
        for seed in range(5):
            x = rng.normals(100 + seed, 150)
            gamma = autocovariance(x, 20)
            toeplitz = np.array([[gamma[abs(i - j)] for j in range(21)]
                                 for i in range(21)])
            min_eig = float(np.linalg.eigvalsh(toeplitz).min())
            assert min_eig >= -1e-10 * gamma[0]

    def test_affine_invariance(self):
        x = rng.normals(7, 300)
        base = sample_acf(x, 15).autocorrelation
        mapped = sample_acf(4.0 - 2.0 * x, 15).autocorrelation
        assert np.abs(mapped - base).max() < 1e-10

    def test_errors(self):
        with pytest.raises(ZeroVarianceError):
            sample_acf([3.0] * 20, 5)
        with pytest.raises(InvalidArgumentError):
            sample_acf(rng.normals(1, 10), 10)


class TestTheoreticalArAcf:
    def test_ar1_geometric(self):
        rho = theoretical_ar_acf(ArModel(phi=(0.5,), sigma2=1.0), 6)
        assert np.allclose(rho, [1, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625],
                           atol=1e-12)

    def test_white_noise(self):
        rho = theoretical_ar_acf(ArModel(phi=(), sigma2=1.0), 4)
        assert rho.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_ar2_hand_solved(self):
        rho = theoretical_ar_acf(ArModel(phi=(0.5, 0.3), sigma2=1.0), 3)
        assert rho[1] == pytest.approx(5.0 / 7.0, abs=1e-12)
        assert rho[2] == pytest.approx(0.3 + 0.5 * 5.0 / 7.0, abs=1e-12)

    def test_max_lag_below_order(self):
        rho_short = theoretical_ar_acf(ArModel(phi=(0.5, 0.3), sigma2=1.0), 1)
        assert rho_short.tolist() == pytest.approx([1.0, 5.0 / 7.0], abs=1e-12)

    def test_rejects_non_stationary(self):
        with pytest.raises(NonStationaryModelError):
            theoretical_ar_acf(ArModel(phi=(1.0,), sigma2=1.0), 5)

    # A float max_lag used to run the whole recursion, then fail on the slice.
    @pytest.mark.parametrize("max_lag", [2.5, 3.0, True])
    def test_max_lag_must_be_an_integer(self, max_lag):
        with pytest.raises(InvalidArgumentError) as info:
            theoretical_ar_acf(ArModel(phi=(0.5, 0.3), sigma2=1.0), max_lag)
        assert str(info.value) == f"max_lag must be an integer, got {max_lag!r}"

    def test_numpy_integer_max_lag_gives_the_same_acf(self):
        model = ArModel(phi=(0.5, 0.3), sigma2=1.0)
        assert theoretical_ar_acf(model, np.int64(7)).tobytes() == \
            theoretical_ar_acf(model, 7).tobytes()

    def test_fitted_model_acf_matches_generator(self):
        # Median over 50 simulations of the worst deviation at lags 1..5.
        truth = ArModel(phi=(0.5, 0.3), sigma2=1.0)
        target = theoretical_ar_acf(truth, 5)
        deviations = []
        for s in range(50):
            sim = simulate_ar(truth, 10_000, seed=6_000 + s)
            fitted = yule_walker_fit(sim.values, 2)
            rho = theoretical_ar_acf(fitted, 5)
            deviations.append(np.abs(rho[1:] - target[1:]).max())
        assert float(np.median(deviations)) < 0.1
