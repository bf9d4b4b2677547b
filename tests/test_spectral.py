import numpy as np
import pytest

from tsakit import rng
from tsakit.armodel import ArModel, theoretical_ar_acf
from tsakit.errors import (InsufficientDataError, InvalidArgumentError,
                           NonStationaryModelError)
from tsakit.spectral import (EstimatorKind, SpectrumEstimate, ar_psd,
                             daniell_smooth, dft, modified_daniell_kernel,
                             next_power_of_two, periodogram)

np_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def direct_dft_oracle(x: np.ndarray) -> np.ndarray:
    """O(N^2) reference transform built independently of the implementation."""
    n = x.size
    k = np.arange(n).reshape(-1, 1)
    t = np.arange(n).reshape(1, -1)
    return (np.exp(-2j * np.pi * k * t / n) * x).sum(axis=1)


class TestDft:
    def test_constant_signal(self):
        out = dft([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(out, [4, 0, 0, 0], atol=1e-12)

    def test_impulse(self):
        for n in (4, 16):
            out = dft([1.0] + [0.0] * (n - 1))
            assert np.allclose(out, np.ones(n), atol=1e-12)

    def test_cosine_bins(self):
        x = np.cos(2 * np.pi * 2 * np.arange(8) / 8)
        out = dft(x)
        expected = np.zeros(8, dtype=complex)
        expected[2] = expected[6] = 4.0
        assert np.allclose(out, expected, atol=1e-9)

    @pytest.mark.parametrize("exponent", range(1, 11))
    def test_fast_path_matches_direct_oracle(self, exponent):
        n = 2 ** exponent
        x = rng.normals(exponent, n)
        fast = dft(x)
        oracle = direct_dft_oracle(x)
        scale = np.abs(oracle).max()
        assert np.abs(fast - oracle).max() <= 1e-9 * scale

    def test_zero_padding(self):
        x = rng.normals(31, 20)
        out = dft(x, pad_to=32)
        padded = np.concatenate((x, np.zeros(12)))
        oracle = direct_dft_oracle(padded)
        assert len(out) == 32
        assert np.abs(out - oracle).max() <= 1e-9 * np.abs(oracle).max()

    def test_hermitian_symmetry(self):
        x = rng.normals(32, 64)
        coeffs = dft(x)
        for k in range(1, 64):
            assert coeffs[64 - k] == pytest.approx(np.conj(coeffs[k]),
                                                   rel=1e-9, abs=1e-9)

    def test_pad_shorter_than_input(self):
        with pytest.raises(InvalidArgumentError):
            dft([1.0, 2.0, 3.0], pad_to=2)

    @pytest.mark.parametrize("x, pad_to, n", [
        ([1.0, 2.0, 3.0], None, 3),
        (rng.normals(30, 24), None, 24),
        (rng.normals(30, 20), 24, 24),
    ], ids=["length-3", "length-24", "pad-to-24"])
    def test_length_must_be_a_power_of_two(self, x, pad_to, n):
        with pytest.raises(InvalidArgumentError,
                           match=f"dft length must be a power of two, got {n}$"):
            dft(x, pad_to=pad_to)

    def test_pad_to_must_be_an_integer(self):
        with pytest.raises(InvalidArgumentError, match="pad_to must be an integer, got 4.9"):
            dft([1.0, 2.0, 3.0], pad_to=4.9)
        assert len(dft([1.0, 2.0, 3.0], pad_to=np.int64(4))) == 4

    def test_next_power_of_two(self):
        assert [next_power_of_two(n) for n in (1, 2, 3, 64, 65)] == [1, 2, 4, 64, 128]


class TestPeriodogram:
    def test_cosine_power(self):
        x = np.cos(2 * np.pi * 2 * np.arange(8) / 8)
        spec = periodogram(x)
        assert spec.power[2] == pytest.approx(2.0, abs=1e-9)
        others = np.delete(spec.power, 2)
        assert np.abs(others).max() < 1e-12

    def test_constant_demeaned_is_null(self):
        spec = periodogram(np.full(32, 7.0))
        assert spec.power.max() < 1e-20 * 49.0

    def test_parseval(self):
        x = rng.normals(34, 100)
        coeffs = dft(x, pad_to=128)
        energy = float((np.abs(coeffs) ** 2).sum() / 128)
        assert energy == pytest.approx(float((x ** 2).sum()), rel=1e-9)

    def test_non_negative_and_grid(self):
        x = rng.normals(35, 60)
        spec = periodogram(x)
        assert spec.power.min() >= 0.0
        assert spec.frequencies[0] == 0.0
        assert spec.frequencies[-1] == 0.5
        assert np.all(np.diff(spec.frequencies) > 0)

    def test_symmetry_before_truncation(self):
        x = rng.normals(36, 64)
        coeffs = dft(x)
        full_power = np.abs(coeffs) ** 2 / 64
        assert np.allclose(full_power[1:], full_power[1:][::-1], rtol=1e-9)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            periodogram([1.0])


class TestDaniellSmooth:
    def test_kernel_weights(self):
        assert np.allclose(modified_daniell_kernel(3), [0.25, 0.5, 0.25])
        assert np.allclose(modified_daniell_kernel(5),
                           [0.125, 0.25, 0.25, 0.25, 0.125])

    def test_constant_spectrum_unchanged(self):
        spec = SpectrumEstimate(frequencies=np.linspace(0, 0.5, 33),
                                power=np.full(33, 4.2),
                                estimator=EstimatorKind.RAW_PERIODOGRAM)
        smooth = daniell_smooth(spec, (3, 3))
        assert np.abs(smooth.power - 4.2).max() < 1e-12

    def test_unit_spike_span3(self):
        power = np.zeros(33)
        power[16] = 1.0
        spec = SpectrumEstimate(frequencies=np.linspace(0, 0.5, 33), power=power,
                                estimator=EstimatorKind.RAW_PERIODOGRAM)
        smooth = daniell_smooth(spec, (3,))
        assert smooth.power[15:18] == pytest.approx([0.25, 0.5, 0.25])
        assert smooth.power[:15].max() == 0.0

    def test_variance_reduction(self):
        x = rng.normals(37, 1024)
        raw = periodogram(x)
        smooth = daniell_smooth(raw, (5,))
        interior = slice(8, -8)
        assert (float(np.var(smooth.power[interior]))
                <= 0.4 * float(np.var(raw.power[interior])))

    def test_mean_preserved_on_interior(self):
        x = rng.normals(38, 1024)
        raw = periodogram(x)
        smooth = daniell_smooth(raw, (3, 3))
        interior = slice(8, -8)
        ratio = float(smooth.power[interior].mean() / raw.power[interior].mean())
        assert abs(ratio - 1.0) < 0.02

    def test_requires_raw_periodogram(self):
        x = rng.normals(39, 64)
        smooth = daniell_smooth(periodogram(x), (3,))
        with pytest.raises(InvalidArgumentError):
            daniell_smooth(smooth, (3,))

    def test_rejects_even_span(self):
        x = rng.normals(40, 64)
        with pytest.raises(InvalidArgumentError):
            daniell_smooth(periodogram(x), (4,))

    def test_spans_must_be_integers(self):
        raw = periodogram(rng.normals(42, 64))
        with pytest.raises(InvalidArgumentError, match="span must be an integer"):
            daniell_smooth(raw, (3.9, 3.2))
        smooth = daniell_smooth(raw, (np.int64(3), np.int32(5)))
        assert smooth.parameters["spans"] == (3, 5)
        assert all(type(s) is int for s in smooth.parameters["spans"])
        assert smooth.power.tolist() == daniell_smooth(raw, (3, 5)).power.tolist()

    def test_output_non_negative(self):
        x = rng.normals(41, 128)
        smooth = daniell_smooth(periodogram(x), (3, 3))
        assert smooth.power.min() >= 0.0


class TestArPsd:
    def test_white_noise_flat(self):
        spec = ar_psd(ArModel(phi=(), sigma2=2.0), 33)
        assert np.abs(spec.power - 2.0).max() < 1e-12

    def test_ar1_endpoints(self):
        spec = ar_psd(ArModel(phi=(0.5,), sigma2=1.0), 65)
        assert spec.power[0] == pytest.approx(4.0, abs=1e-12)
        assert spec.power[-1] == pytest.approx(1.0 / 2.25, abs=1e-12)

    @pytest.mark.parametrize("phi", [(0.5,), (0.5, 0.3)])
    def test_integrates_to_process_variance(self, phi):
        model = ArModel(phi=phi, sigma2=1.0)
        spec = ar_psd(model, 4097)
        integral = 2.0 * float(np_trapezoid(spec.power, spec.frequencies))
        rho = theoretical_ar_acf(model, len(phi))
        gamma0 = model.sigma2 / (1.0 - sum(p * rho[i + 1]
                                           for i, p in enumerate(phi)))
        assert integral == pytest.approx(gamma0, rel=0.01)

    def test_strictly_positive(self):
        spec = ar_psd(ArModel(phi=(0.9, -0.5), sigma2=0.5), 257)
        assert spec.power.min() > 0.0

    def test_rejects_non_stationary(self):
        with pytest.raises(NonStationaryModelError):
            ar_psd(ArModel(phi=(1.0,), sigma2=1.0), 16)

    def test_grid_size_bound(self):
        with pytest.raises(InvalidArgumentError):
            ar_psd(ArModel(phi=(0.5,), sigma2=1.0), 1)
