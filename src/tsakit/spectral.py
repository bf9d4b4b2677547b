"""Nonparametric and parametric power spectral density estimation.

The DFT is a radix-2 iterative transform and accepts only power-of-two
lengths, refusing any other as invalid input. The periodogram demeans its
input and zero-pads it to the next power of two N; its ordinates are
|X[k]|^2 / N on the frequency grid k/N, truncated to [0, 0.5]. Smoothing uses a
modified Daniell kernel (half-weight endpoints); successive spans are convolved
into one composite kernel which is applied with reflection at both ends of the
half-spectrum. The parametric estimate evaluates the AR transfer function.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .armodel import ArModel, is_stationary
from .errors import (InsufficientDataError, InvalidArgumentError,
                     NonStationaryModelError, _as_index)


class EstimatorKind(Enum):
    RAW_PERIODOGRAM = "raw_periodogram"
    DANIELL = "daniell"
    AR_PARAMETRIC = "ar_parametric"


@dataclass(frozen=True)
class SpectrumEstimate:
    frequencies: np.ndarray
    power: np.ndarray
    estimator: EstimatorKind
    parameters: dict = field(default_factory=dict)


def _fft_radix2(x: np.ndarray) -> np.ndarray:
    """Iterative Cooley-Tukey on a power-of-two-length real or complex array."""
    n = x.size
    levels = n.bit_length() - 1
    # Bit-reversal permutation.
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=int)
    for _ in range(levels):
        reversed_indices = (reversed_indices << 1) | (indices & 1)
        indices >>= 1
    out = x[reversed_indices].astype(complex)
    half = 1
    while half < n:
        twiddle = np.exp(-1j * np.pi * np.arange(half) / half)
        step = half * 2
        blocks = out.reshape(-1, step)
        even = blocks[:, :half].copy()
        odd = blocks[:, half:] * twiddle
        blocks[:, :half] = even + odd
        blocks[:, half:] = even - odd
        half = step
    return out


def dft(x: Sequence[float], pad_to: Optional[int] = None) -> np.ndarray:
    """DFT of the input zero-padded to length N = ``pad_to`` (default: its own
    length): the complex array X[k] = sum_t x_t exp(-2 pi i k t / N), k < N.
    N must be a power of two."""
    arr = np.asarray(x, dtype=float)
    m = arr.size
    if m < 1:
        raise InvalidArgumentError("dft input must be non-empty")
    n = m if pad_to is None else _as_index(pad_to, "pad_to")
    if n < m:
        raise InvalidArgumentError(
            f"pad_to={n} must be at least the input length M={m}")
    if n & (n - 1):
        raise InvalidArgumentError(f"dft length must be a power of two, got {n}")
    padded = np.zeros(n)
    padded[:m] = arr
    return _fft_radix2(padded)


def next_power_of_two(n: int) -> int:
    n = _as_index(n, "n")
    return 1 if n <= 1 else 2 ** (n - 1).bit_length()


def periodogram(x: Sequence[float]) -> SpectrumEstimate:
    """Raw periodogram of the demeaned input, zero-padded to the next power of
    two N, on the grid f_k = k/N, k = 0..N/2."""
    arr = np.asarray(x, dtype=float)
    m = arr.size
    if m < 2:
        raise InsufficientDataError(f"periodogram needs at least 2 points, got {m}")
    n = next_power_of_two(m)
    transform = dft(arr - arr.mean(), pad_to=n)
    half = n // 2
    power = np.abs(transform[: half + 1]) ** 2 / n
    freqs = np.arange(half + 1, dtype=float) / n
    return SpectrumEstimate(
        frequencies=freqs,
        power=power,
        estimator=EstimatorKind.RAW_PERIODOGRAM,
        parameters={"original_length": m, "padded_length": n, "demeaned": True},
    )


def modified_daniell_kernel(span: int) -> np.ndarray:
    """Weights of one modified Daniell pass: flat with half-weight endpoints."""
    span = _as_index(span, "span")
    if span < 3 or span % 2 == 0:
        raise InvalidArgumentError(f"span must be an odd integer >= 3, got {span}")
    weights = np.ones(span)
    weights[0] = weights[-1] = 0.5
    return weights / weights.sum()


def daniell_smooth(spectrum: SpectrumEstimate,
                   spans: Sequence[int] = (3, 3)) -> SpectrumEstimate:
    """Smooth a raw periodogram with successive modified Daniell kernels.

    The per-span kernels are convolved into one composite kernel; boundary
    ordinates reflect about f = 0 and f = 0.5, which for a real input matches
    circular smoothing of the full-length periodogram.
    """
    if spectrum.estimator is not EstimatorKind.RAW_PERIODOGRAM:
        raise InvalidArgumentError("daniell_smooth expects a raw periodogram")
    spans = [_as_index(s, "span") for s in spans]
    if not spans:
        raise InvalidArgumentError("at least one span is required")
    kernel = np.array([1.0])
    for span in spans:
        kernel = np.convolve(kernel, modified_daniell_kernel(span))
    half_width = (kernel.size - 1) // 2

    power = spectrum.power
    if half_width >= power.size:
        raise InvalidArgumentError(
            f"composite kernel half-width {half_width} is too wide for "
            f"{power.size} spectral ordinates")
    padded = np.concatenate((power[half_width:0:-1], power,
                             power[-2: -half_width - 2: -1]))
    smoothed = np.convolve(padded, kernel, mode="valid")
    return SpectrumEstimate(
        frequencies=spectrum.frequencies.copy(),
        power=np.maximum(smoothed, 0.0),
        estimator=EstimatorKind.DANIELL,
        parameters={**spectrum.parameters, "spans": tuple(spans)},
    )


def ar_psd(model: ArModel, grid_size: int) -> SpectrumEstimate:
    """Parametric PSD sigma2 / |phi(e^{-2 pi i f})|^2 on [0, 0.5]."""
    grid_size = _as_index(grid_size, "grid_size", 2)
    if not is_stationary(model):
        raise NonStationaryModelError("ar_psd requires a stationary model")
    freqs = np.linspace(0.0, 0.5, grid_size)
    response = np.ones(grid_size, dtype=complex)
    for j, phi_j in enumerate(model.phi, start=1):
        response -= phi_j * np.exp(-2j * np.pi * freqs * j)
    power = model.sigma2 / np.abs(response) ** 2
    return SpectrumEstimate(
        frequencies=freqs,
        power=power,
        estimator=EstimatorKind.AR_PARAMETRIC,
        parameters={"order": model.order, "grid_size": grid_size},
    )
