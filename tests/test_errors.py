"""Every integer parameter goes through ``errors._as_index``: a float or bool
is refused with "<name> must be an integer, got <value!r>", a numpy integer
gives the bits a Python int gives, and a value below the parameter's minimum
is refused with "<name> must be >= <minimum>, got <value>".

The raises that no run of the bundled pipeline reaches are pinned here too,
each by its error class and message."""
import dataclasses
import math

import numpy as np
import pytest

from tsakit import rng
from tsakit._linalg import polynomial_roots
from tsakit.armodel import (AicRow, ArModel, RandomWalkSpec, _aic_row,
                            levinson_durbin, random_walk_moments,
                            select_order_aic, simulate_ar,
                            simulate_random_walk, theoretical_ar_acf)
from tsakit.cli import main as cli_main
from tsakit.correlation import autocovariance, sample_acf
from tsakit.errors import (DegenerateFitError, InvalidArgumentError,
                           ZeroVarianceError, _as_index)
from tsakit.pipeline import PipelineConfig
from tsakit.regression import t_distribution_sf
from tsakit.series import TimeSeries, difference, integrate
from tsakit.spectral import (ar_psd, daniell_smooth, dft,
                             modified_daniell_kernel, next_power_of_two,
                             periodogram)
from tsakit.stattests import kpss_level

_X = rng.normals(11, 60)
_SERIES = TimeSeries(_X, 24000)
_MODEL = ArModel(phi=(0.5, -0.3), sigma2=1.5, mean=2.0)
_WALK = RandomWalkSpec(drift=0.25, innovation_sigma2=2.0, y0=1.0)

# (name in the message, minimum or None, valid value, call of the value)
INTEGER_PARAMETERS = {
    "levinson_durbin(order)": (
        "order", 0, 2, lambda v: levinson_durbin(autocovariance(_X, 3), v)),
    "select_order_aic(max_order), Yule-Walker": (
        "max_order", 1, 2, lambda v: select_order_aic(_X, v)),
    "select_order_aic(max_order), least squares": (
        "max_order", 1, 2, lambda v: select_order_aic(_X, v, "least_squares")),
    "theoretical_ar_acf(max_lag)": ("max_lag", 1, 2, lambda v: theoretical_ar_acf(_MODEL, v)),
    "simulate_ar(n)": ("n", 1, 2, lambda v: simulate_ar(_MODEL, v, 3)),
    "simulate_ar(burn_in)": ("burn_in", 0, 2, lambda v: simulate_ar(_MODEL, 5, 3, burn_in=v)),
    "simulate_random_walk(n)": ("n", 1, 2, lambda v: simulate_random_walk(_WALK, v, 3)),
    "random_walk_moments(t)": ("t", 1, 2, lambda v: random_walk_moments(_WALK, v, 1)),
    "random_walk_moments(k)": ("k", None, 2, lambda v: random_walk_moments(_WALK, 5, v)),
    "autocovariance(max_lag)": ("max_lag", 0, 2, lambda v: autocovariance(_X, v)),
    "sample_acf(max_lag)": ("max_lag", 1, 2, lambda v: sample_acf(_X, v)),
    "difference(d)": ("difference order", 0, 2, lambda v: difference(_SERIES, v)),
    "integrate(d)": ("integration order", 1, 2, lambda v: integrate(_SERIES, v, [1.0, -2.0])),
    "ar_psd(grid_size)": ("grid_size", 2, 5, lambda v: ar_psd(_MODEL, v)),
    "t_distribution_sf(dof)": ("dof", 1, 2, lambda v: t_distribution_sf(1.5, v)),
    "rng.uniforms(count)": ("count", 0, 2, lambda v: rng.uniforms(4, v)),
    "rng.normals(count)": ("count", 0, 2, lambda v: rng.normals(4, v)),
    "rng.uniforms(start)": ("start", 0, 2, lambda v: rng.uniforms(4, 3, v)),
    "rng.normals(start)": ("start", 0, 2, lambda v: rng.normals(4, 3, v)),
    "PipelineConfig(truncate_head)": (
        "truncate_head", 0, 2, lambda v: PipelineConfig("in.csv", truncate_head=v)),
    "PipelineConfig(aic_max_order)": (
        "aic_max_order", 1, 2, lambda v: PipelineConfig("in.csv", aic_max_order=v)),
    "PipelineConfig(kpss_lag)": (
        "kpss_lag", 0, 2, lambda v: PipelineConfig("in.csv", kpss_lag=v)),
    "modified_daniell_kernel(span)": ("span", None, 3, lambda v: modified_daniell_kernel(v)),
    "next_power_of_two(n)": ("n", None, 5, lambda v: next_power_of_two(v)),
    "TimeSeries(start_month)": ("start_month", None, 240, lambda v: TimeSeries(_X, v)),
}
_CASES = pytest.mark.parametrize("case", sorted(INTEGER_PARAMETERS))


def _identical(a, b) -> bool:
    """Same type and same bits, field by field: a numpy integer that leaked
    into a result in place of an int counts as a difference."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return all(_identical(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_identical, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_identical(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


@_CASES
@pytest.mark.parametrize("value", [2.0, 2.5, True])
def test_non_integer_is_refused_by_name(case, value):
    name, _, _, call = INTEGER_PARAMETERS[case]
    with pytest.raises(InvalidArgumentError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@_CASES
def test_numpy_integer_gives_the_same_result(case):
    _, _, value, call = INTEGER_PARAMETERS[case]
    want = call(value)
    for np_type in (np.int64, np.int32, np.uint8):
        assert _identical(call(np_type(value)), want)


@pytest.mark.parametrize("case", sorted(c for c, row in INTEGER_PARAMETERS.items()
                                        if row[1] is not None))
def test_below_the_minimum_is_refused_by_name(case):
    name, minimum, _, call = INTEGER_PARAMETERS[case]
    with pytest.raises(InvalidArgumentError) as info:
        call(minimum - 1)
    assert str(info.value) == f"{name} must be >= {minimum}, got {minimum - 1}"


def test_the_bound_names_the_value_as_an_int():
    assert _as_index(np.int64(3), "x", 3) == 3
    assert type(_as_index(np.uint8(3), "x")) is int
    with pytest.raises(InvalidArgumentError) as info:
        _as_index(np.int16(-7), "x", -6)
    assert str(info.value) == "x must be >= -6, got -7"


# (call, error class, message) of raises that no bundled run reaches.
ERROR_PATHS = {
    "select_order_aic of a constant series": (
        lambda: select_order_aic(np.ones(40), 3), ZeroVarianceError,
        "AIC scan requires a non-constant series"),
    "levinson_durbin at zero variance": (
        lambda: levinson_durbin([0.0, 0.0], 1), ZeroVarianceError,
        "lag-zero autocovariance must be positive"),
    "ArModel with a NaN coefficient": (
        lambda: ArModel(phi=(math.nan,), sigma2=1.0), InvalidArgumentError,
        "AR coefficients must be finite"),
    "dft of nothing": (lambda: dft([]), InvalidArgumentError, "dft input must be non-empty"),
    "daniell_smooth with no span": (
        lambda: daniell_smooth(periodogram(_X), ()), InvalidArgumentError,
        "at least one span is required"),
    "kpss_level of a constant series": (
        lambda: kpss_level(np.zeros(20)), ZeroVarianceError,
        "KPSS long-run variance is not positive"),
    "TimeSeries of a matrix": (
        lambda: TimeSeries(np.ones((2, 2))), InvalidArgumentError,
        "TimeSeries values must be one-dimensional"),
    "polynomial_roots with a zero leading coefficient": (
        lambda: polynomial_roots(np.array([1.0, 0.0])), DegenerateFitError,
        "leading polynomial coefficient must be non-zero"),
}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_error_path_raises_its_class_and_message(case):
    call, error, message = ERROR_PATHS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_zero_variance_is_an_aic_error_row():
    assert _aic_row(2, 0.0, 50) == AicRow(
        order=2, sigma2=0.0, aic=None, error="non-positive innovation variance")


def test_composite_kernel_wider_than_the_bundled_spectrum(diff64):
    # The bound depends on N, so the smoother reports it, not the config.
    with pytest.raises(InvalidArgumentError) as info:
        daniell_smooth(periodogram(diff64), (41, 41))
    assert str(info.value) == \
        "composite kernel half-width 40 is too wide for 33 spectral ordinates"


def test_row_with_too_few_columns_exits_2(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("period,deaths\n2015-01,5\n2015-02\n")
    assert cli_main(["analyze", "--input", str(path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "error: stage 'ingest' failed: line 3: row has too few columns\n"
