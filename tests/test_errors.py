"""Every integer parameter goes through ``errors._as_index``: a float or bool
is refused with "<name> must be an integer, got <value!r>", a numpy integer
gives the bits a Python int gives, and a value below the parameter's minimum
is refused with "<name> must be >= <minimum>, got <value>"."""
import dataclasses

import numpy as np
import pytest

from tsakit import rng
from tsakit.armodel import (ArModel, RandomWalkSpec, fit_ar_least_squares,
                            levinson_durbin, random_walk_moments,
                            select_order_aic, simulate_ar,
                            simulate_random_walk, theoretical_ar_acf)
from tsakit.correlation import autocovariance, sample_acf
from tsakit.errors import InvalidArgumentError, _as_index
from tsakit.pipeline import PipelineConfig
from tsakit.regression import t_distribution_sf
from tsakit.series import TimeSeries, difference, integrate
from tsakit.spectral import ar_psd

_X = rng.normals(11, 60)
_SERIES = TimeSeries(_X, 24000)
_MODEL = ArModel(phi=(0.5, -0.3), sigma2=1.5, mean=2.0)
_WALK = RandomWalkSpec(drift=0.25, innovation_sigma2=2.0, y0=1.0)

# (name in the message, minimum or None, valid value, call of the value)
INTEGER_PARAMETERS = {
    "levinson_durbin(order)": (
        "order", 0, 2, lambda v: levinson_durbin(autocovariance(_X, 3), v)),
    "fit_ar_least_squares(p)": ("order", 1, 2, lambda v: fit_ar_least_squares(_X, v)),
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
    "PipelineConfig(truncate_head)": (
        "truncate_head", 0, 2, lambda v: PipelineConfig("in.csv", truncate_head=v)),
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
