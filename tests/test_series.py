import numpy as np
import pytest

from tsakit import rng
from tsakit.errors import InvalidArgumentError
from tsakit.series import Period, TimeSeries, demean, difference, integrate


def ts(values):
    return TimeSeries(np.asarray(values, dtype=float))


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            TimeSeries(np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            ts([1.0, np.nan, 2.0])
        with pytest.raises(InvalidArgumentError):
            ts([1.0, np.inf])

    def test_values_are_read_only(self):
        x = ts([1.0, 2.0])
        with pytest.raises(ValueError):
            x.values[0] = 5.0

    def test_period_arithmetic(self):
        p = Period.parse("2015-01")
        assert str(p.plus_months(11)) == "2015-12"
        assert str(p.plus_months(12)) == "2016-01"
        assert str(p.plus_months(66)) == "2020-07"
        with pytest.raises(InvalidArgumentError):
            Period.parse("2015/01")

    def test_periods_listing(self):
        x = TimeSeries(np.array([1.0, 2.0, 3.0]), start_period=Period(2019, 11))
        assert x.periods() == ["2019-11", "2019-12", "2020-01"]

    def test_periods_listing_matches_plus_months(self):
        start = Period(998, 7)
        x = TimeSeries(np.zeros(40), start_period=start)
        labels = x.periods()
        assert labels == [str(start.plus_months(t)) for t in range(40)]
        assert labels[5:7] == ["0998-12", "0999-01"]
        assert labels[-1] == "1001-10"
        assert Period.parse(labels[-1]).index - start.index == 39


class TestDifference:
    def test_first_difference(self):
        assert difference(ts([1, 4, 9, 16]), 1).values.tolist() == [3, 5, 7]

    def test_order_zero_is_identity(self):
        x = ts([2.0, 7.0, 1.0])
        assert difference(x, 0).values.tolist() == x.values.tolist()

    def test_second_difference(self):
        # Two hand applications of the first difference: [3,5,7] -> [2,2].
        assert difference(ts([1, 4, 9, 16]), 2).values.tolist() == [2, 2]

    def test_length_shrinks_by_d(self):
        x = ts(rng.normals(3, 30))
        for d in range(4):
            assert len(difference(x, d)) == 30 - d

    def test_order_too_large(self):
        with pytest.raises(InvalidArgumentError, match="d=4"):
            difference(ts([1, 2, 3, 4]), 4)

    def test_polynomial_reduction(self):
        t = np.arange(25, dtype=float)
        for degree in (1, 2, 3):
            poly = (0.5 * t) ** degree + 3.0
            out = difference(ts(poly), degree).values
            assert np.abs(out - out[0]).max() < 1e-9 * max(1.0, abs(out[0]))

    def test_start_period_shifts(self):
        x = TimeSeries(np.array([1.0, 2.0, 4.0]), start_period=Period(2015, 1))
        assert str(difference(x, 1).start_period) == "2015-02"


class TestIntegrate:
    def test_inverse_of_difference_example(self):
        out = integrate(ts([3, 5, 7]), 1, [1.0])
        assert out.values.tolist() == [1, 4, 9, 16]

    def test_zero_increments(self):
        assert integrate(ts([0, 0, 0]), 1, [5.0]).values.tolist() == [5, 5, 5, 5]

    def test_wrong_initial_value_count(self):
        with pytest.raises(InvalidArgumentError, match="exactly d"):
            integrate(ts([1, 2]), 2, [0.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_round_trip_random_series(self, d):
        x = ts(100.0 * rng.normals(17 + d, 40))
        diffed = difference(x, d)
        iv = [difference(x, k).values[0] for k in range(d)]
        back = integrate(diffed, d, iv)
        scale = max(1.0, float(np.abs(x.values).max()))
        assert np.abs(back.values - x.values).max() < 1e-9 * scale


class TestDemean:
    def test_simple(self):
        out, mean = demean(ts([1, 2, 3]))
        assert mean == 2.0
        assert out.values.tolist() == [-1, 0, 1]

    def test_zero_mean_unchanged(self):
        out, mean = demean(ts([-1.0, 0.0, 1.0]))
        assert mean == 0.0
        assert out.values.tolist() == [-1, 0, 1]

    def test_output_mean_negligible(self):
        x = ts(1e6 + 100.0 * rng.normals(5, 200))
        out, removed = demean(x)
        assert abs(out.values.mean()) < 1e-12 * max(1.0, abs(removed))

    def test_bundled_first_difference_mean(self, deaths_series):
        diffed = difference(TimeSeries(deaths_series.values[2:]), 1)
        _, mean = demean(diffed)
        # Independent summation oracle.
        total = sum(float(v) for v in diffed.values)
        assert mean == pytest.approx(total / 64, abs=1e-9)
