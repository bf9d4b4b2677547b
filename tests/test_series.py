import numpy as np
import pytest

from tsakit import rng
from tsakit.errors import InvalidArgumentError
from tsakit.series import (TimeSeries, _month_index, _month_label, _month_words,
                           demean, difference, integrate)

_LAST_MONTH = 9999 * 12 + 11  # the month index of 9999-12, the last label a four-digit year gives


def ts(values):
    return TimeSeries(np.asarray(values, dtype=float))


def word_texts(start, n):
    """``_month_words(start, n)`` as text, each word's bytes lowest first."""
    return [w.decode() for w in _month_words(start, n).astype("<u8").view("S8").tolist()]


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
        # Month index 12 * year + month - 1: consecutive months differ by 1.
        start = _month_index("2015-01")
        assert start == 24180
        assert _month_label(start + 11) == "2015-12"
        assert _month_label(start + 12) == "2016-01"
        assert _month_label(start + 66) == "2020-07"
        with pytest.raises(InvalidArgumentError):
            _month_index("2015/01")

    def test_periods_listing(self):
        assert word_texts(2019 * 12 + 10, 3) == ["2019-11", "2019-12", "2020-01"]

    def test_periods_listing_matches_plus_months(self):
        start = 998 * 12 + 6  # 0998-07
        labels = word_texts(start, 40)
        assert labels == [_month_label(start + t) for t in range(40)]
        assert labels[0] == "0998-07"
        assert labels[5:7] == ["0998-12", "0999-01"]
        assert labels[-1] == "1001-10"
        assert _month_index(labels[-1]) - start == 39

    # 0000-01, a January, a December, mid-year, and runs that end at 9999-12
    # or go past it (five-digit years, which no input label can carry).
    @pytest.mark.parametrize("start", [0, 11, 2015 * 12, 2015 * 12 + 11, 2019 * 12 + 5,
                                       _LAST_MONTH - 29, _LAST_MONTH])
    @pytest.mark.parametrize("n", [1, 2, 12, 13, 30])
    def test_periods_are_month_labels(self, start, n):
        # fig_trend's period column, and what the bulk ingest compares a
        # file's labels with: each word's bytes, lowest first, are the
        # label's, then NUL; a five-digit year's label fills all eight.
        words = _month_words(start, n)
        assert words.dtype == np.uint64
        assert [w.to_bytes(8, "little") for w in words.tolist()] == [
            (_month_label(i) + "\0").encode()[:8] for i in range(start, start + n)]

    @pytest.mark.parametrize("start", [_LAST_MONTH + 1, 99999 * 12 + 11, 100000 * 12,
                                       123456 * 12 + 7, 10 ** 7, 2 ** 40])
    def test_month_past_9999_12_has_no_label_word(self, start):
        # Such a label has eight bytes or more, so no word of one ends in
        # NUL as a seven-byte YYYY-MM label's word does.
        assert ((_month_words(start, 30) >> 56) != 0).all()

    def test_last_month_is_9999_12(self):
        assert _month_label(_LAST_MONTH) == "9999-12"
        assert _month_index("9999-12") == _LAST_MONTH
        assert _month_index("0000-01") == 0


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

    def test_start_month_shifts(self):
        x = TimeSeries(np.array([1.0, 2.0, 4.0]), start_month=_month_index("2015-01"))
        assert difference(x, 1).start_month == _month_index("2015-02")
        assert integrate(difference(x, 1), 1, [1.0]).start_month == x.start_month
        # Month index 0 (0000-01) is a month, not a missing start.
        first = TimeSeries(np.array([1.0, 2.0]), start_month=0)
        assert first.with_values([3.0], shift_months=1).start_month == 1
        assert ts([1.0, 2.0]).with_values([3.0], shift_months=1).start_month is None


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
