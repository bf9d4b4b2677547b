import math

import numpy as np
import pytest

from tsakit.errors import ConvergenceError, InvalidArgumentError
from tsakit.special import (betainc_reg, gammainc_upper_reg, norm_ppf,
                            norm_ppf_array, normal_sf)
from tsakit.stattests import chi_square_sf


class TestNormal:
    def test_cdf_against_erfc(self):
        # Phi(x) is normal_sf(-x).
        for x in (-4.0, -1.0, 0.0, 0.7, 3.2):
            assert normal_sf(-x) == pytest.approx(
                0.5 * math.erfc(-x / math.sqrt(2)), abs=1e-15)
            assert normal_sf(x) == pytest.approx(1.0 - normal_sf(-x), abs=1e-15)

    def test_ppf_round_trip(self):
        for p in (1e-10, 0.001, 0.025, 0.31, 0.5, 0.77, 0.975, 1 - 1e-6):
            assert normal_sf(-norm_ppf(p)) == pytest.approx(p, rel=1e-10)

    def test_known_quantiles(self):
        assert norm_ppf(0.5) == 0.0
        assert norm_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert norm_ppf(0.025) == pytest.approx(-1.959963984540054, abs=1e-9)

    def test_ppf_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5, float("nan"), np.array([0.5, 1.0])):
            with pytest.raises(InvalidArgumentError):
                norm_ppf(bad)

    def test_array_ppf_domain(self):
        # NaN fails the domain test too, rather than leaving a slot unwritten.
        for bad in (0.0, 1.0, -0.1, 1.5, float("nan"), np.array([0.5, 1.0]),
                    np.array([np.nan, 0.5, np.nan])):
            with pytest.raises(InvalidArgumentError, match="requires all p in"):
                norm_ppf_array(np.asarray(bad))

    def test_array_version_matches_scalar(self):
        ps = np.array([0.01, 0.2, 0.5, 0.9, 0.999])
        vec = norm_ppf_array(ps)
        for p, v in zip(ps, vec):
            assert v == pytest.approx(norm_ppf(float(p)), abs=2e-9)


class TestGammaIncomplete:
    def test_boundaries(self):
        assert gammainc_upper_reg(2.5, 0.0) == 1.0

    def test_exponential_special_case(self):
        # Q(1, x) is exactly exp(-x).
        for x in (0.1, 1.0, 5.0, 20.0):
            assert gammainc_upper_reg(1.0, x) == pytest.approx(
                math.exp(-x), rel=1e-13)

    def test_half_matches_erfc(self):
        # Q(1/2, x^2) = erfc(x) for x >= 0.
        for x in (0.2, 1.0, 2.5):
            assert gammainc_upper_reg(0.5, x * x) == pytest.approx(
                math.erfc(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            gammainc_upper_reg(0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            gammainc_upper_reg(1.0, -1.0)


class TestBetaIncomplete:
    def test_boundaries(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_midpoint(self):
        assert betainc_reg(1.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-14)
        assert betainc_reg(4.0, 4.0, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_uniform_case_is_identity(self):
        for x in (0.1, 0.37, 0.92):
            assert betainc_reg(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_reflection_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a).
        for a, b, x in [(2.5, 7.0, 0.3), (0.5, 32.5, 0.02), (10.0, 0.5, 0.9)]:
            assert betainc_reg(a, b, x) == pytest.approx(
                1.0 - betainc_reg(b, a, 1.0 - x), abs=1e-13)

    def test_integer_binomial_identity(self):
        # For integer a, b: I_x(a, b) = P(Binomial(a+b-1, x) >= a).
        a, b, x = 3, 5, 0.4
        n = a + b - 1
        tail = sum(math.comb(n, k) * x ** k * (1 - x) ** (n - k)
                   for k in range(a, n + 1))
        assert betainc_reg(a, b, x) == pytest.approx(tail, abs=1e-13)

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            betainc_reg(-1.0, 1.0, 0.5)
        with pytest.raises(InvalidArgumentError):
            betainc_reg(1.0, 1.0, 1.5)


class TestIterationCap:
    # Each call below returned a wrong partial result before the cap raised:
    # 0.5121, 0.911 and 0.49999962 where the values are about 0.4994, 0.4999
    # and exactly 0.5.
    @pytest.mark.parametrize("call", [
        lambda: chi_square_sf(1e5, 100000),
        lambda: chi_square_sf(1e7, 10 ** 7),
        lambda: gammainc_upper_reg(1e6, 1e6 + 2.0),
        lambda: betainc_reg(1e6, 1e6, 0.5),
    ], ids=["gamma-series-1e5", "gamma-series-1e7", "gamma-fraction-1e6",
            "beta-fraction-1e6"])
    def test_reaching_the_cap_raises(self, call):
        with pytest.raises(ConvergenceError) as info:
            call()
        assert info.value.iterations in (300, 500)
        assert 0.0 < info.value.residual < 1.0

    def test_converging_calls_still_return(self):
        # A t tail at 10^6 degrees of freedom, the benchmark's t tails at
        # 3998, and chi-square with 2 degrees of freedom (exactly exp(-x/2)).
        # Reference values from scipy.special.betainc.
        assert betainc_reg(5e5, 0.5, 0.999999) == pytest.approx(
            0.3173105078558957, rel=1e-8)
        assert betainc_reg(1999.0, 0.5, 0.999) == pytest.approx(
            0.04551375952130189, rel=1e-11)
        assert betainc_reg(1999.0, 0.5, 0.9) == pytest.approx(
            1.351438072171649e-93, rel=1e-11)
        for x in (1e-3, 3.0, 50.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-13)


NAN = float("nan")
INF = float("inf")


class TestArgumentEdges:
    # Each call below ran its continued fraction to the iteration cap, or
    # raised a bare ZeroDivisionError, before its arguments were checked.
    @pytest.mark.parametrize("call", [
        lambda: betainc_reg(NAN, 1.0, 0.5),
        lambda: betainc_reg(1.0, NAN, 0.5),
        lambda: betainc_reg(INF, 1.0, 0.5),
        lambda: betainc_reg(1.0, INF, 0.5),
        lambda: betainc_reg(1.0, 1.0, NAN),
        lambda: gammainc_upper_reg(NAN, 1.0),
        lambda: gammainc_upper_reg(INF, 1.0),
        lambda: gammainc_upper_reg(1.0, NAN),
    ], ids=["beta-a-nan", "beta-b-nan", "beta-a-inf", "beta-b-inf", "beta-x-nan",
            "gamma-a-nan", "gamma-a-inf", "gamma-x-nan"])
    def test_non_finite_argument_is_refused_at_once(self, call):
        with pytest.raises(InvalidArgumentError):
            call()

    def test_infinite_x_has_no_upper_tail(self):
        for a in (1e-3, 1.0, 7.5, 1e20):
            assert gammainc_upper_reg(a, INF) == 0.0

    @pytest.mark.parametrize("a, x", [(1e20, 1e20), (1e17, 1e17 + 2.0)])
    def test_first_fraction_denominator_rounding_to_zero_raises(self, a, x):
        # x + 1 - a rounds to 0 here; the fraction must not divide by it.
        with pytest.raises(ConvergenceError):
            gammainc_upper_reg(a, x)
