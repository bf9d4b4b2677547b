import math

import numpy as np
import pytest

from tsakit.errors import ConvergenceError, InvalidArgumentError
from tsakit.special import _acklam, betainc_reg, norm_ppf, normal_sf


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

    def test_array_version_matches_scalar(self):
        # The unrefined approximation is within Acklam's ~1.15e-9 of norm_ppf.
        ps = np.array([0.01, 0.2, 0.5, 0.9, 0.999])
        vec = _acklam(ps)
        for p, v in zip(ps, vec):
            assert v == pytest.approx(norm_ppf(float(p)), abs=2e-9)


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
    # The call below returned a wrong partial result, 0.49999962 where the
    # value is exactly 0.5, before the cap raised.
    @pytest.mark.parametrize("call", [
        lambda: betainc_reg(1e6, 1e6, 0.5),
    ], ids=["beta-fraction-1e6"])
    def test_reaching_the_cap_raises(self, call):
        with pytest.raises(ConvergenceError) as info:
            call()
        assert info.value.iterations == 300
        assert 0.0 < info.value.residual < 1.0

    def test_converging_calls_still_return(self):
        # A t tail at 10^6 degrees of freedom and the benchmark's t tails at
        # 3998. Reference values from scipy.special.betainc.
        assert betainc_reg(5e5, 0.5, 0.999999) == pytest.approx(
            0.3173105078558957, rel=1e-8)
        assert betainc_reg(1999.0, 0.5, 0.999) == pytest.approx(
            0.04551375952130189, rel=1e-11)
        assert betainc_reg(1999.0, 0.5, 0.9) == pytest.approx(
            1.351438072171649e-93, rel=1e-11)


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
    ], ids=["beta-a-nan", "beta-b-nan", "beta-a-inf", "beta-b-inf", "beta-x-nan"])
    def test_non_finite_argument_is_refused_at_once(self, call):
        with pytest.raises(InvalidArgumentError):
            call()
