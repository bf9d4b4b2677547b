import math

import numpy as np
import pytest

from tsakit import rng
from tsakit._linalg import polynomial_roots
from tsakit.armodel import (AicTable, ArModel, RandomWalkSpec,
                            characteristic_roots, default_burn_in,
                            fit_ar_least_squares, fit_ar_yule_walker,
                            is_stationary, levinson_durbin, psi_weights,
                            random_walk_moments, select_order_aic,
                            simulate_ar, simulate_random_walk,
                            unit_root_flags)
from tsakit.correlation import autocovariance
from tsakit.errors import (ConvergenceError, DegenerateFitError,
                           InvalidArgumentError, NonStationaryModelError,
                           TsaError)
from tsakit.stattests import jarque_bera


class TestYuleWalker:
    def test_order_zero(self):
        x = rng.normals(1, 100)
        model = fit_ar_yule_walker(x, 0)
        assert model.phi == ()
        assert model.sigma2 == pytest.approx(autocovariance(x, 0)[0])

    def test_order_one_closed_form(self):
        x = rng.normals(2, 200)
        gamma = autocovariance(x, 1)
        model = fit_ar_yule_walker(x, 1)
        assert model.phi[0] == pytest.approx(gamma[1] / gamma[0], abs=1e-12)

    def test_mean_is_sample_mean(self):
        x = 5.0 + rng.normals(3, 150)
        assert fit_ar_yule_walker(x, 2).mean == pytest.approx(float(x.mean()))

    def test_always_stationary(self):
        for seed in range(6):
            walk = np.cumsum(rng.normals(40 + seed, 120))  # worst case input
            model = fit_ar_yule_walker(walk, 5)
            assert is_stationary(model)

    def test_order_bound(self):
        with pytest.raises(InvalidArgumentError):
            fit_ar_yule_walker(rng.normals(4, 20), 10)

    def test_levinson_guards_against_unit_reflection(self):
        from tsakit.armodel import levinson_durbin
        with pytest.raises(DegenerateFitError):
            levinson_durbin([1.0, 1.0], 1)


class TestLeastSquares:
    def test_noiseless_recursion(self):
        x = np.empty(50)
        x[0] = 1.0
        for t in range(1, 50):
            x[t] = 0.9 * x[t - 1]
        model = fit_ar_least_squares(x, 1)
        assert model.phi[0] == pytest.approx(0.9, abs=1e-10)
        assert model.sigma2 == pytest.approx(0.0, abs=1e-20)

    def test_order_one_equals_lag_regression(self):
        x = rng.normals(5, 300)
        model = fit_ar_least_squares(x, 1)
        # Simple regression of x_t on x_{t-1} with intercept, by the textbook
        # formulas.
        y, lag = x[1:], x[:-1]
        slope = float(((lag - lag.mean()) * (y - y.mean())).sum()
                      / ((lag - lag.mean()) ** 2).sum())
        assert model.phi[0] == pytest.approx(slope, abs=1e-10)

    def test_rank_deficient_design(self):
        with pytest.raises(DegenerateFitError):
            fit_ar_least_squares(np.ones(30), 2)

    def test_order_bounds(self):
        with pytest.raises(InvalidArgumentError):
            fit_ar_least_squares(rng.normals(6, 10), 9)
        with pytest.raises(InvalidArgumentError):
            fit_ar_least_squares(rng.normals(6, 10), 0)


class TestSelectOrderAic:
    def test_bundled_series_selects_eleven(self, aic_table_64):
        assert aic_table_64.selected_order == 11
        assert aic_table_64.method == "yule_walker"

    def test_selected_is_argmin_with_smallest_tie(self, aic_table_64):
        valid = [r for r in aic_table_64.rows if r.error is None]
        best = min(valid, key=lambda r: (r.aic, r.order))
        assert aic_table_64.selected_order == best.order

    def test_yule_walker_failure_keeps_lower_orders(self, monkeypatch):
        # gamma = (1, 0.5, 1, 0.3) gives kappa_1 = 0.5 and kappa_2 = 1 exactly.
        monkeypatch.setattr("tsakit.armodel.autocovariance",
                            lambda x, max_lag: np.array([1.0, 0.5, 1.0, 0.3]))
        table = select_order_aic(rng.normals(11, 50), 3, "yule_walker")
        assert [r.sigma2 for r in table.rows[:2]] == [1.0, 0.75]
        assert all(r.error is None for r in table.rows[:2])
        assert all("at order 2" in r.error and r.sigma2 is None and r.aic is None
                   for r in table.rows[2:])
        assert table.rows[2].error == table.rows[3].error

    def test_yule_walker_scan_runs_one_recursion(self, monkeypatch):
        orders = []

        def counting(gamma, order):
            orders.append(order)
            return levinson_durbin(gamma, order)

        monkeypatch.setattr("tsakit.armodel.levinson_durbin", counting)
        select_order_aic(rng.normals(12, 300), 8, "yule_walker")
        assert orders == [8]

    def test_variances_non_increasing(self):
        x = rng.normals(8, 400)
        table = select_order_aic(x, 12, "yule_walker")
        sig = [r.sigma2 for r in table.rows]
        assert all(b <= a + 1e-12 for a, b in zip(sig, sig[1:]))

    def test_white_noise_prefers_low_orders(self):
        # Measured selection rates for this configuration put order 0 at about
        # 73% and order <= 2 at about 89%; the bounds below sit inside that.
        hits0 = hits2 = 0
        runs = 200
        for s in range(runs):
            table = select_order_aic(rng.normals(7_000_000 + s, 500), 10)
            hits0 += table.selected_order == 0
            hits2 += table.selected_order <= 2
        assert hits0 / runs >= 0.60
        assert hits2 / runs >= 0.85

    def test_ar2_recovery_rate(self):
        model = ArModel(phi=(0.5, 0.3), sigma2=1.0)
        hits = 0
        runs = 200
        for s in range(runs):
            sim = simulate_ar(model, 2000, seed=3_000_000 + s)
            hits += select_order_aic(sim.values, 10).selected_order == 2
        assert hits / runs >= 0.70

    def test_max_order_bound(self):
        with pytest.raises(InvalidArgumentError):
            select_order_aic(rng.normals(9, 20), 10)

    def test_unknown_method(self):
        with pytest.raises(InvalidArgumentError):
            select_order_aic(rng.normals(9, 50), 5, "maximum_likelihood")

    def test_least_squares_method_runs(self):
        table = select_order_aic(rng.normals(10, 300), 6, "least_squares")
        assert isinstance(table, AicTable)
        assert len(table.rows) == 7

    def test_per_order_failures_become_annotations(self):
        # A pure alternation is a noiseless AR(1) and every higher lag is
        # collinear with lag 1, so orders 2+ fail and are annotated while the
        # near-zero-variance order-1 fit wins.
        x = np.array([1.0, -1.0] * 20)
        table = select_order_aic(x, 3, "least_squares")
        assert table.selected_order == 1
        assert table.rows[0].error is None
        assert table.rows[1].error is None
        assert all(row.error is not None for row in table.rows[2:])
        assert all("rank" in row.error for row in table.rows[2:])

    def test_all_orders_failing_is_aggregate_error(self):
        with pytest.raises(DegenerateFitError):
            select_order_aic(np.ones(40), 3, "least_squares")


class TestCharacteristicRoots:
    def test_ar1_root(self):
        roots = characteristic_roots(ArModel(phi=(0.5,), sigma2=1.0))
        assert roots.size == 1
        assert roots[0] == pytest.approx(2.0, abs=1e-10)

    def test_unit_root_flagged(self):
        model = ArModel(phi=(1.0,), sigma2=1.0)
        assert not is_stationary(model)
        assert unit_root_flags(model).tolist() == [True]

    def test_ar2_quadratic_formula(self):
        roots = characteristic_roots(ArModel(phi=(0.5, 0.3), sigma2=1.0))
        # 1 - 0.5 z - 0.3 z^2 = 0 solved by the quadratic formula.
        disc = np.sqrt(0.25 + 1.2)
        expected = {(-0.5 + disc) / 0.6, (-0.5 - disc) / 0.6}
        for root in roots:
            assert abs(root.imag) < 1e-10
            assert min(abs(root.real - e) for e in expected) < 1e-9
        assert np.abs(roots).min() > 1.0

    def test_order_zero_empty(self):
        model = ArModel(phi=(), sigma2=1.0)
        assert characteristic_roots(model).size == 0
        assert is_stationary(model)

    def test_fitted_ar11_roots_outside_unit_circle(self, fitted_ar11):
        moduli = np.abs(characteristic_roots(fitted_ar11))
        assert moduli.min() > 1.0

    def test_mutating_returned_roots_leaves_cache_intact(self):
        model = ArModel(phi=(0.5, 0.3), sigma2=1.0)
        before = characteristic_roots(model)
        returned = characteristic_roots(model)
        returned[:] = 0.0
        assert characteristic_roots(model).tobytes() == before.tobytes()
        assert is_stationary(model)
        assert unit_root_flags(model).tolist() == [False, False]

    def test_cache_is_invisible_to_equality_and_hash(self):
        solved = ArModel(phi=(0.5, 0.3), sigma2=1.0)
        characteristic_roots(solved)
        fresh = ArModel(phi=(0.5, 0.3), sigma2=1.0)
        assert solved == fresh
        assert hash(solved) == hash(fresh)


def _durand_kerner_loop(coeffs, max_iter=800, tol=1e-13):
    """Reference: the per-root Durand-Kerner update the vectorized one replaced."""
    c = np.asarray(coeffs, dtype=complex)
    degree = c.size - 1
    monic = c / c[-1]
    radius = 1.0 + float(np.abs(monic[:-1]).max())
    angles = 2.0 * np.pi * np.arange(degree) / degree + 0.4
    z = radius * np.exp(1j * angles)
    for _ in range(max_iter):
        values = np.full_like(z, monic[-1])
        for coef in monic[-2::-1]:
            values = values * z + coef
        delta = np.zeros_like(z)
        for i in range(degree):
            others = np.delete(z, i)
            denom = np.prod(z[i] - others) if degree > 1 else 1.0 + 0j
            delta[i] = values[i] / denom
        z = z - delta
        if np.abs(delta).max() < tol * max(1.0, float(np.abs(z).max())):
            return z
    raise AssertionError("reference iteration did not converge")


def _stable_ar_polynomial(p: int, seed: int) -> np.ndarray:
    """1 - phi_1 z - ... - phi_p z^p built from reflection coefficients with
    0.2 <= |kappa| <= 0.8, so every root lies outside the unit circle."""
    draw = np.random.default_rng(seed)
    phi = np.empty(0)
    for kappa in draw.uniform(0.2, 0.8, p) * draw.choice([-1.0, 1.0], p):
        phi = np.concatenate((phi - kappa * phi[::-1], [kappa]))
    return np.concatenate(([1.0], -phi))


class TestPolynomialRoots:
    def test_bit_identical_to_per_root_loop_on_fitted_ar11(self, fitted_ar11):
        coeffs = np.concatenate(([1.0], -np.asarray(fitted_ar11.phi)))
        assert (polynomial_roots(coeffs).tobytes()
                == _durand_kerner_loop(coeffs).tobytes())

    @pytest.mark.parametrize("p", range(1, 41))
    def test_bit_identical_to_per_root_loop_on_stable_polynomials(self, p):
        coeffs = _stable_ar_polynomial(p, seed=p)
        assert (polynomial_roots(coeffs).tobytes()
                == _durand_kerner_loop(coeffs).tobytes())

    def test_non_convergence_raises_with_iterations_and_residual(self):
        coeffs = _stable_ar_polynomial(11, seed=11)
        with pytest.raises(ConvergenceError) as info:
            polynomial_roots(coeffs, max_iter=1)
        err = info.value
        assert isinstance(err, TsaError) and isinstance(err, ArithmeticError)
        assert err.iterations == 1
        assert np.isfinite(err.residual) and err.residual > 0.0


class TestPsiWeights:
    def test_ar1_geometric(self):
        h = psi_weights(ArModel(phi=(0.5,), sigma2=1.0), 6)
        assert np.allclose(h, [1, 0.5, 0.25, 0.125, 0.0625, 0.03125], atol=1e-12)

    def test_white_noise(self):
        h = psi_weights(ArModel(phi=(), sigma2=1.0), 4)
        assert h.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_ar2_hand_recursion(self):
        h = psi_weights(ArModel(phi=(0.5, 0.3), sigma2=1.0), 4)
        assert np.allclose(h, [1.0, 0.5, 0.55, 0.425], atol=1e-12)

    def test_fitted_model_weights_are_summable(self, fitted_ar11):
        h = psi_weights(fitted_ar11, 201)
        assert abs(h[200]) < 1e-6 * abs(h[0])


def _simulate_ar_loop(model: ArModel, n: int, seed: int, burn_in=None) -> np.ndarray:
    """The AR recursion on numpy scalars read through numpy indexing: the
    bit-for-bit reference for simulate_ar's plain-float loop."""
    if burn_in is None:
        burn_in = default_burn_in(model.order)
    total = n + burn_in
    innovations = math.sqrt(model.sigma2) * rng.normals(seed, total)
    p = model.order
    buf = np.zeros(total + p)
    for t in range(total):
        acc = innovations[t]
        for j in range(p):
            acc += model.phi[j] * buf[p + t - 1 - j]
        buf[p + t] = acc
    return buf[p + burn_in:] + model.mean


def _ar_with_conjugate_roots(pairs: int, seed: int) -> tuple[float, ...]:
    """phi of an AR(2 * pairs) whose roots have moduli 1.1-2 and random angles,
    well away from the unit circle at any order."""
    draw = np.random.default_rng(seed)
    roots = draw.uniform(1.1, 2.0, pairs) * np.exp(1j * draw.uniform(0.1, 3.0, pairs))
    reciprocals = np.concatenate((1.0 / roots, 1.0 / roots.conj()))
    return tuple(-np.poly(reciprocals).real[1:])


_ORACLE_MODELS = {
    "p0": ArModel(phi=(), sigma2=1.5),
    "p1": ArModel(phi=(0.7,), sigma2=1.0),
    "p2_mean": ArModel(phi=(0.6, -0.2), sigma2=2.0, mean=-3.25),
    "p2_zero_variance": ArModel(phi=(0.5, 0.2), sigma2=0.0, mean=3.5),
    "p11_mean": ArModel(phi=tuple(-_stable_ar_polynomial(11, seed=4)[1:]),
                        sigma2=0.3, mean=1.0e4),
    "p30": ArModel(phi=_ar_with_conjugate_roots(15, seed=30), sigma2=1.0),
}


class TestSimulateAr:
    def test_zero_variance_returns_mean(self):
        model = ArModel(phi=(0.5,), sigma2=0.0, mean=3.5)
        out = simulate_ar(model, 20, seed=1)
        assert np.abs(out.values - 3.5).max() == 0.0

    def test_seed_determinism(self):
        model = ArModel(phi=(0.6, -0.2), sigma2=2.0, mean=1.0)
        a = simulate_ar(model, 500, seed=9)
        b = simulate_ar(model, 500, seed=9)
        c = simulate_ar(model, 500, seed=10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_stationary_variance(self):
        model = ArModel(phi=(0.5,), sigma2=1.0)
        out = simulate_ar(model, 20_000, seed=77)
        assert float(out.values.var()) == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_rejects_unit_root(self):
        with pytest.raises(NonStationaryModelError):
            simulate_ar(ArModel(phi=(1.0,), sigma2=1.0), 10, seed=1)

    def test_default_burn_in(self):
        assert default_burn_in(11) == 160

    @pytest.mark.parametrize("burn_in", [0, 7, None])
    @pytest.mark.parametrize("name", sorted(_ORACLE_MODELS))
    def test_bit_identical_to_numpy_scalar_loop(self, name, burn_in):
        model = _ORACLE_MODELS[name]
        for seed in (0, 5, 123):
            got = simulate_ar(model, 300, seed=seed, burn_in=burn_in).values
            assert got.tobytes() == _simulate_ar_loop(model, 300, seed, burn_in).tobytes()

    def test_recovery_within_tolerance(self, ar_recovery):
        assert ar_recovery["ar1_median"] < 0.05
        assert ar_recovery["ar2_median"] < 0.05


class TestRandomWalk:
    def test_vanishing_noise_limit(self):
        spec = RandomWalkSpec(drift=2.0, innovation_sigma2=1e-30, y0=5.0)
        out = simulate_random_walk(spec, 10, seed=3)
        t = np.arange(1, 11)
        assert np.abs(out.values - (5.0 + 2.0 * t)).max() < 1e-9

    def test_differences_pass_normality(self):
        spec = RandomWalkSpec(drift=0.0, innovation_sigma2=1.0, y0=0.0)
        passes = 0
        runs = 200
        for s in range(runs):
            walk = simulate_random_walk(spec, 200, seed=90_000 + s)
            steps = np.diff(np.concatenate(([0.0], walk.values)))
            if jarque_bera(steps).p_value.value >= 0.05:
                passes += 1
        assert passes / runs >= 0.90

    def test_ensemble_variance(self, random_walk_ensemble):
        var_100 = float(random_walk_ensemble[:, 99].var())
        assert abs(var_100 - 100.0) <= 5.0

    def test_moments_block(self):
        spec = RandomWalkSpec(drift=0.0, innovation_sigma2=1.0, y0=0.0)
        m = random_walk_moments(spec, t=10, k=2)
        assert (m.mean, m.variance, m.autocovariance, m.acf) == (0.0, 10.0, 8.0, 0.8)

    def test_lag_zero_identity(self):
        spec = RandomWalkSpec(drift=0.5, innovation_sigma2=2.0, y0=1.0)
        m = random_walk_moments(spec, t=25, k=0)
        assert m.acf == 1.0
        assert m.autocovariance == m.variance

    def test_strong_memory_at_large_t(self):
        spec = RandomWalkSpec(drift=0.0, innovation_sigma2=1.0, y0=0.0)
        assert random_walk_moments(spec, t=10 ** 6, k=3).acf == pytest.approx(
            1.0, abs=1e-5)

    def test_lag_bound(self):
        spec = RandomWalkSpec()
        with pytest.raises(InvalidArgumentError):
            random_walk_moments(spec, t=5, k=6)

    def test_spec_requires_positive_variance(self):
        with pytest.raises(InvalidArgumentError):
            RandomWalkSpec(innovation_sigma2=0.0)
