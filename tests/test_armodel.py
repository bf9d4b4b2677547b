import gc
import math
import warnings

import numpy as np
import pytest

from tsakit import _linalg, armodel, rng
from tsakit._linalg import polynomial_roots
from tsakit.armodel import (AicRow, AicTable, ArModel, RandomWalkSpec, _aic_row,
                            _least_squares_rows, _step_down,
                            characteristic_roots, default_burn_in,
                            is_stationary, levinson_durbin,
                            random_walk_moments, select_order_aic,
                            simulate_ar, simulate_random_walk,
                            theoretical_ar_acf)
from tsakit.cli import main as cli_main
from tsakit.correlation import autocovariance
from tsakit.errors import (ConvergenceError, DegenerateFitError,
                           InvalidArgumentError, NonStationaryModelError,
                           TsaError)
from tsakit.pipeline import _model_section
from tsakit.spectral import ar_psd
from tsakit.stattests import jarque_bera

from conftest import least_squares_fit, yule_walker_fit


class TestYuleWalker:
    def test_order_zero(self):
        x = rng.normals(1, 100)
        model = yule_walker_fit(x, 0)
        assert model.phi == ()
        assert model.sigma2 == pytest.approx(autocovariance(x, 0)[0])

    def test_order_one_closed_form(self):
        x = rng.normals(2, 200)
        gamma = autocovariance(x, 1)
        model = yule_walker_fit(x, 1)
        assert model.phi[0] == pytest.approx(gamma[1] / gamma[0], abs=1e-12)

    def test_mean_is_sample_mean(self):
        x = 5.0 + rng.normals(3, 150)
        assert yule_walker_fit(x, 2).mean == pytest.approx(float(x.mean()))

    def test_always_stationary(self):
        for seed in range(6):
            walk = np.cumsum(rng.normals(40 + seed, 120))  # worst case input
            model = yule_walker_fit(walk, 5)
            assert is_stationary(model)

    def test_order_bound(self):
        # The scan refuses K >= N/2; the recursion, an order past its
        # autocovariances.
        x = rng.normals(4, 20)
        with pytest.raises(InvalidArgumentError):
            select_order_aic(x, 10, "yule_walker")
        with pytest.raises(InvalidArgumentError):
            levinson_durbin(autocovariance(x, 9), 10)

    def test_levinson_refuses_a_negative_order(self):
        with pytest.raises(InvalidArgumentError, match="order must be >= 0, got -3"):
            levinson_durbin([1.0, 0.5], -3)
        phis, variances = levinson_durbin([1.0, 0.5], 0)
        assert [phi.tolist() for phi in phis] == [[]] and variances == [1.0]

    def test_levinson_guards_against_unit_reflection(self):
        with pytest.raises(DegenerateFitError) as info:
            levinson_durbin([1.0, 1.0], 1)
        assert [phi.tolist() for phi in info.value.phis] == [[]]
        assert info.value.variances == [1.0]

    def test_levinson_returns_every_orders_vector_and_variance(self):
        # AR(2) Yule-Walker by hand with rho_1 = 0.5, rho_2 = 0.1:
        # phi_1 = (0.5,), phi_2 = (0.6, -0.2); v_1 = 1 - 0.5^2,
        # v_2 = v_1 (1 - 0.2^2).
        phis, variances = levinson_durbin([1.0, 0.5, 0.1], 2)
        assert len(phis) == 3
        assert phis[0].tolist() == []
        assert phis[1].tolist() == [0.5]
        assert phis[2].tolist() == pytest.approx([0.6, -0.2], abs=1e-15)
        assert variances == pytest.approx([1.0, 0.75, 0.72], abs=1e-15)


class TestLeastSquares:
    # The reference fit of one order (``least_squares_fit``) runs the scan's
    # kernels; the scan's own rows are checked against it below.
    def test_noiseless_recursion(self):
        x = np.empty(50)
        x[0] = 1.0
        for t in range(1, 50):
            x[t] = 0.9 * x[t - 1]
        model = least_squares_fit(x, 1)
        assert model.phi[0] == pytest.approx(0.9, abs=1e-10)
        assert model.sigma2 == pytest.approx(0.0, abs=1e-20)

    def test_order_one_equals_lag_regression(self):
        x = rng.normals(5, 300)
        model = least_squares_fit(x, 1)
        # Simple regression of x_t on x_{t-1} with intercept, by the textbook
        # formulas.
        y, lag = x[1:], x[:-1]
        slope = float(((lag - lag.mean()) * (y - y.mean())).sum()
                      / ((lag - lag.mean()) ** 2).sum())
        assert model.phi[0] == pytest.approx(slope, abs=1e-10)

    def test_rank_deficient_design(self):
        with pytest.raises(DegenerateFitError, match="rank-deficient design matrix"):
            least_squares_fit(np.ones(30), 2)
        # Every lag of a constant series is the ones regressor again, on the
        # shared rows and on each order's own rows alike.
        rows, fits = _least_squares_rows(np.ones(30), 2)
        assert rows == [AicRow(order=k, sigma2=None, aic=None,
                               error="rank-deficient design matrix") for k in (1, 2)]
        assert fits == [None, None]

    @pytest.mark.parametrize("n,p", [(n, p) for n in (30, 300, 4000)
                                     for p in (1, 11, 36) if p < n / 2])
    def test_matches_lapack_least_squares(self, n, p):
        # Oracle: LAPACK's lstsq on an observation-major design built here.
        x = _seeded_ar(n, 100 + n + p)
        design = np.column_stack([np.ones(n - p)] + [x[p - j:n - j] for j in range(1, p + 1)])
        beta, (sse,), rank, _ = np.linalg.lstsq(design, x[p:], rcond=None)
        assert rank == p + 1
        model = least_squares_fit(x, p)
        phi = np.array(model.phi)
        assert np.linalg.norm(phi - beta[1:]) <= 1e-9 * np.linalg.norm(beta[1:])
        assert model.sigma2 * (n - p) == pytest.approx(sse, rel=1e-12, abs=0.0)
        # The scan's top order is this factorization, with nothing updated.
        assert select_order_aic(x, p, "least_squares").rows[p].sigma2 == model.sigma2

    @pytest.mark.parametrize("planted", [0, 3, 6])
    def test_triangularize_stops_at_a_planted_dependent_regressor(self, planted):
        # Regressor-major 7 x 40 design; regressor `planted` is a combination
        # of the regressors before it (for the first one, the empty
        # combination: zero), so the rank check fails exactly there.
        a = rng.normals(21, 7 * 40).reshape(7, 40)
        full = a.copy()
        assert _linalg.householder_triangularize(full, rng.normals(22, 40)) == 7
        a[planted] = rng.normals(23, planted) @ a[:planted]
        assert _linalg.householder_triangularize(a, rng.normals(22, 40)) == planted

    @pytest.mark.parametrize("planted", [0, 1, 3, 6])
    def test_triangularize_stops_at_a_planted_regressor_across_scales(self, planted):
        # As above, with the regressors' scales spread over 1e13: the rank
        # check judges each regressor against its own norm, so neither a tiny
        # regressor beside a huge one nor the reverse fails unless planted.
        scales = 10.0 ** np.array([-6.5, 6.5, -2.0, 4.0, -6.5, 6.5, 0.0])[:, None]
        a = rng.normals(21, 7 * 40).reshape(7, 40)
        full = a * scales
        assert _linalg.householder_triangularize(full, rng.normals(22, 40)) == 7
        a[planted] = rng.normals(23, planted) @ a[:planted]
        a *= scales
        assert _linalg.householder_triangularize(a, rng.normals(22, 40)) == planted


def _select_order_aic_ls_loop(x, max_order):
    """The least-squares AIC scan as one full fit per order: the reference for
    the shared-factorization scan."""
    arr = np.asarray(x, dtype=float)
    n = arr.size
    centered = arr - arr.mean()
    sigma2_0 = float((centered ** 2).mean())
    rows = [_aic_row(0, sigma2_0, n) if sigma2_0 > 0.0 else
            AicRow(order=0, sigma2=None, aic=None, error="zero variance")]
    for k in range(1, max_order + 1):
        try:
            rows.append(_aic_row(k, least_squares_fit(arr, k).sigma2, n))
        except (DegenerateFitError, InvalidArgumentError) as exc:
            rows.append(AicRow(order=k, sigma2=None, aic=None, error=str(exc)))
    valid = [r for r in rows if r.error is None and r.aic is not None]
    if not valid:
        raise DegenerateFitError("AIC evaluation failed at every candidate order")
    order = min(valid, key=lambda r: (r.aic, r.order)).order
    model = least_squares_fit(arr, order) if order else yule_walker_fit(arr, 0)
    return AicTable(rows=tuple(rows), selected_order=order, model=model)


def _assert_same_aic(got, want):
    """Same selected order and error texts; sigma2 and AIC to 1e-12 relative.

    A row whose sigma2 is below (1e-12)^2 of the largest is an exact fit: its
    residuals are rounding residue, whose size is all the two scans share.
    """
    assert got.selected_order == want.selected_order
    assert [(r.order, r.error) for r in got.rows] == [(r.order, r.error) for r in want.rows]
    exact_fit = 1e-24 * max(r.sigma2 for r in want.rows if r.sigma2 is not None)
    for g, w in zip(got.rows, want.rows):
        if w.sigma2 is None or w.sigma2 < exact_fit:
            assert g.sigma2 == w.sigma2 or g.sigma2 < exact_fit
            continue
        assert g.sigma2 == pytest.approx(w.sigma2, rel=1e-12, abs=0.0)
        assert g.aic == pytest.approx(w.aic, rel=1e-12, abs=0.0)


def _assert_scan_model_is_the_fit(x, max_order):
    """The least-squares scan's model against the per-order scan's refit of
    the selected order: the same order, phi within 1e-12 norm-relative, a
    mean as close on the data's scale, the selected row's sigma2 bit for bit,
    and at order 0 the very Yule-Walker fit."""
    table = select_order_aic(x, max_order, "least_squares")
    oracle = _select_order_aic_ls_loop(x, max_order)
    assert table.selected_order == oracle.selected_order
    got, want = table.model, oracle.model
    assert got.sigma2 == table.rows[table.selected_order].sigma2
    assert (got.order, got.estimation_method, got.n_used) == \
        (want.order, want.estimation_method, want.n_used)
    if got.order == 0:
        assert got == want
        return table
    phi, want_phi = np.array(got.phi), np.array(want.phi)
    assert np.linalg.norm(phi - want_phi) <= 1e-12 * np.linalg.norm(want_phi)
    assert abs(got.mean - want.mean) <= 1e-12 * max(abs(want.mean), float(np.std(x)))
    return table


def _assert_bit_identical(got, want):
    """The same order, label and N, and phi, sigma2 and mean bit for bit."""
    assert (got.order, got.estimation_method, got.n_used) == \
        (want.order, want.estimation_method, want.n_used)
    assert [v.hex() for v in got.phi] == [v.hex() for v in want.phi]
    assert got.sigma2.hex() == want.sigma2.hex()
    assert got.mean.hex() == want.mean.hex()


def _seeded_ar(n, seed):
    model = ArModel(phi=(0.6, -0.3, 0.2), sigma2=4.0, mean=12.0)
    return simulate_ar(model, n, seed).values + 0.01 * np.cumsum(rng.normals(seed, n))


_LS_SCAN_CASES = {
    "n30-k1": lambda: (_seeded_ar(30, 1), 1),
    "n30-k5": lambda: (_seeded_ar(30, 2), 5),
    "n30-k14": lambda: (_seeded_ar(30, 3), 14),
    "n300-k3": lambda: (_seeded_ar(300, 4), 3),
    "n300-k12": lambda: (_seeded_ar(300, 5), 12),
    "n300-k40": lambda: (_seeded_ar(300, 6), 40),
    "n4000-k11": lambda: (_seeded_ar(4000, 7), 11),
    "n4000-k36": lambda: (_seeded_ar(4000, 8), 36),
    "alternation": lambda: (np.array([1.0, -1.0] * 20), 3),
    "rank-deficient-shared-rows": lambda: (
        (lambda v: v - v.mean())(np.concatenate(([3.0, -2.0, 0.5], [1.0, -1.0] * 40))), 6),
    # The rank check is scale-free, so the scan matches at either extreme.
    "n300-k12-x1e-14": lambda: (_seeded_ar(300, 5) * 1e-14, 12),
    "n300-k12-x1e13": lambda: (_seeded_ar(300, 5) * 1e13, 12),
}


@pytest.fixture
def factored_shapes(monkeypatch):
    """The shape of each design the AIC scan triangularizes, in call order."""
    shapes = []

    def counting_triangularize(a, rhs):
        shapes.append(a.shape)
        return _linalg.householder_triangularize(a, rhs)

    monkeypatch.setattr("tsakit.armodel.householder_triangularize", counting_triangularize)
    return shapes


class TestSelectOrderAic:
    def test_bundled_series_selects_eleven(self, aic_table_64):
        assert aic_table_64.selected_order == 11

    def test_yule_walker_model_is_the_selected_fit(self, aic_table_64, fitted_ar11):
        assert aic_table_64.model == fitted_ar11
        _assert_bit_identical(aic_table_64.model, fitted_ar11)

    def test_selected_is_argmin_with_smallest_tie(self, aic_table_64):
        valid = [r for r in aic_table_64.rows if r.error is None]
        best = min(valid, key=lambda r: (r.aic, r.order))
        assert aic_table_64.selected_order == best.order

    def test_yule_walker_failure_keeps_lower_orders(self, monkeypatch):
        # gamma = (1, 0.5, 1, 0.3) gives kappa_1 = 0.5 and kappa_2 = 1 exactly.
        monkeypatch.setattr("tsakit.armodel.autocovariance",
                            lambda x, max_lag: np.array([1.0, 0.5, 1.0, 0.3]))
        x = rng.normals(11, 50)
        table = select_order_aic(x, 3, "yule_walker")
        assert [r.sigma2 for r in table.rows[:2]] == [1.0, 0.75]
        assert all(r.error is None for r in table.rows[:2])
        assert all("at order 2" in r.error and r.sigma2 is None and r.aic is None
                   for r in table.rows[2:])
        assert table.rows[2].error == table.rows[3].error
        # Order 1 (AIC ln 0.75 + 2/50 < 0) is selected, with the vector the
        # exception carries from the completed orders.
        assert table.selected_order == 1
        assert table.model == ArModel(phi=(0.5,), sigma2=0.75, mean=float(x.mean()),
                                      estimation_method="yule_walker", n_used=50)

    def test_yule_walker_model_is_bit_identical_to_its_own_fit_on_long_inputs(
            self, bench_workloads):
        # The series the pipeline fits, as in the least-squares test below.
        for index in range(8):
            counts = bench_workloads.synthetic_counts(77, index).astype(float)
            diffed = np.diff(counts[2:])
            x = diffed - diffed.mean()
            table = select_order_aic(x, int(10.0 * math.log10(x.size)), "yule_walker")
            _assert_bit_identical(table.model, yule_walker_fit(x, table.selected_order))

    def test_yule_walker_scan_runs_one_recursion(self, monkeypatch):
        orders = []

        def counting(gamma, order):
            orders.append(order)
            return levinson_durbin(gamma, order)

        monkeypatch.setattr("tsakit.armodel.levinson_durbin", counting)
        select_order_aic(rng.normals(12, 300), 8, "yule_walker")
        # One recursion gives every order's row and fit; the selected model
        # is its step, not a second recursion.
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
        with pytest.raises(DegenerateFitError):
            _select_order_aic_ls_loop(np.ones(40), 3)

    @pytest.mark.parametrize("name", sorted(_LS_SCAN_CASES))
    def test_least_squares_scan_matches_per_order_fits(self, name):
        x, max_order = _LS_SCAN_CASES[name]()
        _assert_same_aic(select_order_aic(x, max_order, "least_squares"),
                         _select_order_aic_ls_loop(x, max_order))

    @pytest.mark.parametrize("name", sorted(_LS_SCAN_CASES))
    def test_least_squares_scan_returns_the_selected_fit(self, name):
        _assert_scan_model_is_the_fit(*_LS_SCAN_CASES[name]())

    @pytest.mark.parametrize("seed", [77, 1, 8675309])
    def test_least_squares_scan_returns_the_selected_fit_on_long_inputs(
            self, bench_workloads, seed):
        # The series the pipeline fits: truncate 2, first difference, demean,
        # K = floor(10 log10 N). Order K's factor is the one
        # least_squares_fit(x, K) takes, and both back-substitute it the
        # same way, so when the scan selects K the models are equal.
        selected_k = 0
        for index in range(8):
            counts = bench_workloads.synthetic_counts(seed, index).astype(float)
            diffed = np.diff(counts[2:])
            x = diffed - diffed.mean()
            max_order = int(10.0 * math.log10(x.size))
            table = _assert_scan_model_is_the_fit(x, max_order)
            if table.selected_order == max_order:
                selected_k += 1
                assert table.model == least_squares_fit(x, max_order)
        assert selected_k >= 4

    def test_least_squares_fallback_order_keeps_its_own_fit(self):
        # Orders 2-4 fail the rank check on the shared rows and are factored
        # on their own rows; the scan selects order 4.
        x, max_order = _LS_SCAN_CASES["rank-deficient-shared-rows"]()
        table = _assert_scan_model_is_the_fit(x, max_order)
        assert table.selected_order == 4
        assert table.model == least_squares_fit(x, 4)

    def test_least_squares_scan_selecting_order_zero_returns_yule_walker(self):
        x = rng.normals(1, 200)
        table = _assert_scan_model_is_the_fit(x, 4)
        assert table.selected_order == 0
        assert table.model == yule_walker_fit(x, 0)

    @pytest.mark.parametrize("scale", [1e-20, 1e-14, 1e-13, 1e12, 1e13, 1e20])
    def test_least_squares_scan_selects_the_same_order_at_any_scale(self, scale):
        # Each regressor is judged against its own norm, not against an
        # absolute floor, so scaling the series changes no rank decision.
        x = rng.normals(3, 60)
        want = select_order_aic(x, 4, "least_squares").selected_order
        table = select_order_aic(x * scale, 4, "least_squares")
        assert table.selected_order == want
        assert all(row.error is None for row in table.rows)

    @pytest.mark.parametrize("name, scale", [("n300-k12-x1e-14", 1e-14),
                                             ("n300-k12-x1e13", 1e13)])
    def test_scaled_scan_case_is_the_unscaled_one_scaled(self, name, scale):
        # The per-order reference shares the scan's rank check, so it cannot
        # tell a wrong verdict at the extremes; the unscaled case can.
        want = select_order_aic(*_LS_SCAN_CASES["n300-k12"](), "least_squares")
        got = select_order_aic(*_LS_SCAN_CASES[name](), "least_squares")
        assert got.selected_order == want.selected_order
        for g, w in zip(got.rows, want.rows):
            assert g.error is None
            assert g.sigma2 == pytest.approx(w.sigma2 * scale ** 2, rel=1e-9, abs=0.0)

    def test_least_squares_scan_matches_per_order_fits_on_bundled_series(self, diff64):
        table = select_order_aic(diff64, 18, "least_squares")
        _assert_same_aic(table, _select_order_aic_ls_loop(diff64, 18))
        assert table.selected_order == 18

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_least_squares_overflowing_sse_is_an_error_row(self):
        # Every SSE overflows, so each order's row is a non-finite-variance
        # error, with no refit. Order 0's variance overflows to inf, which is
        # an error row too, so no order is left to select, in the scan and in
        # its oracle alike.
        x = rng.normals(3, 60)
        x[-1] = 1e200
        with pytest.raises(DegenerateFitError, match="every candidate order"):
            select_order_aic(x, 4, "least_squares")
        with pytest.raises(DegenerateFitError, match="every candidate order"):
            _select_order_aic_ls_loop(x, 4)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_yule_walker_overflowing_variance_is_aggregate_error(self):
        x = rng.normals(3, 60)
        x[-1] = 1e200
        with pytest.raises(DegenerateFitError, match="every candidate order"):
            select_order_aic(x, 4, "yule_walker")

    @pytest.mark.parametrize("sigma2", [math.inf, math.nan])
    def test_non_finite_variance_is_error_row(self, sigma2):
        assert _aic_row(3, sigma2, 60) == AicRow(
            order=3, sigma2=None, aic=None, error="non-finite innovation variance")

    def test_least_squares_rank_deficient_shared_rows_fall_back(self, factored_shapes):
        # The shared rows t >= 6 alternate, so they have rank 2; the first
        # three values make orders 2-4 full rank on their own rows.
        x, _ = _LS_SCAN_CASES["rank-deficient-shared-rows"]()
        table = select_order_aic(x, 6, "least_squares")
        assert [r.error is None for r in table.rows] == [True] * 5 + [False] * 2
        assert [r.error for r in table.rows[5:]] == ["rank-deficient design matrix"] * 2
        # The shared rows once, then each of orders 6 down to 2 on its own
        # rows t = k..N-1; order 1's regressors pass on the shared rows.
        n = x.size
        assert factored_shapes == [(7, n - 6)] + [(k + 1, n - k) for k in range(6, 1, -1)]

    def test_least_squares_scan_factors_shared_rows_once(self, factored_shapes):
        select_order_aic(rng.normals(13, 300), 8, "least_squares")
        # One factorization of the 292 shared rows (regressor-major, so
        # K + 1 regressor rows by 292 observation columns); every lower
        # order comes from row updates, with no factorization of its own.
        assert factored_shapes == [(8 + 1, 300 - 8)]


class TestCharacteristicRoots:
    def test_ar1_root(self):
        roots = characteristic_roots(ArModel(phi=(0.5,), sigma2=1.0))
        assert roots.size == 1
        assert roots[0] == pytest.approx(2.0, abs=1e-10)

    def test_unit_root_flagged(self):
        model = ArModel(phi=(1.0,), sigma2=1.0)
        assert not is_stationary(model)
        section = _model_section(model)
        assert [r["unit_root"] for r in section["roots"]] == [True]
        assert section["stationary"] is False

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

    def test_mutating_returned_roots_leaves_the_model_unchanged(self):
        model = ArModel(phi=(0.5, 0.3), sigma2=1.0)
        before = characteristic_roots(model)
        returned = characteristic_roots(model)
        returned[:] = 0.0
        assert characteristic_roots(model).tobytes() == before.tobytes()
        assert is_stationary(model)
        assert [r["unit_root"] for r in _model_section(model)["roots"]] == [False, False]

    def test_solving_roots_leaves_equality_and_hash_unchanged(self):
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


def _random_walk_whole(spec: RandomWalkSpec, n: int, seed: int) -> np.ndarray:
    """The random walk from one draw of all n steps and one cumsum over them:
    the bit-for-bit reference for simulate_random_walk's chunks."""
    steps = math.sqrt(spec.innovation_sigma2) * rng.normals(seed, n)
    return spec.y0 + spec.drift * np.arange(1, n + 1, dtype=float) + np.cumsum(steps)


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


_STREAMED_MODELS = {
    "p0": _ORACLE_MODELS["p0"],
    "p1": _ORACLE_MODELS["p1"],
    "p11_mean": _ORACLE_MODELS["p11_mean"],
    "p36": ArModel(phi=_ar_with_conjugate_roots(18, seed=36), sigma2=0.5, mean=-2.0),
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

    # A float or bool n or burn_in would draw ceil(n) values or fail in numpy.
    @pytest.mark.parametrize("name, n, burn_in", [
        ("n", 2.5, None), ("n", 3.0, None), ("n", True, None),
        ("burn_in", 10, 2.5), ("burn_in", 10, 3.0), ("burn_in", 10, False)])
    def test_n_and_burn_in_must_be_integers(self, name, n, burn_in):
        with pytest.raises(InvalidArgumentError) as info:
            simulate_ar(ArModel(phi=(0.5,), sigma2=1.0), n, 0, burn_in=burn_in)
        value = n if name == "n" else burn_in
        assert str(info.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("phi", [(), (0.5, -0.2)])
    def test_numpy_integer_n_gives_the_same_bits(self, phi):
        model = ArModel(phi=phi, sigma2=1.0, mean=2.0)
        want = simulate_ar(model, 200, seed=3, burn_in=20).values.tobytes()
        assert simulate_ar(model, np.int64(200), seed=3,
                           burn_in=np.int32(20)).values.tobytes() == want

    @pytest.mark.parametrize("burn_in", [0, 7, None])
    @pytest.mark.parametrize("name", sorted(_ORACLE_MODELS))
    def test_bit_identical_to_numpy_scalar_loop(self, name, burn_in):
        model = _ORACLE_MODELS[name]
        for seed in (0, 5, 123):
            got = simulate_ar(model, 300, seed=seed, burn_in=burn_in).values
            assert got.tobytes() == _simulate_ar_loop(model, 300, seed, burn_in).tobytes()

    # n = 1 and n < p reach the recursion before every lag holds a sample.
    @pytest.mark.parametrize("burn_in", [0, None])
    @pytest.mark.parametrize("n", [1, 250])
    @pytest.mark.parametrize("p", [*range(1, 13), 36, 60])
    def test_bit_identical_at_every_order(self, p, n, burn_in):
        model = ArModel(phi=tuple(-_stable_ar_polynomial(p, seed=100 + p)[1:]),
                        sigma2=0.7, mean=-1.5)
        got = simulate_ar(model, n, seed=p, burn_in=burn_in).values
        assert got.tobytes() == _simulate_ar_loop(model, n, p, burn_in).tobytes()

    # The chunks are made _CHUNK samples at a time; joined, they must give
    # the bits of one unchunked recursion whatever the chunk size, with an n
    # that is no multiple of it and a burn-in longer than a 4096 chunk.
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("name, n, burn_in", [
        ("p0", 10_007, 5_000), ("p1", 4_101, None), ("p11_mean", 4_097, 4_100),
        ("p36", 5_003, 5_000), ("p36", 1, 0)])
    def test_streamed_equals_whole(self, monkeypatch, chunk, name, n, burn_in):
        model = _STREAMED_MODELS[name]
        want = _simulate_ar_loop(model, n, 5, burn_in).tobytes()
        monkeypatch.setattr(armodel, "_CHUNK", chunk)
        assert simulate_ar(model, n, seed=5, burn_in=burn_in).values.tobytes() == want

    def test_chunks_start_after_the_burn_in(self, monkeypatch):
        monkeypatch.setattr(armodel, "_CHUNK", 7)
        model = ArModel(phi=(0.5,), sigma2=1.0)
        chunks = list(armodel._ar_chunks(model, 10, 2, 20))
        assert [len(c) for c in chunks] == [7, 3]
        assert np.concatenate(chunks).tobytes() == _simulate_ar_loop(model, 10, 2, 20).tobytes()

    # No lag carries an AR(0) burn-in into the series, so it is not drawn;
    # at p >= 1 every burn-in chunk is drawn as before.
    @pytest.mark.parametrize("phi", [(), (0.5,), (0.6, -0.2)])
    def test_burn_in_draws_only_when_a_lag_carries_it(self, monkeypatch, phi):
        monkeypatch.setattr(armodel, "_CHUNK", 4096)  # the draws below are its slices
        model = ArModel(phi=phi, sigma2=1.0, mean=0.5)
        want = _simulate_ar_loop(model, 5_000, 4, 9_000)
        draws = []
        normals = rng.normals

        def recording(seed, count, start):
            draws.append((start, count))
            return normals(seed, count, start)

        monkeypatch.setattr(rng, "normals", recording)
        got = simulate_ar(model, 5_000, seed=4, burn_in=9_000).values
        assert got.tobytes() == want.tobytes()
        burn_in_draws = [(0, 4096), (4096, 4096), (8192, 808)] if phi else []
        assert draws == [*burn_in_draws, (9_000, 4096), (13_096, 904)]

    # The seed is checked once the first chunk is asked for.
    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(InvalidArgumentError) as info:
            simulate_ar(ArModel(phi=(0.5,), sigma2=1.0), 10, seed)
        assert str(info.value) == f"seed must be an integer, got {seed!r}"

    def test_numpy_integer_seed_gives_the_same_bits(self):
        model = _ORACLE_MODELS["p2_mean"]
        assert simulate_ar(model, 300, np.int64(12)).values.tobytes() == \
            simulate_ar(model, 300, 12).values.tobytes()

    def test_leaves_no_garbage_for_the_cycle_collector(self):
        # A function exec'd into the dict that is also its globals is in a
        # reference cycle with it, and each call would leave garbage here.
        model = _ORACLE_MODELS["p11_mean"]
        gc.collect()
        gc.disable()
        try:
            simulate_ar(model, 1000, seed=1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_generated_source_holds_no_coefficient_text(self, monkeypatch):
        sources = []

        def spy(src, globals_, locals_):
            sources.append(src)
            exec(src, globals_, locals_)

        monkeypatch.setattr(armodel, "exec", spy, raising=False)
        phi = (0.123456789012345, -0.0987654321)
        simulate_ar(ArModel(phi=phi, sigma2=1.0), 50, seed=2)
        assert len(sources) == 1
        assert not any(repr(c) in sources[0] for c in phi)

    def test_recovery_within_tolerance(self, ar_recovery):
        assert ar_recovery["ar1_median"] < 0.05
        assert ar_recovery["ar2_median"] < 0.05

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
    def test_ar_model_refuses_non_finite_mean(self, mean):
        with pytest.raises(InvalidArgumentError) as info:
            ArModel(phi=(0.5,), sigma2=1.0, mean=mean)
        assert str(info.value) == f"mean must be finite, got {mean}"


def _roots_from_moduli(p: int, seed: int) -> tuple[np.ndarray, bool]:
    """p roots with moduli drawn from 0.9-2: p // 2 conjugate pairs at random
    angles, plus a real root of random sign when p is odd. Returns (roots,
    every modulus exceeds 1)."""
    draw = np.random.default_rng(seed)
    moduli = draw.uniform(0.9, 2.0, (p + 1) // 2)
    roots = moduli[:p // 2] * np.exp(1j * draw.uniform(0.1, 3.0, p // 2))
    roots = np.concatenate((roots, roots.conj()))
    if p % 2:
        roots = np.append(roots, moduli[-1] * draw.choice([-1.0, 1.0]))
    return roots, bool(moduli.min() > 1.0)


def _ar_from_root_moduli(p: int, seed: int) -> tuple[tuple[float, ...], bool]:
    """phi of the AR(p) whose characteristic roots are
    ``_roots_from_moduli(p, seed)``. Returns (phi, stationary); the model is
    stationary exactly when every modulus exceeds 1 (the closest draw for
    p <= 40 and seeds 0-9 is 1.1e-3 away from 1)."""
    roots, stationary = _roots_from_moduli(p, seed)
    return tuple((-np.poly(1.0 / roots).real[1:]).tolist()), stationary


class TestStepDown:
    def test_ar2_steps_down_to_its_reflection_coefficients(self):
        # kappa_2 = phi_2 and phi_{1,1} = phi_1 (1 + kappa_2) / (1 - kappa_2^2).
        orders = _step_down((0.5, 0.3))
        assert [len(a) for a in orders] == [0, 1, 2]
        assert orders[1][0] == pytest.approx(5.0 / 7.0, abs=1e-15)
        assert orders[2] == [0.5, 0.3]

    @pytest.mark.parametrize("phi", [(1.0,), (-1.0,), (0.5, 0.5), (0.2, -1.5),
                                     (1e308, 1e308, 0.5), (math.nan,)])
    def test_unit_or_outside_reflection_returns_none(self, phi):
        # (0.5, 0.5) has a root at z = 1; the overflowing model steps down
        # through inf to a NaN reflection coefficient.
        assert _step_down(phi) is None

    def test_seed30_ar30_is_stationary_and_simulates(self):
        # Every |kappa| <= 0.8, but the smallest root modulus is 1 + 4.8e-9,
        # inside the UNIT_ROOT_TOL a root-based verdict needs.
        model = ArModel(phi=tuple(-_stable_ar_polynomial(30, seed=30)[1:]), sigma2=1.0)
        assert is_stationary(model)
        values = simulate_ar(model, 500, seed=3).values
        assert values.size == 500 and np.isfinite(values).all()

    @pytest.mark.parametrize("p", range(2, 41))
    def test_verdict_matches_construction(self, p):
        # 390 models, 129 of them stationary. The Durand-Kerner update does
        # not settle on 71 of them (19 stationary, the first p = 14, seed 8),
        # and 12 of those (p >= 37) overflow and raise, so a verdict from the
        # roots could not decide every model.
        for seed in range(10):
            phi, stationary = _ar_from_root_moduli(p, seed)
            assert is_stationary(ArModel(phi=phi, sigma2=1.0)) is stationary

    @pytest.mark.parametrize("p", range(1, 41))
    def test_theoretical_acf_meets_yule_walker(self, p):
        # Includes p = 30, 31, 35, 38 and 39, whose roots lie within
        # UNIT_ROOT_TOL of the unit circle.
        phi = -_stable_ar_polynomial(p, seed=p)[1:]
        rho = theoretical_ar_acf(ArModel(phi=tuple(phi), sigma2=1.0), p + 5)
        for k in range(1, p + 6):
            implied = sum(phi[j - 1] * rho[abs(k - j)] for j in range(1, p + 1))
            assert abs(rho[k] - implied) <= 1e-12

    def test_stationarity_users_solve_no_roots(self, monkeypatch):
        calls = []

        def counting(coeffs, *args, **kwargs):
            calls.append(len(coeffs))
            return polynomial_roots(coeffs, *args, **kwargs)

        monkeypatch.setattr("tsakit.armodel.polynomial_roots", counting)
        model = ArModel(phi=tuple(-_stable_ar_polynomial(11, seed=11)[1:]), sigma2=1.0)
        simulate_ar(model, 100, seed=1)
        ar_psd(model, 17)
        theoretical_ar_acf(model, 20)
        assert calls == []
        characteristic_roots(model)
        assert calls == [12]

    def test_cli_simulates_ar11_the_root_finder_cannot_solve(self, tmp_path):
        # Stationary (smallest root modulus 1.25). The Durand-Kerner update
        # does not settle on it within 800 iterations; simulating needs no
        # roots, and the root finder returns them by its rounding bound.
        phi, stationary = _ar_from_root_moduli(11, seed=197)
        assert stationary
        out = tmp_path / "ar11.csv"
        code = cli_main(["simulate", "ar", "--phi=" + ",".join(map(repr, phi)),
                         "--n", "200", "--seed", "5", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 201


# (p, seed) of the _ar_from_root_moduli models (p <= 40, seeds 0-9) whose
# Durand-Kerner update has not settled after 800 iterations: these 59 end
# within the rounding bound, and the 12 below overflow on the start circle.
_STALLED_ROOT_MODELS = [
    (14, 8), (15, 8), (16, 4), (17, 6), (17, 8), (18, 4), (18, 6), (18, 8),
    (19, 4), (20, 4), (22, 0), (22, 1), (22, 4), (23, 4), (24, 4), (24, 9),
    (25, 0), (25, 4), (25, 9), (26, 4), (26, 9), (27, 4), (27, 9), (28, 4),
    (28, 8), (28, 9), (29, 4), (29, 6), (29, 8), (29, 9), (30, 8), (30, 9),
    (31, 8), (31, 9), (32, 4), (32, 8), (32, 9), (33, 6), (33, 8), (33, 9),
    (34, 4), (34, 8), (34, 9), (35, 0), (35, 8), (35, 9), (36, 0), (36, 4),
    (36, 7), (36, 8), (36, 9), (37, 0), (37, 7), (37, 9), (38, 0), (38, 9),
    (39, 2), (39, 9), (40, 9)]
_OVERFLOWING_ROOT_MODELS = [
    (37, 4), (37, 8), (38, 4), (38, 7), (38, 8), (39, 4), (39, 7), (39, 8),
    (40, 0), (40, 4), (40, 7), (40, 8)]


class TestRootFinderLimits:
    @pytest.mark.parametrize("p, seed", _STALLED_ROOT_MODELS + [(11, 197)])
    def test_stalled_iterate_holds_every_constructed_root(self, p, seed):
        phi, _ = _ar_from_root_moduli(p, seed)
        roots = characteristic_roots(ArModel(phi=phi, sigma2=1.0))
        assert roots.size == p
        for root in _roots_from_moduli(p, seed)[0]:
            assert np.abs(roots - root).min() <= 1e-5 * abs(root)

    @pytest.mark.parametrize("p, seed", _OVERFLOWING_ROOT_MODELS)
    def test_overflowing_start_circle_raises_convergence_error(self, p, seed):
        phi, _ = _ar_from_root_moduli(p, seed)
        coeffs = np.concatenate(([1.0], -np.asarray(phi)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as info:
                polynomial_roots(coeffs)
        assert info.value.residual == math.inf
        assert "not finite" in str(info.value)


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

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(InvalidArgumentError) as info:
            simulate_random_walk(RandomWalkSpec(), n, 0)
        assert str(info.value) == f"n must be an integer, got {n!r}"

    def test_numpy_integer_n_gives_the_same_bits(self):
        spec = RandomWalkSpec(drift=0.5, innovation_sigma2=2.0, y0=1.0)
        assert simulate_random_walk(spec, np.int64(150), 8).values.tobytes() == \
            simulate_random_walk(spec, 150, 8).values.tobytes()

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(InvalidArgumentError) as info:
            simulate_random_walk(RandomWalkSpec(), 10, seed)
        assert str(info.value) == f"seed must be an integer, got {seed!r}"

    def test_numpy_integer_seed_gives_the_same_bits(self):
        spec = RandomWalkSpec(drift=0.5, innovation_sigma2=2.0, y0=1.0)
        assert simulate_random_walk(spec, 150, np.int64(8)).values.tobytes() == \
            simulate_random_walk(spec, 150, 8).values.tobytes()

    # Each chunk after the first starts its cumsum from the carried running
    # sum, which must give the bits of one cumsum over all n steps.
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("n", [1, 100, 4096, 10_007])
    def test_streamed_equals_whole(self, monkeypatch, chunk, n):
        spec = RandomWalkSpec(drift=-0.3, innovation_sigma2=2.5, y0=4.0)
        want = _random_walk_whole(spec, n, 21).tobytes()
        monkeypatch.setattr(armodel, "_CHUNK", chunk)
        assert simulate_random_walk(spec, n, 21).values.tobytes() == want

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

    @pytest.mark.parametrize("fields, message", [
        ({"innovation_sigma2": math.nan}, "innovation variance must be finite, got nan"),
        ({"innovation_sigma2": math.inf}, "innovation variance must be finite, got inf"),
        ({"drift": math.nan}, "drift must be finite, got nan"),
        ({"drift": -math.inf}, "drift must be finite, got -inf"),
        ({"y0": math.inf}, "y0 must be finite, got inf"),
    ])
    def test_spec_refuses_non_finite_fields(self, fields, message):
        with pytest.raises(InvalidArgumentError) as info:
            RandomWalkSpec(**fields)
        assert str(info.value) == message
