"""Shared fixtures. Heavy Monte Carlo results are session-scoped so the module
property tests and the acceptance suite reuse one computation."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tsakit import rng
from tsakit.armodel import (ArModel, _back_substitute, _factor,
                            _least_squares_model, levinson_durbin,
                            select_order_aic, simulate_ar)
from tsakit.correlation import autocovariance
from tsakit.errors import DegenerateFitError
from tsakit.pipeline import PipelineConfig, ingest_csv
from tsakit.regression import fit_linear_trend
from tsakit.stattests import jarque_bera, kpss_level, shapiro_wilk

REPO_ROOT = Path(__file__).resolve().parents[1]
DATASET = REPO_ROOT / "data" / "brazil_monthly_deaths.csv"


def yule_walker_fit(x, p: int) -> ArModel:
    """The order-p Yule-Walker fit by a recursion of its own,
    ``levinson_durbin(autocovariance(x, p), p)`` with the top vector: the
    reference that the AIC scan's Yule-Walker model must equal bit for bit."""
    arr = np.asarray(x, dtype=float)
    phis, variances = levinson_durbin(autocovariance(arr, p), p)
    return ArModel(phi=tuple(phis[p]), sigma2=variances[p], mean=float(arr.mean()),
                   estimation_method="yule_walker", n_used=arr.size)


def least_squares_fit(x, p: int) -> ArModel:
    """The order-p conditional least-squares fit on its own rows t = p..N-1:
    ``_factor``, ``_back_substitute`` and ``_least_squares_model``, the
    reference for the AIC scan's least-squares rows and model. A regressor
    that fails the rank check raises ``DegenerateFitError``."""
    arr = np.asarray(x, dtype=float)
    r, z, sse = _factor(arr, p)
    if len(r) <= p:
        raise DegenerateFitError("rank-deficient design matrix")
    return _least_squares_model(arr, _back_substitute(r, z), sse / (arr.size - p))


@pytest.fixture(scope="session")
def bench_workloads():
    """bench/workloads.py, loaded by path: its N = 4000 input generator."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = REPO_ROOT / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.fixture(scope="session")
def dataset_path() -> Path:
    return DATASET


@pytest.fixture(scope="session")
def default_config(dataset_path) -> PipelineConfig:
    return PipelineConfig(input_path=str(dataset_path))


@pytest.fixture(scope="session")
def deaths_series(default_config, dataset_path):
    return ingest_csv(dataset_path, default_config)


@pytest.fixture(scope="session")
def trend_fit(deaths_series):
    return fit_linear_trend(deaths_series)


@pytest.fixture(scope="session")
def diff64(deaths_series) -> np.ndarray:
    """Truncate 2 head samples, first difference, demean: the 64-point series."""
    truncated = deaths_series.values[2:]
    diffed = np.diff(truncated)
    return diffed - diffed.mean()


@pytest.fixture(scope="session")
def aic_table_64(diff64):
    return select_order_aic(diff64, 18, "yule_walker")


@pytest.fixture(scope="session")
def fitted_ar11(diff64):
    return yule_walker_fit(diff64, 11)


@pytest.fixture(scope="session")
def ar_recovery():
    """Median coefficient errors over 50 seeds, N = 10000, for AR(1) and AR(2)."""
    ar1 = ArModel(phi=(0.5,), sigma2=1.0)
    ar2 = ArModel(phi=(0.5, 0.3), sigma2=1.0)
    err1, err2 = [], []
    for s in range(50):
        x = simulate_ar(ar1, 10_000, seed=600 + s)
        err1.append(abs(yule_walker_fit(x.values, 1).phi[0] - 0.5))
        y = simulate_ar(ar2, 10_000, seed=6_000 + s)
        fit = yule_walker_fit(y.values, 2)
        err2.append(max(abs(fit.phi[0] - 0.5), abs(fit.phi[1] - 0.3)))
    return {"ar1_median": float(np.median(err1)),
            "ar2_median": float(np.median(err2))}


@pytest.fixture(scope="session")
def normality_size_mc():
    """JB and SW rejection rates at the 5% level on 2000 normal samples, n=67."""
    reps, n = 2000, 67
    z = rng.normals(1234, reps * n).reshape(reps, n)
    jb_rej = sw_rej = 0
    for i in range(reps):
        if jarque_bera(z[i]).p_value.value < 0.05:
            jb_rej += 1
        if shapiro_wilk(z[i]).p_value.value < 0.05:
            sw_rej += 1
    return {"jb": jb_rej / reps, "sw": sw_rej / reps}


@pytest.fixture(scope="session")
def kpss_power_mc():
    """KPSS 5%-level rejection rate across 1000 pure random walks of length 500."""
    rejections = 0
    runs = 1000
    for s in range(runs):
        walk = np.cumsum(rng.normals(50_000 + s, 500))
        if kpss_level(walk, "auto").statistic > 0.463:
            rejections += 1
    return rejections / runs


@pytest.fixture(scope="session")
def random_walk_ensemble():
    """5000 simulated walks of length 100 (unit variance, no drift)."""
    from tsakit.armodel import RandomWalkSpec, simulate_random_walk

    spec = RandomWalkSpec(drift=0.0, innovation_sigma2=1.0, y0=0.0)
    paths = np.empty((5000, 100))
    for i in range(5000):
        paths[i] = simulate_random_walk(spec, 100, seed=80_000 + i).values
    return paths
