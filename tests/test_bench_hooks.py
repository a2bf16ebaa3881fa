"""The functions the benchmark harness wraps must keep resolving.

``perfbench/spans.py`` swaps timing wrappers into the attributes listed in
its ``SPANS`` table, and the workloads time ops at a few more entry points.
A refactor that renames or moves one of them breaks the harness; this test
catches that without running it.  The spans swap module attributes, such as
``numpy.linalg.eigvalsh`` or ``hdffm.forecast.fit_ar_bic``, so the layers
must call them through their module at call time: a name bound at import
time would bypass the wrapper and silently empty the span's counts.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from hdffm import (
    AbcConfig,
    DgpConfig,
    ForecastConfig,
    abc_select_r,
    build_bspline,
    cf_forecast,
    gen_dgp,
    ingest_mortality,
    tnh_forecast,
)

SPANS_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
OP_BOUNDARIES = [
    ("hdffm.cli", "_bench_replication"),
    ("hdffm.cli", "_forecast_panel"),
    ("hdffm.forecast", "persistence_forecast"),
]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name,path", [(m, p) for _, m, p in load_spans()] + OP_BOUNDARIES)
def test_hook_resolves(module_name, path):
    assert callable(resolve(module_name, path))


def dgp_panel():
    return gen_dgp(DgpConfig(dgp=1, N=10, T=30, seed=1))[0]


def mortality_records():
    """Two prefectures, two years and two sexes of (prefecture_id, year, sex, age, rate)."""
    return [(p, y, s, a, 0.001 * np.exp(0.05 * min(a, 100))) for p in ("01", "02")
            for y in (2000, 2001) for s in ("F", "M") for a in range(111)]


def run_tnh():
    tnh_forecast(dgp_panel(), ForecastConfig(horizon=1))


def run_cf():
    cf_forecast(dgp_panel(), 1, n_components=2, p_max=2)


@pytest.mark.parametrize("module_name,attr,run", [
    ("numpy.linalg", "eigvalsh",
     lambda: abc_select_r(dgp_panel(), AbcConfig.for_panel(10, 30, P=2))),
    ("numpy.linalg", "eigh", run_cf),
    # the AR-BIC explosiveness check on the exact fits of the picked orders
    ("numpy.linalg", "eigvals", run_tnh),
    ("hdffm.forecast", "fit_ar_bic", run_tnh),
    ("hdffm.forecast", "ar_forecast", run_tnh),
    ("hdffm.forecast", "fit_ar_bic", run_cf),
    ("hdffm.forecast", "ar_forecast", run_cf),
    ("hdffm.fbasis", "project_curve",
     lambda: ingest_mortality(mortality_records(), build_bspline((0.0, 95.0), dim=9))),
], ids=["abc_select_r-eigvalsh", "cf_forecast-eigh", "tnh_forecast-eigvals",
        "tnh_forecast-fit_ar_bic", "tnh_forecast-ar_forecast", "cf_forecast-fit_ar_bic",
        "cf_forecast-ar_forecast", "ingest_mortality-project_curve"])
def test_kernels_called_through_numpy_linalg(monkeypatch, module_name, attr, run):
    # named for its first cases; every (module, attribute) pair is a hooked layer
    module = importlib.import_module(module_name)
    original, calls = getattr(module, attr), []

    def wrapper(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)
    run()
    assert calls
