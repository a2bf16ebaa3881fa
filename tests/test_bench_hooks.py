"""The functions the benchmark harness wraps must keep resolving.

``perfbench/spans.py`` swaps timing wrappers into the attributes listed in
its ``SPANS`` table, and the workloads time ops at a few more entry points.
A refactor that renames or moves one of them breaks the harness; this test
catches that without running it.  The kernel spans swap ``numpy.linalg``
attributes, so the layers must call them through the module: a name bound at
import time would bypass the wrapper and silently empty the kernel counts.
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
    cf_forecast,
    gen_dgp,
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


@pytest.mark.parametrize("kernel,run", [
    ("eigvalsh", lambda panel: abc_select_r(panel, AbcConfig.for_panel(panel.N, panel.T, P=2))),
    ("eigh", lambda panel: cf_forecast(panel, 1, n_components=2, p_max=2)),
    # the AR-BIC explosiveness check on the exact fits of the picked orders
    ("eigvals", lambda panel: tnh_forecast(panel, ForecastConfig(horizon=1))),
], ids=["abc_select_r-eigvalsh", "cf_forecast-eigh", "tnh_forecast-eigvals"])
def test_kernels_called_through_numpy_linalg(monkeypatch, kernel, run):
    original, calls = getattr(np.linalg, kernel), []

    def wrapper(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, kernel, wrapper)
    run(gen_dgp(DgpConfig(dgp=1, N=10, T=30, seed=1))[0])
    assert calls
