"""Pinned outputs of the estimation, selection and forecasting pipeline.

The reference values in ``data/parity.json`` were recorded once from
``compute_values()`` and are never regenerated: a refactor of the data
layout or of the spectrum computation must reproduce them.  Integers and
the generator digest are compared exactly, floats to rtol 1e-9.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from hdffm import (
    AbcConfig,
    DgpConfig,
    ForecastConfig,
    Panel,
    abc_select_r,
    build_bspline,
    cf_forecast,
    fit_factors,
    gen_dgp,
    goodness_of_fit,
    tnh_forecast,
)

REFERENCE = os.path.join(os.path.dirname(__file__), "data", "parity.json")
RTOL = 1e-9


def dgp_panel():
    return gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=3))


def bspline_panel():
    """Two AR(1) factors loaded on a 6-dim B-spline basis (non-identity Gram)."""
    rng = np.random.default_rng(11)
    N, T, d, r = 8, 60, 6, 2
    U = np.zeros((r, T))
    e = rng.standard_normal((r, T))
    for t in range(1, T):
        U[:, t] = 0.7 * U[:, t - 1] + e[:, t]
    B = rng.standard_normal((N, r, d))
    noise = 0.3 * rng.standard_normal((N, T, d))
    space = build_bspline((0.0, 1.0), dim=d).space()
    return Panel([space] * N, [U.T @ B[i] + noise[i] for i in range(N)])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def forecasts(panel) -> dict:
    tnh = tnh_forecast(panel, ForecastConfig(horizon=2))
    cf = cf_forecast(panel, 2, n_components=3)
    return {
        "tnh_r": tnh.r,
        "tnh_steps": [s.tolist() for s in tnh.steps],
        "cf_steps": [s.tolist() for s in cf.steps],
    }


def compute_values() -> dict:
    panel, truth = dgp_panel()
    r_hat, trace = abc_select_r(panel, AbcConfig.for_panel(panel.N, panel.T))
    return {
        "gen_dgp_digest": digest(np.stack(panel.coeffs), truth.U, np.stack(truth.chi.coeffs)),
        "abc_r_hat": r_hat,
        "abc_r_hat_table": trace.r_hat_table.tolist(),
        "lambda_hat": fit_factors(panel, 5).lambda_hat.tolist(),
        "v_k": [goodness_of_fit(panel, k) for k in range(6)],
        "dgp": forecasts(panel),
        "bspline": forecasts(bspline_panel()),
    }


@pytest.fixture(scope="module")
def values():
    return compute_values()


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def test_gen_dgp_digest(values, reference):
    assert values["gen_dgp_digest"] == reference["gen_dgp_digest"]


def test_abc_selection(values, reference):
    assert values["abc_r_hat"] == reference["abc_r_hat"]
    assert values["abc_r_hat_table"] == reference["abc_r_hat_table"]


def test_eigenvalues_and_v_profile(values, reference):
    np.testing.assert_allclose(values["lambda_hat"], reference["lambda_hat"], rtol=RTOL, atol=0)
    np.testing.assert_allclose(values["v_k"], reference["v_k"], rtol=RTOL, atol=0)


@pytest.mark.parametrize("which", ["dgp", "bspline"])
def test_forecasts(values, reference, which):
    got, want = values[which], reference[which]
    assert got["tnh_r"] == want["tnh_r"]
    for key in ("tnh_steps", "cf_steps"):
        assert len(got[key]) == len(want[key])
        for g, w in zip(got[key], want[key]):
            np.testing.assert_allclose(g, w, rtol=RTOL, atol=0)
