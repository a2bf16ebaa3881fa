"""The panel Gram, V(k), fixed-c selection and the rank-k fit against the
plain-loop references of ``reference.py`` on random mixed panels, and AR-BIC
and its h-step forecasts against them on random AR rows."""

import math

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference
from hdffm import (Panel, ar_forecast, common_component, fit_ar_bic, fit_factors,
                   functional_space, idiosyncratic_residual, scalar_space, select_r_fixed)
from hdffm.estimate import v_profile
from hdffm.panel import gram_matrix
from hdffm.select import C_GRID

# relative tolerance: of the Gram and its eigenvalues to the largest
# eigenvalue, of V(k) and of the IC margins to V(0); a rank-k fit's factors,
# loadings, common component and residual may move by TOL * lambda_1 / gap,
# relative to their largest entry, where gap is the smallest of the k
# eigengaps lambda_l - lambda_{l+1}, l = 1..k
TOL = 1e-12
K_MAX = 10


def mixed_panel(N, T, seed):
    """About 40% scalar series and the rest functional, of dimension 3..7 with
    random SPD Grams, loading 1..4 common factors plus noise."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((T, int(rng.integers(1, 5))))
    spaces, coeffs = [], []
    for _ in range(N):
        if rng.random() < 0.4:
            spaces.append(scalar_space())
        else:
            d = int(rng.integers(3, 8))
            A = rng.standard_normal((d, d))
            spaces.append(functional_space(d, A @ A.T / d + np.eye(d)))
        d = spaces[-1].dim
        coeffs.append(U @ rng.standard_normal((U.shape[1], d)) + 0.5 * rng.standard_normal((T, d)))
    return Panel(spaces, coeffs)


@settings(max_examples=30, deadline=None)
@given(st.builds(mixed_panel, st.integers(10, 39), st.integers(30, 119),
                 st.integers(0, 2**32 - 1)))
def test_gram_v_and_fixed_c_selection_match_the_reference(panel):
    F, ref_vals = gram_matrix(panel), reference.eigenvalues(panel)
    assert np.array_equal(F, F.T)  # formed symmetric, with no symmetrising pass
    assert np.abs(F - reference.gram(panel)).max() <= TOL * ref_vals[0]
    vals, _, trace = panel.gram_spectrum()
    assert np.abs(vals[:10] - ref_vals[:10]).max() <= TOL * ref_vals[0]
    ref_v = reference.v_of_k(panel, K_MAX)
    assert np.abs(v_profile(vals, trace, panel.T, K_MAX) - ref_v).max() <= TOL * ref_v[0]

    criteria = reference.ic2a_criteria(panel, C_GRID, K_MAX)
    best_two = np.sort(criteria, axis=1)[:, :2]
    near = C_GRID[best_two[:, 1] - best_two[:, 0] < TOL * ref_v[0]]
    event(f"grid points with an IC margin below the tolerance: {near.size}")
    r_hat = [select_r_fixed(panel, float(c), "IC2a", K_MAX) for c in C_GRID]
    assert r_hat == reference.ic2a_r_hat(criteria).tolist(), (
        f"IC margin below the tolerance at c = {near.tolist()}")


def assert_close(actual, expected, tol):
    assert np.abs(actual - expected).max() <= tol * np.abs(expected).max()


@settings(max_examples=30, deadline=None)
@given(st.builds(mixed_panel, st.integers(10, 39), st.integers(30, 119),
                 st.integers(0, 2**32 - 1)))
def test_fit_common_component_and_residual_match_the_reference(panel):
    lam = reference.eigenvalues(panel)
    for k in range(1, 5):
        gap = min(lam[l] - lam[l + 1] for l in range(k))
        if gap <= TOL * lam[0]:  # no factor is determined to within the tolerance
            event(f"k = {k}: eigengap below the tolerance, fit not compared")
            continue
        event(f"k = {k}: smallest eigengap 1e{math.floor(math.log10(gap / lam[0]))} lambda_1")
        tol = TOL * lam[0] / gap
        factors, lambda_hat, loadings, common, residual = reference.fit(panel, k)
        fit = fit_factors(panel, k)
        assert_close(fit.lambda_hat, lambda_hat, TOL)
        sign = np.sign(np.sum(fit.factors * factors, axis=1))  # one per factor and its loadings
        assert_close(fit.factors, sign[:, None] * factors, tol)
        assert_close(fit.e_hat, np.vstack(loadings) * sign, tol)  # series by series, in order
        scale = max(np.abs(X).max() for X in panel.coeffs)
        for ours, ref in [(common_component(fit), common),
                          (idiosyncratic_residual(panel, fit), residual)]:
            assert max(np.abs(a - b).max() for a, b in zip(ours.coeffs, ref)) <= tol * scale


# AR-BIC's tolerance: the intercepts, coefficients, variances and forecasts,
# each in units of its row's standard deviation (the variance in its square),
# agree to AR_TOL; the orders agree exactly unless the two best BIC values
# differ by less than AR_TOL * t_eff, a relative change of about AR_TOL in
# the RSS of either order
AR_TOL = 1e-9


def ar_rows(n, T, seed):
    """n stationary AR rows of length T, each of order 0..3 with real roots in
    (-0.9, 0.9), a mean of up to a few standard deviations and a scale of
    1e-3..1e3, after a burn-in of 100 steps."""
    rng = np.random.default_rng(seed)
    Y = np.empty((n, T))
    for row in Y:
        coefs = -np.atleast_1d(np.poly(rng.uniform(-0.9, 0.9, int(rng.integers(0, 4)))))[1:]
        x = np.zeros(T + 100)
        for t, e in enumerate(rng.standard_normal(T + 100)):
            x[t] = e + sum(a * x[t - 1 - j] for j, a in enumerate(coefs) if t > j)
        row[:] = 10 ** rng.uniform(-3, 3) * (rng.normal(0, 3) + x[100:])
    return Y


@settings(max_examples=40, deadline=None)
@given(st.builds(ar_rows, st.integers(1, 8), st.integers(21, 150), st.integers(0, 2**32 - 1)),
       st.integers(0, 5), st.integers(1, 6))
def test_ar_bic_and_forecasts_match_the_reference(Y, p_max, h):
    orders, beta, sigma2 = fit_ar_bic(Y, p_max)
    forecasts = ar_forecast(beta, Y[:, Y.shape[1] - p_max :], h, orders)
    t_eff, near = Y.shape[1] - p_max, 0
    for y, p, b, s2, fc in zip(Y, orders, beta, sigma2, forecasts):
        bics = sorted(f[0] for f in reference.ar_fits(y, p_max) if f[5] < 1.0 + 1e-8)
        tie = len(bics) > 1 and bics[1] - bics[0] < AR_TOL * t_eff
        near += tie
        _, want_p, intercept, coefs, want_s2 = reference.ar_bic(y, p_max)
        if p != want_p:
            assert tie, f"order {p} against {want_p}; admissible orders' BIC values {bics}"
            continue
        assert not b[p + 1 :].any()
        s = y.std()
        got = np.concatenate([[b[0] / s], b[1 : p + 1], [s2 / s**2], fc / s])
        want = np.concatenate([[intercept / s], coefs, [want_s2 / s**2],
                               reference.ar_steps(intercept, coefs, y, h) / s])
        assert np.abs(got - want).max() <= AR_TOL
    event(f"rows with a BIC margin below the tolerance: {near}")
