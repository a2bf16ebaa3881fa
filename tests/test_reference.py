"""The panel Gram, V(k), fixed-c selection and the rank-k fit against the
plain-loop references of ``reference.py`` on random mixed panels."""

import math

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference
from hdffm import (Panel, common_component, fit_factors, functional_space,
                   idiosyncratic_residual, scalar_space, select_r_fixed)
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
