import json
import tracemalloc

import numpy as np
import pytest

from hdffm import (
    LoadingMatrix,
    Panel,
    RankDeficientError,
    build_bspline,
    common_component,
    fit_factors,
    fit_from_dict,
    fit_to_dict,
    goodness_of_fit,
    gram_matrix,
    functional_space,
    idiosyncratic_residual,
    scalar_space,
)
from hdffm.estimate import _oriented, v_profile
from hdffm.simulate import DgpConfig, gen_dgp
from conftest import random_mixed_panel, random_spd, rank_k_panel


def stacked_norm(panel):
    return np.linalg.norm(panel.stacked_white())


class TestFitFactors:
    def test_sign_rule_and_determinism(self, rng):
        # each factor's largest-magnitude coordinate is positive
        p = random_mixed_panel(rng, N=5, T=9)
        X = p.stacked_coeffs()
        fit = fit_factors(p, 4)
        for v in fit.factors:
            assert v[np.abs(v).argmax()] > 0
        again = fit_factors(Panel.from_stacked(p.spaces, X.copy()), 4)
        assert np.array_equal(again.factors, fit.factors)
        # of equal magnitudes the first decides; a zero column stays as it is
        vecs = np.array([[0.5, -1.0, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.25, 0.0]])
        assert _oriented(vecs).tolist() == [[0.5, 1.0, 0.0], [-0.5, -1.0, 0.0], [0.0, -0.25, 0.0]]

    def test_rank_one_exact(self, rng):
        panel, U, _ = rank_k_panel(rng, N=5, T=8, k=1)
        fit = fit_factors(panel, 1)
        chi = common_component(fit)
        for a, b in zip(chi.coeffs, panel.coeffs):
            assert np.abs(a - b).max() < 1e-8

    def test_lambda_hat_scaling(self, rng):
        # lambda_hat are the eigenvalues of F/T (so they stay O(1))
        panel = random_mixed_panel(rng, N=4, T=6)
        F = gram_matrix(panel)
        lam_tilde = np.sort(np.linalg.eigvalsh(F))[::-1]
        fit = fit_factors(panel, 3)
        assert np.allclose(fit.lambda_hat, lam_tilde[:3] / panel.T, rtol=1e-10)

    def test_factor_rows_orthonormal_sqrtT(self, rng):
        panel = random_mixed_panel(rng, N=5, T=7)
        fit = fit_factors(panel, 4)
        G = fit.factors @ fit.factors.T
        assert np.allclose(G, panel.T * np.eye(4), atol=1e-8)

    def test_e_hat_norm_sqrtN(self, rng):
        panel = random_mixed_panel(rng, N=6, T=9)
        fit = fit_factors(panel, 3)
        from hdffm.metrics import LoadingMatrix

        W = LoadingMatrix.from_fit(fit).whitened()
        norms = np.linalg.norm(W, axis=0)
        assert np.allclose(norms, np.sqrt(panel.N), rtol=1e-6)

    def test_lambda_nonincreasing(self, rng):
        panel = random_mixed_panel(rng, N=5, T=8)
        fit = fit_factors(panel, 5)
        assert np.all(np.diff(fit.lambda_hat) <= 1e-14)

    def test_dense_svd_oracle(self, rng):
        # B_tilde @ U_tilde must equal the rank-2 truncated SVD of the
        # whitened coefficient matrix (orthonormal coordinates via Cholesky).
        panel = random_mixed_panel(rng, N=4, T=6, scalar_prob=0.0)
        fit = fit_factors(panel, 2)
        Z = panel.stacked_white()
        Uw, sv, Vt = np.linalg.svd(Z, full_matrices=False)
        trunc = Uw[:, :2] @ np.diag(sv[:2]) @ Vt[:2]
        fitted = common_component(fit).stacked_white()
        assert np.abs(fitted - trunc).max() < 1e-8

    def test_nesting(self, rng):
        panel = random_mixed_panel(rng, N=5, T=8)
        small = fit_factors(panel, 2)
        large = fit_factors(panel, 5)
        assert np.allclose(large.factors[:2], small.factors, atol=1e-10)
        assert np.allclose(large.lambda_hat[:2], small.lambda_hat, atol=1e-12)

    def test_rank_deficient_error(self, rng):
        panel, _, _ = rank_k_panel(rng, N=4, T=10, k=2)
        with pytest.raises(RankDeficientError) as exc:
            fit_factors(panel, 3)
        assert exc.value.level == 3

    def test_k_zero_empty_fit(self, rng):
        # adjacent series with one Gram (two scalars, a shared B-spline Gram)
        # are unwhitened as one run, of zero columns here
        mixed = random_mixed_panel(rng)
        basis = build_bspline((0.0, 1.0), 5)
        spaces = [scalar_space(), scalar_space(), functional_space(5, basis.gram),
                  functional_space(5, basis.gram), functional_space(3, random_spd(rng, 3))]
        shared = Panel(spaces, [rng.standard_normal((9, s.dim)) for s in spaces])
        for panel in (mixed, shared):
            fit = fit_factors(panel, 0)
            chi = common_component(fit)
            assert stacked_norm(chi) == 0.0
            assert LoadingMatrix(panel.spaces, fit.e_hat).whitened().shape == (panel.total_dim, 0)

    def test_truncated_svd_optimality_small(self, rng):
        # no random rank-k candidate beats the fit in Frobenius norm
        panel = random_mixed_panel(rng, N=6, T=8, scalar_prob=0.0)
        k = 2
        fit = fit_factors(panel, k)
        Z = panel.stacked_white()
        best = np.linalg.norm(Z - common_component(fit).stacked_white())
        for _ in range(100):
            L = rng.standard_normal((Z.shape[0], k)) @ rng.standard_normal((k, Z.shape[1]))
            scale = np.sum(L * Z) / np.sum(L * L)
            assert best <= np.linalg.norm(Z - scale * L) + 1e-8

    def test_basis_rotation_invariance(self, rng):
        # per-series orthonormal basis change leaves lambda_hat and factors alone
        panel = random_mixed_panel(rng, N=4, T=7, identity_gram=True, scalar_prob=0.0)
        fit = fit_factors(panel, 3)
        coeffs = []
        for block in panel.coeffs:
            d = block.shape[1]
            Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            coeffs.append(block @ Q)
        rotated = Panel(panel.spaces, coeffs)
        fit2 = fit_factors(rotated, 3)
        assert np.allclose(fit2.lambda_hat, fit.lambda_hat, atol=1e-10)
        assert np.allclose(fit2.factors, fit.factors, atol=1e-8)


class TestCommonAndResidual:
    def test_residual_plus_common_is_input(self, rng):
        panel = random_mixed_panel(rng, N=4, T=6)
        fit = fit_factors(panel, 2)
        chi = common_component(fit)
        xi = idiosyncratic_residual(panel, fit)
        for a, b, c in zip(panel.coeffs, chi.coeffs, xi.coeffs):
            assert np.allclose(a, b + c, atol=1e-12)

    def test_common_component_in_one_allocation(self, rng):
        # the fitted matrix is formed column-major and kept as the panel's own
        panel = Panel([functional_space(5)] * 200, rng.standard_normal((200, 400, 5)))
        fit = fit_factors(panel, 5)
        tracemalloc.start()
        try:
            chi = common_component(fit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * chi.stacked_coeffs().nbytes

    def test_noiseless_zero_residual(self, rng):
        panel, _, _ = rank_k_panel(rng, N=5, T=9, k=3)
        fit = fit_factors(panel, 3)
        xi = idiosyncratic_residual(panel, fit)
        assert stacked_norm(xi) < 1e-8 * stacked_norm(panel)

    def test_full_rank_reconstruction(self, rng):
        panel = random_mixed_panel(rng, N=3, T=5, scalar_prob=0.0)
        k = min(panel.total_dim, panel.T)
        fit = fit_factors(panel, k)
        chi = common_component(fit)
        assert stacked_norm(idiosyncratic_residual(panel, fit)) < 1e-6 * stacked_norm(panel)
        assert np.allclose(chi.stacked_white(), panel.stacked_white(), atol=1e-8)

    def test_residual_gram_trace_identity(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=10, T=40, seed=4))
        k = 3
        fit = fit_factors(panel, k)
        xi = idiosyncratic_residual(panel, fit)
        F = gram_matrix(panel)
        lam = np.sort(np.linalg.eigvalsh(F))[::-1]
        expect = np.trace(F) - lam[:k].sum()
        assert np.trace(gram_matrix(xi)) == pytest.approx(expect, rel=1e-10)

    def test_shape_mismatch(self, rng):
        panel = random_mixed_panel(rng, N=3, T=6)
        other = random_mixed_panel(rng, N=3, T=7)
        fit = fit_factors(panel, 1)
        with pytest.raises(ValueError):
            idiosyncratic_residual(other, fit)


def explicit_least_squares_v(panel, k):
    """Brute-force V(k): regress the whitened panel rows on the factors."""
    if k == 0:
        Z = panel.stacked_white()
        return float((Z**2).sum() / (panel.N * panel.T))
    fit = fit_factors(panel, k)
    Z = panel.stacked_white()
    U = fit.factors
    B, _, _, _ = np.linalg.lstsq(U.T, Z.T, rcond=None)
    resid = Z - (U.T @ B).T
    return float((resid**2).sum() / (panel.N * panel.T))


class TestGoodnessOfFit:
    def test_k_zero(self, rng):
        panel = random_mixed_panel(rng, N=4, T=5)
        Z = panel.stacked_white()
        assert goodness_of_fit(panel, 0) == pytest.approx(
            (Z**2).sum() / (panel.N * panel.T), rel=1e-12
        )

    def test_noiseless_rank_r(self, rng):
        panel, _, _ = rank_k_panel(rng, N=4, T=8, k=3)
        assert goodness_of_fit(panel, 3) < 1e-10

    def test_matches_explicit_least_squares(self, rng):
        panel = random_mixed_panel(rng, N=3, T=5)
        assert goodness_of_fit(panel, 2) == pytest.approx(
            explicit_least_squares_v(panel, 2), rel=1e-8
        )

    def test_eigen_shortcut_identity_all_k(self, rng):
        for _ in range(5):
            panel = random_mixed_panel(rng, N=4, T=6)
            for k in range(0, min(panel.total_dim, panel.T) + 1):
                v = goodness_of_fit(panel, k)
                expect = explicit_least_squares_v(panel, k)
                assert v == pytest.approx(expect, rel=1e-8, abs=1e-10)

    def test_monotone(self, rng):
        panel = random_mixed_panel(rng, N=5, T=7)
        vs = [goodness_of_fit(panel, k) for k in range(6)]
        assert all(b <= a + 1e-12 for a, b in zip(vs, vs[1:]))

    def test_k_out_of_range(self, rng):
        panel = random_mixed_panel(rng, N=3, T=4)
        with pytest.raises(ValueError):
            goodness_of_fit(panel, min(panel.total_dim, panel.T) + 1)

    def test_v_profile_k_max_beyond_eigenvalues(self):
        with pytest.raises(ValueError, match="k_max=4 exceeds number of eigenvalues 3"):
            v_profile(np.ones(3), 3.0, 10, 4)


class TestPersistence:
    def test_round_trip(self, rng):
        panel = random_mixed_panel(rng, N=4, T=6)
        fit = fit_factors(panel, 2)
        doc = fit_to_dict(fit, manifest={"k": 2})
        back = fit_from_dict(doc)
        assert np.allclose(back.lambda_hat, fit.lambda_hat)
        assert np.allclose(back.factors, fit.factors)
        assert np.allclose(back.e_hat, fit.e_hat)
        assert np.allclose(back.b_tilde, fit.b_tilde)
        assert back.trace_F == pytest.approx(fit.trace_F)

    def test_round_trip_through_json_is_exact(self, rng):
        fit = fit_factors(random_mixed_panel(rng, N=4, T=6), 2)
        back = fit_from_dict(json.loads(json.dumps(fit_to_dict(fit))))
        for name in ("lambda_hat", "factors", "e_hat", "b_tilde"):
            assert np.array_equal(getattr(back, name), getattr(fit, name)), name
        assert back.trace_F == fit.trace_F and back.k == fit.k

    def test_k_0_round_trip_keeps_T(self, rng):
        fit = fit_factors(random_mixed_panel(rng, N=4, T=6), 0)
        doc = json.loads(json.dumps(fit_to_dict(fit)))
        back = fit_from_dict(doc)
        assert back.k == 0 and back.T == 6 and back.factors.shape == (0, 6)
        assert back.e_hat.shape == fit.e_hat.shape and back.trace_F == fit.trace_F
        del doc["T"]  # a k = 0 fit has no factor row to tell T
        with pytest.raises(ValueError, match=r"^fit T must be "):
            fit_from_dict(doc)

    def test_T_is_optional_for_k_above_0(self, rng):
        fit = fit_factors(random_mixed_panel(rng, N=4, T=6), 2)
        doc = fit_to_dict(fit)
        del doc["T"]
        assert np.array_equal(fit_from_dict(doc).factors, fit.factors)

    def test_unknown_key_rejected(self, rng):
        doc = {**fit_to_dict(fit_factors(random_mixed_panel(rng, N=4, T=6), 1)), "lambda": [1.0]}
        with pytest.raises(ValueError, match=r"^unknown fit keys \['lambda'\]"):
            fit_from_dict(doc)


# fit JSON edits that no fit of fit_factors holds, and the key the error names
MALFORMED_FITS = {
    "one-lambda": ({"lambda_hat": [1.0]}, "lambda_hat"),
    "negative-lambda": ({"lambda_hat": [-1, 0.5]}, "lambda_hat"),
    "nan-lambda": ({"lambda_hat": [float("nan"), 0.5]}, "lambda_hat"),
    "one-factor-e_hat": (lambda doc: {"e_hat": doc["e_hat"][:1]}, "e_hat"),
    "nan-trace": ({"trace_F": float("nan")}, "trace_F"),
    "k-3-two-rows": ({"k": 3}, "lambda_hat"),
    "k-3-three-lambdas": ({"k": 3, "lambda_hat": [3.0, 2.0, 1.0]}, "factors"),
    "ragged-factors": (lambda doc: {"factors": [doc["factors"][0], doc["factors"][1][:-1]]},
                       "factors"),
    "negative-k": ({"k": -1}, "k"),
    "bool-k": ({"k": True}, "k"),
    "float-k": ({"k": 2.0}, "k"),
    "T-not-the-row-length": ({"T": 29}, "T"),
    "float-T": ({"T": 30.0}, "T"),
    "k-0-negative-T": ({"k": 0, "T": -1, "lambda_hat": [], "factors": [], "e_hat": []}, "T"),
}


@pytest.mark.parametrize("edit, key", MALFORMED_FITS.values(), ids=list(MALFORMED_FITS))
def test_fit_from_dict_rejects_malformed_fit(edit, key):
    # a k = 2 fit of DGP1, N=6, T=30, as hdffm estimate writes it
    panel, _ = gen_dgp(DgpConfig(dgp=1, N=6, T=30, seed=0))
    doc = json.loads(json.dumps(fit_to_dict(fit_factors(panel, 2))))
    doc.update(edit(doc) if callable(edit) else edit)
    with pytest.raises(ValueError, match=rf"^fit {key} must be "):
        fit_from_dict(doc)
