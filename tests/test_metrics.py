import numpy as np
import pytest

from hdffm import (
    LoadingMatrix,
    Panel,
    SpaceSpec,
    delta_nt,
    epsilon_nt,
    fit_factors,
    functional_space,
    mafe_msfe,
    phi_nt,
)
from hdffm.simulate import DgpConfig, gen_dgp
from conftest import random_mixed_panel, random_spd


def delta_brute_force(U_est, U_true):
    """Independent oracle: solve min_R ||U_est - R U_true||_F directly."""
    R, _, _, _ = np.linalg.lstsq(U_true.T, U_est.T, rcond=None)
    return np.linalg.norm(U_est - R.T @ U_true) / np.sqrt(U_est.shape[1])


class TestDelta:
    def test_exact_mix_gives_zero(self, rng):
        U = rng.standard_normal((3, 40))
        R = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert delta_nt(R @ U, U) < 1e-10

    def test_orthogonal_rows_full_residual(self, rng):
        T, k = 24, 3
        Q = np.linalg.qr(rng.standard_normal((T, T)))[0]
        U_true = Q[:, :2].T
        U_est = np.sqrt(T) * Q[:, 5 : 5 + k].T  # rows of norm sqrt(T), orthogonal to truth
        assert delta_nt(U_est, U_true) == pytest.approx(np.sqrt(k), rel=1e-10)

    def test_matches_least_squares_oracle(self, rng):
        for _ in range(10):
            U_est = rng.standard_normal((3, 40))
            U_true = rng.standard_normal((3, 40))
            assert delta_nt(U_est, U_true) == pytest.approx(
                delta_brute_force(U_est, U_true), abs=1e-10
            )

    def test_invariant_to_row_mixing(self, rng):
        U_est = rng.standard_normal((2, 30))
        U_true = rng.standard_normal((3, 30))
        M = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert delta_nt(U_est, M @ U_true) == pytest.approx(
            delta_nt(U_est, U_true), abs=1e-10
        )

    def test_rank_deficient_truth(self, rng):
        base = rng.standard_normal((1, 30))
        U_true = np.vstack([base, 2 * base])  # rank 1
        U_est = rng.standard_normal((2, 30))
        val = delta_nt(U_est, U_true)
        assert np.isfinite(val)
        assert val == pytest.approx(delta_nt(U_est, base), abs=1e-10)

    def test_t_mismatch(self, rng):
        with pytest.raises(ValueError):
            delta_nt(rng.standard_normal((2, 10)), rng.standard_normal((2, 11)))


def make_loading(rng, spaces, r):
    D = sum(s.dim for s in spaces)
    return LoadingMatrix(spaces=tuple(spaces), columns=rng.standard_normal((D, r)))


class TestEpsilon:
    def test_exact_transform_gives_zero(self, rng):
        spaces = [functional_space(3, random_spd(rng, 3)) for _ in range(4)]
        B = make_loading(rng, spaces, 3)
        R0 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        B_est = LoadingMatrix(spaces=B.spaces, columns=B.columns @ R0)
        assert epsilon_nt(B_est, B) < 1e-10

    def test_orthogonal_columns_full_residual(self, rng):
        N, d, r = 5, 4, 2
        spaces = [functional_space(d) for _ in range(N)]
        Q = np.linalg.qr(rng.standard_normal((N * d, N * d)))[0]
        B_true = LoadingMatrix(spaces=tuple(spaces), columns=Q[:, :r])
        B_est = LoadingMatrix(
            spaces=tuple(spaces), columns=np.sqrt(N) * Q[:, r : 2 * r]
        )
        assert epsilon_nt(B_est, B_true) == pytest.approx(np.sqrt(r), rel=1e-8)

    def test_matches_normal_equations_oracle(self, rng):
        spaces = [functional_space(3, random_spd(rng, 3)) for _ in range(4)]
        B_true = make_loading(rng, spaces, 2)
        B_est = make_loading(rng, spaces, 2)
        # independent oracle in whitened coordinates via lstsq
        Wt, We = B_true.whitened(), B_est.whitened()
        R, _, _, _ = np.linalg.lstsq(Wt, We, rcond=None)
        expect = np.linalg.norm(We - Wt @ R) / np.sqrt(len(spaces))
        assert epsilon_nt(B_est, B_true) == pytest.approx(expect, abs=1e-8)

    def test_rotation_invariance(self, rng):
        spaces = [functional_space(3) for _ in range(4)]
        B_true = make_loading(rng, spaces, 2)
        B_est = make_loading(rng, spaces, 2)
        base = epsilon_nt(B_est, B_true)
        Qs = [np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(4)]
        rot = np.zeros((12, 12))
        for i, Q in enumerate(Qs):
            rot[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = Q.T
        B_true2 = LoadingMatrix(spaces=B_true.spaces, columns=rot @ B_true.columns)
        B_est2 = LoadingMatrix(spaces=B_est.spaces, columns=rot @ B_est.columns)
        assert epsilon_nt(B_est2, B_true2) == pytest.approx(base, abs=1e-10)

    def test_collinear_truth_rejected(self, rng):
        spaces = [functional_space(3) for _ in range(3)]
        col = rng.standard_normal((9, 1))
        B_true = LoadingMatrix(spaces=tuple(spaces), columns=np.hstack([col, 2 * col]))
        B_est = make_loading(rng, spaces, 2)
        with pytest.raises(ValueError, match="collinear"):
            epsilon_nt(B_est, B_true)


class TestPhi:
    def test_identical_zero(self, rng):
        p = random_mixed_panel(rng, N=3, T=5)
        assert phi_nt(p, p) == 0.0

    def test_zero_estimate_gives_mean_energy(self, rng):
        p = random_mixed_panel(rng, N=3, T=5)
        zero = Panel(p.spaces, [np.zeros_like(c) for c in p.coeffs])
        Z = p.stacked_white()
        assert phi_nt(zero, p) == pytest.approx((Z**2).sum() / (p.N * p.T), rel=1e-12)

    def test_dgp_common_energy_near_one(self):
        _, truth = gen_dgp(DgpConfig(dgp=1, N=4, T=50_000, seed=6))
        zero = Panel(truth.chi.spaces, [np.zeros_like(c) for c in truth.chi.coeffs])
        assert phi_nt(zero, truth.chi) == pytest.approx(1.0, abs=0.05)

    def test_shape_mismatch(self, rng):
        a = random_mixed_panel(rng, N=3, T=5)
        b = random_mixed_panel(rng, N=3, T=6)
        with pytest.raises(ValueError):
            phi_nt(a, b)

    def test_positive_unless_equal(self, rng):
        p = random_mixed_panel(rng, N=3, T=5)
        q = Panel(p.spaces, [c + 1e-3 for c in p.coeffs])
        assert phi_nt(q, p) > 0


class TestSpaceChecks:
    def test_generated_panels_share_one_spec(self):
        panel, truth = gen_dgp(DgpConfig(dgp=1, N=5, T=20, seed=1))
        assert all(s is panel.spaces[0] for s in panel.spaces + truth.chi.spaces)

    def test_equal_distinct_specs_match(self, rng):
        spaces = [functional_space(3, random_spd(rng, 3)) for _ in range(4)]
        copies = tuple(SpaceSpec(s.kind, s.dim, s.gram.copy()) for s in spaces)
        assert not any(a is b for a, b in zip(spaces, copies))
        B = make_loading(rng, spaces, 2)
        assert epsilon_nt(LoadingMatrix(spaces=copies, columns=B.columns), B) < 1e-10
        p = Panel(spaces, [rng.standard_normal((5, 3)) for _ in spaces])
        assert phi_nt(Panel(copies, p.coeffs), p) == 0.0

    def test_different_gram_rejected(self, rng):
        spaces = [functional_space(3, random_spd(rng, 3))] * 4
        other = spaces[:2] + [functional_space(3, random_spd(rng, 3))] + spaces[3:]
        B = make_loading(rng, spaces, 2)
        with pytest.raises(ValueError, match="different spaces"):
            epsilon_nt(LoadingMatrix(spaces=tuple(other), columns=B.columns), B)
        p = Panel(spaces, [rng.standard_normal((5, 3)) for _ in spaces])
        with pytest.raises(ValueError, match="mismatched"):
            phi_nt(Panel(other, p.coeffs), p)


class TestMafeMsfe:
    def test_equal_inputs(self, rng):
        x = rng.standard_normal((3, 4, 5))
        assert mafe_msfe(x, x) == (0.0, 0.0)

    def test_constant_error(self, rng):
        x = rng.standard_normal((2, 6))
        mafe, msfe = mafe_msfe(x + 0.3, x)
        assert mafe == pytest.approx(0.3, rel=1e-12)
        assert msfe == pytest.approx(0.09, rel=1e-12)

    def test_matches_triple_loop(self, rng):
        f = rng.standard_normal((2, 3, 4))
        a = rng.standard_normal((2, 3, 4))
        tot_abs = tot_sq = 0.0
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    d = f[i, j, k] - a[i, j, k]
                    tot_abs += abs(d)
                    tot_sq += d * d
        mafe, msfe = mafe_msfe(f, a)
        assert mafe == pytest.approx(tot_abs / 24, abs=1e-12)
        assert msfe == pytest.approx(tot_sq / 24, abs=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            mafe_msfe(np.zeros((2, 3)), np.zeros((3, 2)))


class TestEndToEndInvariance:
    def test_metrics_under_orthonormal_rotation(self, rng):
        # rotating every series' orthonormal basis leaves delta/epsilon/phi alone
        panel, truth = gen_dgp(DgpConfig(dgp=1, N=8, T=40, seed=17))
        fit = fit_factors(panel, 3)
        d0 = delta_nt(fit.factors, truth.U)
        e0 = epsilon_nt(LoadingMatrix.from_fit(fit), LoadingMatrix.from_ground_truth(truth))
        from hdffm import common_component

        p0 = phi_nt(common_component(fit), truth.chi)

        Qs = [np.linalg.qr(rng.standard_normal((7, 7)))[0] for _ in range(8)]
        rot_panel = Panel(panel.spaces, [c @ Q for c, Q in zip(panel.coeffs, Qs)])
        rot_chi = Panel(panel.spaces, [c @ Q for c, Q in zip(truth.chi.coeffs, Qs)])
        rot = np.zeros((56, 56))
        for i, Q in enumerate(Qs):
            rot[7 * i : 7 * i + 7, 7 * i : 7 * i + 7] = Q.T
        fit2 = fit_factors(rot_panel, 3)
        d1 = delta_nt(fit2.factors, truth.U)
        B_true2 = LoadingMatrix(
            spaces=panel.spaces,
            columns=rot @ LoadingMatrix.from_ground_truth(truth).columns,
        )
        e1 = epsilon_nt(LoadingMatrix.from_fit(fit2), B_true2)
        p1 = phi_nt(common_component(fit2), rot_chi)
        assert d1 == pytest.approx(d0, abs=1e-8)
        assert e1 == pytest.approx(e0, abs=1e-8)
        assert p1 == pytest.approx(p0, abs=1e-8)
