import numpy as np
import pytest

from hdffm import DgpConfig, design_parameters, gen_dgp, noise_covariance
from conftest import ar_burn_in_draw


class TestNoiseCovariance:
    def test_dgp_table(self):
        decay = 1.0 / np.arange(1, 8) ** 2
        c1, e1 = noise_covariance(1)
        assert c1 == 1.0 and np.allclose(e1, decay)
        c2, e2 = noise_covariance(2)
        assert c2 == 1.0 and np.allclose(e2, decay[::-1])
        c3, e3 = noise_covariance(3)
        assert c3 == 7.0 and np.allclose(e3, decay)
        c4, e4 = noise_covariance(4)
        assert c4 == 7.0 and np.allclose(e4, decay[::-1])


class TestArBurnInDraw:
    def test_iid_case(self):
        u = ar_burn_in_draw(0.0, 1.0, 100_000, seed=1)
        rho = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(100_000)
        assert u.std() == pytest.approx(1.0, abs=0.02)

    def test_ar_autocorrelation(self):
        u = ar_burn_in_draw(0.8, 0.6, 100_000, seed=2)
        rho = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert rho == pytest.approx(0.8, abs=0.02)

    def test_determinism(self):
        assert np.array_equal(
            ar_burn_in_draw(0.5, 1.0, 50, seed=9), ar_burn_in_draw(0.5, 1.0, 50, seed=9)
        )

    def test_nonstationary_rejected(self):
        with pytest.raises(ValueError):
            ar_burn_in_draw(1.0, 1.0, 10, seed=0)


class TestDesign:
    def test_max_a_exact(self):
        cfg = DgpConfig(dgp=1, N=10, T=50, seed=0)
        a, _ = design_parameters(cfg)
        assert np.abs(a).max() == 0.8

    def test_loading_rows_unit_norm(self):
        cfg = DgpConfig(dgp=1, N=40, T=50, seed=0)
        _, b = design_parameters(cfg)
        assert np.allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)

    def test_nested_across_N(self):
        small = design_parameters(DgpConfig(dgp=1, N=10, T=50, seed=0))
        large = design_parameters(DgpConfig(dgp=1, N=100, T=50, seed=0))
        assert np.array_equal(small[0], large[0])
        assert np.array_equal(small[1], large[1][:10])

    def test_depends_only_on_design_seed(self):
        a1, b1 = design_parameters(DgpConfig(dgp=1, N=10, T=50, seed=1))
        a2, b2 = design_parameters(DgpConfig(dgp=3, N=10, T=99, seed=2))
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


class TestGenDgp:
    def test_reproducible(self):
        cfg = DgpConfig(dgp=2, N=8, T=30, seed=123)
        p1, t1 = gen_dgp(cfg)
        p2, t2 = gen_dgp(cfg)
        for a, b in zip(p1.coeffs, p2.coeffs):
            assert np.array_equal(a, b)
        assert np.array_equal(t1.U, t2.U)

    def test_common_in_factor_span(self):
        _, truth = gen_dgp(DgpConfig(dgp=1, N=6, T=25, seed=3))
        for block in truth.chi.coeffs:
            assert np.all(block[:, 3:] == 0.0)

    def test_loading_coefficients_shape(self):
        _, truth = gen_dgp(DgpConfig(dgp=4, N=6, T=25, seed=3))
        assert truth.B_coeffs.shape == (6, 3, 7)
        # loading l only touches basis direction l
        for l in range(3):
            mask = np.ones(7, bool)
            mask[l] = False
            assert np.all(truth.B_coeffs[:, l, mask] == 0.0)

    def test_panel_is_chi_plus_noise(self):
        panel, truth = gen_dgp(DgpConfig(dgp=1, N=5, T=20, seed=8))
        resid = panel.stacked_coeffs() - truth.chi.stacked_coeffs()
        assert np.isfinite(resid).all()
        assert np.abs(resid).max() > 0

    def test_factor_stationary_variance(self):
        _, truth = gen_dgp(DgpConfig(dgp=1, N=2, T=100_000, seed=31))
        assert np.allclose(truth.U.var(axis=1), 1.0, atol=0.02)

    def test_common_variance_one_per_series(self):
        _, truth = gen_dgp(DgpConfig(dgp=1, N=5, T=100_000, seed=32))
        Z = truth.chi.stacked_white()
        per_series = (Z**2).reshape(5, 7, -1).sum(axis=1).mean(axis=1)
        assert np.allclose(per_series, 1.0, atol=0.05)

    def test_idiosyncratic_covariance(self):
        cfg = DgpConfig(dgp=3, N=3, T=40_000, seed=33)
        panel, truth = gen_dgp(cfg)
        xi = panel.stacked_coeffs() - truth.chi.stacked_coeffs()
        c, E = noise_covariance(3)
        target = c * E / E.sum()
        for i in range(3):
            block = xi[i * 7 : (i + 1) * 7]
            emp = np.diag(block @ block.T / block.shape[1])
            assert np.allclose(emp / target, 1.0, atol=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            DgpConfig(dgp=5, N=10, T=50, seed=0)
        with pytest.raises(ValueError):
            DgpConfig(dgp=1, N=10, T=50, seed=0, target_opnorm=1.5)
        with pytest.raises(ValueError):
            DgpConfig(dgp=1, N=10, T=50, seed=0, basis_dim=2)
