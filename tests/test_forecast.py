import numpy as np
import pytest

from hdffm import (
    ArModel,
    ForecastConfig,
    Panel,
    ar_forecast,
    cf_forecast,
    fit_ar_bic,
    functional_space,
    persistence_forecast,
    rolling_origin_eval,
    scalar_space,
    tnh_forecast,
)
from hdffm.simulate import DgpConfig, ar_burn_in_draw, gen_dgp
from conftest import random_mixed_panel


class TestArModel:
    def test_explosive_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            ArModel(order=1, intercept=0.0, coefficients=np.array([1.1]), innovation_variance=1.0)

    def test_near_unit_root_allowed(self):
        m = ArModel(order=1, intercept=0.0, coefficients=np.array([1.0]), innovation_variance=1.0)
        assert m.order == 1

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            ArModel(order=0, intercept=0.0, coefficients=np.zeros(0), innovation_variance=-1.0)


class TestFitArBic:
    def test_iid_selects_order_zero(self):
        hits = 0
        for seed in range(100):
            y = np.random.default_rng(seed).standard_normal(2000)
            if fit_ar_bic(y).order == 0:
                hits += 1
        assert hits >= 90

    def test_ar1_recovery(self):
        y = ar_burn_in_draw(0.8, 0.6, 2000, seed=42)
        m = fit_ar_bic(y)
        assert m.order >= 1
        assert m.coefficients[0] == pytest.approx(0.8, abs=0.05)

    def test_constant_series(self):
        m = fit_ar_bic(np.full(100, 2.5))
        assert m.order == 0
        assert m.intercept == pytest.approx(2.5)
        assert m.innovation_variance == 0.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_ar_bic(np.zeros(10), p_max=5)


class TestArForecast:
    def test_order_zero(self):
        m = ArModel(order=0, intercept=2.0, coefficients=np.zeros(0), innovation_variance=1.0)
        assert np.allclose(ar_forecast(m, np.array([5.0]), 3), [2.0, 2.0, 2.0])

    def test_ar1_geometric_decay(self):
        m = ArModel(order=1, intercept=0.0, coefficients=np.array([0.5]), innovation_variance=1.0)
        assert np.allclose(ar_forecast(m, np.array([4.0]), 3), [2.0, 1.0, 0.5])

    def test_ar2_matches_recursion(self, rng):
        coefs = np.array([0.5, -0.3])
        m = ArModel(order=2, intercept=0.2, coefficients=coefs, innovation_variance=1.0)
        hist = list(rng.standard_normal(6))
        fc = ar_forecast(m, np.array(hist), 4)
        buf = hist[:]
        for step in range(4):
            val = 0.2 + coefs[0] * buf[-1] + coefs[1] * buf[-2]
            assert fc[step] == pytest.approx(val, abs=1e-12)
            buf.append(val)

    def test_insufficient_history(self):
        m = ArModel(order=2, intercept=0.0, coefficients=np.array([0.1, 0.1]), innovation_variance=1.0)
        with pytest.raises(ValueError):
            ar_forecast(m, np.array([1.0]), 2)


def ar1_rank1_panel(N, T, a=0.8, seed=0):
    """Zero-idiosyncratic panel: x_it = b_i * u_t * e1, u an AR(1)."""
    rng = np.random.default_rng(seed)
    u = ar_burn_in_draw(a, np.sqrt(1 - a * a), T, seed=seed + 1)
    b = rng.uniform(0.5, 1.5, N)
    spaces = [functional_space(3) for _ in range(N)]
    coeffs = []
    for i in range(N):
        block = np.zeros((T, 3))
        block[:, 0] = b[i] * u
        coeffs.append(block)
    return Panel(spaces, coeffs), u, b


class TestTnhForecast:
    def test_constant_panel(self):
        spaces = [functional_space(2) for _ in range(3)]
        coeffs = [np.tile([1.0 * i, -2.0], (30, 1)) for i in range(3)]
        panel = Panel(spaces, coeffs)
        res = tnh_forecast(panel, ForecastConfig(horizon=2, p_max=3, fixed_r=1))
        for i in range(3):
            assert np.allclose(res.steps[i], coeffs[i][:2], atol=1e-10)

    def test_determinism(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=10, T=60, seed=14))
        cfg = ForecastConfig(horizon=3, rng_seed=7)
        r1 = tnh_forecast(panel, cfg)
        r2 = tnh_forecast(panel, cfg)
        assert r1.r == r2.r
        for a, b in zip(r1.steps, r2.steps):
            assert np.array_equal(a, b)

    def test_decomposition_identity(self):
        from hdffm import center, common_component, fit_factors, idiosyncratic_residual

        panel, _ = gen_dgp(DgpConfig(dgp=1, N=8, T=50, seed=15))
        centered, means = center(panel)
        fit = fit_factors(centered, 3)
        chi = common_component(fit)
        xi = idiosyncratic_residual(centered, fit)
        for i in range(panel.N):
            recon = means[i][None, :] + chi.coeffs[i] + xi.coeffs[i]
            assert np.allclose(recon, panel.coeffs[i], atol=1e-10)

    @pytest.mark.parametrize("fixed_r", [3, None], ids=["fixed", "tuned"])
    def test_shift_equivariance(self, fixed_r):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=6, T=60, seed=16))
        cfg = ForecastConfig(horizon=2, fixed_r=fixed_r)
        base = tnh_forecast(panel, cfg)
        shift = np.arange(7.0)
        shifted_panel = Panel(
            panel.spaces,
            [c + (shift if i == 2 else 0.0) for i, c in enumerate(panel.coeffs)],
        )
        shifted = tnh_forecast(shifted_panel, cfg)
        for i in range(panel.N):
            expect = base.steps[i] + (shift if i == 2 else 0.0)
            assert np.allclose(shifted.steps[i], expect, atol=1e-9)
        assert shifted.r == base.r

    def test_tuned_selection_runs_on_centered_panel(self):
        # nonzero means must not change the tuned factor count
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=50, T=100, seed=16))
        shifted_panel = Panel.from_stacked(panel.spaces, panel.stacked_coeffs() + 5.0)
        base = tnh_forecast(panel, ForecastConfig(horizon=1))
        shifted = tnh_forecast(shifted_panel, ForecastConfig(horizon=1))
        assert base.r == shifted.r == 3
        for a, b in zip(base.steps, shifted.steps):
            assert np.allclose(b, a + 5.0, atol=1e-9)

    def test_ar1_factor_oracle(self):
        # zero idiosyncratic part, single AR(1) factor: the pipeline forecast
        # must approach the optimal predictor b_i * a * u_T
        a, T = 0.8, 2000
        panel, u, b = ar1_rank1_panel(N=10, T=T, a=a, seed=5)
        res = tnh_forecast(panel, ForecastConfig(horizon=1, fixed_r=1))
        oracle = b * (a * u[-1])
        got = np.array([res.steps[i][0, 0] for i in range(10)])
        scale = np.sqrt(np.mean((b * u[-1]) ** 2))
        assert np.abs(got - oracle).max() < 0.05 * max(scale, 1.0)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            ForecastConfig(horizon=0)


class TestCfForecast:
    def test_constant_series(self):
        spaces = [functional_space(2)]
        coeffs = [np.tile([0.5, 1.5], (30, 1))]
        panel = Panel(spaces, coeffs)
        res = cf_forecast(panel, 2, n_components=2, p_max=3)
        assert np.allclose(res.steps[0], coeffs[0][:2], atol=1e-10)

    def test_full_basis_reproduces_constant_directions(self):
        # two coordinates constant, one an AR(1): the constants must pass
        # through the full-dimension score decomposition exactly
        T = 60
        u = ar_burn_in_draw(0.6, 0.8, T, seed=3)
        block = np.column_stack([np.full(T, 2.0), u, np.full(T, -1.0)])
        panel = Panel([functional_space(3)], [block])
        res = cf_forecast(panel, 1, n_components=3, p_max=3)
        assert res.steps[0][0, 0] == pytest.approx(2.0, abs=1e-8)
        assert res.steps[0][0, 2] == pytest.approx(-1.0, abs=1e-8)

    def test_cf_equals_tnh_on_rank1_single_series(self):
        panel, _, _ = ar1_rank1_panel(N=1, T=1000, a=0.8, seed=9)
        cf = cf_forecast(panel, 1, n_components=1)
        tnh = tnh_forecast(panel, ForecastConfig(horizon=1, fixed_r=1))
        a = cf.steps[0][0]
        b = tnh.steps[0][0]
        scale = max(np.abs(b).max(), 1e-3)
        assert np.abs(a - b).max() < 0.05 * scale

    def test_too_many_components(self, rng):
        panel = random_mixed_panel(rng, N=2, T=40, scalar_prob=0.0, max_dim=3)
        with pytest.raises(ValueError):
            cf_forecast(panel, 1, n_components=10)


class TestAgainstPersistence:
    def test_beats_persistence_quick(self):
        # small version of the benchmark property; the full-size run lives in
        # the acceptance suite
        wins = 0
        for rep in range(5):
            cfg = DgpConfig(dgp=1, N=20, T=121, seed=300 + rep)
            panel, _ = gen_dgp(cfg)
            train = Panel(panel.spaces, [c[:120] for c in panel.coeffs])
            actual = np.stack([c[120] for c in panel.coeffs])
            tnh = tnh_forecast(train, ForecastConfig(horizon=1, fixed_r=3))
            pers = persistence_forecast(train, 1)
            err_t = sum(
                np.sum((tnh.steps[i][0] - actual[i]) ** 2) for i in range(20)
            )
            err_p = sum(
                np.sum((pers.steps[i][0] - actual[i]) ** 2) for i in range(20)
            )
            wins += err_t < err_p
        assert wins >= 4


class TestRollingOriginEval:
    @staticmethod
    def scalar_panel():
        x = np.array([[0.0, 1.0, 3.0, 6.0, 10.0], [0.0, -1.0, -1.0, 2.0, 2.0]])
        return Panel.from_stacked([scalar_space()] * 2, x), x

    def test_persistence_by_hand(self):
        panel, x = self.scalar_panel()
        calls = []

        def forecaster(train, steps):
            calls.append((train.T, steps))
            return persistence_forecast(train, steps)

        rows = rolling_origin_eval(panel, x[:, :, None], np.ones((1, 1)), forecaster,
                                   horizon=2, delta_min=3)
        assert calls == [(3, 2), (4, 1)]
        # h=1: origins 3 and 4 give errors (3-6, -1-2) and (6-10, 2-2);
        # h=2: origin 3 alone gives (3-10, -1-2)
        assert rows == [(1, 2.5, 8.5), (2, 5.0, 29.0)]

    def test_design_maps_coefficients_to_grid(self):
        panel, x = self.scalar_panel()
        design = np.array([[1.0], [2.0]])
        actual = x[:, :, None] * design[:, 0]
        rows = rolling_origin_eval(panel, actual, design, persistence_forecast,
                                   horizon=1, delta_min=3)
        # grid points 1 and 2 scale the h=1 errors above by 1 and 2
        assert rows == [(1, (10 + 20) / 8, (34 + 136) / 8)]

    @pytest.mark.parametrize("delta_min", [5, 6])
    def test_no_origin_rejected(self, delta_min):
        panel, x = self.scalar_panel()
        with pytest.raises(ValueError, match="no rolling origins"):
            rolling_origin_eval(panel, x[:, :, None], np.ones((1, 1)), persistence_forecast,
                                horizon=1, delta_min=delta_min)
