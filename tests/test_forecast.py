import numpy as np
import pytest
from scipy.signal import lfilter

from hdffm import (
    ArModel,
    ForecastConfig,
    Panel,
    ar_forecast,
    center,
    cf_forecast,
    fit_ar_bic,
    functional_space,
    persistence_forecast,
    rolling_origin_eval,
    scalar_space,
    tnh_forecast,
)
from hdffm import forecast
from hdffm.forecast import _ar_bic_forecasts, companion_radius
from hdffm.simulate import DgpConfig, gen_dgp
from conftest import ar_burn_in_draw, random_mixed_panel, random_spd


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


def brute_force_ar_bic(y, p_max):
    """(bic, order, intercept, coefficients, variance) of AR-BIC written out
    directly: a fresh lag matrix and lstsq per order, the companion radius of
    every candidate, ties to the smaller order."""
    T = y.size
    t_eff, target = T - p_max, y[p_max:]
    rss_floor = 1e-24 * t_eff * max(float(np.mean(target**2)), 1e-30)
    candidates = []
    for p in range(p_max + 1):
        X = np.ones((t_eff, p + 1))
        for j in range(1, p + 1):
            X[:, j] = y[p_max - j : T - j]
        beta = np.linalg.lstsq(X, target, rcond=None)[0]
        resid = target - X @ beta
        rss = float(resid @ resid)
        if rss <= rss_floor:
            bic, sigma2 = -np.inf, 0.0
        else:
            bic, sigma2 = t_eff * np.log(rss / t_eff) + (p + 2) * np.log(t_eff), rss / t_eff
        if companion_radius(beta[1:]) < 1.0 + 1e-8:
            candidates.append((bic, p, float(beta[0]), beta[1:], sigma2))
    return min(candidates, key=lambda c: c[:2])


def stationary_ar3(seed):
    rng = np.random.default_rng(seed)
    poly = np.poly(rng.uniform(-0.9, 0.9, 3))  # roots inside the unit circle
    T = int(rng.integers(21, 200))
    return 1.0 + lfilter([1.0], poly, rng.standard_normal(T + 100))[100:]


class TestFitArBicOracle:
    @pytest.mark.parametrize("p_max", [3, 5])
    @pytest.mark.parametrize("kind", ["ar3", "iid", "constant", "geometric"])
    def test_bitwise_equal_to_brute_force(self, kind, p_max):
        rng = np.random.default_rng(7)
        series = {
            "ar3": [stationary_ar3(seed) for seed in range(30)],
            "iid": [rng.standard_normal(n) for n in (30, 60, 200)],
            "constant": [np.full(n, -1.5) for n in (30, 60)],
            # the exact AR(1) fit has -inf BIC but is explosive: AR(0) remains
            "geometric": [1.05 ** np.arange(60)],
        }[kind]
        for y in series:
            m = fit_ar_bic(y, p_max)
            _, p, intercept, coefs, sigma2 = brute_force_ar_bic(y, p_max)
            assert (m.order, m.intercept, m.innovation_variance) == (p, intercept, sigma2)
            assert np.array_equal(m.coefficients, coefs)
            if kind in ("constant", "geometric"):
                assert m.order == 0


def scalar_ar_bic_forecasts(Y, p_max, h):
    """(rows, h) forecasts and (rows,) orders of ``fit_ar_bic`` + ``ar_forecast``, row by row."""
    models = [fit_ar_bic(y, p_max) for y in Y]
    fc = np.array([ar_forecast(m, y, h) for m, y in zip(models, Y)]).reshape(len(Y), h)
    return fc, np.array([m.order for m in models], dtype=int)


def random_ar_rows(rng, n, T):
    """n rows of AR(q), q = 0..5 at random, stationary roots, random level."""
    rows = []
    for _ in range(n):
        q = int(rng.integers(0, 6))
        poly = np.poly(rng.uniform(-0.95, 0.95, q)) if q else [1.0]
        rows.append(rng.normal(0.0, 3.0) + lfilter([1.0], poly, rng.standard_normal(T + 100))[100:])
    return np.array(rows)


def flip_rows(e, u, p_max, n=64):
    """Rows e + a u for the n floats a around where fit_ar_bic's order flips
    as a goes from 0 to 1."""

    def order(a):
        return fit_ar_bic(e + a * u, p_max).order

    lo, hi = 0.0, 1.0
    assert order(lo) != order(hi)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if order(mid) == order(lo) else (lo, mid)
    a = lo
    for _ in range(n // 2):
        a = np.nextafter(a, -np.inf)
    rows = []
    for _ in range(n):
        rows.append(e + a * u)
        a = np.nextafter(a, np.inf)
    return np.array(rows)


def near_tie_rows(T=120, p_max=3):
    """Rows where two orders' BIC values agree to rounding."""
    e = np.random.default_rng(11).standard_normal(T)
    return flip_rows(e, ar_burn_in_draw(0.9, 1.0, T, seed=12), p_max)


def radius_flip_rows(seed, T=100):
    """Random walks whose last value runs over the floats where the AR(1)
    candidate's companion radius crosses 1 + 1e-8: fit_ar_bic drops it as
    explosive there, and the order flips from 1 to 0."""
    e = np.cumsum(np.random.default_rng(seed).standard_normal(T))
    lags = np.column_stack([np.ones(T - 1), e[:-1]])
    coef = np.linalg.lstsq(lags, e[1:], rcond=None)[0][1]
    slope = np.linalg.lstsq(lags, np.eye(T - 1)[-1], rcond=None)[0][1]  # d coef / d e[-1]
    u = np.zeros(T)
    u[-1] = 2 * (1 - coef) / slope  # a = 1 takes the coefficient to 2 - coef > 1
    return flip_rows(e, u, 1)


def trending_rows(rng, T, n=10):
    """Rows near a (repeated) unit root: linear and quadratic trends plus noise
    of scale 1e-6..1, I(2) paths with drift and random walks at a high level."""
    t = np.arange(T, dtype=float)
    rows = []
    for _ in range(n):
        e = rng.standard_normal(T)
        a = 10 ** rng.uniform(-6, 0)
        rows += [rng.uniform(-5, 5) + rng.uniform(0.1, 3) * t + a * e,
                 1 + 0.01 * t**2 + a * e,
                 np.cumsum(np.cumsum(e)) + rng.uniform(1, 100) * t,
                 10 ** rng.uniform(2, 6) + np.cumsum(e)]
    return np.array(rows)


def order_radii(y, p_max):
    """Companion radius of ``fit_ar_bic``'s least-squares fit of each order 1..p_max."""
    T = y.size
    lags = np.ones((T - p_max, p_max + 1))
    for j in range(1, p_max + 1):
        lags[:, j] = y[p_max - j : T - j]
    return np.array([companion_radius(np.linalg.lstsq(lags[:, : p + 1], y[p_max:], rcond=None)[0][1:])
                     for p in range(1, p_max + 1)])


def degenerate_rows(T):
    t = np.arange(T, dtype=float)
    return np.array([np.full(T, 2.5), np.zeros(T), 1.05**t, 3.0 - 0.5 * t])


class TestBatchedArBic:
    """``_ar_bic_forecasts`` against the scalar path: same orders, same bits."""

    @staticmethod
    def assert_agrees(Y, p_max, h):
        fc, orders = _ar_bic_forecasts(Y, p_max, h)
        want_fc, want_orders = scalar_ar_bic_forecasts(Y, p_max, h)
        assert orders.dtype.kind == "i" and orders.tolist() == want_orders.tolist()
        assert fc.shape == (len(Y), h) and fc.tobytes() == want_fc.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_ar_rows(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            p_max = int(rng.integers(0, 6))
            T = int(rng.integers(max(21, 3 * (p_max + 2)), 401))
            self.assert_agrees(random_ar_rows(rng, 25, T), p_max, int(rng.integers(1, 6)))

    def test_several_chunks(self, rng):
        # 150 rows of T=300 span more than one screening chunk
        self.assert_agrees(random_ar_rows(rng, 150, 300), 5, 3)

    def test_near_unit_root_rows(self, rng):
        T = 200
        eps = rng.standard_normal((6, T))
        rows = [np.cumsum(eps[0]), np.cumsum(np.cumsum(eps[1])) / T]
        for i, phi in enumerate([0.999, 0.9999999, 1.0, 1.02]):
            y = np.empty(T)
            y[0] = eps[2 + i, 0]
            for t in range(1, T):
                y[t] = phi * y[t - 1] + eps[2 + i, t]
            rows.append(y)
        for p_max in (1, 3, 5):
            self.assert_agrees(np.array(rows), p_max, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_trending_rows(self, seed):
        rng = np.random.default_rng(seed)
        for p_max in (1, 3, 5):
            Y = trending_rows(rng, int(rng.integers(40, 201)))
            # most rows have an order whose companion radius is within 1e-2 of 1,
            # chosen or dropped as explosive
            near_one = [np.abs(order_radii(y, p_max) - 1).min() < 1e-2 for y in Y]
            assert np.mean(near_one) >= 0.5
            self.assert_agrees(Y, p_max, 3)

    @pytest.mark.parametrize("p_max", [0, 2, 5])
    def test_degenerate_rows_take_the_scalar_path(self, rng, monkeypatch, p_max):
        T = 60
        Y = np.concatenate([degenerate_rows(T), random_ar_rows(rng, 3, T)])
        scalar_rows = set()

        def recording_fit(y, p):
            scalar_rows.add(y.tobytes())
            return fit_ar_bic(y, p)

        monkeypatch.setattr(forecast, "fit_ar_bic", recording_fit)
        _ar_bic_forecasts(Y, p_max, 3)
        monkeypatch.undo()
        # exact fits; with p_max=0 only the constant and zero rows are exact
        assert {y.tobytes() for y in Y[: 4 if p_max else 2]} <= scalar_rows
        self.assert_agrees(Y, p_max, 3)

    @staticmethod
    def scalar_path_rows(monkeypatch, Y, p_max):
        """Indices of the rows of Y that ``_ar_bic_forecasts`` hands to ``fit_ar_bic``."""
        scalar_rows = set()

        def recording_fit(y, p):
            scalar_rows.add(y.tobytes())
            return fit_ar_bic(y, p)

        monkeypatch.setattr(forecast, "fit_ar_bic", recording_fit)
        _ar_bic_forecasts(Y, p_max, 2)
        monkeypatch.undo()
        return [i for i, y in enumerate(Y) if y.tobytes() in scalar_rows]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_only_explosive_picks_take_the_scalar_path(self, monkeypatch, seed):
        # every row's first BIC minimum is AR(1); where that fit is explosive,
        # fit_ar_bic falls back to AR(0), and only those rows leave the batch
        Y = radius_flip_rows(seed)
        want = np.flatnonzero(scalar_ar_bic_forecasts(Y, 1, 2)[1] == 0).tolist()
        assert 0 < len(want) < len(Y)
        assert self.scalar_path_rows(monkeypatch, Y, 1) == want

    def test_stationary_rows_stay_in_the_batch(self, monkeypatch):
        Y = random_ar_rows(np.random.default_rng(1), 150, 300)
        assert self.scalar_path_rows(monkeypatch, Y, 5) == []

    def test_near_tie(self):
        Y = near_tie_rows()
        assert len(set(scalar_ar_bic_forecasts(Y, 3, 2)[1])) == 2  # the rows straddle the flip
        self.assert_agrees(Y, 3, 2)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_explosive_flip(self, seed):
        Y = radius_flip_rows(seed)
        assert set(scalar_ar_bic_forecasts(Y, 1, 2)[1]) == {0, 1}
        self.assert_agrees(Y, 1, 2)

    def test_empty(self):
        fc, orders = _ar_bic_forecasts(np.zeros((0, 30)), 3, 2)
        assert fc.shape == (0, 2) and orders.shape == (0,)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            _ar_bic_forecasts(np.zeros((2, 10)), 5, 1)


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

    def test_ar_orders(self):
        from hdffm import center, fit_factors, idiosyncratic_residual

        panel, _ = gen_dgp(DgpConfig(dgp=1, N=8, T=60, seed=17))
        res = tnh_forecast(panel, ForecastConfig(horizon=2, p_max=3, fixed_r=2))
        centered, _ = center(panel)
        fit = fit_factors(centered, 2)
        rows = np.concatenate([fit.factors, idiosyncratic_residual(centered, fit).stacked_coeffs()])
        assert res.ar_orders.tolist() == [fit_ar_bic(y, 3).order for y in rows]
        assert len(res.ar_orders) == 2 + panel.total_dim


def per_series_cf_forecast(panel, h, n_components, p_max):
    """Reference for ``cf_forecast``: one eigh, score product and recomposition
    per series, through the same AR-BIC forecasts."""
    centered, means = center(panel)
    white = centered.stacked_white()
    bases, scores = [], []
    for a, b in zip(panel.offsets[:-1], panel.offsets[1:]):
        zw = white[a:b]
        vecs = np.linalg.eigh(zw @ zw.T / panel.T)[1][:, ::-1][:, :n_components]
        bases.append(vecs)
        scores.append(vecs.T @ zw)
    fc, orders = _ar_bic_forecasts(np.concatenate(scores), p_max, h)
    steps = []
    for spec, mean, vecs, f in zip(panel.spaces, means, bases, np.split(fc, panel.N)):
        z = vecs @ f
        if not spec.is_identity_gram:
            z = np.linalg.solve(spec.chol.T, z)
        steps.append((mean[:, None] + z).T)
    return steps, orders


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

    def test_ar_orders(self, rng):
        panel = random_mixed_panel(rng, N=3, T=40, scalar_prob=0.0, max_dim=3)
        k = min(panel.dims)
        res = cf_forecast(panel, 2, n_components=k, p_max=2)
        assert res.ar_orders.shape == (panel.N * k,) and res.ar_orders.dtype.kind == "i"
        assert set(res.ar_orders.tolist()) <= {0, 1, 2}
        assert persistence_forecast(panel, 2).ar_orders.shape == (0,)

    @pytest.mark.parametrize("h", [1, 4])
    def test_mixed_dims_bitwise_per_series(self, rng, monkeypatch, h):
        # runs of equal dim: [3 3] [5 5 5] [3] [4 4], identity and random Grams
        dims = [3, 3, 5, 5, 5, 3, 4, 4]
        spaces = [functional_space(d, None if i % 2 else random_spd(rng, d))
                  for i, d in enumerate(dims)]
        T = 40
        U = np.cumsum(rng.standard_normal((2, T)), axis=1)
        panel = Panel(spaces, [U.T @ rng.standard_normal((2, d)) + rng.standard_normal((T, d))
                               for d in dims])
        steps, orders = per_series_cf_forecast(panel, h, 2, 3)
        eigh, calls = np.linalg.eigh, []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        res = cf_forecast(panel, h, n_components=2, p_max=3)
        assert calls == [(2, 3, 3), (3, 5, 5), (1, 3, 3), (2, 4, 4)]
        assert [s.tobytes() for s in res.steps] == [s.tobytes() for s in steps]
        assert res.ar_orders.tolist() == orders.tolist()

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

    @pytest.mark.parametrize("delta_min", [5, 6, 1, 0, -3])
    def test_no_origin_rejected(self, delta_min):
        panel, x = self.scalar_panel()
        with pytest.raises(ValueError, match="no rolling origins|must be >= 2"):
            rolling_origin_eval(panel, x[:, :, None], np.ones((1, 1)), persistence_forecast,
                                horizon=1, delta_min=delta_min)
