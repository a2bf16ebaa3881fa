import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from hdffm import (
    AbcConfig,
    ForecastConfig,
    Panel,
    abc_select_r,
    ar_forecast,
    center,
    cf_forecast,
    fit_ar_bic,
    functional_space,
    mortality_rolling_eval,
    persistence_forecast,
    rolling_origin_eval,
    scalar_space,
    tnh_forecast,
)
from hdffm import forecast
from hdffm.forecast import _ar_bic_forecasts, _lag_matrices
from hdffm.panel import _CHUNK_BYTES, stack_runs
from hdffm.simulate import DgpConfig, gen_dgp
from conftest import ar_burn_in_draw, random_mixed_panel, random_spd


def companion_radius(coefs):
    """Spectral radius of the companion matrix of an AR coefficient vector."""
    p = coefs.size
    if p == 0:
        return 0.0
    comp = np.eye(p, k=-1)
    comp[0] = coefs
    return float(np.abs(np.linalg.eigvals(comp)).max())


def order(y, p_max):
    """The AR-BIC order of one series, fitted as a (1, T) matrix."""
    return int(fit_ar_bic(y[None], p_max)[0][0])


class TestArModel:
    """The models ``fit_ar_bic`` returns are never explosive beyond 1 + 1e-8."""

    def test_explosive_rejected(self):
        # 1.05**t is an exact AR(1) of coefficient 1.05: dropped for AR(0)
        orders, beta, _ = fit_ar_bic(1.05 ** np.arange(60.0)[None], p_max=1)
        assert orders.tolist() == [0] and beta[0, 1] == 0.0

    def test_near_unit_root_allowed(self):
        # 3 - 0.5 t is an exact AR(1) of coefficient 1, a companion radius of 1
        orders, beta, sigma2 = fit_ar_bic((3.0 - 0.5 * np.arange(60.0))[None], p_max=1)
        assert orders.tolist() == [1] and sigma2.tolist() == [0.0]
        assert beta[0, 1] == pytest.approx(1.0, abs=1e-12)


class TestFitArBic:
    def test_iid_selects_order_zero(self):
        hits = 0
        for seed in range(100):
            y = np.random.default_rng(seed).standard_normal(2000)
            if order(y, 5) == 0:
                hits += 1
        assert hits >= 90

    def test_ar1_recovery(self):
        y = ar_burn_in_draw(0.8, 0.6, 2000, seed=42)
        orders, beta, _ = fit_ar_bic(y[None])
        assert orders[0] >= 1
        assert beta[0, 1] == pytest.approx(0.8, abs=0.05)

    def test_constant_series(self):
        orders, beta, sigma2 = fit_ar_bic(np.full((1, 100), 2.5))
        assert orders[0] == 0
        assert beta[0, 0] == pytest.approx(2.5)
        assert sigma2[0] == 0.0

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            fit_ar_bic(np.zeros((1, 10)), p_max=5)

    @pytest.mark.parametrize("shape", [(40,), (3, 4, 40), ()])
    def test_not_a_matrix_rejected(self, shape):
        # a series is a (1, T) matrix: a 1-D or 3-D input is not flattened into one
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            fit_ar_bic(np.ones(shape), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named(self, rng, bad):
        Y = rng.standard_normal((4, 60))
        Y[2, 30] = bad
        with pytest.raises(ValueError, match="row 2 of Y has a non-finite value"):
            fit_ar_bic(Y, 3)


def brute_force_fits(y, p_max):
    """(bic, order, intercept, coefficients, variance, radius) of every AR
    order, written out directly: a fresh lag matrix and lstsq per order."""
    T = y.size
    t_eff, target = T - p_max, y[p_max:]
    rss_floor = 1e-24 * t_eff * max(float(np.mean(target**2)), 1e-30)
    fits = []
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
        fits.append((bic, p, float(beta[0]), beta[1:], sigma2, companion_radius(beta[1:])))
    return fits


def brute_force_ar_bic(y, p_max):
    """(bic, order, intercept, coefficients, variance) of AR-BIC: the first BIC
    minimum among the orders whose companion radius is below 1 + 1e-8."""
    return min((f[:5] for f in brute_force_fits(y, p_max) if f[5] < 1.0 + 1e-8),
               key=lambda c: c[:2])


def stationary_ar3(seed):
    rng = np.random.default_rng(seed)
    poly = np.poly(rng.uniform(-0.9, 0.9, 3))  # roots inside the unit circle
    T = int(rng.integers(21, 200))
    return 1.0 + lfilter([1.0], poly, rng.standard_normal(T + 100))[100:]


class TestFitArBicOracle:
    """``fit_ar_bic`` (one QR) against ``brute_force_ar_bic`` (lstsq per order)."""

    @staticmethod
    def assert_matches(y, p_max):
        (got_p,), beta, sigma2_got = fit_ar_bic(y[None], p_max)
        _, p, intercept, coefs, sigma2 = brute_force_ar_bic(y, p_max)
        assert got_p == p
        # the QR solve and lstsq agree to 1e-12 relative, or, on ill-conditioned
        # lags (trends), to a few eps * cond, which bounds either solver's error
        cond = np.linalg.cond(_lag_matrices(y[None], p_max)[0, :, : p + 1])
        tol = max(1e-12, 32 * np.finfo(float).eps * cond)
        assert not beta[0, p + 1 :].any()
        got = np.concatenate([beta[0, : p + 1], sigma2_got])
        want = np.concatenate([[intercept], coefs, [sigma2]])
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        return p

    @pytest.mark.parametrize("p_max", [3, 5])
    @pytest.mark.parametrize("kind", ["ar3", "iid", "constant", "geometric", "trending"])
    def test_bitwise_equal_to_brute_force(self, kind, p_max):
        rng = np.random.default_rng(7)
        series = {
            "ar3": [stationary_ar3(seed) for seed in range(30)],
            "iid": [rng.standard_normal(n) for n in (30, 60, 200)],
            "constant": [np.full(n, -1.5) for n in (30, 60)],
            # the exact AR(1) fit has -inf BIC but is explosive: AR(0) remains
            "geometric": [1.05 ** np.arange(60)],
            # lags within 1e-8 of collinear: full rank for lstsq and for the QR
            "trending": [y for seed in range(5)
                         for y in trending_rows(np.random.default_rng(seed), 120)],
        }[kind]
        for y in series:
            p = self.assert_matches(y, p_max)
            if kind in ("constant", "geometric"):
                assert p == 0

    @pytest.mark.parametrize("scale", [1e-10, 1e10])
    def test_scale_invariant(self, scale):
        for seed in range(30):
            y = stationary_ar3(seed)
            for p_max in (3, 5):
                assert self.assert_matches(scale * y, p_max) == order(y, p_max)

    @pytest.mark.parametrize("rows", ["near_tie", "radius_flip_0", "radius_flip_1"])
    def test_flips_within_rounding(self, rows):
        # rows straddling an order flip, one float apart: the two fits may put
        # the flip a few floats apart, and only where the two orders' BIC
        # values tie or a companion radius meets 1 + 1e-8 to rounding
        Y, p_max = {"near_tie": (near_tie_rows(), 3), "radius_flip_0": (radius_flip_rows(0), 1),
                    "radius_flip_1": (radius_flip_rows(1), 1)}[rows]
        flips = 0
        for y in Y:
            p = order(y, p_max)
            want = brute_force_ar_bic(y, p_max)
            if p == want[1]:
                self.assert_matches(y, p_max)
                continue
            flips += 1
            fits = brute_force_fits(y, p_max)
            bic_tie = abs(fits[p][0] - want[0]) <= 1e-13 * abs(want[0])
            radius_tie = any(abs(f[5] - (1.0 + 1e-8)) <= 1e-14 for f in fits)
            assert bic_tie or radius_tie
        assert flips <= len(Y) // 2


def scalar_ar_bic_forecasts(Y, p_max, h):
    """(rows, h) forecasts and (rows,) orders of ``fit_ar_bic`` + ``ar_forecast``, row by row."""
    fc, orders = np.empty((len(Y), h)), np.empty(len(Y), dtype=int)
    for i, y in enumerate(Y):
        (p,), beta, _ = fit_ar_bic(y[None], p_max)
        fc[i], orders[i] = ar_forecast(beta[:, : p + 1], y[None, y.size - p :], h)[0], p
    return fc, orders


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

    def order_at(a):
        return order(e + a * u, p_max)

    lo, hi = 0.0, 1.0
    assert order_at(lo) != order_at(hi)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if order_at(mid) == order_at(lo) else (lo, mid)
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


def mixed_rows(rng, kinds, T, p_max):
    """One row per kind: "ar" an AR(q), q = 0..p_max at random, with stationary
    roots; "constant", "zero" and "linear" exact fits; "explosive" an AR(1) of
    coefficient 1 + 1/T..5/T, noisy or the exact geometric path."""
    t = np.arange(T, dtype=float)
    rows = []
    for kind in kinds:
        if kind == "ar":
            q = int(rng.integers(0, p_max + 1))
            poly = np.poly(rng.uniform(-0.95, 0.95, q)) if q else [1.0]
            rows.append(rng.normal() + lfilter([1.0], poly, rng.standard_normal(T + 100))[100:])
        elif kind == "explosive":
            noise = rng.integers(0, 2) * rng.standard_normal(T)
            noise[0] = 1.0
            rows.append(lfilter([1.0], [1.0, -1.0 - rng.uniform(1, 5) / T], noise))
        else:
            rows.append({"constant": np.full(T, rng.normal()), "zero": np.zeros(T),
                         "linear": rng.normal() + rng.normal() * t}[kind])
    return np.array(rows)


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
        # 150 rows of T=300 span more than one stack of the byte budget
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
    def test_degenerate_rows(self, rng, p_max):
        T = 60
        Y = np.concatenate([degenerate_rows(T), random_ar_rows(rng, 3, T)])
        orders, _, sigma2 = fit_ar_bic(Y, p_max)
        # constant and zero rows: exact AR(0); 1.05**t: its exact AR(1) is explosive
        assert orders[:3].tolist() == [0, 0, 0]
        assert sigma2[0] == sigma2[1] == 0.0
        # 3 - 0.5t: the exact AR(1); its higher orders are rank deficient
        assert orders[3] == min(p_max, 1)
        assert (sigma2[3] == 0.0) == (p_max > 0)
        for p, y in zip(orders, Y):
            lags = _lag_matrices(y[None], p_max)[0, :, : p + 1]
            assert np.linalg.matrix_rank(lags) == p + 1
        self.assert_agrees(Y, p_max, 3)

    def test_near_tie(self):
        Y = near_tie_rows()
        assert len(set(scalar_ar_bic_forecasts(Y, 3, 2)[1])) == 2  # the rows straddle the flip
        self.assert_agrees(Y, 3, 2)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_explosive_flip(self, seed):
        Y = radius_flip_rows(seed)
        assert set(scalar_ar_bic_forecasts(Y, 1, 2)[1]) == {0, 1}
        self.assert_agrees(Y, 1, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 4), st.integers(1, 3), st.integers(1, 5), st.data())
    def test_one_pass_matches_row_by_row(self, p_max, per_chunk, n_chunks, h, data):
        # rows long enough that a QR chunk holds per_chunk of them (or a few
        # more): n_chunks chunks of the byte budget
        t_eff = _CHUNK_BYTES // (16 * per_chunk * (p_max + 2))
        cap = _CHUNK_BYTES // (16 * t_eff * (p_max + 2))
        kinds = data.draw(st.lists(st.sampled_from(["ar", "ar", "constant", "zero", "linear",
                                                    "explosive"]),
                                   min_size=(n_chunks - 1) * cap + 1, max_size=n_chunks * cap))
        Y = mixed_rows(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), kinds,
                       t_eff + p_max, p_max)
        with mock.patch.object(forecast, "_lag_matrices", wraps=forecast._lag_matrices) as lags:
            fc, orders = _ar_bic_forecasts(Y, p_max, h)
        assert lags.call_count == n_chunks
        want_fc, want_orders = scalar_ar_bic_forecasts(Y, p_max, h)
        assert orders.tolist() == want_orders.tolist() and fc.tobytes() == want_fc.tobytes()

    def test_empty(self):
        fc, orders = _ar_bic_forecasts(np.zeros((0, 30)), 3, 2)
        assert fc.shape == (0, 2) and orders.shape == (0,)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            _ar_bic_forecasts(np.zeros((2, 10)), 5, 1)

    @staticmethod
    def chunked_rows(p_max=5):
        """353 rows of length 199 (forecast-dgp's), over eight chunks."""
        Y = np.random.default_rng(3).standard_normal((353, 199))
        runs = stack_runs([199 - p_max] * 353, lambda t_eff: 16 * t_eff * (p_max + 2))
        assert len(runs) == 8
        return Y, runs

    def test_bitwise_at_caps_1_2_3(self, monkeypatch):
        Y, _ = self.chunked_rows()
        threads, outputs, starts = threading.active_count(), [], []
        start = threading.Thread.start

        def counted_start(thread):
            starts.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        for cap in ("1", "2", "3"):
            monkeypatch.setenv("HDFFM_THREADS", cap)
            fc, orders = _ar_bic_forecasts(Y, 5, 2)
            outputs.append((fc.tobytes(), orders.tobytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert starts == []  # the chunks fit on the calling thread at every cap
        assert threading.active_count() == threads

    def test_memory_at_two_threads(self, monkeypatch):
        # one chunk's fit is in flight at any cap, the chunks fitting in order
        # on the calling thread, so a cap of 2 holds nothing more than a cap
        # of 1; 64 KiB covers small arrays and objects
        Y, _ = self.chunked_rows()

        def peak(fn, *args):
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _ar_bic_forecasts(Y, 5, 1)  # numpy's first call allocates more
        monkeypatch.setenv("HDFFM_THREADS", "1")
        serial = peak(_ar_bic_forecasts, Y, 5, 1)
        monkeypatch.setenv("HDFFM_THREADS", "2")
        assert peak(_ar_bic_forecasts, Y, 5, 1) <= serial + 64 * 1024

    def test_chunk_fit_within_budget(self, monkeypatch):
        # each QR chunk holds its lag matrices and numpy's qr copy of them within
        # the byte budget; the call holds one chunk at a time beside R for all rows,
        # plus 64 KiB for the chunk's own R, the (rows, p_max + 2) arrays and small objects
        Y, runs = self.chunked_rows()
        lag_matrices, chunks = forecast._lag_matrices, []

        def recorded(*args):
            A = lag_matrices(*args)
            chunks.append(A.nbytes)
            return A

        fit_ar_bic(Y, 5)  # numpy's first call allocates more
        monkeypatch.setattr(forecast, "_lag_matrices", recorded)
        tracemalloc.start()
        try:
            fit_ar_bic(Y, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(chunks) == len(runs) and 2 * max(chunks) <= _CHUNK_BYTES
        assert peak <= _CHUNK_BYTES + len(Y) * (5 + 2) ** 2 * 8 + 64 * 1024

    def test_one_fit_and_one_recursion(self):
        Y, _ = self.chunked_rows()
        with (mock.patch.object(forecast, "fit_ar_bic", wraps=forecast.fit_ar_bic) as fit,
              mock.patch.object(forecast, "ar_forecast", wraps=forecast.ar_forecast) as rec):
            _ar_bic_forecasts(Y, 5, 3)
        assert fit.call_count == 1 and rec.call_count == 1


class TestArForecast:
    def test_order_zero(self):
        assert np.allclose(ar_forecast(np.array([[2.0]]), np.empty((1, 0)), 3), [[2.0, 2.0, 2.0]])

    def test_ar1_geometric_decay(self):
        assert np.allclose(ar_forecast(np.array([[0.0, 0.5]]), np.array([[4.0]]), 3),
                           [[2.0, 1.0, 0.5]])

    def test_ar2_matches_recursion(self, rng):
        coefs = np.array([0.5, -0.3])
        hist = list(rng.standard_normal(6))
        fc = ar_forecast(np.array([[0.2, *coefs]]), np.array([hist[-2:]]), 4)[0]
        buf = hist[:]
        for step in range(4):
            val = 0.2 + coefs[0] * buf[-1] + coefs[1] * buf[-2]
            assert fc[step] == pytest.approx(val, abs=1e-12)
            buf.append(val)

    def test_insufficient_history(self):
        with pytest.raises(ValueError, match="need"):
            ar_forecast(np.array([[0.0, 0.1, 0.1]]), np.array([[1.0]]), 2)

    @pytest.mark.parametrize("h", [0, -1])
    def test_h_below_1_rejected(self, h):
        with pytest.raises(ValueError, match="h must be >= 1"):
            ar_forecast(np.array([[0.0, 0.5]]), np.array([[4.0]]), h)

    def test_per_row_orders(self, rng):
        # rows of orders 0..3, zero past their order, forecast at their own order
        orders = np.arange(4)
        beta = np.where(np.arange(4) <= orders[:, None], 0.3 * rng.standard_normal((4, 4)), 0.0)
        last = rng.standard_normal((4, 3))
        fc = ar_forecast(beta, last, 5, orders)
        for i, p in enumerate(orders):
            want = ar_forecast(beta[i : i + 1, : p + 1], last[i : i + 1, 3 - p :], 5)
            assert fc[i].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("orders", [[0, 4], [-1, 0], [1]])
    def test_orders_out_of_range_rejected(self, orders):
        with pytest.raises(ValueError, match="orders must be 2 values in 0..3"):
            ar_forecast(np.zeros((2, 4)), np.zeros((2, 3)), 2, np.array(orders))


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

    def test_tuned_k_max_below_ten(self):
        # 12 scalar series: each permutation's first subpanel holds 9, so the
        # forecast tunes with k_max = 9
        rng = np.random.default_rng(8)
        U = rng.standard_normal((100, 2))
        panel = Panel([scalar_space()] * 12,
                      [U @ rng.standard_normal(2) + 0.5 * rng.standard_normal(100)
                       for _ in range(12)])
        result = tnh_forecast(panel, ForecastConfig(horizon=2))
        r, trace = abc_select_r(center(panel)[0], AbcConfig(k_max=9))
        assert result.r == r and result.trace.r_hat_table.tobytes() == trace.r_hat_table.tobytes()
        assert result.trace.r_hat_table.max() <= 9

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=re.escape("rng_seed must be >= 0, got -1")):
            ForecastConfig(horizon=1, rng_seed=-1)

    def test_fixed_r_below_1_rejected(self):
        with pytest.raises(ValueError, match=re.escape("fixed_r must be >= 1")):
            ForecastConfig(horizon=1, fixed_r=0)

    def test_p_max_too_large_for_t(self, rng):
        # orders up to 5 need 3 (5 + 2) = 21 periods
        panel = random_mixed_panel(rng, N=3, T=20)
        with pytest.raises(ValueError, match=re.escape("p_max=5 too large for T=20")):
            tnh_forecast(panel, ForecastConfig(horizon=1, p_max=5, fixed_r=1))

    def test_ar_orders(self):
        from hdffm import center, fit_factors, idiosyncratic_residual

        panel, _ = gen_dgp(DgpConfig(dgp=1, N=8, T=60, seed=17))
        res = tnh_forecast(panel, ForecastConfig(horizon=2, p_max=3, fixed_r=2))
        centered, _ = center(panel)
        fit = fit_factors(centered, 2)
        rows = np.concatenate([fit.factors, idiosyncratic_residual(centered, fit).stacked_coeffs()])
        assert res.ar_orders.tolist() == fit_ar_bic(rows, 3)[0].tolist()
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

    @pytest.mark.parametrize("h, p_max, message", [
        (0, 5, "h must be >= 1"),
        (1, 5, "p_max=5 too large for T=20"),
    ], ids=["h-0", "p-max-too-large"])
    def test_bad_arguments_rejected(self, rng, h, p_max, message):
        panel = random_mixed_panel(rng, N=2, T=20, scalar_prob=0.0, max_dim=3)
        with pytest.raises(ValueError, match=re.escape(message)):
            cf_forecast(panel, h, n_components=1, p_max=p_max)


def test_mortality_rolling_eval_rejects_negative_p_max(tmp_path):
    # before the file is read: this one does not exist
    with pytest.raises(ValueError, match=re.escape("p_max must be >= 0")):
        mortality_rolling_eval(tmp_path / "missing.csv", None, 1, -1, 89)


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

    @pytest.mark.parametrize("actual_shape, design_shape, horizon, message", [
        ((10, 40, 4), (3, 7), 2, "actual must be (N, T, grid)=(10, 40, 3), got shape (10, 40, 4)"),
        ((10, 35, 3), (3, 7), 2, "actual must be (N, T, grid)=(10, 40, 3), got shape (10, 35, 3)"),
        ((10, 40, 3), (3, 5), 2, "design must be (grid, d) for series of dimension d, got shape "
                                 "(3, 5) for series of dimensions [7]"),
        ((10, 40, 3), (3,), 2, "design must be (grid, d)"),
        ((10, 40, 3), (3, 7), 0, "horizon must be >= 1, got 0"),
    ], ids=["grid-width", "periods", "design-columns", "design-1d", "horizon-0"])
    def test_bad_input_rejected_before_any_forecast(self, actual_shape, design_shape, horizon,
                                                    message):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=10, T=40, seed=1))
        calls = []

        def forecaster(train, steps):
            calls.append(train.T)
            return persistence_forecast(train, steps)

        with pytest.raises(ValueError, match=re.escape(message)):
            rolling_origin_eval(panel, np.zeros(actual_shape), np.ones(design_shape), forecaster,
                                horizon=horizon, delta_min=30)
        assert calls == []

    @pytest.mark.parametrize("h", [0, -1])
    def test_persistence_rejects_h_below_1(self, h):
        panel, _ = self.scalar_panel()
        with pytest.raises(ValueError, match="h must be >= 1"):
            persistence_forecast(panel, h)
