import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hdffm import (
    AbcConfig,
    ForecastConfig,
    Panel,
    abc_select_r,
    build_bspline,
    center,
    functional_space,
    nested_subpanel_sizes,
    penalty,
    scalar_space,
    select_r_fixed,
    tnh_forecast,
)
from hdffm import select
from hdffm.panel import _CHUNK_BYTES
from hdffm.select import C_GRID
from hdffm.simulate import DgpConfig, gen_dgp
from conftest import ic, random_mixed_panel, rank_k_panel


def mixed_bspline_panel(T=50):
    """Two factors loaded on scalar series and on 6-dim B-spline series
    (non-identity Gram), plus noise."""
    rng = np.random.default_rng(17)
    N, d = 16, 6
    U = rng.standard_normal((2, T))
    bspline = build_bspline((0.0, 1.0), dim=d).space()
    spaces = [scalar_space() if i % 3 == 0 else bspline for i in range(N)]
    coeffs = [U.T @ rng.standard_normal((2, s.dim)) + 0.3 * rng.standard_normal((T, s.dim))
              for s in spaces]
    return Panel(spaces, coeffs)


class TestPenalty:
    def test_ic1a_value(self):
        g = penalty("IC1a", 100, 100)
        assert g == pytest.approx(math.sqrt(0.02) * math.log(50.0), rel=1e-12)
        assert g == pytest.approx(0.55326, abs=1e-4)

    def test_ic2a_value(self):
        g = penalty("IC2a", 100, 100)
        assert g == pytest.approx(math.sqrt(0.02) * math.log(100.0), rel=1e-12)
        assert g == pytest.approx(0.65128, abs=1e-4)

    def test_monotone_vanishing(self):
        for kind in ("IC1a", "IC2a"):
            for n in (50, 100, 200):
                assert penalty(kind, 2 * n, 2 * n) < penalty(kind, n, n)

    def test_rate_condition(self):
        # C_{N,T} * g -> infinity while g -> 0 along N = T
        for kind in ("IC1a", "IC2a"):
            prev_cg, prev_g = 0.0, np.inf
            for n in (10, 100, 1000, 10000):
                g = penalty(kind, n, n)
                cg = math.sqrt(n) * g
                assert g < prev_g and cg > prev_cg
                prev_cg, prev_g = cg, g

    def test_too_small_arguments(self):
        with pytest.raises(ValueError):
            penalty("IC1a", 2, 2)  # NT/(N+T) = 1, log is 0
        with pytest.raises(ValueError):
            penalty("IC2a", 1, 50)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            penalty("IC3", 10, 10)


class TestSelectRFixed:
    def test_noiseless_rank3(self, rng):
        panel, _, _ = rank_k_panel(rng, N=6, T=12, k=3)
        # scale the signal so every factor's V-drop dominates c*g on the grid
        strong = Panel(panel.spaces, [3.0 * c for c in panel.coeffs])
        for c in (0.1, 1.0, 2.0):
            assert select_r_fixed(strong, c, "IC2a", k_max=6) == 3

    def test_brute_force_argmin(self, rng):
        for _ in range(5):
            panel = random_mixed_panel(rng, N=5, T=8)
            k_max = 5
            c = float(rng.uniform(0, 2))
            ics = [ic(panel, k, c, "IC1a") for k in range(1, k_max + 1)]
            expect = int(np.argmin(ics)) + 1
            assert select_r_fixed(panel, c, "IC1a", k_max) == expect

    def test_c_zero_picks_k_max(self, rng):
        panel = random_mixed_panel(rng, N=6, T=8)
        assert select_r_fixed(panel, 0.0, "IC2a", k_max=5) == 5

    def test_k_max_validation(self, rng):
        panel = random_mixed_panel(rng, N=3, T=4)
        with pytest.raises(ValueError):
            select_r_fixed(panel, 1.0, "IC2a", k_max=50)

    def test_negative_c_rejected(self, rng):
        with pytest.raises(ValueError, match="c must be nonnegative"):
            select_r_fixed(random_mixed_panel(rng), -0.1)


class TestAbcConfig:
    def test_nested_subpanel_sizes(self):
        sizes = nested_subpanel_sizes(100, 200)
        assert sizes[0] == (80, 200)
        assert sizes[-1] == (100, 200)
        assert [n for n, _ in sizes] == sorted(n for n, _ in sizes)

    def test_default_grid(self):
        cfg = AbcConfig.for_panel(50, 100)
        assert len(C_GRID) == 201
        assert C_GRID[0] == 0.0 and C_GRID[-1] == pytest.approx(10.0)
        assert cfg.k_max == 10 and cfg.P == 5


class TestAbcSelect:
    def test_noiseless_rank3(self, rng):
        panel, _, _ = rank_k_panel(rng, N=8, T=24, k=3)
        cfg = AbcConfig(
            k_max=6, P=3, subpanel_sizes=((6, 24), (7, 24), (8, 24)), rng_seed=5
        )
        r, trace = abc_select_r(panel, cfg, "IC2a")
        assert r == 3
        # stable: zero variance on the whole plateau region
        assert all(f is None for f in trace.fallback)

    def test_dgp1_paper_config(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=50, T=100, seed=77))
        cfg = AbcConfig.for_panel(50, 100, rng_seed=3)
        r, _ = abc_select_r(panel, cfg, "IC2a")
        assert r == 3

    def test_determinism(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=5))
        cfg = AbcConfig.for_panel(20, 60, rng_seed=11)
        r1, t1 = abc_select_r(panel, cfg, "IC2a")
        r2, t2 = abc_select_r(panel, cfg, "IC2a")
        assert r1 == r2
        assert np.array_equal(t1.r_hat_table, t2.r_hat_table)
        assert t1.chosen_c_index == t2.chosen_c_index

    def test_trace_consistency(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=9))
        cfg = AbcConfig.for_panel(20, 60, rng_seed=2)
        r, trace = abc_select_r(panel, cfg, "IC2a")
        redo = []
        for p, idx in enumerate(trace.chosen_c_index):
            if idx is None:
                redo.append(trace.r_hat_per_p[p])
            else:
                redo.append(int(trace.r_hat_table[idx, -1, p]))
        assert redo == trace.r_hat_per_p
        assert r == sorted(redo)[(len(redo) - 1) // 2]

    def test_full_panel_permutation_invariant(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=15, T=50, seed=13))
        cfg = AbcConfig.for_panel(15, 50, rng_seed=4)
        _, trace = abc_select_r(panel, cfg, "IC2a")
        full = trace.r_hat_table[:, -1, :]
        assert np.all(full == full[:, :1])

    @pytest.mark.parametrize("make_panel", [
        lambda: gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=9))[0], mixed_bspline_panel,
    ], ids=["dgp1", "mixed_bspline"])
    def test_full_panel_column_is_the_fixed_c_selection(self, monkeypatch, make_panel):
        # the full-panel column reads the panel's own spectrum: only the J - 1
        # proper subpanels of each permutation are solved by eigvalsh (stacked,
        # so the matrices are counted, not the calls)
        panel = make_panel()
        cfg = AbcConfig.for_panel(panel.N, panel.T, rng_seed=6, P=3)
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        _, trace = abc_select_r(panel, cfg, "IC2a")
        monkeypatch.undo()
        solved = sum(math.prod(shape[:-2]) for shape in calls)
        assert solved == cfg.P * (len(cfg.subpanel_sizes) - 1)
        for i, c in enumerate(C_GRID):
            r = select_r_fixed(panel, float(c), "IC2a", cfg.k_max)
            assert trace.r_hat_table[i, -1].tolist() == [r] * cfg.P

    def test_variance_zero_kmax_at_c0(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=21))
        cfg = AbcConfig.for_panel(20, 60, rng_seed=1)
        _, trace = abc_select_r(panel, cfg, "IC2a")
        assert np.all(trace.variance_profile[0] == 0.0)
        assert np.all(trace.r_hat_table[0] == cfg.k_max)

    def test_large_c_selects_one(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=22))
        cfg = AbcConfig.for_panel(20, 60, rng_seed=1)
        _, trace = abc_select_r(panel, cfg, "IC2a")
        assert np.all(trace.r_hat_table[-1] == 1)

    def test_last_subpanel_must_be_full(self, rng):
        panel = random_mixed_panel(rng, N=6, T=10)
        cfg = AbcConfig(k_max=3, P=2, subpanel_sizes=((4, 10), (5, 10)), rng_seed=0)
        with pytest.raises(ValueError):
            abc_select_r(panel, cfg)

    def test_export(self, tmp_path):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=12, T=40, seed=2))
        cfg = AbcConfig.for_panel(12, 40, rng_seed=0, P=2)
        r, trace = abc_select_r(panel, cfg, "IC2a")
        jpath = tmp_path / "trace.json"
        trace.save(jpath, manifest={"seed": 0})
        doc = json.loads(jpath.read_text())
        assert doc["r_hat_final"] == r
        assert doc["c_grid"] == C_GRID.tolist()
        assert len(doc["r_hat_table"]) == len(trace.c_grid)
        cpath = tmp_path / "var.csv"
        trace.save_variance_csv(cpath)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "c,var_p1,var_p2"
        assert len(lines) == 1 + len(trace.c_grid)


def per_subpanel_r_table(panel, cfg, kind="IC2a"):
    """Reference for the proper-subpanel columns of the r-hat table: one
    concatenation, eigvalsh, V profile and argmin per (permutation, subpanel)."""
    Z, off = panel.stacked_white(), panel.offsets
    sizes, ks = cfg.subpanel_sizes, np.arange(1, cfg.k_max + 1)
    table = np.zeros((C_GRID.size, len(sizes) - 1, cfg.P), dtype=int)
    for p in range(cfg.P):
        perm = np.random.default_rng(cfg.rng_seed + p).permutation(panel.N)
        S, done = np.zeros((panel.T, panel.T)), 0
        for j, (n_j, t_j) in enumerate(sizes[:-1]):
            if n_j > done:
                block = np.concatenate([Z[off[i] : off[i + 1]] for i in perm[done:n_j]], axis=0)
                S += block.T @ block
                done = n_j
            F = S[:t_j, :t_j] / n_j
            lam = np.clip(np.linalg.eigvalsh(F)[::-1][: cfg.k_max], 0.0, None)
            v = np.clip(float(np.trace(F)) - np.concatenate([[0.0], np.cumsum(lam)]), 0.0, None)
            v /= t_j
            ic = v[None, 1:] + np.outer(C_GRID, ks * penalty(kind, n_j, t_j))
            table[:, j, p] = np.argmin(ic, axis=1) + 1
    return table


def mortality_windows():
    """Centered 47-series, 9-dim B-spline panels over the first T = 24..39
    periods of one 39-period panel, as in the mortality rolling origins."""
    rng = np.random.default_rng(23)
    N, T = 47, 39
    space = build_bspline((0.0, 95.0), dim=9).space()
    trend = np.cumsum(rng.standard_normal((2, T)), axis=1)
    X = np.concatenate([rng.standard_normal((9, 2)) @ trend + 0.2 * rng.standard_normal((9, T))
                        for _ in range(N)])
    return [center(Panel.from_stacked([space] * N, X[:, :t]))[0] for t in range(24, T + 1)]


class TestStackedSelection:
    def assert_matches_reference(self, panel, cfg, kind="IC2a"):
        _, trace = abc_select_r(panel, cfg, kind)
        assert np.array_equal(trace.r_hat_table[:, :-1], per_subpanel_r_table(panel, cfg, kind))

    @pytest.mark.parametrize("dgp", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["IC1a", "IC2a"])
    def test_dgp_panels(self, dgp, kind):
        for seed, (N, T) in enumerate([(20, 40), (30, 25), (15, 60)]):
            panel, _ = gen_dgp(DgpConfig(dgp=dgp, N=N, T=T, seed=40 + seed))
            self.assert_matches_reference(panel, AbcConfig.for_panel(N, T, rng_seed=seed), kind)

    def test_mixed_bspline_panel(self):
        panel = mixed_bspline_panel()
        for seed in range(3):
            cfg = AbcConfig.for_panel(panel.N, panel.T, rng_seed=seed)
            self.assert_matches_reference(panel, cfg)

    def test_unequal_subpanel_lengths(self, rng):
        # runs of equal t_j: (30, 30), (40), (45, 45), then the full panel
        panel = center(random_mixed_panel(rng, N=24, T=50, max_dim=5, scalar_prob=0.4))[0]
        sizes = ((18, 30), (19, 30), (20, 40), (21, 45), (22, 45), (24, 50))
        for seed in range(3):
            self.assert_matches_reference(panel, AbcConfig(k_max=6, P=4, subpanel_sizes=sizes,
                                                           rng_seed=seed))

    def test_mortality_windows(self):
        for panel in mortality_windows():
            self.assert_matches_reference(panel, AbcConfig.for_panel(panel.N, panel.T, rng_seed=1))

    def test_one_eigvalsh_per_permutation_on_short_panels(self, monkeypatch):
        panel = mortality_windows()[-1]
        cfg = AbcConfig.for_panel(panel.N, panel.T, rng_seed=0)
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        abc_select_r(panel, cfg)
        assert calls == [(9, 39, 39)] * cfg.P

    def test_memory_within_the_byte_budget(self, monkeypatch):
        # mc-grid's largest cell, serial as in its bench workers
        monkeypatch.setenv("HDFFM_THREADS", "1")
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=100, T=200, seed=3))
        cfg = AbcConfig.for_panel(100, 200, rng_seed=0)
        panel.gram_spectrum()  # shared by both; not part of either peak

        def peak(fn):
            tracemalloc.start()
            try:
                fn(panel, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(abc_select_r) <= peak(per_subpanel_r_table) + _CHUNK_BYTES

    def test_memory_within_two_budgets_on_two_threads(self, monkeypatch):
        # each of two threads holds one permutation's running sum and one stack
        monkeypatch.setenv("HDFFM_THREADS", "2")
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=100, T=200, seed=3))
        cfg = AbcConfig.for_panel(100, 200, rng_seed=0)
        panel.gram_spectrum()

        def peak(fn):
            tracemalloc.start()
            try:
                fn(panel, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = peak(per_subpanel_r_table) + 2 * (_CHUNK_BYTES + 8 * panel.T**2)
        assert peak(abc_select_r) <= bound


def record_threads(monkeypatch):
    """Wrap ``_subpanel_spectra`` to record the thread each permutation runs on."""
    spectra, idents = select._subpanel_spectra, []

    def recording(*args):
        idents.append(threading.get_ident())
        return spectra(*args)

    monkeypatch.setattr(select, "_subpanel_spectra", recording)
    return idents


class TestThreadedSelection:
    """The permutations run on threads where the Grams fill a stack budget
    (T >= 121 at the reference sizes); nothing a caller sees depends on it."""

    @staticmethod
    def outputs(make_panel, cap, monkeypatch):
        monkeypatch.setenv("HDFFM_THREADS", cap)
        panel = make_panel()  # a fresh panel: its own spectrum is a task too
        r, trace = abc_select_r(panel, AbcConfig.for_panel(panel.N, panel.T, rng_seed=2))
        result = tnh_forecast(make_panel(), ForecastConfig(horizon=2, rng_seed=2))
        return [r, trace.r_hat_table.tobytes(), trace.variance_profile.tobytes(),
                trace.plateaus, trace.chosen_c, trace.fallback, trace.r_hat_per_p,
                result.r, [step.tobytes() for step in result.steps], result.ar_orders.tolist()]

    @pytest.mark.parametrize("make_panel", [
        *[lambda dgp=dgp: gen_dgp(DgpConfig(dgp=dgp, N=50, T=200, seed=60 + dgp))[0]
          for dgp in (1, 2, 3, 4)],
        lambda: mixed_bspline_panel(T=130),
    ], ids=["dgp1", "dgp2", "dgp3", "dgp4", "mixed-bspline-T130"])
    def test_bitwise_at_one_and_two_threads(self, monkeypatch, make_panel):
        assert self.outputs(make_panel, "1", monkeypatch) == self.outputs(make_panel, "2",
                                                                          monkeypatch)

    def test_more_threads_than_cores(self, monkeypatch):
        # six workers switching every microsecond give the serial trace
        make_panel = lambda: gen_dgp(DgpConfig(dgp=3, N=50, T=200, seed=9))[0]  # noqa: E731
        serial = self.outputs(make_panel, "1", monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert self.outputs(make_panel, "6", monkeypatch) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_threads_at_t200(self, monkeypatch):
        monkeypatch.setenv("HDFFM_THREADS", "2")
        idents = record_threads(monkeypatch)
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=50, T=200, seed=5))
        abc_select_r(panel, AbcConfig.for_panel(50, 200))
        assert len(idents) == 5 and threading.get_ident() not in idents

    def test_serial_on_mortality_windows(self, monkeypatch):
        monkeypatch.setenv("HDFFM_THREADS", "2")
        idents = record_threads(monkeypatch)
        for panel in mortality_windows():
            abc_select_r(panel, AbcConfig.for_panel(panel.N, panel.T))
        assert idents and set(idents) == {threading.get_ident()}

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_k_max_checked_before_any_task(self, monkeypatch, cap):
        monkeypatch.setenv("HDFFM_THREADS", cap)
        idents = record_threads(monkeypatch)
        panel = Panel([scalar_space()] * 5, np.random.default_rng(0).standard_normal((5, 130, 1)))
        with pytest.raises(ValueError, match="k_max=6 out of range"):
            abc_select_r(panel, AbcConfig.for_panel(5, 130, k_max=6))
        assert idents == [] and panel._spectrum is None

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_first_failing_permutation_raises(self, monkeypatch, cap):
        # permutation 1 fails after permutation 3 does, but is raised first
        monkeypatch.setenv("HDFFM_THREADS", cap)
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=50, T=200, seed=5))
        cfg = AbcConfig.for_panel(50, 200, rng_seed=0)
        perms = [np.random.default_rng(p).permutation(50) for p in range(cfg.P)]
        spectra = select._subpanel_spectra

        def failing(Z, offsets, perm, *args):
            p = next(i for i, q in enumerate(perms) if np.array_equal(q, perm))
            if p == 1:
                time.sleep(0.2)
            if p in (1, 3):
                raise ValueError(f"permutation {p} failed")
            return spectra(Z, offsets, perm, *args)

        monkeypatch.setattr(select, "_subpanel_spectra", failing)
        with pytest.raises(ValueError, match="permutation 1 failed"):
            abc_select_r(panel, cfg)

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_first_rank_bound_error_raises(self, monkeypatch, cap):
        # a 20-dim and a 3-dim series among ten scalars, k_max = 14: of the four
        # permutations, 2 fails with its first subpanel's rank bound 10 and 3
        # with 12 (the 3-dim series among its first ten series)
        monkeypatch.setenv("HDFFM_THREADS", cap)
        idents = record_threads(monkeypatch)
        rng = np.random.default_rng(4)
        spaces = [functional_space(20), functional_space(3)] + [scalar_space()] * 10
        panel = Panel(spaces, [rng.standard_normal((260, s.dim)) for s in spaces])
        cfg = AbcConfig(k_max=14, P=4, subpanel_sizes=((10, 260), (11, 260), (12, 260)),
                        rng_seed=7)
        with pytest.raises(ValueError, match=r"min\(10, 260\) of subpanel 1"):
            abc_select_r(panel, cfg)
        main = threading.get_ident()
        assert set(idents) == {main} if cap == "1" else main not in idents
