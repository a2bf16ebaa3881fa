import collections
import functools
import hashlib
import json
import math
import re
import sys
import threading
import time
import tracemalloc
import weakref

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
from hdffm.files import save_trace, save_variance_csv
from hdffm.panel import _CHUNK_BYTES, stack_runs
from hdffm.select import C_GRID, run_in_order
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

    @pytest.mark.parametrize("select_r", [
        lambda panel, k_max: select_r_fixed(panel, 1.0, "IC2a", k_max),
        lambda panel, k_max: abc_select_r(panel, AbcConfig(k_max=k_max)),
    ], ids=["fixed", "tuned"])
    def test_k_max_out_of_range_names_the_bound(self, select_r):
        # the bound is min(D, T): three scalar series over eight periods
        panel = Panel([scalar_space()] * 3, np.random.default_rng(0).standard_normal((3, 8, 1)))
        with pytest.raises(ValueError, match=re.escape("k_max=4 out of range 1..3 for this")):
            select_r(panel, 4)
        with pytest.raises(ValueError, match=re.escape("k_max=0 out of range 1..3 for this")):
            select_r(panel, 0)

    def test_negative_c_rejected(self, rng):
        # NaN passes a c < 0 test and used to select 1, as did inf
        for c in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="c must be nonnegative"):
                select_r_fixed(random_mixed_panel(rng), c)


class TestAbcConfig:
    def test_nested_subpanel_sizes(self):
        sizes = nested_subpanel_sizes(100, 200)
        assert len(sizes) == 10
        assert sizes[0] == (80, 200)
        assert sizes[-1] == (100, 200)
        assert [n for n, _ in sizes] == sorted(n for n, _ in sizes)

    def test_default_grid(self):
        cfg = AbcConfig()
        assert len(C_GRID) == 201
        assert C_GRID[0] == 0.0 and C_GRID[-1] == pytest.approx(10.0)
        assert cfg.k_max == 10 and cfg.P == 5

    def test_bad_settings_rejected(self):
        with pytest.raises(ValueError, match="P must be >= 1"):
            AbcConfig(P=0)
        with pytest.raises(ValueError, match=re.escape("rng_seed must be >= 0, got -1")):
            AbcConfig(rng_seed=-1)


class TestAbcSelect:
    def test_noiseless_rank3(self, rng):
        panel, _, _ = rank_k_panel(rng, N=8, T=24, k=3)
        cfg = AbcConfig(k_max=6, P=3, rng_seed=5)
        r, trace = abc_select_r(panel, cfg, "IC2a")
        assert r == 3
        # stable: zero variance on the whole plateau region
        assert all(f is None for f in trace.fallback)

    def test_dgp1_paper_config(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=50, T=100, seed=77))
        cfg = AbcConfig(rng_seed=3)
        r, _ = abc_select_r(panel, cfg, "IC2a")
        assert r == 3

    def test_determinism(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=5))
        cfg = AbcConfig(rng_seed=11)
        r1, t1 = abc_select_r(panel, cfg, "IC2a")
        r2, t2 = abc_select_r(panel, cfg, "IC2a")
        assert r1 == r2
        assert np.array_equal(t1.r_hat_table, t2.r_hat_table)
        assert t1.chosen_c_index == t2.chosen_c_index

    def test_trace_consistency(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=9))
        cfg = AbcConfig(rng_seed=2)
        r, trace = abc_select_r(panel, cfg, "IC2a")
        redo = []
        for p, idx in enumerate(trace.chosen_c_index):
            if idx is None:
                redo.append(trace.r_hat_per_p[p])
            else:
                redo.append(int(trace.r_hat_table[idx, -1, p]))
        assert redo == trace.r_hat_per_p
        assert r == sorted(redo)[(len(redo) - 1) // 2]

    def test_permutations_are_the_callers_own(self):
        # the draws are cached: a trace's permutations must be copies of them
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=9))
        cfg = AbcConfig(rng_seed=2)
        _, trace = abc_select_r(panel, cfg)
        trace.permutations[0][:] = 0
        _, trace = abc_select_r(panel, cfg)
        assert np.array_equal(trace.permutations[0], np.random.default_rng(2).permutation(20))

    def test_full_panel_permutation_invariant(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=15, T=50, seed=13))
        cfg = AbcConfig(rng_seed=4)
        _, trace = abc_select_r(panel, cfg, "IC2a")
        full = trace.r_hat_table[:, -1, :]
        assert np.all(full == full[:, :1])

    @pytest.mark.parametrize("make_panel", [
        lambda: gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=9))[0], mixed_bspline_panel,
    ], ids=["dgp1", "mixed_bspline"])
    def test_full_panel_column_is_the_fixed_c_selection(self, monkeypatch, make_panel):
        # the full-panel column reads the panel's own spectrum: only the
        # distinct proper subpanel sizes of each permutation are solved by
        # eigvalsh (stacked, so the matrices are counted, not the calls)
        panel = make_panel()
        cfg = AbcConfig(rng_seed=6, P=3)
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        _, trace = abc_select_r(panel, cfg, "IC2a")
        monkeypatch.undo()
        solved = sum(math.prod(shape[:-2]) for shape in calls)
        distinct = {n_j for n_j, _ in nested_subpanel_sizes(panel.N, panel.T)[:-1]}
        assert solved == cfg.P * len(distinct)
        for i, c in enumerate(C_GRID):
            r = select_r_fixed(panel, float(c), "IC2a", cfg.k_max)
            assert trace.r_hat_table[i, -1].tolist() == [r] * cfg.P

    def test_variance_zero_kmax_at_c0(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=21))
        cfg = AbcConfig(rng_seed=1)
        _, trace = abc_select_r(panel, cfg, "IC2a")
        assert np.all(trace.variance_profile[0] == 0.0)
        assert np.all(trace.r_hat_table[0] == cfg.k_max)

    def test_large_c_selects_one(self):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=22))
        cfg = AbcConfig(rng_seed=1)
        _, trace = abc_select_r(panel, cfg, "IC2a")
        assert np.all(trace.r_hat_table[-1] == 1)

    def test_export(self, tmp_path):
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=12, T=40, seed=2))
        cfg = AbcConfig(rng_seed=0, P=2)
        r, trace = abc_select_r(panel, cfg, "IC2a")
        jpath = tmp_path / "trace.json"
        save_trace(trace, jpath, manifest={"seed": 0})
        doc = json.loads(jpath.read_text())
        assert doc["r_hat_final"] == r
        assert doc["c_grid"] == C_GRID.tolist()
        assert len(doc["r_hat_table"]) == len(trace.c_grid)
        cpath = tmp_path / "var.csv"
        save_variance_csv(trace, cpath, manifest={"seed": 0})
        lines = cpath.read_text().strip().splitlines()
        assert lines[:2] == ['# manifest: {"seed": 0}', "c,var_p1,var_p2"]
        assert len(lines) == 2 + len(trace.c_grid)


def noise_panel(seed):
    """A factor-free panel of 6..12 scalar and 2-dim series over 12..24 periods,
    scaled by 10^u, u ~ U(0, 2): on large scales every c of the grid selects
    k_max = 4, on small ones r-hat settles on plateaus, and a few in between
    settle on none."""
    rng = np.random.default_rng(seed)
    N, T = int(rng.integers(6, 13)), int(rng.integers(12, 25))
    panel = random_mixed_panel(rng, N=N, T=T, max_dim=2)
    scale = 10 ** rng.uniform(0, 2)
    return Panel(panel.spaces, [scale * c for c in panel.coeffs])


def reference_choice(r_table, variance, k_max):
    """The documented reading of r-hat off an (I, J, P) r-hat table, in plain
    loops: per permutation, the plateaus (maximal runs of >= 2 consecutive c
    on which every subpanel selects one count), the middle c of the first
    plateau not starting at c = 0 on k_max, else the least-variance c of those
    where the full panel selects < k_max ("min_variance"), else k_max
    ("fixed_c1"); then the lower median over permutations."""
    table, variance = r_table.tolist(), variance.tolist()
    I, P = len(table), len(table[0][0])
    out = {"plateaus": [], "chosen_c_index": [], "fallback": [], "r_hat_per_p": []}
    for p in range(P):
        full = [row[-1][p] for row in table]
        stable = [all(r[p] == full[i] for r in table[i]) for i in range(I)]
        plateaus, i = [], 0
        while i < I:
            end = i
            while stable[i] and end + 1 < I and stable[end + 1] and full[end + 1] == full[i]:
                end += 1
            if end > i:
                plateaus.append([i, end, full[i]])
            i = end + 1
        chosen, fallback = None, None
        for start, end, r in plateaus:
            if not (start == 0 and r == k_max):
                chosen = (start + end) // 2
                break
        if chosen is None:
            for i in range(I):
                if full[i] < k_max and (chosen is None or variance[i][p] < variance[chosen][p]):
                    chosen = i
            fallback = "fixed_c1" if chosen is None else "min_variance"
        out["plateaus"].append(plateaus)
        out["chosen_c_index"].append(chosen)
        out["fallback"].append(fallback)
        out["r_hat_per_p"].append(k_max if chosen is None else full[chosen])
    out["r_hat_final"] = sorted(out["r_hat_per_p"])[(P - 1) // 2]
    return out


def exact_variance(r_table):
    """The population variance over subpanels of every (c, permutation) cell,
    (J sum r^2 - (sum r)^2) / J^2 in integers, rounded once by the division."""
    J = r_table.shape[1]
    s1, s2 = r_table.sum(axis=1).tolist(), np.square(r_table).sum(axis=1).tolist()
    return [[(J * b - a * a) / (J * J) for a, b in zip(row1, row2)] for row1, row2 in zip(s1, s2)]


class TestReadingC:
    """How r-hat is read off the r-hat table: a plateau, or one of the two
    fallbacks."""

    def assert_matches_reference(self, panel, cfg):
        r, trace = abc_select_r(panel, cfg, "IC2a")
        expect = reference_choice(trace.r_hat_table, trace.variance_profile, cfg.k_max)
        assert np.allclose(trace.variance_profile, exact_variance(trace.r_hat_table),
                           rtol=1e-12, atol=0)
        assert {key: getattr(trace, key) for key in expect} == expect
        assert r == expect["r_hat_final"]
        return trace

    def test_plateaus_and_fallbacks_match_the_reference(self):
        picks = collections.Counter()
        for seed in range(300):
            panel = noise_panel(seed)
            trace = self.assert_matches_reference(
                panel, AbcConfig(rng_seed=seed, k_max=4))
            picks.update(trace.fallback)
        assert picks[None] and picks["min_variance"] and picks["fixed_c1"]

    def test_exact_low_rank_reads_the_run_at_c0(self, rng):
        # V(k) is 0 up to rounding for every k >= 3: where c = 0 selects 3 on
        # every subpanel, that run itself is the plateau read
        at_c0 = 0
        for seed in range(5):
            panel, _, _ = rank_k_panel(rng, N=8, T=24, k=3)
            cfg = AbcConfig(rng_seed=seed, k_max=6)
            trace = self.assert_matches_reference(panel, cfg)
            assert trace.fallback == [None] * cfg.P and trace.r_hat_final == 3
            for plateaus, idx in zip(trace.plateaus, trace.chosen_c_index):
                start, end, r = plateaus[0]
                if start == 0 and r == 3:
                    assert idx == end // 2
                    at_c0 += 1
        assert at_c0

    def test_fixed_c1_fallback_gives_k_max(self):
        # at 1e4 times DGP 1 every c of the grid selects k_max on the full panel,
        # c = 1 (C_GRID[20]) included, so no c can be read off the table
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=20, T=60, seed=3))
        panel = Panel(panel.spaces, [1e4 * c for c in panel.coeffs])
        cfg = AbcConfig(rng_seed=0)
        r, trace = abc_select_r(panel, cfg, "IC2a")
        assert trace.fallback == ["fixed_c1"] * 5
        assert trace.chosen_c_index == [None] * 5 and trace.chosen_c == [None] * 5
        assert trace.r_hat_per_p == [10] * 5 and r == 10
        assert np.all(trace.r_hat_table[:, -1] == 10)
        assert C_GRID[20] == 1.0 and select_r_fixed(panel, 1.0, "IC2a", 10) == 10

    def test_min_variance_fallback(self):
        # no plateau off c = 0 in any permutation: each reads the least-variance
        # c among those where the full panel selects fewer than k_max = 4
        panel = noise_panel(66)
        cfg = AbcConfig(rng_seed=66, k_max=4)
        r, trace = abc_select_r(panel, cfg, "IC2a")
        assert trace.fallback == ["min_variance"] * 5
        assert trace.chosen_c_index == [192, 192, 192, 192, 197]
        below = np.flatnonzero(trace.r_hat_table[:, -1, 0] < cfg.k_max)
        for p, idx in enumerate(trace.chosen_c_index):
            variance = trace.variance_profile[below, p]
            assert idx == below[np.flatnonzero(variance == variance.min())[0]]
            assert trace.r_hat_per_p[p] == trace.r_hat_table[idx, -1, p]
        assert r == sorted(trace.r_hat_per_p)[2]


def per_subpanel_r_table(panel, cfg, kind="IC2a"):
    """Reference for the proper-subpanel columns of the r-hat table: one
    concatenation, eigvalsh, V profile and argmin per (permutation, subpanel)."""
    Z, off = panel.stacked_white(), panel.offsets
    sizes, ks = nested_subpanel_sizes(panel.N, panel.T), np.arange(1, cfg.k_max + 1)
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
            self.assert_matches_reference(panel, AbcConfig(rng_seed=seed), kind)

    def test_mixed_bspline_panel(self):
        panel = mixed_bspline_panel()
        for seed in range(3):
            cfg = AbcConfig(rng_seed=seed)
            self.assert_matches_reference(panel, cfg)

    def test_mortality_windows(self):
        for panel in mortality_windows():
            self.assert_matches_reference(panel, AbcConfig(rng_seed=1))

    def test_one_eigvalsh_per_permutation_on_short_panels(self, monkeypatch):
        panel = mortality_windows()[-1]
        cfg = AbcConfig(rng_seed=0)
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        abc_select_r(panel, cfg)
        assert calls == [(9, 39, 39)] * cfg.P

    @pytest.mark.parametrize("N, grams, digest", [
        (12, 15, "d6b74d7b281a4776d601465803a68bfd55b3ad5c06fdfae4abcbcf3be99c2e07"),
        (50, 45, "ec78a70ae32298d91497c047d2890c220182f7d239e575f6a4155a4f63f83f14"),
    ], ids=["N12", "N50"])
    def test_one_eigensolve_per_distinct_subpanel_size(self, monkeypatch, tmp_path, N, grams,
                                                       digest):
        # N = 12 has 3 distinct proper subpanel sizes of 9, N = 50 all 9: each
        # is one Gram per permutation; the digest is of the trace file written
        # when every one of the nine was solved
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=N, T=60, seed=8))
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        _, trace = abc_select_r(panel, AbcConfig())
        assert sum(math.prod(shape[:-2]) for shape in calls) == grams
        save_trace(trace, tmp_path / "trace.json", {})
        assert hashlib.sha256((tmp_path / "trace.json").read_bytes()).hexdigest() == digest

    def test_memory_within_the_byte_budget(self, monkeypatch):
        # mc-grid's largest cell, serial as in its bench workers
        monkeypatch.setenv("HDFFM_THREADS", "1")
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=100, T=200, seed=3))
        cfg = AbcConfig(rng_seed=0)
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
        # two threads hold one running sum (8T^2 bytes) and at most one stack
        # each; a runner that keeps a finished task's stack until its next take
        # stays within this bound at T = 200, and
        # TestRunInOrder::test_a_task_is_dropped_before_the_next_take sees it
        monkeypatch.setenv("HDFFM_THREADS", "2")
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=100, T=200, seed=3))
        cfg = AbcConfig(rng_seed=0)
        panel.gram_spectrum()

        def peak(fn):
            tracemalloc.start()
            try:
                fn(panel, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = peak(per_subpanel_r_table) + 8 * panel.T**2 + 2 * _CHUNK_BYTES
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
    """The permutations run on threads where a permutation's largest
    eigensolve stack returns more than 500 values (T >= 56 at N >= 41, where
    a permutation solves nine Grams); nothing a caller sees depends on it."""

    @pytest.mark.parametrize("cpus, cap", [(3, 3), (None, 1)])
    def test_default_cap_without_affinity(self, monkeypatch, cpus, cap):
        # where os.sched_getaffinity is missing, the CPU count, or 1 if unknown
        monkeypatch.delenv("HDFFM_THREADS", raising=False)
        monkeypatch.delattr(select.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(select.os, "cpu_count", lambda: cpus)
        assert select.thread_cap() == cap

    @staticmethod
    def outputs(make_panel, cap, monkeypatch):
        monkeypatch.setenv("HDFFM_THREADS", cap)
        panel = make_panel()  # a fresh panel: its own spectrum is a task too
        r, trace = abc_select_r(panel, AbcConfig(rng_seed=2))
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
        abc_select_r(panel, AbcConfig())
        assert len(idents) == 5 and threading.get_ident() not in idents

    @pytest.mark.parametrize("N, T, pooled", [
        (50, 100, True), (50, 56, True), (50, 55, False), (12, 100, False),
        (50, 253, True), (50, 240, False),
    ])
    def test_threads_where_a_stack_returns_over_500_values(self, monkeypatch, N, T, pooled):
        # one stack of nine Grams at N = 50 (9T values) and of three at N = 12
        # (3T); at T = 210..256 stacks of two Grams (2T) and a last of one
        monkeypatch.setenv("HDFFM_THREADS", "2")
        idents = record_threads(monkeypatch)
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=N, T=T, seed=5))
        abc_select_r(panel, AbcConfig())
        main = threading.get_ident()
        assert len(idents) == 5 and (main not in idents if pooled else set(idents) == {main})

    def test_serial_on_mortality_windows(self, monkeypatch):
        monkeypatch.setenv("HDFFM_THREADS", "2")
        idents = record_threads(monkeypatch)
        for panel in mortality_windows():
            abc_select_r(panel, AbcConfig())
        assert idents and set(idents) == {threading.get_ident()}

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_k_max_checked_before_any_task(self, monkeypatch, cap):
        monkeypatch.setenv("HDFFM_THREADS", cap)
        idents = record_threads(monkeypatch)
        panel = Panel([scalar_space()] * 5, np.random.default_rng(0).standard_normal((5, 130, 1)))
        with pytest.raises(ValueError, match="k_max=6 out of range"):
            abc_select_r(panel, AbcConfig(k_max=6))
        assert idents == [] and panel._spectrum is None

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_first_failing_permutation_raises(self, monkeypatch, cap):
        # permutation 1 fails after permutation 3 does, but is raised first
        monkeypatch.setenv("HDFFM_THREADS", cap)
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=50, T=200, seed=5))
        cfg = AbcConfig(rng_seed=0)
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
        # permutations, 2 fails with its first subpanel's rank bound 9 (its
        # first nine series scalars) and 3 with 11 (the 3-dim series among them)
        monkeypatch.setenv("HDFFM_THREADS", cap)
        idents = record_threads(monkeypatch)
        rng = np.random.default_rng(4)
        spaces = [functional_space(20), functional_space(3)] + [scalar_space()] * 10
        panel = Panel(spaces, [rng.standard_normal((260, s.dim)) for s in spaces])
        cfg = AbcConfig(k_max=14, P=4, rng_seed=7)
        with pytest.raises(ValueError, match=r"min\(9, 260\) of subpanel 1"):
            abc_select_r(panel, cfg)
        assert idents == []

    def test_bitwise_at_caps_1_2_3(self, monkeypatch):
        # 3 eigensolve stacks per permutation, and AR rows over at least 3 chunks
        make_panel = lambda: gen_dgp(DgpConfig(dgp=1, N=50, T=200, seed=11))[0]  # noqa: E731
        threads = threading.active_count()
        serial = self.outputs(make_panel, "1", monkeypatch)
        rows = len(serial[-1])
        assert len(stack_runs([200 - 5] * rows, lambda t_eff: 8 * t_eff * (5 + 2))) >= 3
        for cap in ("2", "3"):
            assert self.outputs(make_panel, cap, monkeypatch) == serial
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_first_failing_stack_raises(self, monkeypatch, cap):
        # stack 2 of permutation 1 fails after stack 1 of permutation 3 does,
        # but is raised first; no pool thread outlives the call
        monkeypatch.setenv("HDFFM_THREADS", cap)
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=50, T=200, seed=5))
        cfg = AbcConfig(rng_seed=0)
        perms = [np.random.default_rng(p).permutation(50) for p in range(cfg.P)]
        spectra = select._subpanel_spectra

        def fail(p, s):
            if (p, s) == (1, 2):
                time.sleep(0.2)
            raise ValueError(f"stack {s} of permutation {p} failed")

        def failing(Z, offsets, perm, *args):
            p = next(i for i, q in enumerate(perms) if np.array_equal(q, perm))
            for s, task in enumerate(spectra(Z, offsets, perm, *args)):
                yield functools.partial(fail, p, s) if (p, s) in ((1, 2), (3, 1)) else task

        monkeypatch.setattr(select, "_subpanel_spectra", failing)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="stack 2 of permutation 1 failed"):
            abc_select_r(panel, cfg)
        assert threading.active_count() == threads


class TestSubpanelSpectra:
    def test_a_stack_is_dropped_with_its_task(self):
        # once a yielded task is dropped, the generator holds none of its stack
        # while it reads the rows of the next stack's sums
        refs, alive = [], []

        class Rows(np.ndarray):
            def __getitem__(self, index):
                alive.append([ref() is not None for ref in refs])
                return super().__getitem__(index)

        # nine subpanels in three stacks of three Grams, as at T = 200
        Z = np.random.default_rng(0).standard_normal((9, 200)).view(Rows)
        stacks = np.arange(1, 10).reshape(3, 3)
        rows = np.arange(10)  # series i is row i, in order and permuted
        for task in select._subpanel_spectra(Z, rows, np.arange(9), rows, stacks, 2):
            refs.append(weakref.ref(task.args[0]))
            task()
            del task
        assert alive == [[]] * 3 + [[False]] * 3 + [[False, False]] * 3


class TestRunInOrder:
    """``select.run_in_order``, the one task runner of the tuned selection."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_results_in_order(self, threads):
        # later tasks end first; no pool thread outlives the call
        active = threading.active_count()
        tasks = [lambda i=i: time.sleep(0.002 * (6 - i)) or i for i in range(7)]
        assert run_in_order(tasks, threads) == list(range(7))
        assert run_in_order((lambda i=i: i * i for i in range(5)), threads) == [0, 1, 4, 9, 16]
        assert run_in_order([], threads) == []
        assert run_in_order(iter(()), threads) == []
        assert threading.active_count() == active

    @pytest.mark.parametrize("threads", [2, 3])
    def test_one_take_at_a_time_and_at_most_threads_running(self, threads):
        lock, taking, running = threading.Lock(), [0, 0], [0, 0]  # now, most

        def enter(count):
            with lock:
                count[0] += 1
                count[1] = max(count)

        def leave(count):
            with lock:
                count[0] -= 1

        def task():
            enter(running)
            time.sleep(0.005)
            leave(running)

        def tasks():
            for _ in range(12):
                enter(taking)
                time.sleep(0.001)
                leave(taking)
                yield task

        run_in_order(tasks(), threads)
        assert taking[1] == 1 and 2 <= running[1] <= threads

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_task_is_dropped_before_the_next_take(self, threads):
        # so a call holds at most `threads` tasks, the one being taken among them
        held, most = weakref.WeakSet(), [0]

        class Task:
            def __call__(self):
                time.sleep(0.002)

        def make():
            most[0] = max(most[0], len(held) + 1)
            task = Task()
            held.add(task)
            return task

        run_in_order((make() for _ in range(20)), threads)
        assert most[0] <= threads

    def test_next_task_taken_while_the_current_one_runs(self):
        # the second task is taken, and runs, while the first waits for it
        second_ran = threading.Event()
        assert run_in_order([lambda: second_ran.wait(5), second_ran.set], 2) == [True, None]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_late_failure_before_a_failing_take_raises(self, threads):
        def fail_late():
            time.sleep(0.2)
            raise ValueError("task 0 failed")

        def tasks(first):
            yield first
            raise RuntimeError("take 1 failed")

        with pytest.raises(ValueError, match="task 0 failed"):
            run_in_order(tasks(fail_late), threads)
        # a failed take counts as the last one
        with pytest.raises(RuntimeError, match="take 1 failed"):
            run_in_order(tasks(lambda: time.sleep(0.05)), threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_nothing_taken_after_a_failure(self, threads):
        # a take may come between task 2's take and its failure, none after
        active, taken = threading.active_count(), []

        def fail():
            raise ValueError("task 2 failed")

        def tasks():
            for i in range(100):
                taken.append(i)
                yield fail if i == 2 else functools.partial(time.sleep, 0.05)

        with pytest.raises(ValueError, match="task 2 failed"):
            run_in_order(tasks(), threads)
        assert taken[:3] == [0, 1, 2] and len(taken) <= 2 + threads
        assert threading.active_count() == active


def count_eigensolves(monkeypatch):
    """Wrap numpy's ``eigvalsh`` and ``eigh`` to count their calls by name."""
    calls = collections.Counter()
    for name in ("eigvalsh", "eigh"):
        def counting(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestChecksBeforeEigensolves:
    """A selection checks everything it accepts (``select._check_selection``)
    before its first eigensolve and its first permutation task."""

    @pytest.mark.parametrize("cap", ["1", "2"])
    @pytest.mark.parametrize("N, T, message", [
        (2, 300, "subpanel 1 (1 series x 300 periods): penalty requires N, T >= 2"),
        (1, 30, "invalid subpanel size (0, 30)"),
    ], ids=["no-subpanel-penalty", "one-series"])
    def test_tuned(self, monkeypatch, cap, N, T, message):
        monkeypatch.setenv("HDFFM_THREADS", cap)
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=N, T=T, seed=1))
        calls, idents = count_eigensolves(monkeypatch), record_threads(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(message)):
            abc_select_r(panel, AbcConfig(k_max=3))
        with pytest.raises(ValueError):
            tnh_forecast(panel, ForecastConfig(horizon=1))
        assert calls == {} and idents == []

    def test_fixed(self, monkeypatch):
        panel = Panel([scalar_space()], [np.array([[1.0], [2.0]])])  # N = 1, T = 2
        calls = count_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match=re.escape("penalty requires N, T >= 2")):
            select_r_fixed(panel, 1.0, "IC1a", 1)
        assert calls == {}

    def test_tuned_forecast_on_two_series(self, monkeypatch):
        # the forecast tunes with the largest k_max the subpanels accept (7, one
        # 7-dim series), so the first check to fail is the subpanel penalty
        panel, _ = gen_dgp(DgpConfig(dgp=1, N=2, T=300, seed=1))
        calls, idents = count_eigensolves(monkeypatch), record_threads(monkeypatch)
        message = "subpanel 1 (1 series x 300 periods): penalty requires N, T >= 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            tnh_forecast(panel, ForecastConfig(horizon=1))
        assert calls == {} and idents == []


class TestLargestKMax:
    """``select._largest_k_max``: the k_max a tuned forecast selects with."""

    def test_ten_where_every_subpanel_accepts_it(self):
        for N, T in [(50, 200), (47, 24), (13, 100)]:
            cfg = AbcConfig(rng_seed=3)
            assert select._largest_k_max((1,) * N, T, cfg) == 10

    def test_the_least_subpanel_rank_bound(self):
        # the panel of test_first_rank_bound_error_raises: permutation 2's
        # first subpanel bounds k_max by 9
        spaces = [functional_space(20), functional_space(3)] + [scalar_space()] * 10
        rng = np.random.default_rng(4)
        panel = Panel(spaces, [rng.standard_normal((260, s.dim)) for s in spaces])
        cfg = AbcConfig(k_max=14, P=4, rng_seed=7)
        assert select._largest_k_max(panel.dims, panel.T, cfg) == 9
        abc_select_r(panel, AbcConfig(k_max=9, P=4, rng_seed=7))
        with pytest.raises(ValueError, match="k_max=10 exceeds"):
            abc_select_r(panel, AbcConfig(k_max=10, P=4, rng_seed=7))

    def test_sizes_checked_first(self):
        with pytest.raises(ValueError, match=re.escape("invalid subpanel size (0, 30)")):
            select._largest_k_max((7,), 30, AbcConfig())
